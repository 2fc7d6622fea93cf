"""Exact diagonalization, sector restriction, and the paired encoding.

The Davidson solve (``exact._davidson``) is the only eigensolver. Its
property tests run Hamiltonians of random integrals on N and (N, S_z)
sectors of 3-252 states, with a shrunken subspace that makes every solve
restart, and paired Hamiltonians of 3-70 states. Small cases cover a zero
operator, dimension 1, a degenerate ground state, a ground state orthogonal
to the start's determinant, ground states 1-2 mHa below the lowest state of
the start determinant's symmetry block (of an integral and of a paired
Hamiltonian, against dense oracle matrices) and the matrix-vector cap. The
paired Hamiltonian's entries are checked against the seniority-zero
projection of the reference Jordan-Wigner image, on sectors and on bases
that drop some pair moves, and against the closed form in
``build_paired_hamiltonian``'s docstring. The one sector rule, spin
strings spread by ``exact._spread``, is checked against a brute-force
filter of every register bitmask (``ci_oracle.register_sector``) on every
sector of up to 12 qubits. Examples are derandomized.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pnovqe as pq
from pnovqe import exact as exact_mod, simulator as simulator_mod
from pnovqe.ansatz import build_paired_ansatz
from pnovqe.exact import IntegralHamiltonian, SectorBasis, _sector_operator

from ci_oracle import (
    eigenvalues_dense, paired_register_matrix, random_integral_set, reference_build_hamiltonian,
    reference_jordan_wigner, register_sector, seniority_zero_projection, slater_condon_matrix,
)
from conftest import CountingMatrix, sector_matrix


def integral_set(h, eri=None, core=0.0) -> pq.IntegralSet:
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    eri = np.zeros((n,) * 4) if eri is None else eri
    return pq.IntegralSet(n_orb=n, h=h, eri=eri, core_energy=core, n_electrons=2)


class TestExactGroundEnergy:
    def test_one_electron_closed_form(self):
        # one spin-up electron: the sector energies are core + the eigenvalues of h
        h = [[-1.0, 0.3], [0.3, 0.5]]
        energy, _ = pq.exact_ground_energy(IntegralHamiltonian(integral_set(h, core=0.25)),
                                           pq.sector_basis(4, 1, two_sz=1))
        assert energy == pytest.approx(0.25 + np.linalg.eigvalsh(h)[0], abs=1e-12)

    def test_constant_operator(self):
        hamiltonian = IntegralHamiltonian(integral_set(np.zeros((1, 1)), core=-2.75))
        energy, _ = pq.exact_ground_energy(hamiltonian, pq.sector_basis(2, 1))
        assert energy == pytest.approx(-2.75)

    def test_h2_pin_and_sector_consistency(self, h2_sto3g):
        e_full = eigenvalues_dense(h2_sto3g["hamiltonian"])[0]
        sector = pq.sector_basis(4, 2, two_sz=0)
        e_sector, _ = pq.exact_ground_energy(IntegralHamiltonian(h2_sto3g["mo"]), sector)
        assert e_sector == pytest.approx(e_full, abs=1e-10)
        assert e_full == pytest.approx(-1.1372759431, abs=1e-8)  # frozen regression

    def test_minimum_over_sectors_equals_full(self):
        mo = random_integral_set(2, 2, 40)
        e_full = eigenvalues_dense(pq.jordan_wigner(pq.build_hamiltonian(mo), 4))[0]
        sector_energies = []
        for n in range(5):
            energy, _ = pq.exact_ground_energy(IntegralHamiltonian(mo), pq.sector_basis(4, n))
            assert energy >= e_full - 1e-10
            sector_energies.append(energy)
        assert min(sector_energies) == pytest.approx(e_full, abs=1e-10)

    def test_empty_sector_rejected(self):
        with pytest.raises(ValueError, match="empty sector"):
            pq.sector_basis(2, 2, two_sz=2)
        with pytest.raises(ValueError, match="parity"):
            pq.sector_basis(2, 2, two_sz=1)

    def test_sector_of_another_register_rejected(self):
        hamiltonian = IntegralHamiltonian(integral_set(np.zeros((1, 1))))
        with pytest.raises(ValueError, match="register"):
            pq.exact_ground_energy(hamiltonian, pq.sector_basis(4, 2, 0))

    def test_pauli_sum_rejected_by_the_exact_solve_and_the_vqe(self, h2_sto3g):
        # the engine applies the integrals, never a Pauli sum
        pauli_sum = pq.jordan_wigner(pq.build_hamiltonian(h2_sto3g["mo"]), 4)
        expected = "IntegralHamiltonian or PairedHamiltonian expected, got QubitOperator"
        with pytest.raises(TypeError, match=expected):
            pq.exact_ground_energy(pauli_sum, pq.sector_basis(4, 2, 0))
        with pytest.raises(TypeError, match=expected):
            pq.run_vqe(pauli_sum, pq.build_upccgsd(2, 2))

    def test_asymmetric_integrals_rejected(self):
        # every sector matrix is real symmetric because no other integrals get in
        with pytest.raises(ValueError, match="h must be symmetric"):
            integral_set([[0.0, 0.1], [0.2, 0.0]])
        eri = np.zeros((2,) * 4)
        eri[0, 0, 1, 1] = 0.3
        with pytest.raises(ValueError, match="8-fold"):
            integral_set(np.zeros((2, 2)), eri)

    def test_basis_out_of_order_or_outside_the_register_rejected(self):
        # states are located by searchsorted: a reversed basis solved to 0.0
        mo = random_integral_set(3, 2, 4)
        basis = pq.sector_basis(6, 2, 0)
        energy, _ = pq.exact_ground_energy(IntegralHamiltonian(mo), basis)
        assert energy == pytest.approx(-4.644260867743372, abs=1e-12)
        bad = [(6, basis.states[::-1]), (2, [1, 2, 8]), (2, [1, 1, 2]), (2, [-1, 1]), (2, [4])]
        for n_qubits, states in bad:
            with pytest.raises(ValueError, match="strictly increasing bitmasks of the register"):
                SectorBasis(n_qubits, np.array(states, dtype=np.int64))
        with pytest.raises(ValueError, match="empty sector basis"):
            SectorBasis(2, np.zeros(0, dtype=np.int64))
        assert SectorBasis(2, np.arange(4)).dim == 4

    def test_residual_certified(self, h2_sto3g):
        hamiltonian = IntegralHamiltonian(h2_sto3g["mo"])
        sector = pq.sector_basis(4, 2, two_sz=0)
        energy, vector = pq.exact_ground_energy(hamiltonian, sector)
        mat = sector_matrix(hamiltonian, sector)
        assert np.linalg.norm(mat @ vector - energy * vector) < 1e-8


class TestByteEstimate:
    def test_an_n_sector_is_estimated_over_all_its_spin_grids(self, monkeypatch):
        # C(2,0) C(2,2) + C(2,1)^2 + C(2,2) C(2,0) = 6 states of the 4-qubit N = 2 sector, whose
        # determinants have 0 + 2 * 1, 2 * 2 and 2 * 1 + 0 one-spin moves: 20 table slots
        need = 24 * 20 + 8 * (2 * 3 + 2 * 24) * 6 + (100 << 20)
        hamiltonian, basis = IntegralHamiltonian(random_integral_set(2, 2, 0)), pq.sector_basis(4, 2)
        monkeypatch.setattr(exact_mod, "_physical_bytes", lambda: need - 1)
        with pytest.raises(ValueError, match=rf"of 0 \+ 2 or 1 \+ 1 or 2 \+ 0 electrons in 2 orbitals "
                                             rf"needs about {need} bytes"):
            pq.exact_ground_energy(hamiltonian, basis)
        monkeypatch.setattr(exact_mod, "_physical_bytes", lambda: need)
        pq.exact_ground_energy(hamiltonian, basis)

    def test_a_pair_basis_is_estimated_as_strings(self, monkeypatch):
        # 2 pairs in 4 orbitals: C(4, 2) = 6 pair states of 2 * 3 moves each
        need = 24 * 36 + 8 * (4 * 5 + 2 * 24) * 6 + (100 << 20)
        monkeypatch.setattr(exact_mod, "_physical_bytes", lambda: need - 1)
        with pytest.raises(ValueError, match=rf"of 2 \+ 0 electrons in 4 orbitals needs about {need} bytes"):
            pq.exact_ground_energy(pq.build_paired_hamiltonian(random_integral_set(4, 2, 0)),
                                   pq.sector_basis(4, 2))

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.data())
    def test_sector_basis_admits_exactly_what_the_string_sigma_needs(self, data):
        # need: the sigma's estimate over the spin grids _grids finds in the basis
        n_orb = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(0, 2 * n_orb))
        two_sz = data.draw(st.sampled_from([None, *range(max(-n, n - 2 * n_orb), min(n, 2 * n_orb - n) + 1, 2)]))
        basis = pq.sector_basis(2 * n_orb, n, two_sz)
        grids = [(up, down) for up, down, *_ in exact_mod._grids(basis)]
        need = (100 << 20) + sum(math.comb(n_orb, up) * math.comb(n_orb, down) * 8 * (
            3 * (up * (n_orb + 1 - up) + down * (n_orb + 1 - down)) + n_orb * (n_orb + 1) + 48) for up, down in grids)
        refusal = (f"the exact solve of {' or '.join(f'{u} + {d}' for u, d in grids)} electrons in {n_orb} "
                   f"orbitals needs about {need} bytes, past the {need - 1} bytes of physical memory")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exact_mod, "_physical_bytes", lambda: need - 1)
            with pytest.raises(ValueError) as info:
                pq.sector_basis(2 * n_orb, n, two_sz)
            assert str(info.value) == refusal
            patch.setattr(exact_mod, "_physical_bytes", lambda: need)
            assert pq.sector_basis(2 * n_orb, n, two_sz) is basis

    def test_the_vqe_is_refused_before_its_sector_or_factors_are_built(self, monkeypatch):
        # the sector was once enumerated, every circuit factor built and the grids
        # enumerated again before the sigma refused it
        built = []
        for module, name in ((exact_mod, "_grid"), (exact_mod, "_factors"), (simulator_mod, "_factors")):
            function = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, f=function, n=name: built.append(n) or f(*args))
        monkeypatch.setattr(exact_mod, "_physical_bytes", lambda: 1 << 20)
        with pytest.raises(ValueError, match="past the 1048576 bytes of physical memory$"):
            pq.run_vqe(IntegralHamiltonian(random_integral_set(4, 4, 0)), pq.build_upccgsd(4, 4))
        assert built == []


class TestSectorRule:
    @pytest.mark.parametrize("n_qubits", range(13))
    def test_sectors_match_the_register_filter(self, n_qubits):
        # every N and 2S_z, and one past each end: a wrong parity and an
        # empty sector are refused
        for n in range(-1, n_qubits + 2):
            for two_sz in [None, *range(-n_qubits - 1, n_qubits + 2)]:
                expected = register_sector(n_qubits, n, two_sz)
                if two_sz is not None and (n + two_sz) % 2:
                    with pytest.raises(ValueError, match="parity"):
                        pq.sector_basis(n_qubits, n, two_sz)
                elif not expected:
                    with pytest.raises(ValueError, match="empty sector"):
                        pq.sector_basis(n_qubits, n, two_sz)
                else:
                    basis = pq.sector_basis(n_qubits, n, two_sz)
                    assert basis.states.dtype == np.int64 and not basis.states.flags.writeable
                    assert basis.states.tolist() == expected

    @pytest.mark.parametrize("n_qubits", range(13))
    def test_n_sector_is_the_sorted_union_of_its_sz_sectors(self, n_qubits):
        for n in range(n_qubits + 1):
            splits = [pq.sector_basis(n_qubits, n, 2 * n_up - n).states for n_up in range(n + 1)
                      if n_up <= (n_qubits + 1) // 2 and n - n_up <= n_qubits // 2]
            union = np.sort(np.concatenate(splits))
            assert np.array_equal(pq.sector_basis(n_qubits, n).states, union)

    def test_a_register_past_the_int64_masks_is_refused_first(self):
        # 70 qubits once failed as "basis states must be strictly increasing bitmasks of the register"
        with pytest.raises(ValueError, match="^int64 bitmask states hold at most 63 qubits$"):
            pq.sector_basis(70, 2, 0)
        with pytest.raises(ValueError, match="at most 63 qubits"):
            pq.sector_basis(64, 2, 1)   # before the parity
        assert pq.sector_basis(63, 2, 0).dim == 32 * 31

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20))
    def test_spread_moves_bit_p_to_bit_2p(self, strings):
        expected = [sum(((s >> p) & 1) << 2 * p for p in range(32)) for s in strings]
        assert [exact_mod._spread(s) for s in strings] == expected
        assert exact_mod._spread(np.array(strings, dtype=np.int64)).tolist() == expected


ITERATIVE = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@st.composite
def sector_hamiltonians(draw, orbitals=(2, 3), edge=1):
    """(Hamiltonian of random integrals, a sector of at least 3 states of its register).

    The sector is the N sector, or the (N, S_z) sector of the least |S_z|
    when that holds 3 states or more.
    """
    n_orb = draw(st.integers(*orbitals))
    n = draw(st.integers(edge, 2 * n_orb - edge))
    basis = pq.sector_basis(2 * n_orb, n, n % 2 if draw(st.booleans()) else None)
    if basis.dim < 3:
        basis = pq.sector_basis(2 * n_orb, n)
    mo = random_integral_set(n_orb, 2, draw(st.integers(0, 10_000)))
    return IntegralHamiltonian(mo), basis


def _check_iterative_solve(hamiltonian, basis):
    mat = sector_matrix(hamiltonian, basis)
    energy, vector = pq.exact_ground_energy(hamiltonian, basis)
    again, vector_again = pq.exact_ground_energy(hamiltonian, basis)
    assert abs(energy - np.linalg.eigvalsh(mat)[0]) < 1e-10
    assert np.linalg.norm(mat @ vector - energy * vector) < 1e-8
    assert vector.dtype == mat.dtype == np.float64
    assert again == energy and np.array_equal(vector_again, vector)


@ITERATIVE
@given(sector_hamiltonians())
def test_iterative_solve_matches_the_dense_spectrum(case):
    _check_iterative_solve(*case)


@ITERATIVE
@given(sector_hamiltonians(orbitals=(5, 5), edge=4))
def test_restarted_iterative_solve_matches_the_dense_spectrum(case):
    # a subspace of 6 vectors restarts on 4 Ritz vectors every 2 products
    counting = CountingMatrix(_sector_operator(*case))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_mod, "_DAVIDSON_SUBSPACE", 6)
        exact_mod._davidson(counting)
        _check_iterative_solve(*case)
    assert counting.matvecs > 6


@st.composite
def paired_sectors(draw):
    """(Paired Hamiltonian of random integrals, a pair-count sector of at least 3 states)."""
    n_orb = draw(st.integers(3, 8))
    basis = pq.sector_basis(n_orb, draw(st.integers(1, n_orb - 1)))
    mo = random_integral_set(n_orb, 2, draw(st.integers(0, 10_000)))
    return pq.build_paired_hamiltonian(mo), basis


@ITERATIVE
@given(paired_sectors())
def test_iterative_solve_of_the_paired_hamiltonian_matches_the_dense_spectrum(case):
    _check_iterative_solve(*case)


def _iterative_solve(h, basis):
    """The iterative solve of one-electron integrals ``h`` on ``basis``, and its matrix."""
    hamiltonian = IntegralHamiltonian(integral_set(h))
    energy, vector = pq.exact_ground_energy(hamiltonian, basis)
    return energy, vector, sector_matrix(hamiltonian, basis)


def test_iterative_solve_of_an_operator_that_vanishes_on_the_sector():
    energy, vector, _ = _iterative_solve(np.zeros((2, 2)), pq.sector_basis(4, 1))
    assert energy == 0.0 and np.linalg.norm(vector) == pytest.approx(1.0)


def test_iterative_solve_of_dimension_one():
    energy, vector, _ = _iterative_solve([[-0.7]], pq.sector_basis(2, 1, two_sz=1))
    assert energy == pytest.approx(-0.7, abs=1e-14) and abs(vector[0]) == pytest.approx(1.0)


@pytest.mark.parametrize("h", [np.diag([-1.0, -1.0, 0.5]), [[0.2, -0.6, 0.1], [-0.6, 0.3, 0.4],
                                                          [0.1, 0.4, -0.5]]])
def test_iterative_solve_of_a_degenerate_ground_state(h):
    # one electron of either spin: every orbital energy twice; the diagonal h
    # is its own preconditioner, where only Olsen's correction adds a new vector
    energy, vector, mat = _iterative_solve(h, pq.sector_basis(6, 1))
    assert energy == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)
    assert np.linalg.norm(mat @ vector - energy * vector) < 1e-8


def test_iterative_solve_of_a_ground_state_orthogonal_to_the_start_determinant():
    # the lowest diagonal entry (-1, orbital 0) is its own block; the ground
    # state, -3, lives on orbitals 1 and 2, and only the admixture reaches it
    h = [[-1.0, 0.0, 0.0], [0.0, 0.0, -3.0], [0.0, -3.0, 0.0]]
    energy, vector, _ = _iterative_solve(h, pq.sector_basis(6, 1, two_sz=1))
    assert energy == pytest.approx(-3.0, abs=1e-12)
    assert abs(vector[0]) < 1e-9


def _cross_block_case(matrix, block, got):
    """Check a solve whose ground state lies outside the block of the lowest diagonal entry, just below it."""
    start = block == block[np.argmin(np.diag(matrix))]
    ground = np.linalg.eigh(matrix)
    assert not start[np.argmax(np.abs(ground.eigenvectors[:, 0]))]
    # the start's block holds a state 1-2 mHa above the ground state: only the admixture reaches below it
    assert 1e-3 < np.linalg.eigvalsh(matrix[np.ix_(start, start)])[0] - ground.eigenvalues[0] < 2e-3
    assert abs(got - ground.eigenvalues[0]) < 1e-10


def test_iterative_solve_reaches_a_nearly_degenerate_ground_state_in_another_symmetry_block():
    # orbitals 1 and 3 odd, 0 and 2 even: integrals of odd parity vanish, so the
    # parity of the electrons in odd orbitals is conserved; a shift of the odd
    # orbitals puts the odd-parity ground state 1.05 mHa below the even one
    odd = np.array([0, 1, 0, 1])
    base = random_integral_set(4, 4, 1)
    h = np.where(odd[:, None] == odd, base.h, 0.0) - 0.009 * np.diag(odd)
    kept = (odd[:, None, None, None] ^ odd[None, :, None, None] ^ odd[None, None, :, None] ^ odd) == 0
    mo = pq.IntegralSet(4, h, np.where(kept, base.eri, 0.0), base.core_energy, 4)
    basis = pq.sector_basis(8, 4, 0)
    energy, _ = pq.exact_ground_energy(IntegralHamiltonian(mo), basis)
    states = [int(state) for state in basis.states]
    parity = np.array([(state & 0b11001100).bit_count() % 2 for state in states])
    _cross_block_case(slater_condon_matrix(mo, states), parity, energy)


def test_iterative_solve_of_the_paired_hamiltonian_reaches_a_ground_state_in_another_block():
    # two fragments, orbitals 0-1 and 2-3, with no integral that joins their
    # densities: no pair hops between them, so each keeps its pair count; a
    # shift of fragment 2-3 puts the ground state, one pair in each fragment,
    # 1.76 mHa below the state with both pairs in fragment 2-3
    fragment = np.array([0, 0, 1, 1])
    base = random_integral_set(4, 4, 3)
    h = np.where(fragment[:, None] == fragment, base.h, 0.0) - 0.7205 * np.diag(fragment)
    kept = ((fragment[:, None, None, None] == fragment[None, :, None, None])
            & (fragment[None, None, :, None] == fragment))
    mo = pq.IntegralSet(4, h, np.where(kept, base.eri, 0.0), base.core_energy, 4)
    energy, _ = pq.exact_ground_energy(pq.build_paired_hamiltonian(mo), pq.sector_basis(4, 2))
    states = [state for state in range(16) if state.bit_count() == 2]
    matrix = paired_register_matrix(mo).real[np.ix_(states, states)]
    _cross_block_case(matrix, np.array([(state & 0b1100).bit_count() for state in states]), energy)


def test_iterative_solve_past_its_matrix_vector_cap_is_an_error(monkeypatch):
    monkeypatch.setattr(exact_mod, "_DAVIDSON_MAX_MATVECS", 2)
    mo = random_integral_set(4, 2, 3)
    with pytest.raises(RuntimeError, match="Davidson unconverged after 2 matrix-vector products"):
        _check_iterative_solve(IntegralHamiltonian(mo), pq.sector_basis(8, 2, 0))


def paired_spectrum(hamiltonian) -> np.ndarray:
    """Every eigenvalue of a paired Hamiltonian, over the sectors of each pair count."""
    n = hamiltonian.n_qubits
    blocks = [sector_matrix(hamiltonian, pq.sector_basis(n, k)) for k in range(n + 1)]
    return np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in blocks]))


PAIRED = settings(derandomize=True, database=None, max_examples=30, deadline=None)


class TestPairedHamiltonian:
    def test_one_orbital_closed_form(self):
        h = np.array([[-1.1]])
        g = np.full((1, 1, 1, 1), 0.6)
        hp = pq.build_paired_hamiltonian(integral_set(h, g, core=0.25))
        np.testing.assert_allclose(paired_spectrum(hp), np.sort([0.25, 0.25 - 2.2 + 0.6]),
                                   atol=1e-12)

    def test_zero_two_electron_terms(self):
        hp = pq.build_paired_hamiltonian(integral_set(np.diag([-1.0, -0.4])))
        expected = np.sort([0.0, -2.0, -0.8, -2.8])
        np.testing.assert_allclose(paired_spectrum(hp), expected, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_projection_equivalence(self, seed):
        mo = random_integral_set(3, 2, seed)
        full = reference_jordan_wigner(reference_build_hamiltonian(mo), 6)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(seniority_zero_projection(full, 3)),
            paired_spectrum(pq.build_paired_hamiltonian(mo)),
            atol=1e-10,
        )

    @pytest.mark.parametrize("n_orb", [1, 2, 3, 4, 5])
    def test_matrix_matches_the_closed_form(self, n_orb):
        # build_paired_hamiltonian's docstring: pair energies 2 h_pp + (pp|pp),
        # pair-pair 4 (pp|qq) - 2 (pq|qp), and (pq|pq) moves a pair from p to q
        mo = random_integral_set(n_orb, 2, 20 + n_orb)
        h, eri = mo.h, mo.eri
        hp = pq.build_paired_hamiltonian(mo)
        for n_pairs in range(n_orb + 1):
            states = pq.sector_basis(n_orb, n_pairs).states
            expected = np.zeros((len(states), len(states)))
            for i, m in enumerate(states):
                occ = [p for p in range(n_orb) if m >> p & 1]
                expected[i, i] = mo.core_energy + sum(2 * h[p, p] + eri[p, p, p, p] for p in occ)
                expected[i, i] += sum(4 * eri[p, p, q, q] - 2 * eri[p, q, q, p]
                                      for p in occ for q in occ if p < q)
                for j, k in enumerate(states):
                    moved = int(m ^ k)
                    if moved.bit_count() == 2:
                        p, q = moved.bit_length() - 1, (moved & -moved).bit_length() - 1
                        expected[i, j] = eri[p, q, p, q]
            np.testing.assert_allclose(sector_matrix(hp, pq.sector_basis(n_orb, n_pairs)), expected,
                                       atol=1e-12, rtol=0)

    def test_matrix_is_kept_per_basis(self):
        hp = pq.build_paired_hamiltonian(random_integral_set(4, 4, 5))
        basis = pq.sector_basis(4, 2)
        mat = _sector_operator(hp, basis)
        assert _sector_operator(hp, SectorBasis(4, basis.states)) is mat
        assert mat.values.dtype == np.float64 and mat.shape == (6, 6)
        assert not mat.values.flags.writeable

    @PAIRED
    @given(st.integers(2, 5), st.integers(0, 10_000))
    def test_matrix_entries_match_the_seniority_zero_projection(self, n_orb, seed):
        mo = random_integral_set(n_orb, 2, seed)
        full = reference_jordan_wigner(reference_build_hamiltonian(mo), 2 * n_orb)
        projection = seniority_zero_projection(full, n_orb)
        assert not projection.imag.any()
        hp = pq.build_paired_hamiltonian(mo)
        assert hp.n_qubits == n_orb
        for n_pairs in range(n_orb + 1):
            basis = pq.sector_basis(n_orb, n_pairs)
            np.testing.assert_allclose(sector_matrix(hp, basis),
                                       projection.real[np.ix_(basis.states, basis.states)],
                                       atol=1e-12, rtol=0)

    @PAIRED
    @given(st.integers(2, 4), st.integers(0, 10_000), st.data())
    def test_moves_out_of_the_basis_are_dropped(self, n_orb, seed, data):
        # any sorted set of pair states: the matrix is the projection restricted to it
        mo = random_integral_set(n_orb, 2, seed)
        projection = paired_register_matrix(mo)
        states = sorted(data.draw(st.sets(st.integers(0, 2**n_orb - 1), min_size=1)))
        basis = SectorBasis(n_orb, np.array(states, dtype=np.int64))
        np.testing.assert_allclose(sector_matrix(pq.build_paired_hamiltonian(mo), basis),
                                   projection.real[np.ix_(states, states)], atol=1e-12, rtol=0)

    def test_paired_bound(self):
        mo = random_integral_set(3, 4, 9)
        e_full, _ = pq.exact_ground_energy(IntegralHamiltonian(mo), pq.sector_basis(6, 4, 0))
        e_pair, _ = pq.exact_ground_energy(pq.build_paired_hamiltonian(mo), pq.sector_basis(3, 2))
        assert e_pair >= e_full - 1e-10


class TestPairedAnsatzEquivalence:
    def test_vqe_energies_match_across_encodings(self):
        mo = random_integral_set(4, 4, 10)
        space = pq.OrbitalSpace(
            n_total=4, occupied=(0, 1),
            pno_assignment={2: (0, 0), 3: (1, 1)}, transform=np.eye(4),
        )
        full_ansatz = pq.build_pno_ansatz(space, "UpCCD")
        res_full = pq.run_vqe(IntegralHamiltonian(mo), full_ansatz)
        doubles = [g.orbitals for g in full_ansatz.generators]
        res_pair = pq.run_vqe(
            pq.build_paired_hamiltonian(mo),
            build_paired_ansatz([0, 1], doubles, 4),
        )
        assert res_pair.fun == pytest.approx(res_full.fun, abs=1e-8)

    def test_paired_rotation_strings_commute(self):
        gen = pq.make_paired_rotation(0, 3, 4)
        ((x1, z1), _), ((x2, z2), _) = gen.strings
        # an even count of qubits where one has X and the other Z
        assert ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2 == 0


class TestBasisRotationInvariance:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fci_invariant_under_virtual_rotation(self, seed):
        mo = random_integral_set(3, 2, seed, with_energies=False)
        rng = np.random.default_rng(seed + 100)
        # rotate the two virtual orbitals among themselves
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        u = np.eye(3)
        u[1:, 1:] = q
        rotated = pq.IntegralSet(
            n_orb=3,
            h=u.T @ mo.h @ u,
            eri=np.einsum("PQRS,Pp,Qq,Rr,Ss->pqrs", mo.eri, u, u, u, u, optimize=True),
            core_energy=mo.core_energy,
            n_electrons=2,
        )
        sector = pq.sector_basis(6, 2, two_sz=0)
        e0, _ = pq.exact_ground_energy(IntegralHamiltonian(mo), sector)
        e1, _ = pq.exact_ground_energy(IntegralHamiltonian(rotated), sector)
        assert e1 == pytest.approx(e0, abs=1e-9)
