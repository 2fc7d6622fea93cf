"""Exact diagonalization, sector restriction, and the paired encoding.

The iterative solve (``scipy.sparse.linalg.eigsh``) only runs on sectors
above ``exact._DENSE_DIM`` = 600 states; its property tests patch the
crossover down so Hamiltonians of random integrals on N and (N, S_z)
sectors of 3-252 states reach it; sectors above 40 states make ARPACK
restart; paired Hamiltonians of 3-70 states reach it the same way. The
paired Hamiltonian's entries are checked against the seniority-zero
projection of the reference Jordan-Wigner image and against the closed
form in ``build_paired_hamiltonian``'s docstring. Examples are derandomized.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pnovqe as pq
from pnovqe import exact as exact_mod
from pnovqe.exact import (
    IntegralHamiltonian, SectorBasis, build_paired_ansatz, determinant_matrix,
)

from ci_oracle import (
    eigenvalues_dense, random_integral_set, reference_build_hamiltonian,
    reference_jordan_wigner, seniority_zero_projection,
)


def integral_set(h, g=None, core=0.0) -> pq.IntegralSet:
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    g = np.zeros((n,) * 4) if g is None else g
    return pq.IntegralSet(n_orb=n, h=h, g=g, core_energy=core, n_electrons=2)


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

    def test_asymmetric_integrals_rejected(self):
        # every sector matrix is real symmetric because no other integrals get in
        with pytest.raises(ValueError, match="h must be symmetric"):
            integral_set([[0.0, 0.1], [0.2, 0.0]])
        g = np.zeros((2,) * 4)
        g[0, 0, 1, 1] = 0.3
        with pytest.raises(ValueError, match="8-fold"):
            integral_set(np.zeros((2, 2)), g)

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
        assert SectorBasis(2, np.arange(4)).dim == 4

    def test_residual_certified(self, h2_sto3g):
        hamiltonian = IntegralHamiltonian(h2_sto3g["mo"])
        sector = pq.sector_basis(4, 2, two_sz=0)
        energy, vector = pq.exact_ground_energy(hamiltonian, sector)
        mat = hamiltonian.matrix(sector.states).toarray()
        assert np.linalg.norm(mat @ vector - energy * vector) < 1e-8


ITERATIVE = settings(derandomize=True, database=None, max_examples=40, deadline=None)
# ARPACK's default Krylov space for one eigenpair holds 20 vectors: larger
# sectors make it restart, and a Krylov space that turns invariant there
# restarts from a vector drawn from the solver's seeded generator
_NCV = 20


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
    mat = hamiltonian.matrix(basis.states)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_mod, "_DENSE_DIM", 2)
        energy, vector = pq.exact_ground_energy(hamiltonian, basis)
        again, vector_again = pq.exact_ground_energy(hamiltonian, basis)
    assert abs(energy - np.linalg.eigvalsh(mat.toarray())[0]) < 1e-10
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
    assert case[1].dim > 2 * _NCV
    _check_iterative_solve(*case)


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


def test_iterative_solve_of_an_operator_that_vanishes_on_the_sector(monkeypatch):
    monkeypatch.setattr(exact_mod, "_DENSE_DIM", 2)
    hamiltonian = IntegralHamiltonian(integral_set(np.zeros((2, 2))))
    energy, vector = pq.exact_ground_energy(hamiltonian, pq.sector_basis(4, 1))
    assert energy == 0.0 and np.linalg.norm(vector) == pytest.approx(1.0)


def test_import_leaves_the_iterative_solver_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    code = "import sys, pnovqe; sys.exit('scipy.sparse.linalg' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def paired_spectrum(hamiltonian) -> np.ndarray:
    """Every eigenvalue of a paired Hamiltonian, over the sectors of each pair count."""
    n = hamiltonian.n_qubits
    blocks = [hamiltonian.matrix(pq.sector_basis(n, k).states).toarray() for k in range(n + 1)]
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
        # build_paired_hamiltonian's docstring: pair energies 2 h_pp + <pp|pp>,
        # pair-pair 4 <pq|pq> - 2 <pq|qp>, and <pp|qq> moves a pair from p to q
        mo = random_integral_set(n_orb, 2, 20 + n_orb)
        h, g = mo.h, mo.g
        hp = pq.build_paired_hamiltonian(mo)
        for n_pairs in range(n_orb + 1):
            states = pq.sector_basis(n_orb, n_pairs).states
            expected = np.zeros((len(states), len(states)))
            for i, m in enumerate(states):
                occ = [p for p in range(n_orb) if m >> p & 1]
                expected[i, i] = mo.core_energy + sum(2 * h[p, p] + g[p, p, p, p] for p in occ)
                expected[i, i] += sum(4 * g[p, q, p, q] - 2 * g[p, q, q, p]
                                      for p in occ for q in occ if p < q)
                for j, k in enumerate(states):
                    moved = int(m ^ k)
                    if moved.bit_count() == 2:
                        p, q = moved.bit_length() - 1, (moved & -moved).bit_length() - 1
                        expected[i, j] = g[p, p, q, q]
            np.testing.assert_allclose(hp.matrix(states).toarray(), expected, atol=1e-12, rtol=0)

    def test_pair_states_spread_to_determinants_in_order(self):
        # bit p of a pair state is spin-orbitals 2p and 2p + 1 of its determinant
        hp = pq.build_paired_hamiltonian(random_integral_set(4, 2, 3))
        states = np.arange(16, dtype=np.int64)
        expected = [sum(0b11 << 2 * p for p in range(4) if m >> p & 1) for m in range(16)]
        assert hp._determinants(states).tolist() == expected
        assert hp._determinants(np.zeros(1, dtype=np.int64)).tolist() == [0]

    def test_matrix_is_the_cached_determinant_matrix(self):
        mo = random_integral_set(4, 4, 5)
        hp = pq.build_paired_hamiltonian(mo)
        states = pq.sector_basis(4, 2).states
        mat = hp.matrix(states)
        assert hp.matrix(states) is mat
        assert mat.dtype == np.float64 and not mat.data.flags.writeable
        direct = determinant_matrix(mo, hp._determinants(states))
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(mat, name), getattr(direct, name)), name

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
            states = pq.sector_basis(n_orb, n_pairs).states
            np.testing.assert_allclose(hp.matrix(states).toarray(),
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
        (s1, _), (s2, _) = gen.strings
        # an even count of qubits where one has X and the other Z
        assert ((s1.x & s2.z).bit_count() + (s1.z & s2.x).bit_count()) % 2 == 0


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
            g=np.einsum("PQRS,Pp,Qq,Rr,Ss->pqrs", mo.g, u, u, u, u, optimize=True),
            core_energy=mo.core_energy,
            n_electrons=2,
        )
        sector = pq.sector_basis(6, 2, two_sz=0)
        e0, _ = pq.exact_ground_energy(IntegralHamiltonian(mo), sector)
        e1, _ = pq.exact_ground_energy(IntegralHamiltonian(rotated), sector)
        assert e1 == pytest.approx(e0, abs=1e-9)
