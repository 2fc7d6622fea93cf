"""Exact diagonalization, sector restriction, and the paired encoding.

The iterative solve (``scipy.sparse.linalg.eigsh``) only runs on sectors
above ``exact._DENSE_DIM`` = 600 states; its property tests patch the
crossover down so random Pauli sums on sectors of 3-252 states reach it;
sectors above 40 states make ARPACK restart. Examples are derandomized.
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
from pnovqe.exact import build_paired_ansatz
from pnovqe.operators import QubitOperator

from ci_oracle import eigenvalues_dense, random_integral_set, seniority_zero_projection


class TestExactGroundEnergy:
    def test_single_z(self):
        op = QubitOperator.from_string(pq.PauliString.from_label(1, "Z0"))
        energy, _ = pq.exact_ground_energy(op)
        assert energy == pytest.approx(-1.0)

    def test_constant_operator(self):
        op = QubitOperator.identity(2, coeff=-2.75)
        energy, _ = pq.exact_ground_energy(op)
        assert energy == pytest.approx(-2.75)

    def test_h2_pin_and_sector_consistency(self, h2_sto3g):
        hq = h2_sto3g["hamiltonian"]
        e_full, _ = pq.exact_ground_energy(hq)
        sector = pq.sector_basis(4, 2, two_sz=0)
        e_sector, _ = pq.exact_ground_energy(hq, sector)
        assert e_sector == pytest.approx(e_full, abs=1e-10)
        assert e_full == pytest.approx(-1.1372759431, abs=1e-8)  # frozen regression

    def test_minimum_over_sectors_equals_full(self):
        mo = random_integral_set(2, 2, 40)
        hq = pq.jordan_wigner(pq.build_hamiltonian(mo), 4)
        e_full, _ = pq.exact_ground_energy(hq)
        sector_energies = []
        for n in range(5):
            energy, _ = pq.exact_ground_energy(hq, pq.sector_basis(4, n))
            assert energy >= e_full - 1e-10
            sector_energies.append(energy)
        assert min(sector_energies) == pytest.approx(e_full, abs=1e-10)

    def test_empty_sector_rejected(self):
        with pytest.raises(ValueError, match="empty sector"):
            pq.sector_basis(2, 2, two_sz=2)
        with pytest.raises(ValueError, match="parity"):
            pq.sector_basis(2, 2, two_sz=1)

    def test_sector_of_another_register_rejected(self):
        op = QubitOperator.from_string(pq.PauliString.from_label(2, "Z0"))
        with pytest.raises(ValueError, match="register"):
            pq.exact_ground_energy(op, pq.sector_basis(4, 2, 0))

    def test_non_hermitian_rejected(self):
        op = QubitOperator(1, {(1, 0): 0.5j})
        with pytest.raises(ValueError, match="Hermitian"):
            pq.exact_ground_energy(op)

    def test_residual_certified(self, h2_sto3g):
        hq = h2_sto3g["hamiltonian"]
        sector = pq.sector_basis(4, 2, two_sz=0)
        energy, vector = pq.exact_ground_energy(hq, sector)
        mat = hq.matrix(sector.states).toarray()
        assert np.linalg.norm(mat @ vector - energy * vector) < 1e-8


ITERATIVE = settings(derandomize=True, database=None, max_examples=40, deadline=None)
# ARPACK's default Krylov space for one eigenpair holds 20 vectors: larger
# sectors make it restart, and a Krylov space that turns invariant there
# restarts from a vector drawn from the solver's seeded generator
_NCV = 20


@st.composite
def sector_operators(draw, qubits=(3, 6), edge=1, max_terms=12):
    """(Hermitian Pauli sum, number sector of at least 3 states): real, or with an imaginary hopping.

    Random strings mostly leave a number sector; the real hoppings
    (X_p X_q + Y_p Y_q)/2 connect it.
    """
    n_qubits = draw(st.integers(*qubits))
    basis = pq.sector_basis(n_qubits, draw(st.integers(edge, n_qubits - edge)))
    mask = st.integers(0, (1 << n_qubits) - 1)
    pair = st.lists(st.integers(0, n_qubits - 1), min_size=2, max_size=2, unique=True)
    terms = draw(st.lists(st.tuples(mask, mask, st.floats(-1, 1)), max_size=max_terms))
    op = QubitOperator(n_qubits, {})
    for x, z, coeff in terms:
        op = op + QubitOperator(n_qubits, {(x, z): coeff})
    for (p, q), coeff in draw(st.lists(st.tuples(pair, st.floats(-1, 1)), max_size=max_terms)):
        op = op + QubitOperator(n_qubits, {(1 << p | 1 << q, 0): coeff, (1 << p | 1 << q,) * 2: coeff})
    if draw(st.booleans()):   # (X_p Y_q - Y_p X_q)/2 has imaginary entries on every number sector
        p, q = draw(pair)
        op = (op + QubitOperator(n_qubits, {(1 << p | 1 << q, 1 << q): 0.5})
              + QubitOperator(n_qubits, {(1 << p | 1 << q, 1 << p): -0.5}))
        assert op.matrix(basis.states).dtype == np.complex128
    return op, basis


def _check_iterative_solve(op, basis):
    mat = op.matrix(basis.states)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_mod, "_DENSE_DIM", 2)
        energy, vector = pq.exact_ground_energy(op, basis)
        again, vector_again = pq.exact_ground_energy(op, basis)
    assert abs(energy - np.linalg.eigvalsh(mat.toarray())[0]) < 1e-10
    assert np.linalg.norm(mat @ vector - energy * vector) < 1e-8
    assert vector.dtype == mat.dtype
    assert again == energy and np.array_equal(vector_again, vector)


@ITERATIVE
@given(sector_operators())
def test_iterative_solve_matches_the_dense_spectrum(case):
    _check_iterative_solve(*case)


@ITERATIVE
@given(sector_operators(qubits=(8, 10), edge=3, max_terms=40))
def test_restarted_iterative_solve_matches_the_dense_spectrum(case):
    assert case[1].dim > 2 * _NCV
    _check_iterative_solve(*case)


def test_iterative_solve_of_an_operator_that_vanishes_on_the_sector(monkeypatch):
    monkeypatch.setattr(exact_mod, "_DENSE_DIM", 2)
    energy, vector = pq.exact_ground_energy(QubitOperator(3, {}), pq.sector_basis(3, 1))
    assert energy == 0.0 and np.linalg.norm(vector) == pytest.approx(1.0)


def test_import_leaves_the_iterative_solver_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    code = "import sys, pnovqe; sys.exit('scipy.sparse.linalg' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


class TestPairedHamiltonian:
    def test_one_orbital_closed_form(self):
        h = np.array([[-1.1]])
        g = np.full((1, 1, 1, 1), 0.6)
        mo = pq.IntegralSet(n_orb=1, h=h, g=g, core_energy=0.25, n_electrons=2)
        hp = pq.build_paired_hamiltonian(mo)
        np.testing.assert_allclose(
            np.sort(eigenvalues_dense(hp)),
            np.sort([0.25, 0.25 - 2.2 + 0.6]),
            atol=1e-12,
        )

    def test_zero_two_electron_terms(self):
        h = np.diag([-1.0, -0.4])
        mo = pq.IntegralSet(
            n_orb=2, h=h, g=np.zeros((2,) * 4), core_energy=0.0, n_electrons=2
        )
        hp = pq.build_paired_hamiltonian(mo)
        spectrum = np.sort(eigenvalues_dense(hp))
        expected = np.sort([0.0, -2.0, -0.8, -2.8])
        np.testing.assert_allclose(spectrum, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_projection_equivalence(self, seed):
        mo = random_integral_set(3, 2, seed)
        h_full = pq.jordan_wigner(pq.build_hamiltonian(mo), 6)
        h_pair = pq.build_paired_hamiltonian(mo)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(seniority_zero_projection(h_full, 3)),
            eigenvalues_dense(h_pair),
            atol=1e-10,
        )

    def test_paired_bound(self):
        mo = random_integral_set(3, 4, 9)
        h_full = pq.jordan_wigner(pq.build_hamiltonian(mo), 6)
        h_pair = pq.build_paired_hamiltonian(mo)
        e_full, _ = pq.exact_ground_energy(h_full)
        e_pair, _ = pq.exact_ground_energy(h_pair)
        assert e_pair >= e_full - 1e-10


class TestPairedAnsatzEquivalence:
    def test_vqe_energies_match_across_encodings(self):
        mo = random_integral_set(4, 4, 10)
        h_full = pq.jordan_wigner(pq.build_hamiltonian(mo), 8)
        space = pq.OrbitalSpace(
            n_total=4, occupied=(0, 1),
            pno_assignment={2: (0, 0), 3: (1, 1)}, transform=np.eye(4),
        )
        full_ansatz = pq.build_pno_ansatz(space, "UpCCD")
        res_full = pq.run_vqe(h_full, full_ansatz)
        doubles = [g.orbitals for g in full_ansatz.generators]
        res_pair = pq.run_vqe(
            pq.build_paired_hamiltonian(mo),
            build_paired_ansatz([0, 1], doubles, 4),
        )
        assert res_pair.fun == pytest.approx(res_full.fun, abs=1e-8)

    def test_paired_rotation_strings_commute(self):
        gen = pq.make_paired_rotation(0, 3, 4)
        (s1, _), (s2, _) = gen.strings
        assert s1.commutes_with(s2)


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
        e0, _ = pq.exact_ground_energy(
            pq.jordan_wigner(pq.build_hamiltonian(mo), 6),
            pq.sector_basis(6, 2, two_sz=0),
        )
        e1, _ = pq.exact_ground_energy(
            pq.jordan_wigner(pq.build_hamiltonian(rotated), 6),
            pq.sector_basis(6, 2, two_sz=0),
        )
        assert e1 == pytest.approx(e0, abs=1e-9)
