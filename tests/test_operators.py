"""Fermionic algebra, Pauli products, and Jordan-Wigner spectra."""

import numpy as np
import pytest

import pnovqe as pq
from pnovqe.operators import QubitOperator, _mul_masks

from ci_oracle import (
    ci_matrix, kron_string, random_integral_set, reference_matrix, slater_condon_matrix,
)


def register_matrix(hq) -> np.ndarray:
    """The qubit operator over its whole register, by the oracle's projection."""
    return reference_matrix(hq, np.arange(1 << hq.n_qubits, dtype=np.int64)).toarray()


def max_imag(hq) -> float:
    return max(abs(complex(c).imag) for _, c in hq.raw_items())


class TestPauliStrings:
    def test_x_times_y_is_iz(self):
        x = pq.PauliString.from_label(1, "X0")
        y = pq.PauliString.from_label(1, "Y0")
        string, phase = pq.pauli_multiply(x, y)
        assert string.label() == "Z0"
        assert phase == 1j

    def test_self_product_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, z = int(rng.integers(0, 16)), int(rng.integers(0, 16))
            p = pq.PauliString(4, x, z)
            string, phase = pq.pauli_multiply(p, p)
            assert string.label() == "I"
            assert phase == 1.0

    def test_products_match_dense_matrices(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = pq.PauliString(2, int(rng.integers(0, 4)), int(rng.integers(0, 4)))
            b = pq.PauliString(2, int(rng.integers(0, 4)), int(rng.integers(0, 4)))
            string, phase = pq.pauli_multiply(a, b)
            lhs = kron_string(a) @ kron_string(b)
            rhs = phase * kron_string(string)
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_associativity_with_phases(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            trip = [
                pq.PauliString(3, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
                for _ in range(3)
            ]
            a, b, c = trip
            ab, ph_ab = pq.pauli_multiply(a, b)
            left, ph_left = pq.pauli_multiply(ab, c)
            bc, ph_bc = pq.pauli_multiply(b, c)
            right, ph_right = pq.pauli_multiply(a, bc)
            assert left == right
            assert ph_ab * ph_left == pytest.approx(ph_bc * ph_right)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pq.pauli_multiply(pq.PauliString(2, 1, 0), pq.PauliString(3, 1, 0))


class TestNormalOrdering:
    def test_a_adag_contraction(self):
        # a_0 a+_0 = 1 - a+_0 a_0
        op = pq.FermionOperator.from_terms([(((0, False), (0, True)), 1.0)])
        terms = dict(op.items())
        assert terms[()] == 1.0
        assert terms[((0, True), (0, False))] == -1.0

    def test_storage_is_normal_ordered(self):
        op = pq.FermionOperator.from_terms(
            [(((1, False), (3, True), (0, True), (2, False)), 1.0)]
        )
        for term, _ in op.items():
            kinds = [cre for _, cre in term]
            assert kinds == sorted(kinds, reverse=True)  # creations first
            cre_idx = [i for i, cre in term if cre]
            ann_idx = [i for i, cre in term if not cre]
            assert cre_idx == sorted(cre_idx, reverse=True)
            assert ann_idx == sorted(ann_idx, reverse=True)

    def test_repeated_creation_vanishes(self):
        op = pq.FermionOperator.from_terms([(((0, True), (0, True)), 1.0)])
        assert op.n_terms == 0

    def test_hermitian_conjugate_roundtrip(self):
        op = pq.FermionOperator.from_terms(
            [(((2, True), (0, False)), 1.5), (((1, True), (1, False)), -0.25)]
        )
        assert (op.hermitian_conjugate().hermitian_conjugate() - op).norm() < 1e-14


class TestJordanWigner:
    def test_number_operator(self):
        op = pq.FermionOperator.from_terms([(((0, True), (0, False)), 1.0)])
        q = pq.jordan_wigner(op, 1)
        assert q.coefficient(pq.PauliString.from_label(1, "I")) == pytest.approx(0.5)
        assert q.coefficient(pq.PauliString.from_label(1, "Z0")) == pytest.approx(-0.5)

    def test_hopping_identity(self):
        op = pq.FermionOperator.from_terms(
            [(((0, True), (1, False)), 1.0), (((1, True), (0, False)), 1.0)]
        )
        q = pq.jordan_wigner(op, 2)
        assert q.n_terms == 2
        assert q.coefficient(pq.PauliString.from_label(2, "X0 X1")) == pytest.approx(0.5)
        assert q.coefficient(pq.PauliString.from_label(2, "Y0 Y1")) == pytest.approx(0.5)

    def test_index_overflow(self):
        op = pq.FermionOperator.from_terms([(((3, True), (0, False)), 1.0)])
        with pytest.raises(ValueError, match="overflow"):
            pq.jordan_wigner(op, 2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spectrum_matches_ci_oracle(self, seed):
        mo = random_integral_set(3, 2, seed)
        h_fermion = pq.build_hamiltonian(mo)
        h_qubit = pq.jordan_wigner(h_fermion, 6)
        dense = register_matrix(h_qubit)
        oracle = ci_matrix(mo)
        np.testing.assert_allclose(dense, oracle, atol=1e-10)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(dense), np.linalg.eigvalsh(oracle), atol=1e-10
        )

    def test_slater_condon_agrees_with_elementary_oracle(self):
        mo = random_integral_set(2, 2, 5)
        masks = list(range(16))
        np.testing.assert_allclose(
            ci_matrix(mo, masks), slater_condon_matrix(mo, masks), atol=1e-11
        )

    def test_four_orbital_spectrum(self):
        # one larger register than the seeded sweep covers
        mo = random_integral_set(4, 4, 77, scale=0.1)
        dense = register_matrix(pq.jordan_wigner(pq.build_hamiltonian(mo), 8))
        oracle = ci_matrix(mo)
        np.testing.assert_allclose(dense, oracle, atol=1e-10)


class TestBuildHamiltonian:
    def test_one_orbital_closed_form(self):
        h = np.array([[-1.25]])
        g = np.full((1, 1, 1, 1), 0.675)
        mo = pq.IntegralSet(n_orb=1, h=h, g=g, core_energy=0.7, n_electrons=2)
        hq = pq.jordan_wigner(pq.build_hamiltonian(mo), 2)
        # H = core + h11 (n0 + n1) + <11|11> n0 n1 on the 4-state register
        expected = np.diag([0.7, 0.7 - 1.25, 0.7 - 1.25, 0.7 - 2.5 + 0.675])
        np.testing.assert_allclose(register_matrix(hq), expected, atol=1e-12)

    def test_one_orbital_term_count(self):
        h = np.array([[-1.0]])
        g = np.full((1, 1, 1, 1), 0.6)
        mo = pq.IntegralSet(n_orb=1, h=h, g=g, core_energy=0.3, n_electrons=2)
        hq = pq.jordan_wigner(pq.build_hamiltonian(mo), 2)
        labels = {string.label() for string, _ in hq.items()}
        assert labels == {"I", "Z0", "Z1", "Z0 Z1"}

    def test_zero_integrals_gives_constant(self):
        mo = pq.IntegralSet(
            n_orb=2, h=np.zeros((2, 2)), g=np.zeros((2, 2, 2, 2)),
            core_energy=-3.25, n_electrons=2,
        )
        hq = pq.jordan_wigner(pq.build_hamiltonian(mo), 4)
        assert hq.n_terms == 1
        assert hq.coefficient(pq.PauliString.from_label(4, "I")) == pytest.approx(-3.25)

    def test_hermiticity_and_symmetries(self, h2_sto3g):
        hq = h2_sto3g["hamiltonian"]
        assert max_imag(hq) < 1e-12
        n_op = pq.number_operator(4)
        sz = pq.spin_z_operator(2)
        assert pq.commutator(hq, n_op).norm() < 1e-12
        assert pq.commutator(hq, sz).norm() < 1e-12

    @pytest.mark.parametrize("seed", [7, 8])
    def test_symmetries_random_sets(self, seed):
        mo = random_integral_set(3, 4, seed)
        hq = pq.jordan_wigner(pq.build_hamiltonian(mo), 6)
        assert max_imag(hq) < 1e-12
        assert pq.commutator(hq, pq.number_operator(6)).norm() < 1e-12
        assert pq.commutator(hq, pq.spin_z_operator(3)).norm() < 1e-12


class TestOperatorAlgebra:
    def test_commutator_with_self_vanishes(self):
        p = QubitOperator.from_string(pq.PauliString.from_label(2, "X0 Z1"), 0.7)
        assert pq.commutator(p, p).norm() == 0.0

    def test_commutator_x_z(self):
        x = QubitOperator.from_string(pq.PauliString.from_label(1, "X0"))
        z = QubitOperator.from_string(pq.PauliString.from_label(1, "Z0"))
        comm = pq.commutator(x, z)
        assert comm.n_terms == 1
        assert comm.coefficient(pq.PauliString.from_label(1, "Y0")) == pytest.approx(-2j)

    def test_qubit_mismatch(self):
        a = QubitOperator.identity(2)
        b = QubitOperator.identity(3)
        with pytest.raises(ValueError):
            a + b

    def test_phase_table_consistency(self):
        # _mul_masks against dense single-qubit products, all 16 combinations
        for x1 in (0, 1):
            for z1 in (0, 1):
                for x2 in (0, 1):
                    for z2 in (0, 1):
                        x3, z3, phase = _mul_masks(x1, z1, x2, z2)
                        lhs = kron_string(pq.PauliString(1, x1, z1)) @ \
                            kron_string(pq.PauliString(1, x2, z2))
                        rhs = phase * kron_string(pq.PauliString(1, x3, z3))
                        np.testing.assert_allclose(lhs, rhs, atol=1e-15)


class TestTextSerialization:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(11)
        terms = {}
        for _ in range(12):
            key = (int(rng.integers(0, 32)), int(rng.integers(0, 32)))
            terms[key] = float(rng.standard_normal())
        op = QubitOperator(5, terms)
        back = QubitOperator.from_text(op.to_text(), 5)
        assert dict(back.raw_items()) == dict(op.raw_items())

    def test_example_line_format(self):
        op = QubitOperator(2, {(0b11, 0): 0.5})
        assert op.to_text().strip() == "0.5 X0 X1"

    def test_hamiltonian_roundtrip(self, h2_sto3g):
        hq = h2_sto3g["hamiltonian"]
        back = QubitOperator.from_text(hq.to_text(), 4)
        assert (back - hq).norm() == 0.0
