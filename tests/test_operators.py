"""Jordan-Wigner images, spectra and symmetries of the compact Hamiltonian, and its Pauli text."""

import numpy as np
import pytest

import pnovqe as pq
from pnovqe.operators import QubitOperator

from ci_oracle import (
    _mul_masks, ci_matrix, kron_string, pauli_label, random_integral_set, reference_build_hamiltonian,
    reference_jordan_wigner, reference_matrix, reference_to_text, slater_condon_matrix,
    symmetry_leaks,
)


def register_matrix(hq) -> np.ndarray:
    """The qubit operator over its whole register, by the oracle's projection."""
    return reference_matrix(hq, np.arange(1 << hq.n_qubits, dtype=np.int64)).toarray()


def max_imag(hq) -> float:
    return max(abs(complex(c).imag) for _, c in hq.raw_items())


class TestPauliStrings:
    def test_products_match_dense_matrices(self):
        # the oracle's mask product on two qubits, which its Jordan-Wigner
        # and G^2 checks multiply strings with
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            b = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            x, z, phase = _mul_masks(*a, *b)
            lhs = kron_string(*a, 2) @ kron_string(*b, 2)
            rhs = phase * kron_string(x, z, 2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)


class TestJordanWigner:
    def test_number_operator(self):
        q = pq.jordan_wigner({((0, True), (0, False)): 1.0}, 1)
        # (I - Z0) / 2
        assert dict(q.raw_items()) == {(0, 0): 0.5, (0, 1): -0.5}

    def test_hopping_identity(self):
        op = {((0, True), (1, False)): 1.0, ((1, True), (0, False)): 1.0}
        q = pq.jordan_wigner(op, 2)
        # (X0 X1 + Y0 Y1) / 2
        assert dict(q.raw_items()) == {(0b11, 0): 0.5, (0b11, 0b11): 0.5}

    def test_products_in_any_order(self):
        # a fermionic operator is a plain dict, not normal-ordered: the image of
        # a_0 a_0^dag is that of 1 - a_0^dag a_0, and a repeated creation vanishes
        q = pq.jordan_wigner({((0, False), (0, True)): 1.0}, 1)
        assert dict(q.raw_items()) == {(0, 0): 0.5, (0, 1): 0.5}
        assert pq.jordan_wigner({((0, True), (0, True)): 1.0}, 1).n_terms == 0

    def test_anticommuting_ladders_of_two_modes(self):
        # a_1^dag a_0 = -a_0 a_1^dag, so the two terms cancel to the last bit
        op = {((1, True), (0, False)): 1.0, ((0, False), (1, True)): 1.0}
        assert pq.jordan_wigner(op, 2).n_terms == 0

    def test_index_overflow(self):
        op = {((3, True), (0, False)): 1.0}
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
        eri = np.full((1, 1, 1, 1), 0.675)
        mo = pq.IntegralSet(n_orb=1, h=h, eri=eri, core_energy=0.7, n_electrons=2)
        hq = pq.jordan_wigner(pq.build_hamiltonian(mo), 2)
        # H = core + h11 (n0 + n1) + <11|11> n0 n1 on the 4-state register
        expected = np.diag([0.7, 0.7 - 1.25, 0.7 - 1.25, 0.7 - 2.5 + 0.675])
        np.testing.assert_allclose(register_matrix(hq), expected, atol=1e-12)

    def test_one_orbital_term_count(self):
        h = np.array([[-1.0]])
        eri = np.full((1, 1, 1, 1), 0.6)
        mo = pq.IntegralSet(n_orb=1, h=h, eri=eri, core_energy=0.3, n_electrons=2)
        hq = pq.jordan_wigner(pq.build_hamiltonian(mo), 2)
        labels = {pauli_label(x, z) for (x, z), _ in hq.raw_items()}
        assert labels == {"I", "Z0", "Z1", "Z0 Z1"}

    def test_zero_integrals_gives_constant(self):
        mo = pq.IntegralSet(
            n_orb=2, h=np.zeros((2, 2)), eri=np.zeros((2, 2, 2, 2)),
            core_energy=-3.25, n_electrons=2,
        )
        hq = pq.jordan_wigner(pq.build_hamiltonian(mo), 4)
        assert dict(hq.raw_items()) == {(0, 0): -3.25}

    def test_hermiticity_and_symmetries(self, h2_sto3g):
        hq = h2_sto3g["hamiltonian"]
        assert max_imag(hq) < 1e-12
        assert max(symmetry_leaks(hq)) < 1e-12

    @pytest.mark.parametrize("seed", [7, 8])
    def test_symmetries_random_sets(self, seed):
        mo = random_integral_set(3, 4, seed)
        hq = pq.jordan_wigner(pq.build_hamiltonian(mo), 6)
        assert max_imag(hq) < 1e-12
        assert max(symmetry_leaks(hq)) < 1e-12


class TestOperatorAlgebra:
    def test_phase_table_consistency(self):
        # the oracle's _mul_masks, which its Jordan-Wigner and G^2 read, against
        # dense single-qubit products, all 16 combinations
        for x1 in (0, 1):
            for z1 in (0, 1):
                for x2 in (0, 1):
                    for z2 in (0, 1):
                        x3, z3, phase = _mul_masks(x1, z1, x2, z2)
                        lhs = kron_string(x1, z1, 1) @ kron_string(x2, z2, 1)
                        rhs = phase * kron_string(x3, z3, 1)
                        np.testing.assert_allclose(lhs, rhs, atol=1e-15)


class TestSymmetryLeaks:
    @pytest.mark.parametrize("terms, leaks", [
        ({(0b0001, 0): 0.5}, (0.5, 0.5)),                                  # X0
        ({(0b0011, 0): 0.25, (0b0011, 0b0011): 0.25}, (0.0, 0.5)),         # hop 0 <-> 1
        ({(0b0101, 0b0010): 0.25, (0b0101, 0b0111): 0.25}, (0.0, 0.0)),    # hop 0 <-> 2
    ], ids=["creation", "spin-flip-hop", "same-spin-hop"])
    def test_leaks_of_known_operators(self, terms, leaks):
        # the check every symmetry test reads must see a leak where there is one
        op = QubitOperator(4, terms)
        assert symmetry_leaks(op) == pytest.approx(leaks, abs=1e-15)
        assert symmetry_leaks(register_matrix(op)) == pytest.approx(leaks, abs=1e-15)


class TestTextSerialization:
    def test_example_line_format(self):
        op = QubitOperator(2, {(0b11, 0): 0.5})
        assert op.to_text().strip() == "0.5 X0 X1"

    def test_constructor_prunes_below_the_cutoff(self):
        op = QubitOperator(2, {(1, 0): 1e-15, (2, 0): 0.5, (0, 0): -1e-15j})
        assert list(op.raw_items()) == [((2, 0), 0.5 + 0j)]
        assert all(type(c) is complex for _, c in op.raw_items())
        assert op.to_text() == "0.5 X1\n"

    def test_hamiltonian_text_matches_the_oracle(self, h2_sto3g):
        # a molecular Hamiltonian's text against the term-by-term loops
        hq = h2_sto3g["hamiltonian"]
        reference = reference_jordan_wigner(reference_build_hamiltonian(h2_sto3g["mo"]), 4)
        assert hq.to_text() == reference_to_text(reference)
