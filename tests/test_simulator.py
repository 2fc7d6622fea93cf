"""Sector state engine: circuit states, rotations, energies and exact gradients.

The engine's states live on the sector the circuit keeps its reference in;
the register oracles of ``ci_oracle`` (Kronecker matrices and matrix
exponentials) are the references it is checked against.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import pnovqe as pq
from pnovqe.exact import SectorBasis, _factors
from pnovqe.simulator import _rotate, _sector_state, ansatz_expectation

from ci_oracle import (
    embed, finite_difference_gradient, kron_sum,
    random_integral_set, reference_generator_strings, reference_register_shift_gradient,
    register_basis,
)


def empty_circuit(n_qubits, reference) -> pq.Ansatz:
    return pq.Ansatz(generators=(), n_qubits=n_qubits, reference=tuple(reference), name="none")


def integral_hamiltonian(h, core: float = 0.0) -> pq.IntegralHamiltonian:
    """The Hamiltonian of one-body integrals ``h`` and a core energy, with no two-body terms."""
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    mo = pq.IntegralSet(n_orb=n, h=h, eri=np.zeros((n,) * 4), core_energy=core, n_electrons=2)
    return pq.IntegralHamiltonian(mo)


def rotate(vec, gen, angle, basis=None):
    """exp(-i angle/2 G) on ``vec`` in place, by the engine's factor of G on ``basis`` (the register by default)."""
    basis = register_basis(gen.n_qubits) if basis is None else basis
    _rotate(vec, _factors((gen,), basis)[0], angle)
    return vec


def random_generator(rng, n_spatial: int, paired: bool = True):
    """A pair double, single or (with ``paired``) paired rotation of random orbitals of n_spatial."""
    i, a = (int(k) for k in rng.choice(n_spatial, size=2, replace=False))
    kind = int(rng.integers(0, 3 if paired else 2))
    if kind == 0:
        return pq.make_pair_double(i, a, n_spatial)
    if kind == 1:
        return pq.make_single(i, a, int(rng.integers(0, 2)), n_spatial)
    return pq.make_paired_rotation(i, a, n_spatial)


class TestPrepareReference:
    def test_occupied_bits(self):
        basis, _, psi = _sector_state(empty_circuit(4, [0, 1]), [])
        state = embed(basis, psi)
        assert state[0b0011] == 1.0
        assert np.linalg.norm(state) == pytest.approx(1.0)

    def test_vacuum(self):
        basis, _, psi = _sector_state(empty_circuit(2, []), [])
        assert embed(basis, psi)[0] == 1.0

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            empty_circuit(4, [1, 1])

    def test_reference_energy_is_hf(self, h2_sto3g):
        ansatz = pq.build_upccgsd(2, 2)
        energy = ansatz_expectation(pq.IntegralHamiltonian(h2_sto3g["mo"]), ansatz, np.zeros(3))
        assert energy == pytest.approx(h2_sto3g["scf"].total_energy, abs=1e-10)


class TestExcitationRotation:
    def test_zero_angle_identity(self):
        state = embed(register_basis(4), np.zeros(16))
        state[0b0101] = 1.0
        before = state.copy()
        rotate(state, pq.make_single(0, 1, 0, 2), 0.0)
        np.testing.assert_array_equal(state, before)

    def test_pair_rotation_pi(self):
        # exp(-i pi/2 G) sends |i> to -i G|i> = |a> for G = i(P+_a P_i - P+_i P_a)
        state = np.array([0.0, 1.0, 0.0, 0.0])
        rotate(state, pq.make_paired_rotation(0, 1, 2), np.pi)
        np.testing.assert_allclose(state, [0.0, 0.0, 1.0, 0.0], atol=1e-15)

    @staticmethod
    def rotated_pi(gen, occupied):
        """exp(-i pi/2 G) on the register determinant with the listed qubits occupied."""
        state = np.zeros(1 << gen.n_qubits)
        state[sum(1 << q for q in occupied)] = 1.0
        return rotate(state, gen, np.pi)

    @staticmethod
    def determinant(n_qubits, occupied, sign):
        state = np.zeros(1 << n_qubits)
        state[sum(1 << q for q in occupied)] = sign
        return state

    @pytest.mark.parametrize("occupied, image, sign", [
        ((0,), (4,), 1.0),
        ((0, 1), (1, 4), -1.0),       # one occupied spin-orbital between qubits 0 and 4
        ((0, 1, 3), (1, 3, 4), 1.0),  # two
        ((0, 5), (4, 5), 1.0),        # qubit 5 is not between
    ])
    def test_single_rotation_pi_carries_the_parity_between(self, occupied, image, sign):
        # exp(-i pi/2 G)|s> = (E - E^dag)|s> = a+_4 a_0|s> for the spin-up single 0 -> 2
        got = self.rotated_pi(pq.make_single(0, 2, 0, 3), occupied)
        np.testing.assert_allclose(got, self.determinant(6, image, sign), atol=1e-15)

    @pytest.mark.parametrize("occupied, image, sign", [
        ((0, 1), (4, 5), 1.0),
        ((0, 1, 2), (2, 4, 5), 1.0),      # the two spin hops cross qubit 2 alike
        ((0, 1, 2, 3), (2, 3, 4, 5), 1.0),
        ((4, 5), (0, 1), -1.0),           # E^dag: |a a> goes to -|i i>
    ])
    def test_pair_double_rotation_pi_has_no_parity_sign(self, occupied, image, sign):
        got = self.rotated_pi(pq.make_pair_double(0, 2, 3), occupied)
        np.testing.assert_allclose(got, self.determinant(6, image, sign), atol=1e-15)

    def test_random_rotations_match_expm(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            gen = random_generator(rng, 3)
            n = gen.n_qubits
            theta = float(rng.uniform(-3, 3))
            vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            vec /= np.linalg.norm(vec)
            got = rotate(vec.copy(), gen, theta)
            u = scipy.linalg.expm(-0.5j * theta * kron_sum(reference_generator_strings(gen), n))
            np.testing.assert_allclose(got, u @ vec, atol=1e-12)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.floats(-2.0 * np.pi, 2.0 * np.pi, allow_nan=False),
           st.integers(0, 2**32 - 1))
    def test_rotation_has_the_bits_of_the_register_rotation(self, n_spatial, angle, seed):
        # on a subset that G keeps closed (states with each one's image under
        # G), the rotation has the bits of the register rotation on those states
        rng = np.random.default_rng(seed)
        gen = random_generator(rng, n_spatial)
        register = register_basis(gen.n_qubits)
        vec = rng.standard_normal(register.dim) + 1j * rng.standard_normal(register.dim)
        vec[rng.random(register.dim) < 0.3] = 0.0     # zero amplitudes, whose sign shows in the bits
        vec /= np.linalg.norm(vec) or 1.0
        expected = rotate(vec.copy(), gen, angle)
        rows, cols, _ = _factors((gen,), register)[0]
        partner = np.arange(register.dim)
        partner[rows] = cols
        seeds = np.flatnonzero(rng.random(register.dim) < 0.5)
        states = np.unique(np.concatenate([[0], seeds, partner[seeds]])).astype(np.int64)
        subset = SectorBasis(register.n_qubits, states)
        got = rotate(vec[states].copy(), gen, angle, subset)
        # the same bits, signed zeros included
        assert np.array_equal(got.view(np.uint64), expected[states].view(np.uint64))

    def test_norm_preserved_through_sequences(self):
        rng = np.random.default_rng(6)
        state = embed(register_basis(6), np.zeros(64))
        state[0b001011] = 1.0
        for _ in range(60):
            rotate(state, random_generator(rng, 3, paired=False), float(rng.uniform(-3, 3)))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


class TestApplyAnsatz:
    def test_zero_parameters_leave_reference(self):
        ansatz = pq.build_upccgsd(2, 2)
        basis, _, psi = _sector_state(ansatz, np.zeros(3))
        expected = np.zeros(16)
        expected[0b0011] = 1.0
        assert np.array_equal(embed(basis, psi), expected)

    def test_single_pair_double_matches_expm(self):
        gen = pq.make_pair_double(0, 1, 2)
        ansatz = pq.Ansatz(
            generators=(gen,), n_qubits=4, reference=(0, 1), name="d"
        )
        dense = kron_sum(reference_generator_strings(gen), 4)
        for theta in (-1.3, 0.4, 2.2):
            basis, _, psi = _sector_state(ansatz, [theta])
            state = embed(basis, psi)
            ref = np.zeros(16, dtype=complex)
            ref[0b0011] = 1.0
            expected = scipy.linalg.expm(-0.5j * theta * dense) @ ref
            np.testing.assert_allclose(state, expected, atol=1e-12)
            # two-determinant structure: only |0011> and |1100> populated
            populated = np.nonzero(np.abs(state) > 1e-12)[0]
            assert set(populated) <= {0b0011, 0b1100}

    def test_first_double_parameter_periodicity(self):
        # shifting the leading pair-double angle by 2 pi leaves the state
        # invariant up to phase (its generator squares to a projector that
        # fixes the reference)
        ansatz = pq.build_upccgsd(2, 2)
        rng = np.random.default_rng(8)
        for _ in range(5):
            theta = rng.uniform(-1, 1, 3)
            shifted = theta.copy()
            shifted[0] += 2.0 * np.pi
            a = _sector_state(ansatz, theta)[2].copy()
            b = _sector_state(ansatz, shifted)[2]
            assert abs(np.vdot(a, b)) == pytest.approx(1.0, abs=1e-10)

    def test_particle_number_conserved(self):
        # <N> of the engine's state, embedded: N is diagonal, popcount per register state
        ansatz = pq.build_upccgsd(2, 2)
        occupations = np.bitwise_count(np.arange(16))
        rng = np.random.default_rng(9)
        for _ in range(5):
            basis, _, psi = _sector_state(ansatz, rng.uniform(-2, 2, 3))
            n_mean = np.sum(occupations * np.abs(embed(basis, psi)) ** 2)
            assert n_mean == pytest.approx(2.0, abs=1e-10)

    def test_parameter_length_mismatch(self):
        ansatz = pq.build_upccgsd(2, 2)
        with pytest.raises(ValueError, match="length"):
            ansatz_expectation(integral_hamiltonian(np.zeros((2, 2)), 1.0), ansatz, [0.1])

    def test_reference_outside_the_register_rejected(self):
        with pytest.raises(ValueError, match="outside register"):
            ansatz_expectation(integral_hamiltonian(np.zeros((2, 2)), 1.0),
                               empty_circuit(4, [0, 4]), [])


class TestExpectation:
    def test_identity(self):
        energy = ansatz_expectation(integral_hamiltonian(np.zeros((2, 2)), 1.0),
                                    empty_circuit(4, [1]), [])
        assert energy == pytest.approx(1.0)

    def test_one_body_energy_of_a_determinant(self):
        # orbital 0 doubly and orbital 1 singly occupied: core + 2 h_00 + h_11
        hamiltonian = integral_hamiltonian(np.diag([-1.0, 0.5]), 0.25)
        energy = ansatz_expectation(hamiltonian, empty_circuit(4, [0, 1, 2]), [])
        assert energy == pytest.approx(0.25 - 2.0 + 0.5, abs=1e-12)

    def test_energy_at_zero_matches_hf_for_pno_space(self, lih_like):
        mo = lih_like["mo"]
        amps = pq.mp2_amplitudes(mo)
        pnos = pq.select_pnos(pq.pair_densities(amps), 8, diagonal_only=True)
        space = pq.orthonormalize(pnos)
        final = pq.build_final_integrals(mo, space)
        hq = pq.IntegralHamiltonian(final)
        ansatz = pq.build_pno_ansatz(space, "UpCCD")
        e0 = ansatz_expectation(hq, ansatz, np.zeros(ansatz.n_parameters))
        assert e0 == pytest.approx(lih_like["scf"].total_energy, abs=1e-10)


class TestGradient:
    def test_stationary_at_zero_for_diagonal_hamiltonian(self):
        # one-body Hamiltonian diagonal in the orbital basis: the reference
        # determinant is an eigenstate, so the gradient vanishes at zero
        h = np.diag([-1.2, 0.4, 0.9])
        mo = pq.IntegralSet(
            n_orb=3, h=h, eri=np.zeros((3,) * 4), core_energy=0.0, n_electrons=2,
        )
        hq = pq.IntegralHamiltonian(mo)
        ansatz = pq.build_upccgsd(3, 2)
        grad = pq.gradient(hq, ansatz, np.zeros(ansatz.n_parameters))
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_finite_difference_agreement_h2(self, h2_sto3g):
        ansatz = pq.build_upccgsd(2, 2)
        hq = pq.IntegralHamiltonian(h2_sto3g["mo"])
        rng = np.random.default_rng(10)
        for _ in range(5):
            theta = rng.uniform(-1, 1, 3)
            fd = finite_difference_gradient(hq, ansatz, theta)
            np.testing.assert_allclose(pq.gradient(hq, ansatz, theta), fd, atol=1e-6)

    def test_shift_and_adjoint_agree(self):
        mo = random_integral_set(3, 2, 31)
        hq = pq.jordan_wigner(pq.build_hamiltonian(mo), 6)
        hamiltonian = pq.IntegralHamiltonian(mo)
        ansatz = pq.build_upccgsd(3, 2)
        rng = np.random.default_rng(11)
        for _ in range(20):
            theta = rng.uniform(-1.5, 1.5, ansatz.n_parameters)
            expected = reference_register_shift_gradient(hq, ansatz, theta)
            np.testing.assert_allclose(pq.gradient(hamiltonian, ansatz, theta), expected, atol=1e-10)


class TestSectorEngine:
    def test_energy_and_gradient_never_allocate_a_register_vector(self):
        # one 16-qubit register vector is 2^16 * 16 B = 1 MiB; the (N, S_z)
        # sector for 2 electrons has 64 states. The sector operator is built
        # first: its pair tables hold 36 x 64 products of 8 strings
        hq = pq.IntegralHamiltonian(random_integral_set(8, 2, 4))
        ansatz = pq.build_upccgsd(8, 2)
        pq.exact._sector_operator(hq, ansatz.basis)
        theta = np.random.default_rng(4).uniform(-0.5, 0.5, ansatz.n_parameters)
        tracemalloc.start()
        try:
            ansatz_expectation(hq, ansatz, theta)
            pq.gradient(hq, ansatz, theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (1 << 16) * 16
