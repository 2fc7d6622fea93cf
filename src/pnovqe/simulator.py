"""Exact state engine: circuits and energies on a basis of bitmask states.

Amplitudes are indexed by a sorted array of basis bitmasks (bit j is qubit
j). Every circuit factor exp(-i theta/2 G) has a Hermitian generator with
G^3 = G, one Pauli string or one excitation generator, so it applies
exactly as v + (cos(theta/2) - 1) G^2 v - i sin(theta/2) G v, with G
projected onto the basis by ``QubitOperator.matrix``. VQE energies and
adjoint gradients run on the reference's particle-number sector, so their
memory follows the sector, not 2^n. Only the public ``Statevector``
functions and the per-rotation shift rule, whose circuits leave the
sector, use the full register.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ansatz import Ansatz
from .exact import SectorBasis, full_basis, sector_basis
from .operators import PauliString, QubitOperator

MAX_QUBITS = 26


class Statevector:
    """Normalized complex amplitude vector over 2^n basis states."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray | None = None):
        if n_qubits > MAX_QUBITS:
            raise ValueError(f"statevector limited to {MAX_QUBITS} qubits")
        self.n_qubits = n_qubits
        if amplitudes is None:
            amplitudes = np.zeros(1 << n_qubits, dtype=complex)
            amplitudes[0] = 1.0
        self.amplitudes = np.asarray(amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << n_qubits,):
            raise ValueError("amplitude vector has wrong length")

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def copy(self) -> "Statevector":
        return Statevector(self.n_qubits, self.amplitudes.copy())

    def fidelity(self, other: "Statevector") -> float:
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)))


def _register(n_qubits: int) -> SectorBasis:
    if n_qubits > MAX_QUBITS:
        raise ValueError(f"statevector limited to {MAX_QUBITS} qubits")
    return full_basis(n_qubits)


def _basis_vector(basis: SectorBasis, occupied) -> np.ndarray:
    """Amplitudes of the basis state with the listed qubits set to 1."""
    occupied = list(occupied)
    if len(set(occupied)) != len(occupied):
        raise ValueError("duplicate index in reference occupation")
    if any(j >= basis.n_qubits or j < 0 for j in occupied):
        raise ValueError("reference index outside register")
    vec = np.zeros(basis.dim, dtype=complex)
    vec[np.searchsorted(basis.states, sum(1 << j for j in occupied))] = 1.0
    return vec


def prepare_reference(n_qubits: int, occupied) -> Statevector:
    """Computational basis state with the listed qubits set to 1."""
    return Statevector(n_qubits, _basis_vector(_register(n_qubits), occupied))


def _factor(strings, basis: SectorBasis):
    """G = sum_m c_m P_m on the basis; raises unless G keeps it closed with G^3 = G."""
    gen = sum((QubitOperator.from_string(s, c) for s, c in strings), QubitOperator(basis.n_qubits))
    g = gen.matrix(basis.states)
    if abs(g @ g - (gen * gen).matrix(basis.states)).max() > 1e-10:
        raise ValueError("generator maps a basis state outside the basis")
    if abs(g @ g @ g - g).max() > 1e-10:
        raise ValueError("generator does not satisfy G^3 = G on the basis")
    return g


@lru_cache(maxsize=8)
def _factors(generators: tuple, basis: SectorBasis) -> tuple:
    """Factors for a sequence of generators, each given by its strings."""
    return tuple(_factor(strings, basis) for strings in generators)


def _rotate(vec: np.ndarray, g, angle: float) -> np.ndarray:
    """exp(-i angle/2 G) vec for a generator with G^3 = G."""
    g_vec = g @ vec
    return vec + (np.cos(0.5 * angle) - 1.0) * (g @ g_vec) - 1j * np.sin(0.5 * angle) * g_vec


def apply_pauli_rotation(state: Statevector, string: PauliString, angle: float) -> Statevector:
    """In-place exp(-i angle/2 P): cos(a/2) psi - i sin(a/2) P psi."""
    if string.n_qubits != state.n_qubits:
        raise ValueError("Pauli string length does not match register")
    factor = _factor(((string, 1.0),), _register(state.n_qubits))
    state.amplitudes = _rotate(state.amplitudes, factor, angle)
    return state


def _evolve(vec: np.ndarray, factors, angles) -> np.ndarray:
    """Apply exp(-i angle/2 G) for every factor G in order; checks the norm."""
    for g, angle in zip(factors, angles):
        vec = _rotate(vec, g, angle)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
        raise RuntimeError("state norm drifted beyond 1e-10")
    return vec


def _circuit(ansatz: Ansatz, theta, basis: SectorBasis) -> tuple:
    """The ansatz generators' factors on the basis, and the checked angles."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (ansatz.n_parameters,):
        raise ValueError("parameter vector length does not match the ansatz")
    return _factors(tuple(gen.strings for gen in ansatz.generators), basis), theta


def apply_ansatz(state: Statevector, ansatz: Ansatz, theta) -> Statevector:
    """Apply exp(-i theta_k/2 G_k) for every generator in ansatz order."""
    if ansatz.n_qubits != state.n_qubits:
        raise ValueError("ansatz register does not match the state")
    basis = _register(state.n_qubits)
    state.amplitudes = _evolve(state.amplitudes, *_circuit(ansatz, theta, basis))
    return state


def ansatz_state(ansatz: Ansatz, theta) -> Statevector:
    """Reference state with the parametrized circuit applied."""
    state = prepare_reference(ansatz.n_qubits, ansatz.reference)
    return apply_ansatz(state, ansatz, theta)


def _sector_state(op: QubitOperator, ansatz: Ansatz, theta) -> tuple:
    """Circuit state in the reference's particle-number sector, with its parts."""
    if op.n_qubits != ansatz.n_qubits:
        raise ValueError("operator register does not match the state")
    basis = sector_basis(ansatz.n_qubits, len(ansatz.reference))
    factors, theta = _circuit(ansatz, theta, basis)
    return basis, factors, _evolve(_basis_vector(basis, ansatz.reference), factors, theta)


def _expectation(op: QubitOperator, vec: np.ndarray, basis: SectorBasis) -> float:
    if op.n_qubits != basis.n_qubits:
        raise ValueError("operator register does not match the state")
    if op.max_imag() >= 1e-8:
        raise ValueError("operator is not Hermitian (complex coefficients)")
    value = np.vdot(vec, op.matrix(basis.states) @ vec)
    if abs(value.imag) > 1e-10:
        raise RuntimeError("expectation value has a non-negligible imaginary part")
    return float(value.real)


def apply_operator(op: QubitOperator, vec: np.ndarray) -> np.ndarray:
    """H |psi> over the full register."""
    return op.matrix(_register(op.n_qubits).states) @ vec


def expectation(state: Statevector, op: QubitOperator) -> float:
    """<psi|H|psi> for Hermitian H; the residual imaginary part is checked."""
    return _expectation(op, state.amplitudes, _register(state.n_qubits))


def ansatz_expectation(op: QubitOperator, ansatz: Ansatz, theta) -> float:
    """Circuit energy, evaluated in the reference's particle-number sector."""
    basis, _, psi = _sector_state(op, ansatz, theta)
    return _expectation(op, psi, basis)


def gradient(op: QubitOperator, ansatz: Ansatz, theta, method: str = "adjoint") -> np.ndarray:
    """d<H>/d(theta_k) for every parameter.

    ``adjoint`` runs the exact reverse sweep in the particle-number sector;
    ``shift`` applies the two-point rule exp-value difference at +-pi/2 to
    each Pauli rotation of a generator on the full register and sums the
    contributions. Both are exact and agree to tight tolerance.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (ansatz.n_parameters,):
        raise ValueError("parameter vector length does not match the ansatz")
    if method == "adjoint":
        return _gradient_adjoint(op, ansatz, theta)
    if method == "shift":
        return _gradient_shift(op, ansatz, theta)
    raise ValueError(f"unknown gradient method {method!r}")


def _gradient_adjoint(op, ansatz, theta) -> np.ndarray:
    basis, factors, psi = _sector_state(op, ansatz, theta)
    lam = op.matrix(basis.states) @ psi
    grad = np.zeros(ansatz.n_parameters)
    for k in range(ansatz.n_parameters - 1, -1, -1):
        grad[k] = float(np.imag(np.vdot(lam, factors[k] @ psi)))
        psi = _rotate(psi, factors[k], -theta[k])
        lam = _rotate(lam, factors[k], -theta[k])
    return grad


def _gradient_shift(op, ansatz, theta) -> np.ndarray:
    basis = _register(ansatz.n_qubits)
    rotations = [
        (k, string, coeff)
        for k, gen in enumerate(ansatz.generators)
        for string, coeff in gen.strings
    ]
    factors = _factors(tuple(((string, 1.0),) for _, string, _ in rotations), basis)
    angles = np.array([theta[k] * coeff for k, _, coeff in rotations])
    reference = _basis_vector(basis, ansatz.reference)
    grad = np.zeros(ansatz.n_parameters)
    for r, (k, _, coeff) in enumerate(rotations):
        energies = []
        for offset in (0.5 * np.pi, -0.5 * np.pi):
            shifted = angles.copy()
            shifted[r] += offset
            energies.append(_expectation(op, _evolve(reference, factors, shifted), basis))
        grad[k] += coeff * 0.5 * (energies[0] - energies[1])
    return grad


def finite_difference_gradient(op, ansatz, theta, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the energy; test oracle, not for runs."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for k in range(len(theta)):
        plus = theta.copy()
        minus = theta.copy()
        plus[k] += step
        minus[k] -= step
        grad[k] = (
            ansatz_expectation(op, ansatz, plus)
            - ansatz_expectation(op, ansatz, minus)
        ) / (2.0 * step)
    return grad
