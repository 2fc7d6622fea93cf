"""Exact state engine: circuits and energies on a basis of bitmask states.

Amplitudes are indexed by a sorted array of basis bitmasks (bit j is qubit
j). Every circuit factor exp(-i theta/2 G) has a Hermitian generator with
G^3 = G that is a phased permutation of its support, G|cols> = phases|rows>,
so it updates the support in place as v[rows] = cos(theta/2) v[rows] -
i sin(theta/2) phases v[cols]. Factors and reference vector are prepared
once per (ansatz, basis) and kept on the ``Ansatz`` with the last forward
state, which a call at bit-equal parameters reuses. VQE energies and
adjoint gradients run on the reference's particle-number sector, so their
memory follows the sector, not 2^n; only the ``Statevector`` functions and
the per-rotation shift rule, whose circuits leave the sector, use 2^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _cube_defect(rows, cols, phases, dim: int) -> float:
    """max |G^3 - G| for G with the single entry phases[k] at (rows[k], cols[k]) of its rows."""
    after = np.full(dim + 1, dim)           # the column each row maps to; row dim is empty
    after[rows] = cols
    entry = np.zeros(dim + 1, dtype=complex)
    entry[rows] = phases
    middle = after[cols]
    cube = phases * entry[cols] * entry[middle]   # G^3 has it at column after[middle]
    same = after[middle] == cols
    defect = np.where(same, np.abs(cube - phases), np.maximum(np.abs(cube), np.abs(phases)))
    return float(defect.max(initial=0.0))


def _factor(strings, basis: SectorBasis) -> tuple:
    """G = sum_m c_m P_m on the basis as (rows, cols, phases): G|cols> = phases|rows>.

    Raises unless G keeps the basis closed, satisfies G^3 = G there and maps
    each basis state to a single basis state. For real c_m (a Hermitian G,
    as in every ansatz) and one entry per row, the checks run on the
    support: G maps s outside the basis where the basis part of ||G|s>||^2,
    the diagonal of G^2, falls short of the whole, and G^3 = G is checked row
    by row along the permutation. Any other G is checked with the sparse
    products PG^2P = (PGP)^2 and G^3 = G, in the same order.
    """
    gen = sum((QubitOperator.from_string(s, c) for s, c in strings), QubitOperator(basis.n_qubits))
    g = gen.matrix(basis.states)
    per_row = np.diff(g.indptr)
    rows, cols, phases = np.flatnonzero(per_row), g.indices.astype(np.intp), g.data
    if per_row.max(initial=0) > 1 or gen.max_imag() > 0:
        g2 = g @ g
        if abs(g2 - (gen * gen).matrix(basis.states)).max() > 1e-10:
            raise ValueError("generator maps a basis state outside the basis")
        if abs(g2 @ g - g).max() > 1e-10:
            raise ValueError("generator does not satisfy G^3 = G on the basis")
        if per_row.max(initial=0) > 1:
            raise ValueError("generator maps a basis state to a superposition of basis states")
        return rows, cols, phases
    inside = np.bincount(g.indices, weights=np.abs(g.data) ** 2, minlength=basis.dim)
    if np.max(gen.image_norms(basis.states) - inside, initial=0.0) > 1e-10:
        raise ValueError("generator maps a basis state outside the basis")
    if _cube_defect(rows, cols, phases, basis.dim) > 1e-10:
        raise ValueError("generator does not satisfy G^3 = G on the basis")
    return rows, cols, phases


def _rotate(vec: np.ndarray, factor: tuple, angle: float) -> None:
    """exp(-i angle/2 G) vec, in place: G^2 is the projector onto the rows."""
    rows, cols, phases = factor
    vec[rows] = math.cos(0.5 * angle) * vec[rows] - 1j * math.sin(0.5 * angle) * phases * vec[cols]


def apply_pauli_rotation(state: Statevector, string: PauliString, angle: float) -> Statevector:
    """In-place exp(-i angle/2 P): cos(a/2) psi - i sin(a/2) P psi."""
    if string.n_qubits != state.n_qubits:
        raise ValueError("Pauli string length does not match register")
    vec = state.amplitudes.copy()
    _rotate(vec, _factor(((string, 1.0),), _register(state.n_qubits)), angle)
    state.amplitudes = vec
    return state


def _evolve(vec: np.ndarray, factors, angles) -> np.ndarray:
    """Apply exp(-i angle/2 G) for every factor G in order, in place; checks the norm."""
    for factor, angle in zip(factors, angles):
        _rotate(vec, factor, angle)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
        raise RuntimeError("state norm drifted beyond 1e-10")
    return vec


@dataclass(eq=False)
class _Circuit:
    """An ansatz's factors and reference vector on one basis, and its last forward state."""

    factors: tuple
    reference: np.ndarray
    last: tuple = (None, None)    # (parameter bytes, read-only state)


def _parameters(ansatz: Ansatz, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (ansatz.n_parameters,):
        raise ValueError("parameter vector length does not match the ansatz")
    return theta


def _prepared(ansatz: Ansatz, basis: SectorBasis) -> _Circuit:
    """The ansatz's circuit on the basis, built on first use and kept on the ansatz."""
    if basis not in ansatz._prepared:
        factors = tuple(_factor(gen.strings, basis) for gen in ansatz.generators)
        ansatz._prepared[basis] = _Circuit(factors, _basis_vector(basis, ansatz.reference))
    return ansatz._prepared[basis]


def apply_ansatz(state: Statevector, ansatz: Ansatz, theta) -> Statevector:
    """Apply exp(-i theta_k/2 G_k) for every generator in ansatz order."""
    if ansatz.n_qubits != state.n_qubits:
        raise ValueError("ansatz register does not match the state")
    theta = _parameters(ansatz, theta)
    circuit = _prepared(ansatz, _register(state.n_qubits))
    state.amplitudes = _evolve(state.amplitudes.copy(), circuit.factors, theta)
    return state


def ansatz_state(ansatz: Ansatz, theta) -> Statevector:
    """Reference state with the parametrized circuit applied."""
    return apply_ansatz(prepare_reference(ansatz.n_qubits, ansatz.reference), ansatz, theta)


def _sector_state(op: QubitOperator, ansatz: Ansatz, theta) -> tuple:
    """Basis, circuit and read-only circuit state in the reference's particle-number sector."""
    if op.n_qubits != ansatz.n_qubits:
        raise ValueError("operator register does not match the state")
    theta = _parameters(ansatz, theta)
    basis = sector_basis(ansatz.n_qubits, len(ansatz.reference))
    circuit = _prepared(ansatz, basis)
    key = theta.tobytes()
    last_key, psi = circuit.last
    if key != last_key:
        psi = _evolve(circuit.reference.copy(), circuit.factors, theta)
        psi.flags.writeable = False
        circuit.last = (key, psi)
    return basis, circuit, psi


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
    theta = _parameters(ansatz, theta)
    if method == "shift":
        return _gradient_shift(op, ansatz, theta)
    if method != "adjoint":
        raise ValueError(f"unknown gradient method {method!r}")
    basis, circuit, psi = _sector_state(op, ansatz, theta)
    lam = op.matrix(basis.states) @ psi
    psi = psi.copy()
    grad = np.zeros(ansatz.n_parameters)
    for k in range(ansatz.n_parameters - 1, -1, -1):
        rows, cols, phases = factor = circuit.factors[k]
        grad[k] = np.vdot(lam[rows], phases * psi[cols]).imag    # <lam|G_k|psi>
        _rotate(psi, factor, -theta[k])
        _rotate(lam, factor, -theta[k])
    return grad


def _gradient_shift(op, ansatz, theta) -> np.ndarray:
    basis = _register(ansatz.n_qubits)
    rotations = [
        (k, string, coeff)
        for k, gen in enumerate(ansatz.generators)
        for string, coeff in gen.strings
    ]
    factors = [_factor(((string, 1.0),), basis) for _, string, _ in rotations]
    angles = np.array([theta[k] * coeff for k, _, coeff in rotations])
    reference = _basis_vector(basis, ansatz.reference)
    grad = np.zeros(ansatz.n_parameters)
    for r, (k, _, coeff) in enumerate(rotations):
        for sign in (1.0, -1.0):
            shifted = angles.copy()
            shifted[r] += sign * 0.5 * np.pi
            psi = _evolve(reference.copy(), factors, shifted)
            grad[k] += sign * 0.5 * coeff * _expectation(op, psi, basis)
    return grad
