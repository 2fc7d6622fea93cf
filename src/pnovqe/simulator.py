"""Exact state engine: circuits and energies on a basis of bitmask states.

Amplitudes are indexed by a sorted array of basis bitmasks (bit j is qubit
j). Every circuit factor exp(-i theta/2 G) has a Hermitian generator with
G^3 = G that is a phased permutation of its support, G|cols> = phases|rows>,
so it updates the support in place as v[rows] = cos(theta/2) v[rows] +
sin(theta/2) signs v[cols] with signs = -i phases. Every excitation
generator has phases +-i, so its signs are real +-1 and a real reference
stays real. ``_factors`` builds and checks the factors of a whole circuit in
one ``operators._pauli_pass``, each generator an owner, so a factor has the
bits of its generator's ``QubitOperator.matrix``. Factors and reference
vector are prepared once per (ansatz, basis) and kept on the ``Ansatz``
with the last forward state, which a call at bit-equal parameters reuses.

VQE energies and gradients run on the sector the circuit keeps its
reference in: the (N, S_z) sector when every generator commutes with S_z
(``Ansatz.two_sz``), else the N sector. The exact solve of a point uses the
same basis and reads the same cached ``matrix`` of the Hamiltonian (a
``QubitOperator`` or the point's ``exact.IntegralHamiltonian``) through the
same check, ``exact._hermitian_matrix``; the matrix is float64 when its
entries are real, and the state is float64 too. The adjoint sweep runs
backwards through the factors; the shift rule takes four circuit energies
per generator, which is exact because G^3 = G. Only the ``Statevector``
functions use complex 2^n vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .ansatz import Ansatz
from .exact import SectorBasis, _hermitian_matrix, full_basis, sector_basis
from .operators import COEFF_CUTOFF, PauliString, QubitOperator, _pauli_pass

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


def _basis_vector(basis: SectorBasis, occupied, dtype=complex) -> np.ndarray:
    """Amplitudes of the basis state with the listed qubits set to 1."""
    occupied = list(occupied)
    if len(set(occupied)) != len(occupied):
        raise ValueError("duplicate index in reference occupation")
    if any(j >= basis.n_qubits or j < 0 for j in occupied):
        raise ValueError("reference index outside register")
    vec = np.zeros(basis.dim, dtype=dtype)
    vec[np.searchsorted(basis.states, sum(1 << j for j in occupied))] = 1.0
    return vec


def prepare_reference(n_qubits: int, occupied) -> Statevector:
    """Computational basis state with the listed qubits set to 1."""
    return Statevector(n_qubits, _basis_vector(_register(n_qubits), occupied))


class _Factor(tuple):
    """(rows, cols, phases) with G|cols> = phases|rows>, and ``signs`` = -i phases.

    The rotation reads ``signs``, float64 where they are exactly real.
    """

    def __new__(cls, rows, cols, phases):
        factor = super().__new__(cls, (rows, cols, phases))
        signs = -1j * phases
        factor.signs = signs if signs.imag.any() else signs.real.copy()
        return factor


def _generator_terms(strings, n_qubits: int) -> dict:
    """The terms of G = sum_m c_m P_m, as summing one ``QubitOperator`` per string keeps them.

    Each coefficient is added to its string's term in order, starting from 0;
    a coefficient or a sum below ``COEFF_CUTOFF`` drops the term.
    """
    terms: dict = {}
    for string, coeff in strings:
        if string.n_qubits != n_qubits:
            raise ValueError("qubit-count mismatch between operators")
        if abs(coeff) < COEFF_CUTOFF:
            continue
        key = (string.x, string.z)
        value = terms.get(key, 0.0) + complex(coeff)
        if abs(value) >= COEFF_CUTOFF:
            terms[key] = value
        else:
            del terms[key]
    return terms


def _check_by_products(gen: QubitOperator, basis: SectorBasis) -> None:
    """Raise unless PG^2P = (PGP)^2 and G^3 = G on the basis, as sparse products."""
    g = gen.matrix(basis.states)
    g2 = g @ g
    if abs(g2 - (gen * gen).matrix(basis.states)).max() > 1e-10:
        raise ValueError("generator maps a basis state outside the basis")
    if abs(g2 @ g - g).max() > 1e-10:
        raise ValueError("generator does not satisfy G^3 = G on the basis")


def _factors(generators, basis: SectorBasis) -> list:
    """Each G = sum_m c_m P_m of ``generators`` on the basis as (rows, cols, phases).

    G|cols> = phases|rows>. Raises the first failing generator's error unless
    G keeps the basis closed, satisfies G^3 = G there and maps each basis
    state to a single basis state. The strings of all generators go through
    one ``operators._pauli_pass`` with each generator an owner, the pass
    ``QubitOperator.matrix`` runs with each X group an owner, so a factor
    holds the same bits as its generator's sector matrix whatever the
    blocking. For real c_m (a Hermitian G, as in every ansatz) and one entry
    per row, the checks are array code over each block: the weight G sends
    outside the basis, and G^3 = G row by row along the permutation. Any
    other G is checked with the sparse products PG^2P = (PGP)^2 and G^3 = G,
    in the same order.
    """
    states, dim = basis.states, basis.dim
    terms = [_generator_terms(strings, basis.n_qubits) for strings in generators]
    owner = np.repeat(np.arange(len(terms)), [len(t) for t in terms])
    masks = np.fromiter(chain.from_iterable(chain.from_iterable(terms)), np.int64, 2 * owner.size)
    coeffs = np.fromiter(chain.from_iterable(t.values() for t in terms), complex, owner.size)
    complex_gen = np.zeros(len(terms), bool)
    complex_gen[owner[coeffs.imag != 0]] = True
    factors = []
    for owners, pair_owner, pos, found, values in _pauli_pass(
            owner, masks[0::2], masks[1::2], coeffs, len(terms), states):
        lo, n, width = owners.start, len(owners), dim + 1
        local, nonzero = pair_owner - lo, values != 0
        # cell g * width + r holds the entry in row r of the block's generator
        # g; row dim stays empty
        hit = np.flatnonzero(found & nonzero)
        cell = local[hit] * width + pos[hit]
        count = np.bincount(cell, minlength=n * width)
        after = np.full(n * width, dim)
        after[cell] = hit % dim
        entry = np.zeros(n * width, complex)
        entry[cell] = values[hit]
        miss = np.flatnonzero(~found & nonzero)
        leak = np.bincount(local[miss] * dim + miss % dim, np.abs(values[miss]) ** 2, n * dim)
        leaking = leak.reshape(n, dim).max(axis=1, initial=0.0) > 1e-10
        superposed = np.zeros(n, bool)
        superposed[np.flatnonzero(count > 1) // width] = True
        cell = np.flatnonzero(count)
        gen, rows, cols, phases = cell // width, cell % width, after[cell], entry[cell]
        # G^3 has phases * entry[cols] * entry[middle] at column after[middle]
        base = gen * width
        middle = after[base + cols]
        cube = phases * entry[base + cols] * entry[base + middle]
        same = after[base + middle] == cols
        defect = np.where(same, np.abs(cube - phases), np.maximum(np.abs(cube), np.abs(phases)))
        not_cubic = np.zeros(n, bool)
        not_cubic[gen[defect > 1e-10]] = True
        bounds = np.searchsorted(gen, np.arange(n + 1)).tolist()
        for k in range(n):
            if superposed[k] or complex_gen[lo + k]:
                _check_by_products(QubitOperator._simplified(basis.n_qubits, terms[lo + k]), basis)
                if superposed[k]:
                    raise ValueError("generator maps a basis state to a superposition of basis states")
            elif leaking[k]:
                raise ValueError("generator maps a basis state outside the basis")
            elif not_cubic[k]:
                raise ValueError("generator does not satisfy G^3 = G on the basis")
            sl = slice(bounds[k], bounds[k + 1])
            factors.append(_Factor(rows[sl], cols[sl], phases[sl]))
    return factors


def _factor(strings, basis: SectorBasis) -> _Factor:
    """G = sum_m c_m P_m on the basis as (rows, cols, phases); see ``_factors``."""
    return _factors((strings,), basis)[0]


def _rotate(vec: np.ndarray, factor: _Factor, angle: float) -> None:
    """exp(-i angle/2 G) vec, in place: G^2 is the projector onto the rows."""
    rows, cols, _ = factor
    vec[rows] = math.cos(0.5 * angle) * vec[rows] + math.sin(0.5 * angle) * factor.signs * vec[cols]


def apply_pauli_rotation(state: Statevector, string: PauliString, angle: float) -> Statevector:
    """In-place exp(-i angle/2 P): cos(a/2) psi - i sin(a/2) P psi, as the factor of G = P."""
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
    """An ansatz's factors and reference vector on one basis, and its last forward state.

    The reference is float64 when every factor's signs are, complex otherwise.
    """

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
        factors = tuple(_factors([gen.strings for gen in ansatz.generators], basis))
        dtype = np.result_type(float, *(factor.signs for factor in factors))
        ansatz._prepared[basis] = _Circuit(factors, _basis_vector(basis, ansatz.reference, dtype))
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


def _sector(ansatz: Ansatz) -> tuple:
    """Basis and circuit of the sector the circuit keeps its reference in."""
    basis = sector_basis(ansatz.n_qubits, len(ansatz.reference), ansatz.two_sz)
    return basis, _prepared(ansatz, basis)


def _sector_state(ansatz: Ansatz, theta) -> tuple:
    """Basis, circuit and read-only circuit state in the sector the circuit keeps its reference in."""
    theta = _parameters(ansatz, theta)
    basis, circuit = _sector(ansatz)
    key = theta.tobytes()
    last_key, psi = circuit.last
    if key != last_key:
        psi = _evolve(circuit.reference.copy(), circuit.factors, theta)
        psi.flags.writeable = False
        circuit.last = (key, psi)
    return basis, circuit, psi


def _expectation(op: QubitOperator, vec: np.ndarray, basis: SectorBasis) -> float:
    value = np.vdot(vec, _hermitian_matrix(op, basis) @ vec)
    if abs(value.imag) > 1e-10:
        raise RuntimeError("expectation value has a non-negligible imaginary part")
    return float(value.real)


def expectation(state: Statevector, op: QubitOperator) -> float:
    """<psi|H|psi> for Hermitian H; the residual imaginary part is checked."""
    return _expectation(op, state.amplitudes, _register(state.n_qubits))


def ansatz_expectation(op: QubitOperator, ansatz: Ansatz, theta) -> float:
    """Circuit energy, evaluated in the sector the circuit keeps its reference in."""
    basis, _, psi = _sector_state(ansatz, theta)
    return _expectation(op, psi, basis)


def gradient(op: QubitOperator, ansatz: Ansatz, theta, method: str = "adjoint") -> np.ndarray:
    """d<H>/d(theta_k) for every parameter, in the circuit's sector.

    ``adjoint`` runs the exact reverse sweep. ``shift`` evaluates, for each
    parameter, the circuit energy at theta_k +- pi/2 and +- pi:

        dE/dtheta_k = [E(+pi/2) - E(-pi/2)]/2 - (sqrt(2) - 1)/4 [E(+pi) - E(-pi)]

    which is exact because every generator has G^3 = G on the sector (its
    eigenvalues are -1, 0 and 1), as ``_factors`` checks. Both methods agree
    to tight tolerance.
    """
    theta = _parameters(ansatz, theta)
    if method == "shift":
        return _gradient_shift(op, ansatz, theta)
    if method != "adjoint":
        raise ValueError(f"unknown gradient method {method!r}")
    basis, circuit, psi = _sector_state(ansatz, theta)
    lam = _hermitian_matrix(op, basis) @ psi
    psi = psi.copy()
    grad = np.zeros(ansatz.n_parameters)
    for k in range(ansatz.n_parameters - 1, -1, -1):
        rows, cols, _ = factor = circuit.factors[k]
        grad[k] = np.vdot(lam[rows], factor.signs * psi[cols]).real    # Im <lam|G_k|psi>
        _rotate(psi, factor, -theta[k])
        _rotate(lam, factor, -theta[k])
    return grad


# (shift, weight) of the four-energy rule for generators with G^3 = G
_SHIFT_RULE = (
    (0.5 * math.pi, 0.5),
    (-0.5 * math.pi, -0.5),
    (math.pi, -0.25 * (math.sqrt(2.0) - 1.0)),
    (-math.pi, 0.25 * (math.sqrt(2.0) - 1.0)),
)


def _gradient_shift(op, ansatz, theta) -> np.ndarray:
    basis, circuit = _sector(ansatz)
    grad = np.zeros(ansatz.n_parameters)
    prefix = circuit.reference.copy()    # the factors before k applied, at theta
    for k, factor in enumerate(circuit.factors):
        for shift, weight in _SHIFT_RULE:
            psi = prefix.copy()
            _rotate(psi, factor, theta[k] + shift)
            psi = _evolve(psi, circuit.factors[k + 1:], theta[k + 1:])
            grad[k] += weight * _expectation(op, psi, basis)
        _rotate(prefix, factor, theta[k])
    return grad
