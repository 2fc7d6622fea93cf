"""Exact state engine: circuits and energies on a basis of bitmask states.

Amplitudes are indexed by a sorted array of basis bitmasks (bit j is qubit
j). Every circuit factor exp(-i theta/2 G) has a Hermitian generator with
G^3 = G that is a phased permutation of its support, G|cols> = i signs|rows>,
so it updates the support in place as v[rows] = cos(theta/2) v[rows] +
sin(theta/2) signs v[cols]. Every excitation generator has entries +-i, so
its signs are real +-1 and a real reference stays real. ``_factors`` builds
and checks the factors of a whole circuit in one ``operators._pauli_pass``,
each generator an owner, so a factor has the bits of its generator's
``QubitOperator.matrix``. It refuses, in this order, a generator with a
complex coefficient (not Hermitian), one that leaks out of the basis, one
that maps a basis state to a superposition and one without G^3 = G.
Factors and reference vector are prepared once per (ansatz, basis) and
kept on the ``Ansatz`` with the last forward sweep, which a call at
bit-equal parameters reuses: the state, the signed input
t_k = signs psi_{k-1}[cols] of each rotation (one amplitude per support
row of each factor, 8 or 16 B each), and H times the state for the last
operator read, formed by whichever of the energy and the gradient needs
it first.

VQE energies and gradients run on the sector the circuit keeps its
reference in: the (N, S_z) sector when every generator commutes with S_z
(``Ansatz.two_sz``), else the N sector. The exact solve of a point uses the
same basis and reads the same cached ``matrix`` of the Hamiltonian (a
``QubitOperator`` or the point's ``exact.IntegralHamiltonian``) through the
same check, ``exact._hermitian_matrix``; the matrix is float64 when its
entries are real, and the state is float64 too. The gradient is the adjoint
sweep (Jones and Gacon, arXiv:2009.02823): it rotates a copy of H psi alone
backwards through the factors and reads each derivative from the kept
rotation inputs, so one parameter point costs one forward sweep, one
mat-vec and one backward sweep. No state here spans the 2^n register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .ansatz import Ansatz
from .exact import SectorBasis, _hermitian_matrix, sector_basis
from .operators import COEFF_CUTOFF, QubitOperator, _pauli_pass


def _basis_vector(basis: SectorBasis, occupied, dtype) -> np.ndarray:
    """Amplitudes of the basis state with the listed qubits set to 1.

    ``occupied`` is an ``Ansatz.reference``, which is strictly increasing.
    """
    if any(j >= basis.n_qubits or j < 0 for j in occupied):
        raise ValueError("reference index outside register")
    vec = np.zeros(basis.dim, dtype=dtype)
    vec[np.searchsorted(basis.states, sum(1 << j for j in occupied))] = 1.0
    return vec


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


def _factors(generators, basis: SectorBasis) -> list:
    """Each G = sum_m c_m P_m of ``generators`` on the basis as (rows, cols, signs).

    G|cols> = i signs|rows>; signs are float64 where they are exactly real.
    For each generator in order, raises the first error that applies: a c_m
    is complex (G is not Hermitian), G sends weight outside the basis, G maps
    a basis state to a superposition of basis states, G^3 != G on the basis.
    The strings of all generators go through one ``operators._pauli_pass``
    with each generator an owner, the pass ``QubitOperator.matrix`` runs
    with each X group an owner, so a factor holds the same bits as its
    generator's sector matrix whatever the blocking. The checks are array
    code over each block: the weight G sends outside the basis, the entries
    per row, and G^3 = G row by row along the permutation.
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
            if complex_gen[lo + k]:
                raise ValueError("generator is not Hermitian (complex coefficients)")
            if leaking[k]:
                raise ValueError("generator maps a basis state outside the basis")
            if superposed[k]:
                raise ValueError("generator maps a basis state to a superposition of basis states")
            if not_cubic[k]:
                raise ValueError("generator does not satisfy G^3 = G on the basis")
            sl = slice(bounds[k], bounds[k + 1])
            signs = -1j * phases[sl]
            factors.append((rows[sl], cols[sl], signs if signs.imag.any() else signs.real.copy()))
    return factors


def _rotate(vec: np.ndarray, factor: tuple, angle: float) -> np.ndarray:
    """exp(-i angle/2 G) vec, in place: G^2 is the projector onto the rows.

    Returns the signed input signs * vec[cols], that is (G vec)[rows] / i of
    the vector before the update, which the adjoint gradient reads.
    """
    rows, cols, signs = factor
    signed = signs * vec[cols]
    vec[rows] = math.cos(0.5 * angle) * vec[rows] + math.sin(0.5 * angle) * signed
    return signed


def _evolve(vec: np.ndarray, factors, angles) -> tuple:
    """Apply exp(-i angle/2 G) for every factor G in order, in place; checks the norm.

    Returns the state and the signed input of every factor's rotation.
    """
    inputs = tuple(_rotate(vec, factor, angle) for factor, angle in zip(factors, angles))
    if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
        raise RuntimeError("state norm drifted beyond 1e-10")
    return vec, inputs


@dataclass(eq=False)
class _Circuit:
    """An ansatz's factors and reference vector on one basis, and its last forward sweep.

    The reference is float64 when every factor's signs are, complex otherwise.
    """

    factors: tuple
    reference: np.ndarray
    last: tuple = (None, None, ())    # (parameter bytes, read-only state, signed rotation inputs)
    applied: tuple = (None, None)     # (operator, read-only matrix @ last state)


def _parameters(ansatz: Ansatz, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (ansatz.n_parameters,):
        raise ValueError("parameter vector length does not match the ansatz")
    return theta


def _prepared(ansatz: Ansatz, basis: SectorBasis) -> _Circuit:
    """The ansatz's circuit on the basis, built on first use and kept on the ansatz."""
    if basis not in ansatz._prepared:
        factors = tuple(_factors([gen.strings for gen in ansatz.generators], basis))
        dtype = np.result_type(float, *(signs for _, _, signs in factors))
        ansatz._prepared[basis] = _Circuit(factors, _basis_vector(basis, ansatz.reference, dtype))
    return ansatz._prepared[basis]


def _sector_state(ansatz: Ansatz, theta) -> tuple:
    """Basis, circuit and read-only circuit state in the sector the circuit keeps its reference in."""
    theta = _parameters(ansatz, theta)
    basis = sector_basis(ansatz.n_qubits, len(ansatz.reference), ansatz.two_sz)
    circuit = _prepared(ansatz, basis)
    key = theta.tobytes()
    if key != circuit.last[0]:
        # drop the old sweep first, so that two sets of inputs are never held
        circuit.last, circuit.applied = (None, None, ()), (None, None)
        psi, inputs = _evolve(circuit.reference.copy(), circuit.factors, theta)
        psi.flags.writeable = False
        circuit.last = (key, psi, inputs)
    return basis, circuit, circuit.last[1]


def _applied(op: QubitOperator, basis: SectorBasis, circuit: _Circuit) -> np.ndarray:
    """The operator's sector matrix times the circuit's last state, read-only.

    Formed once per (state, operator): the energy and the gradient at one
    parameter point share it, and another operator never reads it.
    """
    kept_op, h_psi = circuit.applied
    if kept_op is not op:
        h_psi = _hermitian_matrix(op, basis) @ circuit.last[1]
        h_psi.flags.writeable = False
        circuit.applied = (op, h_psi)
    return h_psi


def ansatz_expectation(op: QubitOperator, ansatz: Ansatz, theta) -> float:
    """Circuit energy, evaluated in the sector the circuit keeps its reference in."""
    basis, circuit, psi = _sector_state(ansatz, theta)
    value = np.vdot(psi, _applied(op, basis, circuit))
    if abs(value.imag) > 1e-10:
        raise RuntimeError("expectation value has a non-negligible imaginary part")
    return float(value.real)


def gradient(op: QubitOperator, ansatz: Ansatz, theta) -> np.ndarray:
    """d<H>/d(theta_k) for every parameter, in the circuit's sector, by the adjoint sweep.

    It reuses the forward sweep and H psi of the energy at theta, and sweeps
    lam = H psi alone backwards: lam_{k-1} = exp(+i theta_k/2 G_k) lam_k, and
    d<H>/d(theta_k) = Im <lam_k|G_k|psi_k> = Im <lam_{k-1}|G_k|psi_{k-1}>,
    read from the signed input t_k = signs psi_{k-1}[cols] that the forward
    rotation kept, as Re <lam_{k-1}[rows]|t_k>. It is exact. The kept inputs
    are one value per support row of each factor.
    """
    theta = _parameters(ansatz, theta)
    basis, circuit, _ = _sector_state(ansatz, theta)
    lam = _applied(op, basis, circuit).copy()
    inputs = circuit.last[2]
    grad = np.zeros(ansatz.n_parameters)
    for k in range(ansatz.n_parameters - 1, -1, -1):
        factor = circuit.factors[k]
        _rotate(lam, factor, -theta[k])
        grad[k] = np.vdot(lam[factor[0]], inputs[k]).real
    return grad
