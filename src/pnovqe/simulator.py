"""Exact state engine: circuits and energies on a basis of bitmask states.

Amplitudes are indexed by a sorted array of basis bitmasks (bit j is qubit
j). Every circuit generator is an excitation G = i(E - E^dag): a pair
double, a single or a hard-core pair rotation. On a basis of determinants G
is a signed permutation of its support, G|cols> = i signs|rows> with real
signs +-1, so G^3 = G and each factor exp(-i theta/2 G) updates the support
in place as v[rows] = cos(theta/2) v[rows] + sin(theta/2) signs v[cols].
``exact._factors`` builds (rows, cols, signs) from each generator's masks
by the determinant rule (``exact.between``) that signs the Hamiltonian's
entries too. Factors are real, so the reference and every state are
float64. Factors and reference vector are prepared once per (ansatz, basis)
and kept on the ``Ansatz`` with the last forward sweep, which a call at
bit-equal parameters reuses: the state, the signed input t_k = signs
psi_{k-1}[cols] of each rotation (one 8 B amplitude per support row of each
factor), and H times the state for the last operator read, formed by
whichever of the energy and the gradient needs it first.

VQE energies and gradients run on the circuit's sector, ``Ansatz.basis``.
The Hamiltonian is an ``exact.IntegralHamiltonian`` or its paired
restriction, and the exact solve of a point uses the same basis and reads
the same kept real operator on it (the string sigma, or the paired closed
form) through the same check, ``exact._sector_operator``. The gradient is the
adjoint sweep (Jones and Gacon, arXiv:2009.02823): it rotates a copy of H
psi alone backwards through the factors and reads each derivative from the
kept rotation inputs, so one parameter point costs one forward sweep, one
mat-vec and one backward sweep. No state here spans the 2^n register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import Ansatz
from .exact import IntegralHamiltonian, SectorBasis, _factors, _locate, _sector_operator


def _basis_vector(basis: SectorBasis, occupied) -> np.ndarray:
    """Amplitudes of the basis state with the listed qubits set to 1; it must be a basis state.

    ``occupied`` is an ``Ansatz.reference``, which is strictly increasing.
    """
    if any(j >= basis.n_qubits or j < 0 for j in occupied):
        raise ValueError("reference index outside register")
    (column,), (found,) = _locate(basis.states, np.array([sum(1 << j for j in occupied)]))
    if not found:
        raise ValueError("reference is not a state of the basis")
    vec = np.zeros(basis.dim)
    vec[column] = 1.0
    return vec


def _rotate(vec: np.ndarray, factor: tuple, angle: float) -> np.ndarray:
    """exp(-i angle/2 G) vec, in place: G^2 is the projector onto the rows.

    Returns the signed input signs * vec[cols], that is (G vec)[rows] / i of
    the vector before the update, which the adjoint gradient reads.
    """
    rows, cols, signs = factor
    signed = signs * vec[cols]
    vec[rows] = math.cos(0.5 * angle) * vec[rows] + math.sin(0.5 * angle) * signed
    return signed


def _adjoint_step(lam: np.ndarray, factor: tuple, angle: float, signed_input: np.ndarray) -> float:
    """exp(-i angle/2 G) lam in place, as ``_rotate`` does, and <lam[rows]|t> of the rows it has just formed.

    t is the factor's signed input that the forward sweep kept; the rows are
    gathered once.
    """
    rows, cols, signs = factor
    new = math.cos(0.5 * angle) * lam[rows] + math.sin(0.5 * angle) * (signs * lam[cols])
    lam[rows] = new
    return np.vdot(new, signed_input)


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
    """An ansatz's factors and float64 reference vector on one basis, and its last forward sweep."""

    factors: tuple
    reference: np.ndarray
    last: tuple = (None, None, ())    # (parameter bytes, read-only state, signed rotation inputs)
    applied: tuple = (None, None)     # (Hamiltonian, read-only H @ last state)


def _parameters(ansatz: Ansatz, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (ansatz.n_parameters,):
        raise ValueError("parameter vector length does not match the ansatz")
    return theta


def _prepared(ansatz: Ansatz, basis: SectorBasis) -> _Circuit:
    """The ansatz's circuit on the basis, built on first use and kept on the ansatz."""
    if basis not in ansatz._prepared:
        factors = tuple(_factors(ansatz.generators, basis))
        ansatz._prepared[basis] = _Circuit(factors, _basis_vector(basis, ansatz.reference))
    return ansatz._prepared[basis]


def _sector_state(ansatz: Ansatz, theta) -> tuple:
    """Basis, circuit and read-only circuit state in the sector the circuit keeps its reference in."""
    theta = _parameters(ansatz, theta)
    basis = ansatz.basis
    circuit = _prepared(ansatz, basis)
    key = theta.tobytes()
    if key != circuit.last[0]:
        # drop the old sweep first, so that two sets of inputs are never held
        circuit.last, circuit.applied = (None, None, ()), (None, None)
        psi, inputs = _evolve(circuit.reference.copy(), circuit.factors, theta)
        psi.flags.writeable = False
        circuit.last = (key, psi, inputs)
    return basis, circuit, circuit.last[1]


def _applied(op: IntegralHamiltonian, basis: SectorBasis, circuit: _Circuit) -> np.ndarray:
    """The Hamiltonian's operator on the basis times the circuit's last state, read-only.

    Formed once per (state, operator): the energy and the gradient at one
    parameter point share it, and another operator never reads it.
    """
    kept_op, h_psi = circuit.applied
    if kept_op is not op:
        h_psi = _sector_operator(op, basis) @ circuit.last[1]
        h_psi.flags.writeable = False
        circuit.applied = (op, h_psi)
    return h_psi


def ansatz_expectation(op: IntegralHamiltonian, ansatz: Ansatz, theta) -> float:
    """Circuit energy, evaluated in the sector the circuit keeps its reference in."""
    basis, circuit, psi = _sector_state(ansatz, theta)
    return float(np.vdot(psi, _applied(op, basis, circuit)))


def gradient(op: IntegralHamiltonian, ansatz: Ansatz, theta) -> np.ndarray:
    """d<H>/d(theta_k) for every parameter, in the circuit's sector, by the adjoint sweep.

    It reuses the forward sweep and H psi of the energy at theta, and sweeps
    lam = H psi alone backwards: lam_{k-1} = exp(+i theta_k/2 G_k) lam_k, and
    d<H>/d(theta_k) = Im <lam_k|G_k|psi_k> = Im <lam_{k-1}|G_k|psi_{k-1}>,
    read from the signed input t_k = signs psi_{k-1}[cols] that the forward
    rotation kept, as <lam_{k-1}[rows]|t_k> (``_adjoint_step``). It is
    exact. The kept inputs are one value per support row of each factor.
    """
    theta = _parameters(ansatz, theta)
    basis, circuit, _ = _sector_state(ansatz, theta)
    lam = _applied(op, basis, circuit).copy()
    inputs = circuit.last[2]
    grad = np.zeros(ansatz.n_parameters)
    for k in range(ansatz.n_parameters - 1, -1, -1):
        grad[k] = _adjoint_step(lam, circuit.factors[k], -theta[k], inputs[k])
    return grad
