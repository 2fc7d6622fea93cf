"""Restricted Hartree-Fock (Roothaan) solver and the MO transformation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrals import AOIntegralSet, IntegralSet, transform_eri

_DIIS_SIZE = 8   # Fock/error pairs kept for DIIS extrapolation
_MAX_ITER, _ENERGY_TOL, _DENSITY_TOL = 100, 1e-10, 1e-8   # iterations, |dE| and max |dD|


@dataclass(frozen=True)
class SCFResult:
    """Converged (or flagged) restricted Hartree-Fock solution."""

    mo_coefficients: np.ndarray
    orbital_energies: np.ndarray
    total_energy: float
    converged: bool
    iterations: int
    density_matrix: np.ndarray
    energy_history: tuple


def _orthogonalizer(overlap: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(overlap)
    if evals.min() < 1e-10:
        raise ValueError(
            f"linear dependence in basis (overlap eigenvalue {evals.min():.3e})"
        )
    return evecs @ np.diag(evals**-0.5) @ evecs.T


def _fock_matrix(ao: AOIntegralSet, density: np.ndarray) -> np.ndarray:
    j = np.einsum("pqrs,rs->pq", ao.eri, density, optimize=True)
    k = np.einsum("prqs,rs->pq", ao.eri, density, optimize=True)
    return ao.core_hamiltonian + j - 0.5 * k


def run_rhf(ao: AOIntegralSet, n_electrons: int) -> SCFResult:
    """Solve the closed-shell Roothaan equations with DIIS.

    The core guess diagonalizes h in the symmetrically orthogonalized basis;
    convergence requires both the energy change and the density change to
    fall below their tolerances. Non-convergence is flagged, not raised.
    """
    if n_electrons < 0:
        raise ValueError(f"negative electron count {n_electrons}")
    if n_electrons % 2 != 0:
        raise ValueError("closed-shell solver needs an even electron count")
    if n_electrons > 2 * ao.n_ao:
        raise ValueError("more electrons than spin-orbitals")
    n_occ = n_electrons // 2
    x = _orthogonalizer(ao.overlap)
    h = ao.core_hamiltonian
    s = ao.overlap

    def _density(fock):
        f_ortho = x.T @ fock @ x
        eps, c_ortho = np.linalg.eigh(f_ortho)
        c = x @ c_ortho
        d = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T
        return eps, c, d

    eps, c, density = _density(h)
    fock_of_density = _fock_matrix(ao, density)
    energy = 0.5 * np.sum(density * (h + fock_of_density)) + ao.nuclear_repulsion

    fock_list: list = []
    error_list: list = []
    gram = np.empty((0, 0))   # error inner products, one row and column added per iteration
    history = [energy]
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        fock = fock_of_density
        err = x.T @ (fock @ density @ s - s @ density @ fock) @ x
        fock_list.append(fock)
        error_list.append(err)
        if len(fock_list) > _DIIS_SIZE:
            fock_list.pop(0)
            error_list.pop(0)
            gram = gram[1:, 1:]
        gram = np.pad(gram, ((0, 1), (0, 1)))
        gram[-1] = gram[:, -1] = [np.sum(err * e) for e in error_list]
        if len(fock_list) > 1:
            fock = _diis_extrapolate(fock_list, gram)
        eps, c, new_density = _density(fock)
        fock_of_density = _fock_matrix(ao, new_density)
        new_energy = 0.5 * np.sum(new_density * (h + fock_of_density)) + ao.nuclear_repulsion
        history.append(new_energy)
        delta_e = abs(new_energy - energy)
        delta_d = np.max(np.abs(new_density - density))
        density, energy = new_density, new_energy
        if delta_e < _ENERGY_TOL and delta_d < _DENSITY_TOL:
            converged = True
            break

    # canonical orbitals from the final (un-extrapolated) Fock matrix
    eps, c, _ = _density(fock_of_density)
    return SCFResult(
        mo_coefficients=c,
        orbital_energies=eps,
        total_energy=float(energy),
        converged=converged,
        iterations=iterations,
        density_matrix=density,
        energy_history=tuple(history),
    )


def _diis_extrapolate(fock_list, gram: np.ndarray) -> np.ndarray:
    m = len(fock_list)
    b = np.pad(gram, ((0, 1), (0, 1)), constant_values=-1.0)
    b[m, m] = 0.0
    rhs = np.zeros(m + 1)
    rhs[m] = -1.0
    try:
        coeffs = np.linalg.solve(b, rhs)[:m]
    except np.linalg.LinAlgError:
        return fock_list[-1]
    return sum(ci * fi for ci, fi in zip(coeffs, fock_list))


def transform_to_mo(ao: AOIntegralSet, c: np.ndarray, n_electrons: int,
                    orbital_energies: np.ndarray | None = None) -> IntegralSet:
    """Four-index transform of the AO integrals into the MO basis.

    The MO two-electron integrals ``eri`` stay in the AO tensor's chemists'
    notation (pq|rs), exactly 8-fold symmetric (``transform_eri``).
    """
    ctsc = c.T @ ao.overlap @ c
    if not np.allclose(ctsc, np.eye(c.shape[1]), atol=1e-8):
        raise ValueError("MO coefficients are not S-orthonormal")
    return IntegralSet(
        n_orb=c.shape[1],
        h=c.T @ ao.core_hamiltonian @ c,
        eri=transform_eri(ao.eri, c.T),
        core_energy=ao.nuclear_repulsion,
        n_electrons=n_electrons,
        orbital_energies=None if orbital_energies is None else np.asarray(orbital_energies),
    )
