"""Exact diagonalization of qubit Hamiltonians and the paired encoding.

A point's exact solve runs on the sector the ansatz keeps its reference in,
the basis its VQE sweeps already projected the Hamiltonian onto, so both
read one cached ``QubitOperator.matrix``. A real-integral Hamiltonian has an
exactly real sector matrix, stored as float64, and the solve then runs in
real arithmetic; only an operator whose sector entries really are complex
is solved in complex arithmetic. Bases of up to ``_DENSE_DIM`` states get
the lowest pair of a dense ``eigh``, larger ones Lanczos with full
reorthogonalization from a seeded start vector; the crossover was measured
on real sector matrices.

The paired (seniority-zero) Hamiltonian encodes one doubly occupied spatial
orbital per qubit, halving the register relative to the spin-orbital
encoding; its coefficients are locked in by a projection-equivalence test
against the full Jordan-Wigner Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
import scipy.linalg

from .ansatz import Ansatz, ExcitationGenerator
from .integrals import IntegralSet
from .operators import PauliString, QubitOperator

# Real sectors of H8 STO-3G compact Hamiltonians on 2 cores: the lowest pair
# by dense eigh takes 2.4 / 8.0 / 25 / 102 ms at dim 225 / 441 / 735 / 1225,
# lanczos_ground 9.4 / 17.8 / 18.7 / 26 ms
_DENSE_DIM = 600
_MAX_DENSE_QUBITS = 16
_MAX_ITER_QUBITS = 24


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Ordered basis of fixed-particle-number (optionally fixed-S_z) states."""

    n_qubits: int
    n_particles: int
    two_sz: int | None
    states: np.ndarray   # int64 bitmasks, strictly increasing

    def __post_init__(self):
        self.states.flags.writeable = False   # bases are cached and shared

    @property
    def dim(self) -> int:
        return len(self.states)


@lru_cache(maxsize=32)
def sector_basis(n_qubits: int, n_particles: int, two_sz: int | None = None) -> SectorBasis:
    """All bitmasks with the requested popcount (and spin balance).

    Spin balance uses the interleaved convention: even qubits are spin up.
    ``two_sz`` is n_up - n_down.
    """
    if two_sz is None:
        states = [
            sum(1 << b for b in bits)
            for bits in combinations(range(n_qubits), n_particles)
        ]
    else:
        if (n_particles + two_sz) % 2 != 0:
            raise ValueError("incompatible particle number and 2*S_z parity")
        n_up = (n_particles + two_sz) // 2
        n_dn = n_particles - n_up
        ups = [q for q in range(n_qubits) if q % 2 == 0]
        dns = [q for q in range(n_qubits) if q % 2 == 1]
        if n_up < 0 or n_dn < 0 or n_up > len(ups) or n_dn > len(dns):
            raise ValueError("empty sector: spin balance not realizable")
        states = [
            sum(1 << b for b in u + d)
            for u in combinations(ups, n_up)
            for d in combinations(dns, n_dn)
        ]
    if not states:
        raise ValueError("empty sector basis")
    return SectorBasis(
        n_qubits=n_qubits,
        n_particles=n_particles,
        two_sz=two_sz,
        states=np.array(sorted(states), dtype=np.int64),
    )


@lru_cache(maxsize=4)
def full_basis(n_qubits: int) -> SectorBasis:
    return SectorBasis(
        n_qubits=n_qubits,
        n_particles=-1,
        two_sz=None,
        states=np.arange(1 << n_qubits, dtype=np.int64),
    )


def lanczos_ground(matrix, dim: int, tol: float = 1e-12, max_steps: int = 400,
                   seed: int = 12345):
    """Smallest eigenpair by Lanczos with full reorthogonalization."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(dim).astype(np.result_type(matrix.dtype, float))
    q /= np.linalg.norm(q)
    basis = [q]
    alphas: list = []
    betas: list = []
    previous = np.inf
    for step in range(min(max_steps, dim)):
        w = matrix @ basis[-1]
        alpha = float(np.real(np.vdot(basis[-1], w)))
        alphas.append(alpha)
        w = w - alpha * basis[-1]
        if len(basis) > 1:
            w = w - betas[-1] * basis[-2]
        # full reorthogonalization against every stored vector
        for vec in basis:
            w = w - np.vdot(vec, w) * vec
        beta = np.linalg.norm(w)
        evals, evecs = scipy.linalg.eigh_tridiagonal(alphas, betas)
        residual_bound = beta * abs(evecs[-1, 0])
        done = (
            (residual_bound < 1e-10 and abs(evals[0] - previous) < tol)
            or beta < 1e-13
            or step == dim - 1
        )
        if done:
            ground = np.zeros(dim, dtype=q.dtype)
            for coeff, vec in zip(evecs[:, 0], basis):
                ground += coeff * vec
            ground /= np.linalg.norm(ground)
            return float(evals[0]), ground
        previous = evals[0]
        betas.append(float(beta))
        basis.append(w / beta)
    raise RuntimeError("Lanczos failed to converge")


def exact_ground_energy(op: QubitOperator, sector: SectorBasis | None = None):
    """Lowest eigenvalue and eigenvector of a Hermitian qubit operator.

    Small (sector) bases are solved densely, larger ones with Lanczos, both
    in the dtype of ``op.matrix`` on the basis: real arithmetic unless an
    entry there has an imaginary part. The returned pair always satisfies
    ||Hv - Ev|| < 1e-8 in the chosen basis.
    """
    if op.max_imag() >= 1e-8:
        raise ValueError("operator is not Hermitian")
    if sector is None:
        if op.n_qubits > _MAX_DENSE_QUBITS:
            raise ValueError(
                f"full-space diagonalization limited to {_MAX_DENSE_QUBITS} qubits; "
                "restrict to a sector"
            )
        sector = full_basis(op.n_qubits)
    elif sector.n_qubits != op.n_qubits:
        raise ValueError("operator register does not match the sector")
    elif op.n_qubits > _MAX_ITER_QUBITS:
        raise ValueError(f"sector diagonalization limited to {_MAX_ITER_QUBITS} qubits")
    if sector.dim == 0:
        raise ValueError("empty sector")
    mat = op.matrix(sector.states)
    if sector.dim <= _DENSE_DIM:
        evals, evecs = scipy.linalg.eigh(mat.toarray(), subset_by_index=[0, 0])
        energy, vector = float(evals[0]), evecs[:, 0]
    else:
        energy, vector = lanczos_ground(mat, sector.dim)
    residual = np.linalg.norm(mat @ vector - energy * vector)
    if residual > 1e-8:
        raise RuntimeError(f"eigenpair residual {residual:.2e} exceeds 1e-8")
    return energy, vector


# ---------------------------------------------------------------------------
# Seniority-zero (paired) encoding


def build_paired_hamiltonian(mo: IntegralSet) -> QubitOperator:
    """Seniority-zero restriction of the Hamiltonian on n_orb qubits.

    Qubit p means spatial orbital p is doubly occupied. In terms of the
    hard-core pair operators P+_p -> (X_p - i Y_p)/2:

        H = core + sum_p (2 h_pp + <pp|pp>) n_p
                 + sum_{p<q} (4 <pq|pq> - 2 <pq|qp>) n_p n_q
                 + sum_{p<q} <pp|qq> (X_p X_q + Y_p Y_q)/2
    """
    n = mo.n_orb
    terms: dict = {}

    def _add(x, z, coeff):
        key = (x, z)
        terms[key] = terms.get(key, 0.0) + coeff

    _add(0, 0, mo.core_energy)
    for p in range(n):
        w = 2.0 * mo.h[p, p] + mo.g[p, p, p, p]
        # n_p = (I - Z_p)/2
        _add(0, 0, 0.5 * w)
        _add(0, 1 << p, -0.5 * w)
    for p in range(n):
        for q in range(p + 1, n):
            w = 4.0 * mo.g[p, q, p, q] - 2.0 * mo.g[p, q, q, p]
            # n_p n_q = (I - Z_p - Z_q + Z_p Z_q)/4
            _add(0, 0, 0.25 * w)
            _add(0, 1 << p, -0.25 * w)
            _add(0, 1 << q, -0.25 * w)
            _add(0, (1 << p) | (1 << q), 0.25 * w)
            v = mo.g[p, p, q, q]
            xx = (1 << p) | (1 << q)
            _add(xx, 0, 0.5 * v)           # X_p X_q
            _add(xx, xx, 0.5 * v)          # Y_p Y_q
    return QubitOperator(n, terms)


def make_paired_rotation(i: int, a: int, n_orb: int) -> ExcitationGenerator:
    """Paired-encoding image of the pair excitation i -> a.

    i(P+_a P_i - P+_i P_a) = (Y_a X_i - X_a Y_i)/2 on two qubits; the two
    strings commute, so the exponential is an exact two-rotation circuit.
    """
    if i == a:
        raise ValueError("pair rotation needs two distinct orbitals")
    bit_i, bit_a = 1 << i, 1 << a
    strings = (
        (PauliString(n_orb, bit_i | bit_a, bit_a), 0.5),    # X_i Y_a
        (PauliString(n_orb, bit_i | bit_a, bit_i), -0.5),   # Y_i X_a
    )
    return ExcitationGenerator(kind="paired_double", orbitals=(i, a), spin=None,
                               strings=strings)


def build_paired_ansatz(occupied, pair_doubles, n_orb: int) -> Ansatz:
    """Pair-rotation circuit on n_orb qubits mirroring a PNO-UpCCD ansatz.

    ``pair_doubles`` lists (i, a) spatial excitations in ansatz order;
    ``occupied`` lists the reference's doubly occupied spatial orbitals.
    """
    gens = tuple(make_paired_rotation(i, a, n_orb) for i, a in pair_doubles)
    return Ansatz(
        generators=gens,
        n_qubits=n_orb,
        reference=tuple(sorted(occupied)),
        name="paired-UpCCD",
    )
