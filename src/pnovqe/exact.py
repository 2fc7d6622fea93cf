"""Exact diagonalization of qubit Hamiltonians and the paired encoding.

A point's exact solve runs on the sector its VQE sweeps read, so both read
one cached sector matrix: ``determinant_matrix`` of the compact integrals
(``IntegralHamiltonian``), or ``QubitOperator.matrix`` of a Pauli operator.
A real-integral Hamiltonian has an exactly real sector matrix, stored as
float64, and the solve then runs in real arithmetic; only an operator whose
sector entries really are complex is solved in complex arithmetic. Bases of
up to ``_DENSE_DIM`` states get the lowest pair of a dense ``eigh``, larger
ones Lanczos with full reorthogonalization from a seeded start vector; the
crossover was measured on real sector matrices.

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
import scipy.sparse

from .ansatz import Ansatz, ExcitationGenerator
from .integrals import IntegralSet
from .operators import COEFF_CUTOFF, PauliString, QubitOperator

# Real sectors of H8 STO-3G compact Hamiltonians on 2 cores: the lowest pair
# by dense eigh takes 2.4 / 8.0 / 25 / 102 ms at dim 225 / 441 / 735 / 1225,
# lanczos_ground 9.4 / 17.8 / 18.7 / 26 ms
_DENSE_DIM = 600
_MAX_FULL_QUBITS = 16
_MAX_ITER_QUBITS = 24
# Lanczos: eigenvalue tolerance, step cap and start-vector seed
_LANCZOS_TOL, _LANCZOS_STEPS, _LANCZOS_SEED = 1e-12, 400, 12345
# Rows per block of ``determinant_matrix``: the 22-qubit H6 sector took 4.8 s
# at 64 rows against 5.0-5.7 s at 16, 32, 128 and 256 rows (2 cores)
_DETERMINANT_BLOCK = 64


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


def _determinant_block(block, states, core, h, anti, exchange):
    """Rows ``block`` of the determinant matrix as (row, column, value) entries, by row then column."""
    m, n, b = h.shape[0], int(block[0]).bit_count(), len(block)
    bits = (block[:, None] >> np.arange(m)) & 1
    occ, vir = np.nonzero(bits)[1].reshape(b, n), np.nonzero(1 - bits)[1].reshape(b, m - n)
    below = np.cumsum(bits, axis=1) - bits      # c_p: occupied spin-orbitals below p
    c_occ, c_vir = np.take_along_axis(below, occ, 1), np.take_along_axis(below, vir, 1)
    (ki, kj), (va, vb) = np.triu_indices(n, 1), np.triu_indices(m - n, 1)
    # diagonal: core + sum_k h_kk + sum_{k<l} <kl||kl>
    i, j = occ[:, ki], occ[:, kj]
    diag = core + h[occ, occ].sum(axis=1) + anti[((i * m + j) * m + i) * m + j].sum(axis=1)
    # singles i -> a: h_ai + sum_k <ak||ik>; a+_a a_i has the parity c_i + c_a - [i < a]
    i, a = occ[:, :, None], vir[:, None, :]
    single = h[a, i] + exchange[((a * m + i) * m)[..., None] + occ[:, None, None, :]].sum(axis=-1)
    flip_s = np.left_shift(1, i) | np.left_shift(1, a)
    odd_s = c_occ[:, :, None] + c_vir[:, None, :] + (i < a)
    # doubles i < j -> a < b: <ab||ij>; a+_a a+_b a_j a_i has the parity
    # c_i + c_j - 1 + c_a + c_b, less the number of i, j strictly between a and b
    i, j, a, c = occ[:, ki, None], occ[:, kj, None], vir[:, None, va], vir[:, None, vb]
    double = anti[((a * m + c) * m + i) * m + j]
    holes = np.left_shift(1, i) | np.left_shift(1, j)
    between = (np.left_shift(1, c) - 1) & ~(np.left_shift(2, a) - 1)
    odd_d = ((c_occ[:, ki] + c_occ[:, kj] + 1)[:, :, None] + (c_vir[:, va] + c_vir[:, vb])[:, None, :]
             + np.bitwise_count(holes & between))
    flip_d = holes | np.left_shift(1, a) | np.left_shift(1, c)
    keys, values = [], []
    for value, flip, odd in ((diag, 0, 0), (single, flip_s, odd_s), (double, flip_d, odd_d)):
        keep = ~(np.abs(value) < COEFF_CUTOFF)
        shape = (b,) + (1,) * (value.ndim - 1)
        key = np.left_shift(np.arange(b).reshape(shape), m) | (block.reshape(shape) ^ flip)
        keys.append(np.broadcast_to(key, value.shape)[keep])
        values.append(np.where(odd & 1, -value, value)[keep])
    # keys row << m | image sort by row, then image: a row's columns come out sorted
    order = np.argsort(np.concatenate(keys))
    key, value = np.concatenate(keys)[order], np.concatenate(values)[order]
    image = key & ((1 << m) - 1)
    column = np.minimum(np.searchsorted(states, image), len(states) - 1)
    found = states[column] == image
    return key[found] >> m, column[found], value[found]


def determinant_matrix(mo: IntegralSet, states: np.ndarray, n_qubits: int):
    """The Hamiltonian of ``mo`` on a sorted fixed-N basis of determinants, as a real read-only CSR.

    Bit q of a state occupies spin-orbital q, interleaved as in ``operators``.
    Per determinant: the diagonal, every single i -> a (h_ai + sum_k <ak||ik>)
    and double i < j -> a < b (<ab||ij>), with the Jordan-Wigner sign of
    a+_a (a+_b a_j) a_i; images outside ``states`` and entries below
    ``COEFF_CUTOFF`` are dropped. Blocks of ``_DETERMINANT_BLOCK`` rows fill,
    in order, arrays sized by the spin-conserving excitation count; each
    entry's operations are elementwise, so the block size changes no bit.
    """
    dim, counts = len(states), np.unique(np.bitwise_count(states))
    if counts.size != 1:
        raise ValueError("the determinant matrix needs a nonempty fixed-particle-number basis")
    if n_qubits + (_DETERMINANT_BLOCK - 1).bit_length() > 63:
        raise ValueError("a block's (row, image) keys overflow int64 on this register")
    # h_PQ and <PQ||RS> with <PQ|RS> = <pq|rs> d(s_P, s_R) d(s_Q, s_S) over interleaved
    # spin-orbitals: spin-forbidden entries are (signed) zeros
    n_so, eye = 2 * mo.n_orb, np.eye(2)
    h, g = np.zeros((n_qubits,) * 2), np.zeros((n_qubits,) * 4)
    h[:n_so, :n_so] = np.kron(mo.h, eye)
    g[:n_so, :n_so, :n_so, :n_so] = np.kron(mo.g, np.einsum("ac,bd->abcd", eye, eye))
    anti = g - g.transpose(0, 1, 3, 2)
    tables = (float(mo.core_energy), h, anti.ravel(), np.einsum("akik->aik", anti).ravel())
    # a row holds at most 1 + its spin-conserving singles and doubles
    up = np.bitwise_count(states & sum(1 << q for q in range(0, n_qubits, 2))).astype(np.int64)
    n = int(counts[0])
    dn, up_holes, dn_holes = n - up, (n_qubits + 1) // 2 - up, n_qubits // 2 - n + up
    pairs = up * (up - 1) * up_holes * (up_holes - 1) + dn * (dn - 1) * dn_holes * (dn_holes - 1)
    bound = int(np.sum(1 + up * up_holes + dn * dn_holes + up * dn * up_holes * dn_holes + pairs // 4))
    data, indices, indptr = np.empty(bound), np.empty(bound, np.int32), np.zeros(dim + 1, np.int64)
    for lo in range(0, dim, _DETERMINANT_BLOCK):
        block = states[lo:lo + _DETERMINANT_BLOCK]
        rows, columns, values = _determinant_block(block, states, *tables)
        start = indptr[lo]
        data[start:start + values.size], indices[start:start + values.size] = values, columns
        indptr[lo + 1:lo + 1 + len(block)] = start + np.cumsum(np.bincount(rows, minlength=len(block)))
    # the tail past nnz was never written, so it takes no resident memory
    mat = scipy.sparse.csr_matrix((data[:indptr[-1]], indices[:indptr[-1]], indptr), shape=(dim, dim))
    for array in (mat.data, mat.indices, mat.indptr):
        array.flags.writeable = False   # the cached matrix is shared
    return mat


class IntegralHamiltonian:
    """The Hamiltonian of an ``IntegralSet`` on ``n_qubits`` spin-orbitals.

    It has the members of a ``QubitOperator`` that the simulator and
    ``exact_ground_energy`` read; ``matrix`` is ``determinant_matrix``, cached per basis.
    """

    __slots__ = ("integrals", "n_qubits", "_compiled")

    def __init__(self, integrals: IntegralSet, n_qubits: int):
        if n_qubits < 2 * integrals.n_orb:
            raise ValueError("register smaller than the spin-orbitals of the integrals")
        self.integrals, self.n_qubits, self._compiled = integrals, n_qubits, {}

    def max_imag(self) -> float:
        return 0.0

    def matrix(self, states: np.ndarray):
        key = states.tobytes()
        if key not in self._compiled:
            self._compiled[key] = determinant_matrix(self.integrals, states, self.n_qubits)
        return self._compiled[key]


def lanczos_ground(matrix, dim: int):
    """Smallest eigenpair by Lanczos with full reorthogonalization."""
    rng = np.random.default_rng(_LANCZOS_SEED)
    q = rng.standard_normal(dim).astype(np.result_type(matrix.dtype, float))
    q /= np.linalg.norm(q)
    basis = [q]
    alphas: list = []
    betas: list = []
    previous = np.inf
    for step in range(min(_LANCZOS_STEPS, dim)):
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
            (residual_bound < 1e-10 and abs(evals[0] - previous) < _LANCZOS_TOL)
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
        if op.n_qubits > _MAX_FULL_QUBITS:
            raise ValueError(
                f"full-space diagonalization limited to {_MAX_FULL_QUBITS} qubits; "
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
