"""Exact diagonalization of sector Hamiltonians and the paired encoding.

Every solve runs on a basis its caller names, of a register of at most
``_MAX_SECTOR_QUBITS`` = 24 qubits; there is no full-register solve. Every
sector is built from spin-up and spin-down strings by the one rule that
``sector_basis`` states, and every basis, built here or passed in, is
checked by ``_checked_states`` before ``_locate`` searches it. A point's
exact solve runs on the sector its VQE sweeps read, so both read
one cached sector matrix: ``determinant_matrix`` of the compact integrals
(Slater-Condon rules per determinant), through ``IntegralHamiltonian`` or
its paired restriction. One rule, ``between``, signs that matrix's entries
and the circuit factors (``_factors``), and both find images in a basis by
``_locate``. ``IntegralSet`` refuses asymmetric h and g, so
every sector matrix is real symmetric, stored as float64, and every solve
runs in real arithmetic. Bases of up to ``_DENSE_DIM`` states get the
lowest pair of numpy's dense ``eigh``, larger ones a Davidson solve with
the diagonal as preconditioner from a seeded start, so reruns give the
same bits; the crossover was measured on real sector matrices.
``_sector_matrix`` is the one check before a sector matrix is read, here
and in the simulator: the Hamiltonian's register is the basis'.

The paired (seniority-zero) encoding gives one qubit to each spatial
orbital, halving the register relative to the spin-orbital encoding: qubit
p set is the orbital doubly occupied (Elfving et al., PRA 2021).
``PairedHamiltonian`` reads ``determinant_matrix`` on the determinants with
spin-orbitals 2p and 2p + 1 occupied for every set qubit p; its entries are
locked in by a test against the seniority-zero projection of the full
Jordan-Wigner Hamiltonian. Its circuit, ``build_paired_ansatz``, is built
in ``ansatz`` with the other generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
import scipy.sparse

from .integrals import IntegralSet
from .operators import COEFF_CUTOFF

# Real compact-Hamiltonian sectors (H2 s10, LiH model, H8 STO-3G), one BLAS thread,
# median of 15: np.linalg.eigh 0.3 / 0.9-1.3 / 3.4-5.3 / 21-30 ms at dim 64 / 100 /
# 225 / 441, _davidson 2.2-2.4 / 0.9-3.1 / 1.0-2.1 / 3.4-5.1 ms
_DENSE_DIM = 128
_DAVIDSON_SUBSPACE, _DAVIDSON_MAX_MATVECS = 24, 1000
_MAX_SECTOR_QUBITS = 24
# Rows per block of ``determinant_matrix``: the 22-qubit H6 sector took 4.8 s
# at 64 rows against 5.0-5.7 s at 16, 32, 128 and 256 rows (2 cores)
_DETERMINANT_BLOCK = 64


def _checked_states(states, n_qubits: int) -> np.ndarray:
    """A read-only int64 copy of ``states``, if they are nonempty strictly increasing register bitmasks.

    Any other ``states`` are a ``ValueError``. ``_locate`` finds images by
    binary search, so every basis it searches (``SectorBasis.states`` and
    ``determinant_matrix``'s determinants) passes here.
    """
    states = np.array(states, dtype=np.int64)
    if not states.size:
        raise ValueError("empty sector basis")
    if states[0] < 0 or int(states[-1]) >> n_qubits or not np.all(states[1:] > states[:-1]):
        raise ValueError("basis states must be strictly increasing bitmasks of the register")
    states.flags.writeable = False   # bases are cached and shared
    return states


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Ordered basis of bitmask states of a register; ``sector_basis`` builds the sectors."""

    n_qubits: int
    states: np.ndarray   # read-only int64 bitmasks, strictly increasing (``_checked_states``)

    def __post_init__(self):
        object.__setattr__(self, "states", _checked_states(self.states, self.n_qubits))

    @property
    def dim(self) -> int:
        return len(self.states)


def _spread(strings):
    """Bit p of each string (below 2**32) moved to bit 2p: orbital p to its spin-up qubit.

    Elementwise on int64 arrays, and on Python ints.
    """
    # (2**64 - 1) // (2**shift + 1) is 0x0000FFFF0000FFFF, 0x00FF00FF00FF00FF, ..., 0x5555555555555555
    for shift in (16, 8, 4, 2, 1):
        strings = (strings | strings << shift) & (2**64 - 1) // ((1 << shift) + 1)
    return strings


def _strings(n_orbitals: int, n_occupied: int) -> np.ndarray:
    """Every string of ``n_occupied`` of ``n_orbitals`` orbitals, spread (``_spread``), as int64."""
    strings = [sum(1 << p for p in chosen) for chosen in combinations(range(n_orbitals), n_occupied)]
    return _spread(np.array(strings, dtype=np.int64))


def sector_basis(n_qubits: int, n_particles: int, two_sz: int | None = None) -> SectorBasis:
    """The sorted determinants of an N (and S_z) sector of an interleaved register.

    The one sector rule: qubit 2p is orbital p spin up and qubit 2p + 1 is
    orbital p spin down, so a determinant is a spin-up string OR'd with its
    spin-down string shifted left by one, each string spread by ``_spread``
    (Knowles and Handy, CPL 1984). An odd register's extra orbital is spin
    up. ``two_sz`` = n_up - n_down fixes the split of the ``n_particles``;
    without it the sector is the sorted union of every split. A ``two_sz``
    of the wrong parity and a sector with no state are ``ValueError``s.
    Every call form of one sector returns the same cached basis.
    """
    return _sector_basis(n_qubits, n_particles, two_sz)


@lru_cache(maxsize=32)   # keyed on the positional arguments only
def _sector_basis(n_qubits: int, n_particles: int, two_sz: int | None) -> SectorBasis:
    if two_sz is not None and (n_particles + two_sz) % 2 != 0:
        raise ValueError("incompatible particle number and 2*S_z parity")
    n_up = range(n_particles + 1) if two_sz is None else [(n_particles + two_sz) // 2]
    sectors = [_strings((n_qubits + 1) // 2, k)[:, None] | _strings(n_qubits // 2, n_particles - k) << 1
               for k in n_up if 0 <= k <= n_particles]
    return SectorBasis(n_qubits, np.sort(np.concatenate([np.zeros(0, np.int64), *sectors], axis=None)))


def between(lo, hi):
    """The qubits strictly between lo < hi: the mask of the one determinant sign rule.

    A ladder operator on qubit q is signed by the parity of the occupied
    qubits below q (Jordan-Wigner), so an excitation's sign on a
    determinant is (-1)^k, k the occupied qubits it crosses: for a single
    i -> a, the row's in ``between(min(i, a), max(i, a))``; for a double
    i < j -> a < b (a+_a a+_b a_j a_i), those of the row with i and j
    emptied in ``between(i, j)`` and in ``between(a, b)``. A pair double
    2i, 2i+1 -> 2a, 2a+1 crosses none; a hard-core pair rotation has no
    parity. Only ``<<`` and ``-``: exact on Python ints of any width,
    elementwise on int64 arrays.
    """
    return (1 << hi) - (2 << lo)


def _locate(states, images):
    """(column, found): where sorted basis ``states`` hold each bitmask image, and whether they do.

    ``column`` is meaningful only where ``found`` is set.
    """
    column = np.minimum(np.searchsorted(states, images), len(states) - 1)
    return column, states[column] == images


def _determinant_block(block, states, core, h, anti, exchange):
    """Rows ``block`` of the determinant matrix as (row, column, value) entries, by row then column."""
    m, n, b = h.shape[0], int(block[0]).bit_count(), len(block)
    bits = (block[:, None] >> np.arange(m)) & 1
    occ, vir = np.nonzero(bits)[1].reshape(b, n), np.nonzero(1 - bits)[1].reshape(b, m - n)
    row = block[:, None, None]
    (ki, kj), (va, vb) = np.triu_indices(n, 1), np.triu_indices(m - n, 1)
    # diagonal: core + sum_k h_kk + sum_{k<l} <kl||kl>
    i, j = occ[:, ki], occ[:, kj]
    diag = core + h[occ, occ].sum(axis=1) + anti[((i * m + j) * m + i) * m + j].sum(axis=1)
    # singles i -> a: h_ai + sum_k <ak||ik>
    i, a = occ[:, :, None], vir[:, None, :]
    single = h[a, i] + exchange[((a * m + i) * m)[..., None] + occ[:, None, None, :]].sum(axis=-1)
    flip_s = (1 << i) | (1 << a)
    odd_s = np.bitwise_count(row & between(np.minimum(i, a), np.maximum(i, a)))
    # doubles i < j -> a < b: <ab||ij>
    i, j, a, c = occ[:, ki, None], occ[:, kj, None], vir[:, None, va], vir[:, None, vb]
    double = anti[((a * m + c) * m + i) * m + j]
    holes = (1 << i) | (1 << j)
    rest = row ^ holes
    odd_d = np.bitwise_count(rest & between(i, j)) + np.bitwise_count(rest & between(a, c))
    flip_d = holes | (1 << a) | (1 << c)
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
    column, found = _locate(states, key & ((1 << m) - 1))
    return key[found] >> m, column[found], value[found]


def _factors(generators, basis: SectorBasis) -> list:
    """Each excitation generator on the basis as (rows, cols, signs): G|cols> = i signs|rows>.

    G = i(E - E^dag) is fixed by E's (emptied, filled, parity) masks
    (``ExcitationGenerator.masks``). The rows, ascending, are the basis
    states on which E or E^dag acts (one mask all occupied, the other all
    empty), and cols their images with both masks flipped. E and E^dag
    carry the same sign, the parity of the image's occupied parity qubits
    (``between``), so signs (float64) are that sign on rows with the filled
    mask occupied and minus it on the others. A generator that maps a basis
    state outside the basis is refused.
    """
    states, factors = basis.states, []
    for gen in generators:
        emptied, filled, parity = gen.masks
        flip = emptied | filled
        side = states & flip
        rows = np.flatnonzero((side == emptied) | (side == filled))
        images = states[rows] ^ flip
        cols, found = _locate(states, images)
        if not found.all():
            raise ValueError("generator maps a basis state outside the basis")
        odd = (side[rows] == emptied) ^ (np.bitwise_count(images & parity) & 1).astype(bool)
        factors.append((rows, cols, np.where(odd, -1.0, 1.0)))
    return factors


def determinant_matrix(mo: IntegralSet, states: np.ndarray):
    """The Hamiltonian of ``mo`` on a sorted fixed-N basis of determinants, as a real read-only CSR.

    Bit q of a state occupies spin-orbital q of the 2 * ``mo.n_orb``,
    interleaved as in ``operators``. Per determinant: the diagonal, every
    single i -> a (h_ai + sum_k <ak||ik>) and double i < j -> a < b
    (<ab||ij>), with the Jordan-Wigner sign (``between``) of a+_a (a+_b a_j) a_i; images
    outside ``states`` and entries below ``COEFF_CUTOFF`` are dropped.
    Blocks of ``_DETERMINANT_BLOCK`` rows fill, in order, arrays sized by the
    spin-conserving excitation count; each entry's operations are
    elementwise, so the block size changes no bit.
    """
    states, n_qubits = _checked_states(states, 2 * mo.n_orb), 2 * mo.n_orb
    dim, counts = len(states), np.unique(np.bitwise_count(states))
    if counts.size != 1:
        raise ValueError("the determinant matrix needs a fixed-particle-number basis")
    if n_qubits + (_DETERMINANT_BLOCK - 1).bit_length() > 63:
        raise ValueError("a block's (row, image) keys overflow int64 on this register")
    # h_PQ and <PQ||RS> with <PQ|RS> = <pq|rs> d(s_P, s_R) d(s_Q, s_S) over interleaved
    # spin-orbitals: spin-forbidden entries are (signed) zeros
    eye = np.eye(2)
    h, g = np.kron(mo.h, eye), np.kron(mo.g, np.einsum("ac,bd->abcd", eye, eye))
    anti = g - g.transpose(0, 1, 3, 2)
    tables = (float(mo.core_energy), h, anti.ravel(), np.einsum("akik->aik", anti).ravel())
    # a row holds at most 1 + its spin-conserving singles and doubles
    up = np.bitwise_count(states & _spread((1 << mo.n_orb) - 1)).astype(np.int64)
    n = int(counts[0])
    dn, up_holes, dn_holes = n - up, mo.n_orb - up, mo.n_orb - n + up
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
    """The Hamiltonian of an ``IntegralSet`` on its 2 * ``n_orb`` spin-orbitals.

    The simulator and ``exact_ground_energy`` read its ``n_qubits`` and its
    ``matrix``: ``determinant_matrix`` on the basis' determinants, cached per basis.
    """

    __slots__ = ("integrals", "n_qubits", "_compiled")

    def __init__(self, integrals: IntegralSet):
        self.integrals, self.n_qubits, self._compiled = integrals, 2 * integrals.n_orb, {}

    def _determinants(self, states: np.ndarray) -> np.ndarray:
        """The spin-orbital bitmasks of basis states: here the states themselves."""
        return states

    def matrix(self, states):
        states = np.asarray(states, dtype=np.int64)
        key = states.tobytes()
        if key not in self._compiled:
            self._compiled[key] = determinant_matrix(self.integrals, self._determinants(states))
        return self._compiled[key]


class PairedHamiltonian(IntegralHamiltonian):
    """The seniority-zero restriction of an ``IntegralSet``'s Hamiltonian, on ``n_orb`` qubits.

    Qubit p set is spatial orbital p doubly occupied, so bit p of a state
    becomes spin-orbitals 2p and 2p + 1 of its determinant. The map keeps
    the order of states, so a sorted basis stays sorted.
    """

    __slots__ = ()

    def __init__(self, integrals: IntegralSet):
        super().__init__(integrals)
        self.n_qubits = integrals.n_orb

    def _determinants(self, states: np.ndarray) -> np.ndarray:
        return 3 * _spread(states)


def _sector_matrix(op: IntegralHamiltonian, basis: SectorBasis):
    """The cached matrix of a Hamiltonian on a basis of its register."""
    if not isinstance(op, IntegralHamiltonian):
        raise TypeError(f"IntegralHamiltonian or PairedHamiltonian expected, got {type(op).__name__}")
    if op.n_qubits != basis.n_qubits:
        raise ValueError("operator register does not match the basis")
    return op.matrix(basis.states)


def _check_solvable(n_qubits: int) -> None:
    """Refuse a register past the exact-solve cap."""
    if n_qubits > _MAX_SECTOR_QUBITS:
        raise ValueError(f"sector diagonalization limited to {_MAX_SECTOR_QUBITS} qubits")


def _davidson(mat) -> tuple:
    """Lowest eigenpair of a real symmetric sparse matrix, shaped as ``eigh``'s (Davidson, 1975).

    The start is the lowest-diagonal determinant plus a seeded random admixture of
    norm 1e-2 (1e-2 per component took 4x the products), which gives every symmetry
    block weight. Each step adds Olsen's correction (D - theta)^-1 (r - e x), D the
    diagonal, x the Ritz vector, r its residual and e such that the correction is
    orthogonal to x (Olsen et al., Chem. Phys. Lett. 1990); it stays new where D is
    exact. A full subspace restarts on its 4 lowest Ritz vectors; r below 1e-9 ends it.
    """
    diag = mat.diagonal()
    step = np.random.default_rng(12345).standard_normal(len(diag))
    step *= 1e-2 / np.linalg.norm(step)
    step[np.argmin(diag)] += 1.0
    basis, images = np.empty((2, _DAVIDSON_SUBSPACE, len(diag)))
    k = 0
    for _ in range(_DAVIDSON_MAX_MATVECS):
        basis[k] = step / np.linalg.norm(step)
        images[k] = mat @ basis[k]
        k += 1
        theta, s = np.linalg.eigh(basis[:k] @ images[:k].T)
        vector = s[:, 0] @ basis[:k]
        residual = s[:, 0] @ images[:k] - theta[0] * vector
        if np.linalg.norm(residual) < 1e-9:
            return theta[:1], vector[:, None]
        if k == _DAVIDSON_SUBSPACE:
            keep, k = s[:, :4].T, 4
            basis[:k], images[:k] = keep @ basis, keep @ images
        shift = diag - theta[0]
        inverse = 1.0 / np.where(np.abs(shift) < 1e-8, 1e-8, shift)
        step = inverse * (residual - (vector @ (inverse * residual)) / (vector @ (inverse * vector)) * vector)
        for _ in range(2):
            step -= (basis[:k] @ step) @ basis[:k]
    raise RuntimeError(f"Davidson unconverged after {_DAVIDSON_MAX_MATVECS} matrix-vector products")


def exact_ground_energy(op: IntegralHamiltonian, sector: SectorBasis):
    """Lowest eigenvalue and eigenvector of a Hamiltonian on a basis of its register.

    ``op`` is an ``IntegralHamiltonian`` or a ``PairedHamiltonian``, whose
    sector matrix is real symmetric. Bases of up to ``_DENSE_DIM`` states are
    solved densely, larger ones by ``_davidson``. The returned pair always
    satisfies ||Hv - Ev|| < 1e-8 in the chosen basis; a Davidson solve that
    reaches its matrix-vector cap is a ``RuntimeError``.
    """
    _check_solvable(op.n_qubits)
    mat = _sector_matrix(op, sector)
    evals, evecs = np.linalg.eigh(mat.toarray()) if sector.dim <= _DENSE_DIM else _davidson(mat)
    energy, vector = float(evals[0]), evecs[:, 0]
    residual = np.linalg.norm(mat @ vector - energy * vector)
    if residual > 1e-8:
        raise RuntimeError(f"eigenpair residual {residual:.2e} exceeds 1e-8")
    return energy, vector


# ---------------------------------------------------------------------------
# Seniority-zero (paired) encoding


def build_paired_hamiltonian(mo: IntegralSet) -> PairedHamiltonian:
    """Seniority-zero restriction of the Hamiltonian on n_orb qubits.

    Qubit p means spatial orbital p is doubly occupied. On these
    determinants the Slater-Condon rules give, with hard-core pair
    operators P+_p -> (X_p - i Y_p)/2,

        H = core + sum_p (2 h_pp + <pp|pp>) n_p
                 + sum_{p<q} (4 <pq|pq> - 2 <pq|qp>) n_p n_q
                 + sum_{p<q} <pp|qq> (X_p X_q + Y_p Y_q)/2
    """
    return PairedHamiltonian(mo)
