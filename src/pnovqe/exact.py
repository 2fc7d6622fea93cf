"""Exact diagonalization of sector Hamiltonians and the paired encoding.

Every solve runs on a basis its caller names; there is no full-register
solve. Every sector is built from spin-up and spin-down strings by the one
rule that ``sector_basis`` states, and every basis, built here or passed
in, is checked by ``_checked_states`` before ``_locate`` searches it. A
point's exact solve runs on the sector its VQE sweeps read, so both read
one operator per (Hamiltonian, basis), kept on the Hamiltonian and found
through ``_sector_operator``, the one check that the Hamiltonian's
register is the basis'. An operator has ``@`` on one vector and
``diagonal()``.

For an ``IntegralHamiltonian`` it is ``_StringSigma``, the direct
determinant sigma of Knowles and Handy (Chem. Phys. Lett. 1984) on the
spin-up x spin-down string grids whose union is the basis (``_grids``):
the one-spin moves of E_pq + E_qp (p >= q) per string, signed by the
determinant rule ``between``, make a table of the one-electron operators
on the basis, which one GEMM with the two-electron integrals joins:
``IntegralSet.eri``, chemists' (pq|rs), read as it is stored. The
diagonal is in closed form. No Hamiltonian matrix is stored. The table
and the paired matrix below are ``_PaddedRows``: numpy arrays whose
products add in the order of scipy's sparse kernels, so that they give
scipy's bits and no process loads scipy. The same
rule signs the circuit factors (``_factors``), which find their images in
a basis by ``_locate``. ``IntegralSet`` refuses an asymmetric h and an eri
without 8-fold symmetry, so every operator is real symmetric and every
solve runs in real arithmetic: the Davidson solve
(``_davidson``), with the diagonal as preconditioner from a seeded start,
so reruns give the same bits. ``sector_basis`` admits every sector, on
every call and before it enumerates a state, through ``_check_solvable``:
an estimate from the orbital and electron counts alone of its operator
and Davidson arrays, refused past physical memory (``_physical_bytes``).
``_pair_matrix`` prices its pair-count sector the same way.

The paired (seniority-zero) encoding gives one qubit to each spatial
orbital, halving the register relative to the spin-orbital encoding: qubit
p set is the orbital doubly occupied (Elfving et al., PRA 2021).
``PairedHamiltonian``'s operator is the ``_PaddedRows`` of the closed form in
``build_paired_hamiltonian``'s docstring on a pair-count sector, read from
the same string moves as the sigma, and any other basis is refused; its
entries are locked in by a test against the seniority-zero projection of
the full Jordan-Wigner Hamiltonian. Its circuit, ``build_paired_ansatz``,
is built in ``ansatz`` with the other generators, and refuses an empty
list of pair doubles, whose register it could not tell from a spin one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
import numpy.random  # noqa: F401  (the Davidson start: loaded here, so that no point imports a module)

from .integrals import IntegralSet
from .operators import MAX_MASK_QUBITS

_DAVIDSON_SUBSPACE, _DAVIDSON_MAX_MATVECS = 24, 1000
# the interpreter, numpy and a point's integrals: 40-48 MiB at the H6 points, rounded up
_BASE_BYTES = 100 << 20
# slots per block of a sparse operator's rows: a product's temporaries are one block's. A sigma product at
# the H6 points (27 225 and 81 796 determinants) measured 4-8 % faster at 2^15 than at 2^13 or 2^17
_BLOCK = 1 << 15
_CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"   # cgroup v2: a byte count, or "max"
# the processes that solve sectors at once on this memory: each curve worker's start sets it in that worker
_workers = 1


def _checked_states(states, n_qubits: int) -> np.ndarray:
    """A read-only int64 copy of ``states``, if they are nonempty strictly increasing register bitmasks.

    Any other ``states`` are a ``ValueError``. ``_locate`` finds images by
    binary search, so every basis it searches (``SectorBasis.states``)
    passes here.
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
    """Every string of ``n_occupied`` of ``n_orbitals`` orbitals, bit p for orbital p, ascending int64."""
    return np.sort(np.array([sum(1 << p for p in chosen)
                             for chosen in combinations(range(n_orbitals), n_occupied)], dtype=np.int64))


def _grid(n_qubits: int, n_up: int, n_down: int) -> np.ndarray:
    """The determinants of ``n_up`` and ``n_down`` electrons: spin-up string by row, spin-down by column."""
    return _spread(_strings((n_qubits + 1) // 2, n_up))[:, None] | _spread(_strings(n_qubits // 2, n_down)) << 1


def sector_basis(n_qubits: int, n_particles: int, two_sz: int | None = None) -> SectorBasis:
    """The sorted determinants of an N (and S_z) sector of an interleaved register, admitted first.

    The one sector rule: qubit 2p is orbital p spin up and qubit 2p + 1 is
    orbital p spin down, so a determinant is a spin-up string OR'd with its
    spin-down string shifted left by one, each string spread by ``_spread``
    (Knowles and Handy, CPL 1984). An odd register's extra orbital is spin
    up. ``two_sz`` = n_up - n_down fixes the split of the ``n_particles``;
    without it the sector is the sorted union of every split. A register
    past ``MAX_MASK_QUBITS``, a ``two_sz`` of the wrong parity and a sector
    with no state are ``ValueError``s, and so, on every call and before any
    state is enumerated, is a sector whose exact solve ``_check_solvable``
    prices past physical memory from its (n_up, n_down) splits, in
    n_qubits // 2 orbitals (an odd register is a paired one, whose pair
    matrix checks its own basis). Every call form of one sector returns
    the same cached basis.
    """
    if n_qubits > MAX_MASK_QUBITS:
        raise ValueError(f"int64 bitmask states hold at most {MAX_MASK_QUBITS} qubits")
    if two_sz is not None and (n_particles + two_sz) % 2 != 0:
        raise ValueError("incompatible particle number and 2*S_z parity")
    n_up = range(n_particles + 1) if two_sz is None else [(n_particles + two_sz) // 2]
    splits = tuple((k, n_particles - k) for k in n_up
                   if 0 <= k <= (n_qubits + 1) // 2 and 0 <= n_particles - k <= n_qubits // 2)
    _check_solvable(n_qubits // 2, *splits)
    return _sector_basis(n_qubits, splits)


@lru_cache(maxsize=32)
def _sector_basis(n_qubits: int, splits: tuple) -> SectorBasis:
    sectors = [_grid(n_qubits, n_up, n_down) for n_up, n_down in splits]
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


@lru_cache(maxsize=16)
def _string_moves(n_orb: int, n_occ: int) -> tuple:
    """(occupations, pair, string, image, sign): E_pq + E_qp (p >= q) on the ascending strings (``_strings``).

    Move i takes string ``string[i]`` to string ``image[i]`` (indices into
    the strings) with ``sign[i]`` in pair ``pair[i]`` = p (p + 1) / 2 + q,
    E_pp taken once: where a+_p a_q or a+_q a_p moves an electron of the
    string to an empty orbital, signed by the parity of the string's
    electrons strictly between p and q (``between``), and, for p = q, where
    the string holds p. Every pair's moves are symmetric.
    """
    strings = _strings(n_orb, n_occ)
    occupations = (strings[:, None] >> np.arange(n_orb)) & 1
    occupied = occupations.astype(bool)
    # a boolean mask of (string, p, q), q occupied and p empty or q: no int64 per entry
    string, p, q = np.nonzero(occupied[:, None, :] & (np.eye(n_orb, dtype=bool) | ~occupied[:, :, None]))
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    odd = np.bitwise_count(strings[string] & np.where(p == q, 0, between(lo, hi))) & 1
    image = np.searchsorted(strings, strings[string] ^ (1 << p) ^ (1 << q))
    # string copied: as a view it would keep p and q in the cache
    return occupations, hi * (hi + 1) // 2 + lo, string.copy(), image, np.where(odd, -1.0, 1.0)


def _grids(basis: SectorBasis):
    """Yield (n_up, n_down, positions, phases) of each spin grid (``_grid``) whose union is the basis.

    ``positions[I, J]`` is where the basis holds the determinant of spin-up
    string I and spin-down string J, and ``phases[I, J]`` its sign in the
    basis' order: a grid determinant puts its spin-up creators before its
    spin-down ones, which in ascending qubit order takes (-1)^k, k its
    (spin up at p, spin down at q) pairs with p > q. A basis that is not an
    (N, S_z) or an N sector of its (even) register is a ``ValueError``; the
    ``sector_basis`` call that checks it prices it too.
    """
    states, n_qubits = basis.states, basis.n_qubits
    n, below = int(states[0]).bit_count(), np.tril(np.ones((n_qubits // 2,) * 2, np.int64), -1)
    up = np.bitwise_count(states & _spread((1 << (n_qubits + 1) // 2) - 1))
    two_sz = 2 * int(up[0]) - n if np.all(up == up[0]) else None
    if np.any(np.bitwise_count(states) != n) or not np.array_equal(
            states, sector_basis(n_qubits, n, two_sz).states):
        raise ValueError("the sector operator needs an (N, S_z) or an N sector basis")
    for k in sorted(set(up.tolist())):
        crossed = _string_moves(n_qubits // 2, k)[0] @ below @ _string_moves(n_qubits // 2, n - k)[0].T
        yield k, n - k, np.searchsorted(states, _grid(n_qubits, k, n - k)), 1 - 2.0 * (crossed & 1)


def _physical_bytes() -> int:
    """The memory one process checks its own sector against: its share of the RAM or of a smaller cgroup limit.

    The limit is a decimal byte count in ``_CGROUP_MEMORY_MAX``; "max", a
    missing and an unreadable file are no limit. The share is 1 /
    ``_workers``: a parallel curve's workers solve their sectors at once.
    """
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open(_CGROUP_MEMORY_MAX, encoding="ascii") as file:
            limit = file.read().strip()
    except (OSError, UnicodeError):
        limit = "max"
    return (min(ram, int(limit)) if limit.isdecimal() else ram) // _workers


def _check_solvable(n_orb: int, *grids) -> None:
    """Refuse a basis of (n_up, n_down) spin ``grids`` of ``n_orb`` orbitals past physical memory.

    ``sector_basis`` calls it on every sector before enumerating one, and
    ``_pair_matrix`` on its sector of k pairs, as a (k, 0) grid of the pair
    register. The estimate needs only the counts. A grid holds
    C(n_orb, n_up) C(n_orb, n_down) determinants, and a string of k electrons has
    k (n_orb - k + 1) one-spin moves (``_string_moves``), so the sigma's
    table (or the pair matrix's rows) has at most dim x moves slots. It
    prices 24 B per slot: the table's 16 B (an intp column and a float64
    value) and the int32 key and int8 value per slot that its setup holds
    beside it. To that it adds 2 arrays of pairs x dim float64 for the
    products' D and G, which the sigma keeps, 2 x ``_DAVIDSON_SUBSPACE`` x
    dim float64 for the Davidson subspace, 32 B per move of each string
    count's move table that ``_string_moves`` keeps (an int64 pair, string
    and image and a float64 sign; on a grid of one spin, as a pair sector
    is, as many as the slots), and ``_BASE_BYTES``. A solve's peak RSS
    measured 0.69-0.87 of it, on random integrals, on sectors of 3 + 3
    electrons in 11 and 13 orbitals, of 5 + 5 in 10 and 11, on the N = 8
    sector of 8 orbitals and on sectors of 7, 8 and 9 pairs in 14, 16 and
    18 orbitals. It is checked against this process' share of physical
    memory (``_physical_bytes``).
    """
    moves = {k: k * (n_orb + 1 - k) for grid in grids for k in grid}   # of a string of k electrons
    # per determinant: 24 B per move, and 8 B for each of its pair rows in D and in G and each Davidson vector;
    # per string of each move table: 32 B per move
    need = _BASE_BYTES + 32 * sum(math.comb(n_orb, k) * m for k, m in moves.items()) + sum(
        math.comb(n_orb, up) * math.comb(n_orb, down) * 8 * (
            3 * (moves[up] + moves[down]) + n_orb * (n_orb + 1) + 2 * _DAVIDSON_SUBSPACE) for up, down in grids)
    if need > (have := _physical_bytes()):
        share = f" each of {_workers} curve workers may use" if _workers > 1 else ""
        raise ValueError(f"the exact solve of {' or '.join(f'{u} + {d}' for u, d in grids)} electrons in "
                         f"{n_orb} orbitals needs about {need} bytes, past the {have} bytes "
                         f"of physical memory{share}")


class _PaddedRows:
    """A real sparse (n, m) matrix, its rows padded to one width, applied to a vector with scipy's sums exactly.

    The rows are kept in blocks of at least two and about ``_BLOCK`` slots
    each: slot k of row b x block + i holds column ``columns[b, k, i]``
    (intp) and value ``values[b, k, i]`` (float64, read-only). A row's
    nonzero values sit at increasing columns, none repeated, as in scipy's
    canonical CSR; its other slots, and the rows that fill out the last
    block, hold 0. Those change no sum, since every sum starts at +0.0, to
    which +-0.0 adds nothing.
    """

    def __init__(self, columns: np.ndarray, values: np.ndarray, n_columns: int):
        """From (n, width) rows of columns and values."""
        n, width = columns.shape
        self.shape, block = (n, n_columns), max(2, min(n, _BLOCK // max(width, 1)))
        self.columns = np.zeros((-(-n // block), width, block), np.intp)
        self.values = np.zeros(self.columns.shape)
        for b, start in enumerate(range(0, n, block)):
            self.columns[b, :, :n - start] = columns[start:start + block].T
            self.values[b, :, :n - start] = values[start:start + block].T
        self.columns.flags.writeable = self.values.flags.writeable = False   # kept on the Hamiltonian and shared

    def diagonal(self) -> np.ndarray:
        n_blocks, _, block = self.columns.shape
        rows = np.arange(n_blocks * block).reshape(n_blocks, 1, block)
        return np.where(self.columns == rows, self.values, 0.0).sum(axis=1).ravel()[:self.shape[0]]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """M x for a vector x: each row's products added in slot order from 0.0.

        That is the order of scipy's csr kernel. numpy's reduce keeps it
        across a block's slots, as it would not for a lone row.
        """
        n_blocks, _, block = self.columns.shape
        out = np.empty(n_blocks * block)
        for b in range(n_blocks):
            products = x[self.columns[b]]
            products *= self.values[b]
            np.add.reduce(products, axis=0, initial=0.0, out=out[b * block:(b + 1) * block])
        return out[:self.shape[0]]

    def transpose_matmul(self, x: np.ndarray, out: np.ndarray) -> None:
        """M^T x for a vector x into ``out`` (m values, of any shape), one block of rows at a time.

        ``np.add.at`` adds each block's products to ``out``, set to 0.0, in
        (slot, row) order, and scipy's csc kernel in row order; the two
        agree on every column of at most two nonzero values, whose sum has
        no order. A block's products are the only temporaries.
        """
        n_blocks, width, block = self.columns.shape
        rows = x
        if n_blocks * block > self.shape[0]:   # x, and 0 in the rows that fill out the last block
            rows = np.zeros(n_blocks * block)
            rows[:self.shape[0]] = x
        flat, terms = out.reshape(-1), np.empty((width, block))
        flat.fill(0.0)
        for b in range(n_blocks):
            np.multiply(self.values[b], rows[b * block:(b + 1) * block], out=terms)
            np.add.at(flat, self.columns[b].reshape(-1), terms.reshape(-1))


class _StringSigma:
    """An ``IntegralSet``'s Hamiltonian on a sector basis, applied by its one-electron moves, never stored.

    H = core + sum_pq k_pq E_pq + 1/2 sum_pqrs (pq|rs) E_pq E_rs, with E_pq
    summed over both spins and k = h - 1/2 sum_r (pr|rq) (Knowles and
    Handy, CPL 1984). The table E, of shape (pairs x dim, dim), holds
    <i|E_pq + E_qp|j> for the pairs p >= q in row pq x dim + i and column
    j: each spin grid's string moves (``_string_moves``) at every string of
    the other spin, placed and signed in the basis by ``_grids``. It is
    kept as E^T in ``_PaddedRows``: row j holds the moves of determinant
    j's spin-up string and of its spin-down string, sorted by column; E_pp
    from both spins is one entry of value 2. A row of E holds at most one
    move of each spin, so E C by ``np.add.at`` has scipy's bits. A
    product takes one vector C: D = E C, G = (1/2 (pq|rs) + k_pq d_rs / N)
    D in one GEMM, since sum_r E_rr C = N C on a basis of N electrons, and
    sigma = E^T G + core C. The diagonal is in closed form.
    """

    def __init__(self, mo: IntegralSet, basis: SectorBasis):
        n, dim, grids, eri = mo.n_orb, basis.dim, list(_grids(basis)), mo.eri
        p, q = np.tril_indices(n)
        one = (mo.h - 0.5 * np.einsum("prrq->pq", eri))[p, q]
        self._coupling = 0.5 * eri[p, q][:, p, q] + np.outer(one, p == q) / max(sum(grids[0][:2]), 1)
        coulomb, exchange = np.einsum("ppqq->pq", eri), np.einsum("pqqp->pq", eri)
        self._core, self._diagonal = float(mo.core_energy), np.empty(dim)
        # each determinant's moves as keys 2 (pq x dim + i) + (sign < 0), one row of keys per determinant,
        # padded past every move where a grid has fewer moves than the widest
        n_rows = len(one) * dim
        key = np.int32 if 2 * n_rows < 2**31 else np.int64
        width = max(up * (n + 1 - up) + down * (n + 1 - down) for up, down, *_ in grids)
        keys = np.full((dim, width), 2 * n_rows, key)
        for n_up, n_down, positions, phases in grids:
            (up, *up_moves), (down, *down_moves) = _string_moves(n, n_up), _string_moves(n, n_down)
            own = [o @ np.diag(mo.h) + 0.5 * ((o @ (coulomb - exchange)) * o).sum(1) for o in (up, down)]
            self._diagonal[positions] = self._core + own[0][:, None] + own[1] + up @ coulomb @ down.T
            # a string of k electrons has k (n + 1 - k) moves: one row of them per string
            (up_pair, up_image, up_odd), (down_pair, down_image, down_odd) = (
                (pair.reshape(len(o), -1).astype(key), image.reshape(len(o), -1), (sign < 0).reshape(len(o), -1))
                for o, (pair, _, image, sign) in ((up, up_moves), (down, down_moves)))
            at, odd = positions.astype(key), phases < 0
            up_keys = 2 * (up_pair[:, None] * dim + at[up_image].transpose(0, 2, 1)) + (
                up_odd[:, None] ^ odd[:, :, None] ^ odd[up_image].transpose(0, 2, 1))
            keys[positions.ravel(), :up_keys.shape[2]] = up_keys.reshape(positions.size, -1)
            del up_keys
            down_keys = 2 * (down_pair * dim + at[:, down_image]) + (down_odd ^ odd[:, :, None] ^ odd[:, down_image])
            keys[positions.ravel(), up_pair.shape[1]:up_pair.shape[1] + down_pair.shape[1]] = (
                down_keys.reshape(positions.size, -1))
            del down_keys
        keys.sort(axis=1)
        values = (1 - 2 * (keys & 1)).astype(np.int8)
        twin = keys[:, 1:] == keys[:, :-1]   # E_pp at the determinant from both spins: one entry of 2
        values[:, :-1][twin], values[:, 1:][twin] = 2, 0
        padding = keys == 2 * n_rows
        values[padding] = 0
        keys >>= 1
        keys[padding] = 0
        del twin, padding
        self._table, self._work = _PaddedRows(keys, values, n_rows), np.empty((2, len(one), dim))
        self._diagonal.flags.writeable = False   # the operator is kept on the Hamiltonian and shared

    def diagonal(self) -> np.ndarray:
        return self._diagonal

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        """sigma for a vector; D and G are written into the one kept (2, pairs, dim) array.

        Kept, they cost no page faults or zeroing of fresh memory per
        product, and the operator is not for concurrent use.
        """
        d, g = self._work
        self._table.transpose_matmul(vector, d)
        np.matmul(self._coupling, d, out=g)
        return self._table @ g.reshape(-1) + self._core * vector


def _pair_matrix(mo: IntegralSet, basis: SectorBasis) -> _PaddedRows:
    """``build_paired_hamiltonian``'s closed form on a pair-count sector, as ``_PaddedRows``.

    The basis must hold every state of k pairs in ``n_orb`` orbitals, the
    strings ``_strings(n_orb, k)``: any other is a ``ValueError``, as the
    sigma refuses a basis that is not a sector. ``_check_solvable`` prices
    it as a (k, 0) grid before its moves are read. The diagonal is core +
    sum_p 2 h_pp n_p + 1/2 sum_pq (4 (pp|qq) - 2 (pq|qp)) n_p n_q (its
    p = q terms are the (pp|pp) of the pair energies), from the strings'
    occupations, and (pq|pq) joins the states that a string move of a
    pair p > q (``_string_moves``) joins: k (n_orb - k) hops per state.
    """
    n, eri, states = mo.n_orb, mo.eri, basis.states
    k = int(states[0]).bit_count()
    if len(states) != math.comb(n, k) or np.any(np.bitwise_count(states) != k):
        raise ValueError("the pair matrix needs a pair-count sector basis")
    _check_solvable(n, (k, 0))
    occ, pair, string, image, _ = _string_moves(n, k)
    pair_pair = 4 * np.einsum("ppqq->pq", eri) - 2 * np.einsum("pqqp->pq", eri)
    diagonal = mo.core_energy + occ @ (2 * np.diag(mo.h)) + 0.5 * ((occ @ pair_pair) * occ).sum(1)
    # the entries' values: (pq|pq) of each pair p >= q, then each state's diagonal
    table = np.concatenate([np.einsum("pqpq->pq", eri)[np.tril_indices(n)], diagonal])
    rows, n_pairs, hop = np.arange(len(states)), n * (n + 1) // 2, image != string   # E_pp keeps the string
    # each state's diagonal entry and hops as keys column x len(table) + value index, sorted by column
    keys = np.column_stack([rows * len(table) + n_pairs + rows,
                            (image[hop] * len(table) + pair[hop]).reshape(len(states), -1)])
    keys.sort(axis=1)
    return _PaddedRows(keys // len(table), table[keys % len(table)], len(states))


class IntegralHamiltonian:
    """The Hamiltonian of an ``IntegralSet`` on its 2 * ``n_orb`` spin-orbitals.

    The simulator and ``exact_ground_energy`` read its ``n_qubits`` and,
    through ``_sector_operator``, its operator on a basis, a ``_StringSigma``
    kept per basis.
    """

    __slots__ = ("integrals", "n_qubits", "_operators")
    _qubits_per_orbital, _operator = 2, _StringSigma   # _operator(integrals, basis)

    def __init__(self, integrals: IntegralSet):
        self.integrals, self._operators = integrals, {}
        self.n_qubits = self._qubits_per_orbital * integrals.n_orb


class PairedHamiltonian(IntegralHamiltonian):
    """The seniority-zero restriction of an ``IntegralSet``'s Hamiltonian, on ``n_orb`` qubits.

    Qubit p set is spatial orbital p doubly occupied; its operator on a
    basis of pair states is ``_pair_matrix``.
    """

    __slots__ = ()
    _qubits_per_orbital, _operator = 1, staticmethod(_pair_matrix)


def _sector_operator(op: IntegralHamiltonian, basis: SectorBasis):
    """A Hamiltonian's operator on a basis of its register, built on first use and kept on the Hamiltonian."""
    if not isinstance(op, IntegralHamiltonian):
        raise TypeError(f"IntegralHamiltonian or PairedHamiltonian expected, got {type(op).__name__}")
    if op.n_qubits != basis.n_qubits:
        raise ValueError("operator register does not match the basis")
    key = basis.states.tobytes()
    if key not in op._operators:
        op._operators[key] = op._operator(op.integrals, basis)
    return op._operators[key]


def _davidson(mat) -> tuple:
    """(lowest eigenvalue, its eigenvector) of a real symmetric operator (Davidson, 1975).

    The start is the lowest-diagonal determinant plus a seeded random admixture of
    norm 1e-2 (1e-2 per component took 4x the products), which gives every symmetry
    block weight. Each step adds Olsen's correction (D - theta)^-1 (r - e x), D the
    diagonal, x the Ritz vector, r its residual and e such that the correction is
    orthogonal to x (Olsen et al., Chem. Phys. Lett. 1990); it stays new where D is
    exact. A full subspace restarts on its 4 lowest Ritz vectors; r below 1e-9 ends it,
    as it does once the subspace spans a space of fewer states than it holds.
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
            return float(theta[0]), vector
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
    operator on the basis (``_sector_operator``) is real symmetric;
    ``_davidson`` solves it. The returned pair always satisfies
    ||Hv - Ev|| < 1e-8 in the chosen basis; a solve that reaches its
    matrix-vector cap is a ``RuntimeError``.
    """
    operator = _sector_operator(op, sector)
    energy, vector = _davidson(operator)
    residual = np.linalg.norm(operator @ vector - energy * vector)
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

        H = core + sum_p (2 h_pp + (pp|pp)) n_p
                 + sum_{p<q} (4 (pp|qq) - 2 (pq|qp)) n_p n_q
                 + sum_{p<q} (pq|pq) (X_p X_q + Y_p Y_q)/2

    in the chemists' notation of ``IntegralSet.eri``.
    """
    return PairedHamiltonian(mo)
