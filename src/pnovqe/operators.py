"""Second-quantized operators, Pauli strings, and the Jordan-Wigner encoding.

Conventions used throughout the package:

* Spin-orbitals are interleaved: spatial orbital p owns qubit 2p (spin up)
  and qubit 2p+1 (spin down).
* Jordan-Wigner parity chains act on the qubits *below* the target index,
  a_j^dag -> (X_j - i Y_j)/2 * Z_{j-1} ... Z_0.
* Qubit indexing is little-endian: bit j of a basis-state integer is the
  occupation of qubit j.

``build_hamiltonian``, ``jordan_wigner`` and ``QubitOperator.matrix`` are
array code that works on fixed blocks of products or of X-mask groups. Part of
their determinism contract is that every coefficient is summed in the order
of a term-by-term loop, starting from 0, and that keys keep the order in
which such a loop first meets them; the block sizes are constants that
change no bit. The operators, and every energy computed from them, are
therefore the same to the last bit whatever the blocking. Pauli masks are
int64 columns, so the array code covers registers of up to
``MAX_MASK_QUBITS`` qubits.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
import scipy.sparse

COEFF_CUTOFF = 1e-14

# The array code holds Pauli masks in int64 columns, one for X and one for Z,
# so registers have at most 63 qubits (bit 63 is the sign bit).
MAX_MASK_QUBITS = 63

# ``jordan_wigner`` expands terms of one length this many products at a time
# (2**10 quartic terms), so its few int64 arrays stay near 128 KiB each.
_JW_BLOCK = 1 << 14
# Operators with at most this many terms (an ansatz generator has 2) are
# expanded term by term, where numpy's fixed cost per call would dominate.
_JW_SMALL = 8
# ``QubitOperator.matrix`` probes this many (X group, basis state) pairs at
# once, so its image and position arrays stay near 32 KiB each.
_MATRIX_BLOCK = 1 << 12

_LABEL = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


class PauliString:
    """Phase-free tensor product of single-qubit Paulis, packed as bitmasks.

    Qubit j carries X if bit j of ``x`` is set, Z if bit j of ``z`` is set,
    and Y if both are set. The identity is the empty pair of masks.
    """

    __slots__ = ("n_qubits", "x", "z")

    def __init__(self, n_qubits: int, x: int = 0, z: int = 0):
        mask = (1 << n_qubits) - 1
        if x & ~mask or z & ~mask:
            raise ValueError("Pauli mask exceeds qubit count")
        self.n_qubits = n_qubits
        self.x = x
        self.z = z

    @classmethod
    def from_label(cls, n_qubits: int, label: str) -> "PauliString":
        """Parse a label like ``"X0 Z2 Y3"`` (``"I"`` means identity)."""
        x = z = 0
        for token in label.split():
            if token == "I":
                continue
            letter, idx = token[0].upper(), int(token[1:] or 0)
            if letter not in _BITS:
                raise ValueError(f"unknown Pauli letter {letter!r}")
            bx, bz = _BITS[letter]
            x |= bx << idx
            z |= bz << idx
        return cls(n_qubits, x, z)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def label(self) -> str:
        if not (self.x | self.z):
            return "I"
        parts = []
        for j in range(self.n_qubits):
            bx, bz = (self.x >> j) & 1, (self.z >> j) & 1
            if bx or bz:
                parts.append(f"{_LABEL[(bx, bz)]}{j}")
        return " ".join(parts)

    def commutes_with(self, other: "PauliString") -> bool:
        a = (self.x & other.z).bit_count()
        b = (self.z & other.x).bit_count()
        return (a + b) % 2 == 0

    def __eq__(self, other):
        return (
            isinstance(other, PauliString)
            and self.n_qubits == other.n_qubits
            and self.x == other.x
            and self.z == other.z
        )

    def __hash__(self):
        return hash((self.n_qubits, self.x, self.z))

    def __repr__(self):
        return f"PauliString({self.n_qubits}, {self.label()!r})"


def _mul_masks(x1: int, z1: int, x2: int, z2: int) -> tuple[int, int, complex]:
    """Symplectic product of two Pauli masks, returning (x, z, phase)."""
    x3 = x1 ^ x2
    z3 = z1 ^ z2
    e = (
        (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (z1 & x2).bit_count()
    ) % 4
    return x3, z3, _PHASES[e]


def pauli_multiply(a: PauliString, b: PauliString) -> tuple[PauliString, complex]:
    """Product a*b as (string, phase) with phase in {1, i, -1, -i}."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit-count mismatch in Pauli product")
    x, z, phase = _mul_masks(a.x, a.z, b.x, b.z)
    return PauliString(a.n_qubits, x, z), phase


class QubitOperator:
    """Weighted sum of Pauli strings on a fixed qubit register.

    Terms are stored simplified: no duplicate strings, coefficients below
    ``COEFF_CUTOFF`` pruned. Instances are treated as immutable.
    """

    __slots__ = ("n_qubits", "_terms", "_compiled", "_max_imag")

    def __init__(self, n_qubits: int, terms: dict | None = None):
        self.n_qubits = n_qubits
        self._terms = {}
        self._compiled = None
        self._max_imag = None
        if terms:
            for key, coeff in terms.items():
                if abs(coeff) >= COEFF_CUTOFF:
                    self._terms[key] = complex(coeff)

    @classmethod
    def _simplified(cls, n_qubits: int, terms: dict) -> "QubitOperator":
        """Wrap a dict of complex coefficients that are all above the cutoff."""
        op = cls(n_qubits)
        op._terms = terms
        return op

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "QubitOperator":
        return cls(n_qubits, {(0, 0): coeff})

    @classmethod
    def from_string(cls, string: PauliString, coeff: complex = 1.0) -> "QubitOperator":
        return cls(string.n_qubits, {(string.x, string.z): coeff})

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def items(self):
        """Yield (PauliString, coefficient) pairs in deterministic order."""
        for (x, z) in sorted(self._terms):
            yield PauliString(self.n_qubits, x, z), self._terms[(x, z)]

    def raw_items(self):
        return self._terms.items()

    def coefficient(self, string: PauliString) -> complex:
        return self._terms.get((string.x, string.z), 0.0 + 0.0j)

    def max_imag(self) -> float:
        """Largest |imaginary part| of a coefficient, computed once."""
        if self._max_imag is None:
            self._max_imag = max((abs(c.imag) for c in self._terms.values()), default=0.0)
        return self._max_imag

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return self.max_imag() < tol

    def norm(self) -> float:
        """Frobenius norm over the orthogonal Pauli basis (up to 2^n scale)."""
        return float(np.sqrt(sum(abs(c) ** 2 for c in self._terms.values())))

    def _check_compatible(self, other):
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit-count mismatch between operators")

    def __add__(self, other: "QubitOperator") -> "QubitOperator":
        self._check_compatible(other)
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            terms[key] = terms.get(key, 0.0) + coeff
        return QubitOperator(self.n_qubits, terms)

    def __sub__(self, other: "QubitOperator") -> "QubitOperator":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, QubitOperator):
            self._check_compatible(other)
            terms: dict = {}
            for (x1, z1), c1 in self._terms.items():
                for (x2, z2), c2 in other._terms.items():
                    x3, z3, phase = _mul_masks(x1, z1, x2, z2)
                    key = (x3, z3)
                    terms[key] = terms.get(key, 0.0) + c1 * c2 * phase
            return QubitOperator(self.n_qubits, terms)
        return QubitOperator(
            self.n_qubits, {k: c * other for k, c in self._terms.items()}
        )

    def __rmul__(self, scalar):
        return self * scalar

    def matrix(self, states: np.ndarray) -> scipy.sparse.csr_matrix:
        """Projection onto a sorted array of basis bitmasks, as a sparse matrix.

        Entry (r, c) is <states[r]| op |states[c]>; images outside ``states``
        are dropped. A string maps |s> to i^|x&z| (-1)^|s&z| |s ^ x>, so the
        terms sharing an X mask share one image and one ``searchsorted``.
        The result is cached per basis in ``_compiled`` and read-only.

        Determinism: each entry sums the terms of its X group in ascending Z
        order, starting from 0; all entries advance one term per step, so
        neither ``_MATRIX_BLOCK`` nor the group sizes change a bit. No two
        groups share an entry and the CSR arrays are sorted by row, then
        column, so the order entries are summed in does not show.
        """
        if self._compiled is None:
            self._compiled = {}
        key = states.tobytes()
        if key in self._compiled:
            return self._compiled[key]
        dim, n_terms = len(states), len(self._terms)
        masks = np.fromiter(chain.from_iterable(self._terms), np.int64, 2 * n_terms)
        order = np.lexsort((masks[1::2], masks[0::2]))
        x, z = masks[0::2][order], masks[1::2][order]
        coeffs = np.fromiter(self._terms.values(), complex, n_terms)[order]
        coeffs *= np.asarray(_PHASES)[np.bitwise_count(x & z) & 3]
        starts = np.flatnonzero(np.diff(x, prepend=-1))
        sizes = np.diff(starts, append=x.size)
        xs = x[starts]
        # arrays are dropped as soon as they are done with: a projection onto
        # a small sector should cost memory of the order of its entries
        del masks, order, x
        group, row, column = _hits(states, xs)
        # hits by decreasing group size, so those whose group has a k-th term are a prefix
        by_size = np.argsort(-sizes[group], kind="stable")
        group, row, column = group[by_size], row[by_size], column[by_size]
        del by_size
        active = np.searchsorted(-sizes[group], -np.arange(sizes.max(initial=0)))
        term, kept = starts[group], states[column]
        del group
        # a complex sum adds real and imaginary parts apart; a part whose
        # coefficients are all zero stays +0
        sums = [_signed_sums(part, z, term, kept, active) if part.any() else 0.0
                for part in (coeffs.real, coeffs.imag)]
        del term, kept
        values = np.empty(len(row), dtype=complex)
        values.real, values.imag = sums
        del sums
        keep = values != 0
        entries = (values[keep], (row[keep], column[keep]))
        del values, row, column
        mat = scipy.sparse.csr_matrix(entries, shape=(dim, dim), dtype=complex)
        for array in (mat.data, mat.indices, mat.indptr):
            array.flags.writeable = False   # the cached matrix is shared
        self._compiled[key] = mat
        return mat

    def image_norms(self, states: np.ndarray) -> np.ndarray:
        """||op|s>||^2 for every basis state s, images outside ``states`` included.

        The strings of one X mask x map |s> to the single state |s ^ x>, so
        the norm sums |<s ^ x| op |s>|^2 over the X groups. For a Hermitian
        operator this is the diagonal of op^2 on the register.
        """
        masks = np.fromiter(chain.from_iterable(self._terms), np.int64, 2 * len(self._terms))
        x, z = masks[0::2], masks[1::2]
        coeffs = np.fromiter(self._terms.values(), complex, len(self._terms))
        coeffs *= np.asarray(_PHASES)[np.bitwise_count(x & z) & 3]
        xs, group = np.unique(x, return_inverse=True)
        signs = 1 - 2 * (np.bitwise_count(states & z[:, None]) & 1).astype(float)
        images = ((np.arange(xs.size)[:, None] == group) * coeffs) @ signs   # per X group
        return np.sum(np.abs(images) ** 2, axis=0)

    def to_dense(self) -> np.ndarray:
        """Dense matrix in the little-endian computational basis."""
        if self.n_qubits > 14:
            raise ValueError("dense matrix limited to 14 qubits")
        return self.matrix(np.arange(1 << self.n_qubits, dtype=np.int64)).toarray()

    def to_text(self) -> str:
        """One term per line, ``coeff  P0 P1 ...``; round-trips exactly."""
        lines = []
        for (x, z) in sorted(self._terms, key=lambda k: ((k[0] | k[1]).bit_count(), k)):
            coeff = self._terms[(x, z)]
            if abs(coeff.imag) < COEFF_CUTOFF:
                num = repr(coeff.real)
            else:
                num = repr(coeff)
            lines.append(f"{num} {PauliString(self.n_qubits, x, z).label()}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, n_qubits: int) -> "QubitOperator":
        terms: dict = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            num, _, rest = line.partition(" ")
            string = PauliString.from_label(n_qubits, rest)
            key = (string.x, string.z)
            terms[key] = terms.get(key, 0.0) + complex(num)
        return cls(n_qubits, terms)

    def __repr__(self):
        return f"QubitOperator(n_qubits={self.n_qubits}, n_terms={self.n_terms})"


def _hits(states: np.ndarray, x: np.ndarray) -> tuple:
    """(group, row, column) of every basis state (column) that X mask x[group] maps into the basis.

    Probes ``_MATRIX_BLOCK`` (group, state) pairs at a time, in group order.
    """
    dim = len(states)
    index = np.int32 if max(dim, x.size) < 2**31 else np.intp
    hits = [(np.zeros(0, index),) * 3]
    per_block = max(1, _MATRIX_BLOCK // max(dim, 1))
    for lo in range(0, x.size, per_block):
        images = states ^ x[lo:lo + per_block, None]
        pos = np.minimum(np.searchsorted(states, images), dim - 1)
        group, column = np.nonzero(states[pos] == images)
        hits.append(tuple(a.astype(index) for a in (group + lo, pos[group, column], column)))
    return tuple(np.concatenate(parts) for parts in zip(*hits))


def _signed_sums(coeffs, z, first, kept, active) -> np.ndarray:
    """Per hit, the sum of (-1)^|kept & z_t| coeffs[t] over its terms t in order, from 0.

    Hit h owns the terms first[h], first[h] + 1, ...; at step k the first
    active[k] hits (those with more than k terms) add their k-th term, so
    every sum keeps the order of a loop over the terms.
    """
    total = np.zeros(first.size)
    for k, n in enumerate(active.tolist()):
        t = first[:n] + k
        odd = z[t]
        odd &= kept[:n]
        step = coeffs[t]
        np.negative(step, out=step, where=(np.bitwise_count(odd) & 1).astype(bool))
        total[:n] += step
    return total


def commutator(a: QubitOperator, b: QubitOperator) -> QubitOperator:
    return a * b - b * a


def number_operator(n_qubits: int) -> QubitOperator:
    """Total particle number N = sum_j (I - Z_j)/2 under Jordan-Wigner."""
    terms = {(0, 0): 0.5 * n_qubits}
    for j in range(n_qubits):
        terms[(0, 1 << j)] = -0.5
    return QubitOperator(n_qubits, terms)


def spin_z_operator(n_spatial: int) -> QubitOperator:
    """S_z for interleaved spin-orbitals: sum_p (Z_{2p+1} - Z_{2p})/4."""
    terms: dict = {}
    for p in range(n_spatial):
        terms[(0, 1 << (2 * p + 1))] = 0.25
        terms[(0, 1 << (2 * p))] = -0.25
    return QubitOperator(2 * n_spatial, terms)


class FermionOperator:
    """Normal-ordered linear combination of creation/annihilation products.

    A term is a tuple of ``(spin_orbital_index, is_creation)`` pairs, stored
    with all creations left of all annihilations and indices strictly
    descending inside each group. Construction normal-orders arbitrary input
    products with the fermionic anticommutation rules.
    """

    __slots__ = ("_terms",)

    def __init__(self):
        self._terms: dict = {}

    @classmethod
    def from_terms(cls, terms) -> "FermionOperator":
        """Build from an iterable of (operator tuple, coefficient)."""
        op = cls()
        for term, coeff in terms:
            op.add_term(term, coeff)
        op.prune()
        return op

    def add_term(self, term, coeff) -> None:
        _normal_order_into(list(term), complex(coeff), self._terms)

    def prune(self) -> None:
        for key in [k for k, c in self._terms.items() if abs(c) < COEFF_CUTOFF]:
            del self._terms[key]

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def items(self):
        return self._terms.items()

    def constant(self) -> complex:
        return self._terms.get((), 0.0 + 0.0j)

    def hermitian_conjugate(self) -> "FermionOperator":
        out = FermionOperator()
        for term, coeff in self._terms.items():
            conj = tuple((idx, not cre) for idx, cre in reversed(term))
            _normal_order_into(list(conj), complex(coeff).conjugate(), out._terms)
        out.prune()
        return out

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        out = FermionOperator()
        out._terms = dict(self._terms)
        for term, coeff in other._terms.items():
            out._terms[term] = out._terms.get(term, 0.0) + coeff
        out.prune()
        return out

    def __mul__(self, scalar) -> "FermionOperator":
        out = FermionOperator()
        out._terms = {t: c * scalar for t, c in self._terms.items()}
        return out

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        return self + other * -1.0

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(c) ** 2 for c in self._terms.values())))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return (self - self.hermitian_conjugate()).norm() < tol

    def __repr__(self):
        return f"FermionOperator(n_terms={self.n_terms})"


def _normal_order_into(ops: list, coeff: complex, out: dict) -> None:
    """Normal-order one product and accumulate the result into ``out``.

    Creations are moved left of annihilations (a a^dag = 1 - a^dag a) and
    each group is sorted by descending index; adjacent equal operators of
    the same kind vanish.
    """
    stack = [(ops, coeff)]
    while stack:
        term, c = stack.pop()
        i = 0
        dead = False
        while i + 1 < len(term):
            (p, cre_p), (q, cre_q) = term[i], term[i + 1]
            if not cre_p and cre_q:
                # a_p a_q^dag = delta_pq - a_q^dag a_p
                swapped = term[:i] + [term[i + 1], term[i]] + term[i + 2 :]
                if p == q:
                    stack.append((term[:i] + term[i + 2 :], c))
                stack.append((swapped, -c))
                dead = True
                break
            if cre_p == cre_q:
                if p == q:
                    dead = True  # repeated creation/annihilation
                    break
                if p < q:
                    term = term[:i] + [term[i + 1], term[i]] + term[i + 2 :]
                    c = -c
                    i = max(i - 1, 0)
                    continue
            i += 1
        if not dead:
            key = tuple(term)
            out[key] = out.get(key, 0.0) + c


def _check_indices(lowest: int, highest: int, n_qubits: int) -> None:
    if n_qubits > MAX_MASK_QUBITS:
        raise ValueError(f"int64 Pauli masks hold at most {MAX_MASK_QUBITS} qubits")
    if highest >= n_qubits:
        raise ValueError("fermionic index exceeds qubit register (index overflow)")
    if lowest < 0:
        raise ValueError("negative fermionic index")


def _expand_term(term, coeff, total: dict) -> None:
    """Add the 2^L Pauli products of one ladder product to ``total``, in product order.

    The power e of i collects the phases of multiplying out the images: 2
    when a ladder's X or Y meets a Z already on its qubit, 2 for the Y part
    of an annihilator, and -|x & z| for writing each X Z pair as a Y.
    """
    x, products = 0, [(0, 0)]   # (Z mask, power of i) of each product so far
    for index, creation in term:
        bit = 1 << index
        parity, y_power = bit - 1, 0 if creation else 2
        grown = []
        for z, e in products:
            if z & bit:
                e += 2
            grown.append((z ^ parity, e))
            grown.append((z ^ parity ^ bit, e + y_power))
        products = grown
        x ^= bit
    scale = coeff * 0.5 ** len(term)
    for z, e in products:
        key = (x, z)
        total[key] = total.get(key, 0.0) + scale * _PHASES[(e - (x & z).bit_count()) % 4]


def _expand_block(index, y_power, coeffs) -> tuple:
    """X masks, Z masks and coefficients of the 2^L products of terms of one length L.

    Row t of ``index`` and ``y_power`` holds the ladders of term t; product b
    takes the Y part of ladder j when bit L-1-j of b is set. Returns (terms,
    2^L) arrays, each row in order of b.
    """
    n_terms, length = index.shape
    bit = np.left_shift(1, index)
    b = np.arange(1 << length)
    z = np.zeros((n_terms, b.size), np.int64)
    e = np.zeros_like(z)
    for j in range(length):
        pick = (b >> (length - 1 - j)) & 1
        e += 2 * ((z & bit[:, j, None]) != 0) + pick * y_power[:, j, None]
        z ^= (bit[:, j, None] - 1) ^ (pick * bit[:, j, None])
    x = np.bitwise_xor.reduce(bit, axis=1)[:, None]
    e = (e - np.bitwise_count(x & z)) & 3
    # coefficient * 2^-L * i^e; every factor is exact, as in the product of the factors
    values = (coeffs * np.ldexp(1.0, -length))[:, None] * np.asarray(_PHASES)[e]
    return x, z, values


def _first_occurrence(*columns) -> tuple:
    """Number the distinct keys (rows of ``columns``) by first occurrence.

    Returns the number of every entry's key and the first entry of each key.
    """
    order = np.argsort(columns[0]) if len(columns) == 1 else np.lexsort(columns[::-1])
    new = np.zeros(order.size, bool)
    new[0:1] = True
    for column in columns:
        ordered = column[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts) if starts.size else starts
    by_first = np.argsort(first)
    number = np.empty(starts.size, np.intp)
    number[by_first] = np.arange(starts.size)
    run = np.empty(order.size, np.intp)
    run[order] = np.cumsum(new) - 1
    return number[run], first[by_first]


def jordan_wigner(op: FermionOperator, n_qubits: int) -> QubitOperator:
    """Encode a fermionic operator as a qubit operator.

    a_j^dag -> (X_j - i Y_j)/2 * Z_{j-1}...Z_0 and the conjugate for a_j.
    The 2^L products of a term of length L share the X mask of its ladders;
    product b takes the Y part of ladder j when bit L-1-j of b is set, and
    its coefficient is coeff 2^-L i^e with the power e collected ladder by
    ladder. Every such factor is exact, so the coefficients are the same
    bits as those of multiplying out the factors.

    Determinism: terms are taken in the operator's order and the products of
    a term in the order of b. Large operators are expanded one term length
    at a time, in blocks of about ``_JW_BLOCK`` products, and each block is
    written to its terms' places in that product list, so neither the
    grouping nor the block size changes a bit. Each qubit key is summed over
    the product list starting from 0 (``np.bincount`` adds in input order),
    and keys, compared as (X mask, Z mask) pairs, are inserted in order of
    first occurrence. Masks are int64, so ``n_qubits`` is at most
    ``MAX_MASK_QUBITS``.
    """
    terms, coeffs = list(op._terms), list(op._terms.values())
    if len(terms) <= _JW_SMALL:
        indices = [index for term in terms for index, _ in term]
        _check_indices(min(indices, default=0), max(indices, default=-1), n_qubits)
        total: dict = {}
        for term, coeff in zip(terms, coeffs):
            _expand_term(term, coeff, total)
        return QubitOperator(n_qubits, total)
    lengths = np.fromiter(map(len, terms), np.int64, len(terms))
    ladders = np.fromiter(
        chain.from_iterable(chain.from_iterable(terms)), np.int64, 2 * int(lengths.sum())
    )
    index, y_power = ladders[0::2], 2 * (1 - ladders[1::2])
    _check_indices(index.min(initial=0), index.max(initial=-1), n_qubits)
    coeffs = np.array(coeffs, dtype=complex)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    products = np.concatenate(([0], np.cumsum(np.left_shift(1, lengths))))
    x, z = np.empty(products[-1], np.int64), np.empty(products[-1], np.int64)
    values = np.empty(products[-1], dtype=complex)
    for length in np.unique(lengths).tolist():
        same = np.flatnonzero(lengths == length)
        per_block = max(1, _JW_BLOCK >> length)
        for lo in range(0, same.size, per_block):
            block = same[lo:lo + per_block]
            ladder = offsets[block, None] + np.arange(length)
            out = products[block, None] + np.arange(1 << length)
            x[out], z[out], values[out] = _expand_block(
                index[ladder], y_power[ladder], coeffs[block]
            )
    slot, first = _first_occurrence(x, z)
    total = np.empty(first.size, dtype=complex)
    total.real = np.bincount(slot, values.real, first.size)
    total.imag = np.bincount(slot, values.imag, first.size)
    # abs() of a Python complex is hypot; numpy's complex abs can differ in the last bit
    keep = np.hypot(total.real, total.imag) >= COEFF_CUTOFF
    pairs = zip(x[first[keep]].tolist(), z[first[keep]].tolist())
    return QubitOperator._simplified(n_qubits, dict(zip(pairs, total[keep].tolist())))


def build_hamiltonian(mo) -> FermionOperator:
    """Second-quantized Hamiltonian from spatial-orbital integrals.

    Expands h and the two-electron tensor <pq|rs> (physicists' notation)
    over interleaved spin-orbitals, keeping spin-conserving terms only:

        H = core + sum h_pq a^dag_{p,s} a_{q,s}
                 + 1/2 sum <pq|rs> a^dag_{p,s} a^dag_{q,t} a_{s',t} a_{r',s}

    Determinism: the constant comes first, then the one-body terms in (p, q,
    s) order, then each two-body term a^dag_P a^dag_Q a_S a_R (P > Q, S > R)
    in order of first occurrence over (p, q, r, s, sigma, tau). A two-body
    coefficient is the sum of +-<pq|rs>/2 in that order, starting from 0
    (``np.bincount`` adds in input order); coefficients below
    ``COEFF_CUTOFF`` are dropped.
    """
    m = 2 * mo.n_orb
    terms: dict = {(): complex(mo.core_energy)}
    if abs(terms[()]) < COEFF_CUTOFF:
        del terms[()]

    p, q = np.nonzero(~(np.abs(mo.h) < COEFF_CUTOFF))
    spins = (0, 1)
    one_body = zip((2 * p[:, None] + spins).ravel().tolist(),
                   (2 * q[:, None] + spins).ravel().tolist(),
                   np.repeat(mo.h[p, q], 2).tolist())
    # one shared (index, is_creation) pair per ladder operator
    cre, ann = [(i, True) for i in range(m)], [(i, False) for i in range(m)]
    for a, b, value in one_body:
        terms[(cre[a], ann[b])] = complex(value)

    nonzero = np.nonzero(~(np.abs(mo.g) < COEFF_CUTOFF))
    p, q, r, s = (2 * i[:, None] for i in nonzero)
    sigma, tau = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    P, Q, S, R = p + sigma, q + tau, s + tau, r + sigma
    kept = ((P != Q) & (S != R)).ravel()
    # a^dag_P a^dag_Q a_S a_R with P > Q and S > R; each swap flips the sign
    half = np.where((P < Q) ^ (S < R), -0.5, 0.5) * mo.g[nonzero][:, None]
    ladders = [np.maximum(P, Q), np.minimum(P, Q), np.maximum(S, R), np.minimum(S, R)]
    ladders = [a.ravel()[kept] for a in ladders]
    slot, first = _first_occurrence(((ladders[0] * m + ladders[1]) * m + ladders[2]) * m + ladders[3])
    half = half.ravel()[kept]
    sums = np.empty(first.size, dtype=complex)
    sums.real = np.bincount(slot, half.real, first.size)
    sums.imag = np.bincount(slot, half.imag, first.size)
    keys = zip(*(a[first].tolist() for a in ladders))
    for (a, b, c, d), value in zip(keys, sums.tolist()):
        if not abs(value) < COEFF_CUTOFF:
            terms[(cre[a], cre[b], ann[c], ann[d])] = value

    op = FermionOperator()
    op._terms = terms
    return op
