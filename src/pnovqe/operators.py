"""Second-quantized operators, Pauli strings, and the Jordan-Wigner encoding.

Conventions used throughout the package:

* Spin-orbitals are interleaved: spatial orbital p owns qubit 2p (spin up)
  and qubit 2p+1 (spin down).
* Jordan-Wigner parity chains act on the qubits *below* the target index,
  a_j^dag -> (X_j - i Y_j)/2 * Z_{j-1} ... Z_0.
* Qubit indexing is little-endian: bit j of a basis-state integer is the
  occupation of qubit j.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

import numpy as np
import scipy.sparse

COEFF_CUTOFF = 1e-14

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
        """
        if self._compiled is None:
            self._compiled = {}
        key = states.tobytes()
        if key in self._compiled:
            return self._compiled[key]
        dim = len(states)
        # entries hold row * dim + column, so each X mask adds only two arrays
        entries, vals = [np.zeros(0, np.int64)], [np.zeros(0, complex)]
        for x, terms in groupby(sorted(self._terms), key=itemgetter(0)):
            images = states ^ x
            pos = np.minimum(np.searchsorted(states, images), dim - 1)
            hit = np.flatnonzero(states[pos] == images)
            kept = states[hit]
            values = np.zeros(len(hit), dtype=complex)
            for _, z in terms:
                coeff = self._terms[(x, z)] * _PHASES[(x & z).bit_count() % 4]
                values += np.where(np.bitwise_count(kept & z) & 1, -coeff, coeff)
            keep = values != 0
            entries.append(pos[hit[keep]] * dim + hit[keep])
            vals.append(values[keep])
        entries, vals = np.concatenate(entries), np.concatenate(vals)
        mat = scipy.sparse.csr_matrix(
            (vals, np.divmod(entries, dim)), shape=(dim, dim), dtype=complex
        )
        for array in (mat.data, mat.indices, mat.indptr):
            array.flags.writeable = False   # the cached matrix is shared
        self._compiled[key] = mat
        return mat

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

    def max_index(self) -> int:
        top = -1
        for term in self._terms:
            for idx, _ in term:
                top = max(top, idx)
        return top

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


def _jw_factor(index: int, creation: bool) -> tuple:
    """Jordan-Wigner image of a single ladder operator as two mask terms."""
    chain = (1 << index) - 1
    bit = 1 << index
    y_coeff = -0.5j if creation else 0.5j
    return ((bit, chain, 0.5 + 0.0j), (bit, chain | bit, y_coeff))


def jordan_wigner(op: FermionOperator, n_qubits: int) -> QubitOperator:
    """Encode a fermionic operator as a qubit operator.

    a_j^dag -> (X_j - i Y_j)/2 * Z_{j-1}...Z_0 and the conjugate for a_j;
    products are expanded and simplified.
    """
    if op.max_index() >= n_qubits:
        raise ValueError("fermionic index exceeds qubit register (index overflow)")
    total: dict = {}
    for term, coeff in op.items():
        acc = [(0, 0, complex(coeff))]
        for index, creation in term:
            factor = _jw_factor(index, creation)
            nxt = []
            for x1, z1, c1 in acc:
                for x2, z2, c2 in factor:
                    x3, z3, phase = _mul_masks(x1, z1, x2, z2)
                    nxt.append((x3, z3, c1 * c2 * phase))
            acc = nxt
        for x, z, c in acc:
            key = (x, z)
            total[key] = total.get(key, 0.0) + c
    return QubitOperator(n_qubits, total)


def build_hamiltonian(mo) -> FermionOperator:
    """Second-quantized Hamiltonian from spatial-orbital integrals.

    Expands h and the two-electron tensor <pq|rs> (physicists' notation)
    over interleaved spin-orbitals, keeping spin-conserving terms only:

        H = core + sum h_pq a^dag_{p,s} a_{q,s}
                 + 1/2 sum <pq|rs> a^dag_{p,s} a^dag_{q,t} a_{s',t} a_{r',s}
    """
    n = mo.n_orb
    h = mo.h
    g = mo.g
    terms: dict = {(): complex(mo.core_energy)}

    def _accumulate(term, coeff):
        terms[term] = terms.get(term, 0.0) + coeff

    for p in range(n):
        for q in range(n):
            hpq = h[p, q]
            if abs(hpq) < COEFF_CUTOFF:
                continue
            for s in (0, 1):
                P, Q = 2 * p + s, 2 * q + s
                _accumulate(((P, True), (Q, False)), complex(hpq))

    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s_ in range(n):
                    gval = g[p, q, r, s_]
                    if abs(gval) < COEFF_CUTOFF:
                        continue
                    for sig in (0, 1):
                        for tau in (0, 1):
                            P, Q = 2 * p + sig, 2 * q + tau
                            S, R = 2 * s_ + tau, 2 * r + sig
                            if P == Q or S == R:
                                continue
                            # canonicalize a^dag_P a^dag_Q a_S a_R in place
                            sign = 1.0
                            if P < Q:
                                P, Q = Q, P
                                sign = -sign
                            if S < R:
                                S, R = R, S
                                sign = -sign
                            _accumulate(
                                ((P, True), (Q, True), (S, False), (R, False)),
                                0.5 * sign * complex(gval),
                            )

    op = FermionOperator()
    op._terms = terms
    op.prune()
    return op
