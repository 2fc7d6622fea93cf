"""The Pauli text of a compact Hamiltonian: second quantization and Jordan-Wigner.

Conventions used throughout the package:

* Spin-orbitals are interleaved: spatial orbital p owns qubit 2p (spin up)
  and qubit 2p+1 (spin down).
* Jordan-Wigner parity chains act on the qubits *below* the target index,
  a_j^dag -> (X_j - i Y_j)/2 * Z_{j-1} ... Z_0.
* Qubit indexing is little-endian: bit j of a basis-state integer is the
  occupation of qubit j.

The one path is ``build_hamiltonian`` -> ``jordan_wigner`` ->
``QubitOperator.to_text``, for a point's ``hamiltonian.txt`` and
``pnovqe hamiltonian``. A Pauli string is its pair of int masks ``(x, z)``:
qubit j carries X if bit j of x is set, Z if bit j of z is set, and Y if
both; the identity is ``(0, 0)``. ``QubitOperator`` keys its terms by these
pairs, and ``ExcitationGenerator.strings`` gives a generator's in the same
form. A fermionic operator is a plain dict from ladder tuples,
``((index, is_creation), ...)``, to complex coefficients. There is no
operator arithmetic, and no sector operator is built from a Pauli sum: the
exact solve and the VQE engine apply the integrals directly, by the
determinant sigma of ``exact``.

``build_hamiltonian`` and ``jordan_wigner`` are array code that works on
fixed blocks of products. Part of their determinism contract is that every
coefficient is summed in the order of a term-by-term loop, starting from 0,
and that keys keep the order in which such a loop first meets them; the
block size is a constant that changes no bit, so the operators and their
text are the same to the last bit whatever the blocking. Pauli masks are
int64 columns, so the array code, ``QubitOperator.to_text`` included,
covers registers of up to ``MAX_MASK_QUBITS`` qubits.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

COEFF_CUTOFF = 1e-14

# The array code holds Pauli masks in int64 columns, one for X and one for Z,
# so registers have at most 63 qubits (bit 63 is the sign bit).
MAX_MASK_QUBITS = 63

# ``jordan_wigner`` expands terms of one length this many products at a time
# (2**10 quartic terms), so its few int64 arrays stay near 128 KiB each.
_JW_BLOCK = 1 << 14

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


class QubitOperator:
    """Weighted sum of Pauli strings on a fixed qubit register.

    Terms are stored simplified: no duplicate strings, coefficients below
    ``COEFF_CUTOFF`` pruned. Instances are treated as immutable.
    """

    __slots__ = ("n_qubits", "_terms")
    # no sector operator is ever compiled from a Pauli sum (sector operators
    # apply the integrals, in ``exact``); ``bench/test_bench.py`` reads this
    _compiled = None

    def __init__(self, n_qubits: int, terms: dict | None = None):
        self.n_qubits = n_qubits
        self._terms = {}
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

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def raw_items(self):
        return self._terms.items()

    def to_text(self) -> str:
        """One term per line, ``coeff  P0 P1 ...``, each coefficient by ``repr``.

        Terms are ordered by weight, then X mask, then Z mask, and each label
        lists the string's Paulis by ascending qubit (``I`` for the identity).
        """
        n_terms = len(self._terms)
        masks = np.fromiter(chain.from_iterable(self._terms), np.int64, 2 * n_terms)
        x, z = masks[0::2], masks[1::2]
        order = np.lexsort((z, x, np.bitwise_count(x | z)))
        # code 1 is X, 2 is Z, 3 is Y, per (term, qubit)
        qubits = np.arange(int(np.bitwise_or.reduce(masks, initial=0)).bit_length())
        codes = ((x[order, None] >> qubits) & 1) | (((z[order, None] >> qubits) & 1) << 1)
        term, qubit = np.nonzero(codes)
        table = [f"{letter}{j}" for j in qubits.tolist() for letter in ("", "X", "Z", "Y")]
        words = [table[k] for k in (4 * qubit + codes[term, qubit]).tolist()]
        ends = np.searchsorted(term, np.arange(n_terms + 1)).tolist()
        coeffs = list(self._terms.values())
        lines = []
        for t, lo, hi in zip(order.tolist(), ends, ends[1:]):
            coeff = coeffs[t]
            num = repr(coeff.real) if abs(coeff.imag) < COEFF_CUTOFF else repr(coeff)
            lines.append(f"{num} {' '.join(words[lo:hi]) or 'I'}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"QubitOperator(n_qubits={self.n_qubits}, n_terms={self.n_terms})"


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


def jordan_wigner(op: dict, n_qubits: int) -> QubitOperator:
    """Encode a fermionic operator, a dict {ladder tuple: coefficient}, as a qubit operator.

    a_j^dag -> (X_j - i Y_j)/2 * Z_{j-1}...Z_0 and the conjugate for a_j.
    The 2^L products of a term of length L share the X mask of its ladders;
    product b takes the Y part of ladder j when bit L-1-j of b is set, and
    its coefficient is coeff 2^-L i^e with the power e collected ladder by
    ladder. Every such factor is exact, so the coefficients are the same
    bits as those of multiplying out the factors.

    Determinism: terms are taken in the operator's order and the products of
    a term in the order of b. Terms are expanded one term length at a time,
    in blocks of about ``_JW_BLOCK`` products, and each block is written to
    its terms' places in that product list, so neither the grouping nor the
    block size changes a bit. Each qubit key is summed over the product list
    starting from 0 (``np.bincount`` adds in input order), and keys,
    compared as (X mask, Z mask) pairs, are inserted in order of first
    occurrence. Masks are int64, so ``n_qubits`` is at most
    ``MAX_MASK_QUBITS``.
    """
    terms, coeffs = list(op), list(op.values())
    lengths = np.fromiter(map(len, terms), np.int64, len(terms))
    ladders = np.fromiter(
        chain.from_iterable(chain.from_iterable(terms)), np.int64, 2 * int(lengths.sum())
    )
    index, y_power = ladders[0::2], 2 * (1 - ladders[1::2])
    if n_qubits > MAX_MASK_QUBITS:
        raise ValueError(f"int64 Pauli masks hold at most {MAX_MASK_QUBITS} qubits")
    if index.max(initial=-1) >= n_qubits:
        raise ValueError("fermionic index exceeds qubit register (index overflow)")
    if index.min(initial=0) < 0:
        raise ValueError("negative fermionic index")
    coeffs = np.array(coeffs, dtype=complex)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    products = np.concatenate(([0], np.cumsum(np.left_shift(1, lengths))))
    x, z = np.empty(products[-1], np.int64), np.empty(products[-1], np.int64)
    values = np.empty(products[-1], dtype=complex)
    for length in sorted(set(lengths.tolist())):
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


def build_hamiltonian(mo) -> dict:
    """Second-quantized Hamiltonian from spatial-orbital integrals, as {ladder tuple: coefficient}.

    Expands h and the two-electron integrals over interleaved spin-orbitals,
    keeping spin-conserving terms only. ``mo.eri`` holds chemists' (pq|rs);
    this sum reads it through one physicists' view <pq|rs> = (pr|qs):

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

    g = mo.eri.transpose(0, 2, 1, 3)   # <pq|rs> = (pr|qs)
    nonzero = np.nonzero(~(np.abs(g) < COEFF_CUTOFF))
    p, q, r, s = (2 * i[:, None] for i in nonzero)
    sigma, tau = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    P, Q, S, R = p + sigma, q + tau, s + tau, r + sigma
    kept = ((P != Q) & (S != R)).ravel()
    # a^dag_P a^dag_Q a_S a_R with P > Q and S > R; each swap flips the sign
    half = np.where((P < Q) ^ (S < R), -0.5, 0.5) * g[nonzero][:, None]
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
    return terms
