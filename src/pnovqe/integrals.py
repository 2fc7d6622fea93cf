"""Molecular geometry, s-type Gaussian integrals, and FCIDUMP interchange.

The built-in integral engine covers s-type contracted Gaussians only, which
is enough for the bundled desk-scale systems (H2, He, HeH+, all-s models of
LiH-like diatomics, H chains). Anything larger arrives through FCIDUMP files.
The engine is vectorized over unique primitive pairs: each one-electron
matrix is one array pass (nuclear attraction over all nuclei at once), and
the ERIs are a primitive-pair x primitive-pair matrix built and contracted
in fixed-size row blocks over its upper triangle, so their working set stays
near 1 MiB. F_0 uses ``_erf``, a numpy port of the Cephes rational
approximations, within 1 ulp of ``scipy.special.erf``.

Units: coordinates are stored in bohr, energies in hartree. Two-electron
integrals have one notation, chemists' (pq|rs), in memory (``eri`` of
``AOIntegralSet`` and ``IntegralSet``) and on disk, following the FCIDUMP
convention.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

ANGSTROM_TO_BOHR = 1.8897261246
HARTREE_TO_KCALMOL = 627.5094740631

_ELEMENTS = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15,
    "S": 16, "Cl": 17, "Ar": 18,
}

# Standard STO-3G s-type data: 1s contractions for H/He, 1s + 2s for Li/Be.
_STO3G = {
    "H": [([3.42525091, 0.62391373, 0.16885540],
           [0.15432897, 0.53532814, 0.44463454])],
    "He": [([6.36242139, 1.15892300, 0.31364979],
            [0.15432897, 0.53532814, 0.44463454])],
    "Li": [([16.1195750, 2.93620070, 0.79465050],
            [0.15432897, 0.53532814, 0.44463454]),
           ([0.63628970, 0.14786010, 0.04808870],
            [-0.09996723, 0.39951283, 0.70011547])],
    "Be": [([30.1678710, 5.49511530, 1.48719270],
            [0.15432897, 0.53532814, 0.44463454]),
           ([1.31483310, 0.30553890, 0.09937070],
            [-0.09996723, 0.39951283, 0.70011547])],
}


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class Molecule:
    """Nuclear framework: (symbol, Z, position in bohr) plus charge."""

    atoms: tuple
    charge: int = 0

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a molecule needs at least one atom")
        for symbol, z, pos in self.atoms:
            if z < 1:
                raise ValueError(f"nuclear charge {z} < 1 for {symbol}")
            if not np.all(np.isfinite(pos)):
                raise ValueError(f"non-finite position for {symbol}")
        if self.n_electrons < 0:
            raise ValueError(f"charge {self.charge} leaves {self.n_electrons} electrons")
        if self.n_electrons % 2 != 0:
            raise ValueError("odd electron count (closed-shell restriction)")

    @property
    def n_electrons(self) -> int:
        return sum(z for _, z, _ in self.atoms) - self.charge


def parse_xyz(text: str, charge: int = 0) -> Molecule:
    """Parse XYZ format (count line, comment, ``El x y z`` in angstrom)."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty XYZ input")
    try:
        count = int(lines[0].split()[0])
    except (ValueError, IndexError):
        raise ParseError(f"malformed count on line 1: {lines[0]!r}") from None
    if count < 1:
        raise ParseError(f"atom count {count} on line 1 is below 1")
    if len(lines) < count + 2:
        raise ParseError(f"expected {count} atom lines, found {len(lines) - 2}")
    atoms = []
    for i in range(count):
        lineno = i + 3
        fields = lines[i + 2].split()
        if len(fields) < 4:
            raise ParseError(f"malformed atom entry at line {lineno}")
        symbol = fields[0].capitalize()
        if symbol not in _ELEMENTS:
            raise ParseError(f"unknown element {fields[0]} at line {lineno}")
        try:
            xyz = np.array([float(v) for v in fields[1:4]]) * ANGSTROM_TO_BOHR
        except ValueError:
            raise ParseError(f"non-numeric coordinate at line {lineno}") from None
        atoms.append((symbol, _ELEMENTS[symbol], xyz))
    return Molecule(atoms=tuple(atoms), charge=charge)


@dataclass(frozen=True)
class BasisShell:
    """Contracted s-type Gaussian; coefficients refer to normalized primitives."""

    center: np.ndarray
    exponents: tuple
    coefficients: tuple

    def __post_init__(self):
        if len(self.exponents) != len(self.coefficients) or not self.exponents:
            raise ValueError("exponents and coefficients must match, length >= 1")
        if any(a <= 0 for a in self.exponents):
            raise ValueError("Gaussian exponents must be strictly positive")


def _normalized_shell(center, exponents, coefficients) -> BasisShell:
    """Rescale contraction coefficients so the contracted self-overlap is 1."""
    shell = BasisShell(np.asarray(center, dtype=float), tuple(exponents),
                       tuple(coefficients))
    alpha = np.array(shell.exponents, dtype=float)
    c = np.array(shell.coefficients) * _prim_norm(alpha)
    s = float(c @ _primitive_overlap(alpha[:, None], alpha[None, :], 0.0) @ c)
    return BasisShell(shell.center, shell.exponents,
                      tuple(x / math.sqrt(s) for x in shell.coefficients))


def sto3g_shells(molecule: Molecule) -> list[BasisShell]:
    """Built-in STO-3G s-shells (H through Be)."""
    shells = []
    for symbol, _, pos in molecule.atoms:
        if symbol not in _STO3G:
            raise ValueError(f"no built-in STO-3G s-data for element {symbol}")
        for exps, coefs in _STO3G[symbol]:
            shells.append(_normalized_shell(pos, exps, coefs))
    return shells


def even_tempered_shells(center, n: int, alpha0: float, ratio: float) -> list[BasisShell]:
    """Uncontracted even-tempered s-set: exponents alpha0 * ratio**k."""
    return [
        _normalized_shell(center, (alpha0 * ratio**k,), (1.0,))
        for k in range(n)
    ]


# ---------------------------------------------------------------------------
# AO integrals over contracted s-Gaussians

# Rows of the primitive-pair ERI matrix evaluated at once are chosen so that a
# block holds 2**14 float64 values (128 KiB per array): the few arrays a block
# keeps alive together stay near 1 MiB, whatever the basis size.
_ERI_BLOCK = 1 << 14


def _prim_norm(alpha):
    return (2.0 * alpha / math.pi) ** 0.75


def _primitive_overlap(a, b, rab2):
    """Overlap of unnormalized s-primitives, exponents a and b, centres rab2 apart.

    Every other closed form below is this overlap times a factor
    (Szabo & Ostlund, Modern Quantum Chemistry, App. A).
    """
    p = a + b
    return (math.pi / p) ** 1.5 * np.exp(-a * b / p * rab2)


# Cephes ``ndtr.c``: erf(x) = x T(x^2) / U(x^2) for x <= 1, else 1 - erfc(x) with
# erfc(x) = exp(-x^2) P(x) / Q(x); np.polyval is Cephes' Horner rule, bit for bit
_ERF_T = (9.604973739870516, 90.02601972038427, 2232.005345946843, 7003.325141128051,
          55592.30130103949)
_ERF_U = (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801, 22629.000061389095,
          49267.39426086359)
_ERFC_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699, 48.63719709856814,
           196.5208329560771, 526.4451949954773, 934.5285271719576, 1027.5518868951572,
           557.5353353693994)
_ERFC_Q = (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199, 975.7085017432055,
           1823.9091668790973, 2246.3376081871097, 1656.6630919416134, 557.5353408177277)


def _erf(x: np.ndarray) -> np.ndarray:
    """erf over an array of non-negative x; beyond 6 it rounds to 1.0, so erfc clips x at 8."""
    out, low = np.empty_like(x), x <= 1.0
    out[low] = x[low] * np.polyval(_ERF_T, x[low] ** 2) / np.polyval(_ERF_U, x[low] ** 2)
    a = np.minimum(x[~low], 8.0)
    out[~low] = 1.0 - np.exp(-a * a) * np.polyval(_ERFC_P, a) / np.polyval(_ERFC_Q, a)
    return out


def _boys0(x: np.ndarray) -> np.ndarray:
    """F_0 over an array: sqrt(pi/x) erf(sqrt x) / 2, or sqrt(pi) T(x) / (2 U(x)) up to x = 1."""
    out, low = np.empty_like(x), x <= 1.0
    out[low] = np.polyval(_ERF_T, x[low]) / np.polyval(_ERF_U, x[low])
    root = np.sqrt(x[~low])
    out[~low] = _erf(root) / root
    out *= 0.5 * math.sqrt(math.pi)
    return out


# ---------------------------------------------------------------------------
# Pair-packed ERIs: chemists' (pq|rs) is a symmetric matrix over the pairs
# p >= q. The AO engine, FCIDUMP I/O and the four-index transforms work in it
# and unpack at the end, so all eight permutations of (pq|rs) read one value.


def _pair_table(n: int) -> tuple:
    """Pairs i >= j in row-major order, and the n x n matrix of their indices."""
    i, j = np.tril_indices(n)
    pair = np.empty((n, n), dtype=np.intp)
    pair[i, j] = pair[j, i] = np.arange(i.size)
    return i, j, pair


def _pair_weights(m: np.ndarray) -> np.ndarray:
    """w[ij, kl] = m[i, k] m[j, l] + m[i, l] m[j, k] over pairs i >= j, k >= l; halved on k = l."""
    (i, j, _), (k, l, _) = _pair_table(len(m)), _pair_table(m.shape[1])
    w = m[i][:, k] * m[j][:, l] + m[i][:, l] * m[j][:, k]
    w[:, k == l] *= 0.5
    return w


def _unpacked(packed: np.ndarray, n: int) -> np.ndarray:
    pair = _pair_table(n)[2]
    return packed[pair[:, :, None, None], pair]


def transform_eri(chem: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(ij|kl) = sum_pqrs m[i, p] m[j, q] m[k, r] m[l, s] (pq|rs), exactly 8-fold symmetric.

    The packed matrix G goes to w G w^T, of which only the lower triangle is kept.
    """
    i, j, _ = _pair_table(len(chem))
    w = _pair_weights(m)
    g = w @ chem[i[:, None], j[:, None], i, j] @ w.T
    return _unpacked(np.tril(g) + np.tril(g, -1).T, len(m))


def _check_symmetric(name: str, h: np.ndarray, eri: np.ndarray) -> None:
    """Refuse an asymmetric one-electron matrix, or chemists' (pq|rs) without 8-fold symmetry.

    (pq|rs) = (qp|rs) = (pq|sr) = (rs|pq) generate the eight permutations;
    a physicists' <pq|rs> tensor fails them.
    """
    if not np.allclose(h, h.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
        if not np.allclose(eri, eri.transpose(perm), atol=1e-12):
            raise ValueError("(pq|rs) lacks 8-fold permutation symmetry")


@dataclass(frozen=True)
class AOIntegralSet:
    """Atomic-orbital integrals: overlap, core Hamiltonian, ERIs (chemists')."""

    n_ao: int
    overlap: np.ndarray
    core_hamiltonian: np.ndarray
    eri: np.ndarray
    nuclear_repulsion: float

    def __post_init__(self):
        if not np.allclose(self.overlap, self.overlap.T, atol=1e-12):
            raise ValueError("overlap must be symmetric")
        _check_symmetric("core Hamiltonian", self.core_hamiltonian, self.eri)


def compute_ao_integrals(molecule: Molecule, shells: list[BasisShell]) -> AOIntegralSet:
    """Overlap, kinetic, nuclear attraction, and repulsion integrals.

    Closed-form expressions for contracted s-Gaussians, evaluated over
    arrays of unique primitive pairs and contracted with the weight matrix
    ``w`` (AO pair x primitive pair). The ERIs are the primitive-pair x
    primitive-pair matrix, built and contracted in row blocks. Outputs are
    unpacked from AO-pair storage, so they are exactly symmetric. The
    nuclear repulsion energy of the point charges is included.
    """
    charges = np.array([z for _, z, _ in molecule.atoms], dtype=float)
    nuclei = np.array([pos for _, _, pos in molecule.atoms], dtype=float).reshape(-1, 3)
    ia, ja = np.triu_indices(len(charges), 1)
    distances = np.sqrt(np.sum((nuclei[ia] - nuclei[ja]) ** 2, axis=1))
    if np.any(distances < 1e-10):
        raise ValueError("nuclear coincidence: two charged nuclei overlap")
    e_nuc = float(np.sum(charges[ia] * charges[ja] / distances))

    # Primitives: exponent, centre, and the contraction matrix d (AO x primitive).
    n = len(shells)
    alpha = np.array([a for s in shells for a in s.exponents], dtype=float)
    owner = np.repeat(np.arange(n), [len(s.exponents) for s in shells])
    centres = np.array([s.center for s in shells], dtype=float).reshape(-1, 3)[owner]
    d = np.zeros((n, alpha.size))
    d[owner, np.arange(alpha.size)] = (
        np.array([c for s in shells for c in s.coefficients]) * _prim_norm(alpha)
    )

    # w sums a quantity over primitive pairs k >= l into every AO pair
    k, l, _ = _pair_table(alpha.size)
    w = _pair_weights(d)
    pair = _pair_table(n)[2]

    a, b = alpha[k], alpha[l]
    p = a + b
    mu = a * b / p
    rab2 = np.sum((centres[k] - centres[l]) ** 2, axis=1)
    s0 = _primitive_overlap(a, b, rab2)
    centre_p = (a[:, None] * centres[k] + b[:, None] * centres[l]) / p[:, None]
    rpc2 = np.sum((centre_p[:, None, :] - nuclei[None, :, :]) ** 2, axis=2)
    t0 = mu * (3.0 - 2.0 * mu * rab2) * s0
    v0 = -2.0 * np.sqrt(p / math.pi) * s0 * (_boys0(p[:, None] * rpc2) @ charges)

    # (kl|mn) = 2 sqrt(rho/pi) S_kl S_mn F0(rho |P - Q|^2), rho = pq/(p + q), on the upper
    # triangle of this symmetric M: rows [lo, hi) take columns lo on, the lower part of
    # their leading square zeroed and its diagonal halved, so g + g^T = ws M ws^T
    ws = w * s0
    g = np.zeros((w.shape[0],) * 2)
    rows = max(1, _ERI_BLOCK // max(p.size, 1))
    for lo in range(0, p.size, rows):
        hi = min(lo + rows, p.size)
        rho = p[lo:hi, None] * p[lo:] / (p[lo:hi, None] + p[lo:])
        rpq2 = sum((centre_p[lo:hi, None, x] - centre_p[None, lo:, x]) ** 2 for x in range(3))
        block = 2.0 * np.sqrt(rho / math.pi) * _boys0(rho * rpq2)
        block[:, :hi - lo] *= np.triu(np.ones((hi - lo,) * 2)) - 0.5 * np.eye(hi - lo)
        g += ws[:, lo:hi] @ (block @ ws[:, lo:].T)
    g += g.T

    return AOIntegralSet(
        n_ao=n,
        overlap=(w @ s0)[pair],
        core_hamiltonian=(w @ (t0 + v0))[pair],
        eri=_unpacked(g, n),
        nuclear_repulsion=e_nuc,
    )


# ---------------------------------------------------------------------------
# Molecular-orbital integral container and FCIDUMP I/O


@dataclass(frozen=True)
class IntegralSet:
    """Spatial-orbital integrals: h, ``eri`` (chemists' (pq|rs), as in ``AOIntegralSet``), core energy."""

    n_orb: int
    h: np.ndarray
    eri: np.ndarray
    core_energy: float
    n_electrons: int
    orbital_energies: np.ndarray | None = None

    def __post_init__(self):
        if self.h.shape != (self.n_orb, self.n_orb):
            raise ValueError("h has wrong shape")
        if self.eri.shape != (self.n_orb,) * 4:
            raise ValueError("eri has wrong shape")
        _check_symmetric("h", self.h, self.eri)
        if self.n_electrons < 0 or self.n_electrons % 2 != 0:
            raise ValueError("n_electrons must be even and non-negative")
        if self.n_electrons // 2 > self.n_orb:
            raise ValueError("more electron pairs than orbitals")

    @property
    def n_occ(self) -> int:
        return self.n_electrons // 2

    def mean_field(self, occupied) -> np.ndarray:
        """h + sum_i (2 (..|ii) - (.i|i.)) over the doubly occupied orbitals i."""
        fock = self.h.copy()
        for i in occupied:
            fock += 2.0 * self.eri[:, :, i, i] - self.eri[:, i, i, :]
        return fock


def fcidump_header(text: str) -> tuple:
    """(NORB, NELEC, body) of FCIDUMP text, the body being the integral lines."""
    header_match = re.search(r"(&END|/)", text)
    if not header_match:
        raise ParseError("FCIDUMP header terminator (&END or /) not found")
    header = text[: header_match.start()]

    def _header_int(key):
        m = re.search(rf"{key}\s*=\s*(-?\d+)", header, re.IGNORECASE)
        return int(m.group(1)) if m else None

    n_orb = _header_int("NORB")
    n_elec = _header_int("NELEC")
    if n_orb is None or n_elec is None:
        raise ParseError("FCIDUMP header must define NORB and NELEC")
    if n_orb < 1 or n_elec < 0:
        raise ParseError(f"FCIDUMP header needs NORB >= 1 and NELEC >= 0, got {n_orb} and {n_elec}")
    if n_elec % 2 != 0:
        raise ParseError("odd NELEC not supported (closed shell only)")
    two_sz = _header_int("MS2") or 0   # an absent MS2 is 0
    if two_sz != 0:
        raise ParseError(f"MS2 = {two_sz} not supported (closed shell only)")
    return n_orb, n_elec, text[header_match.end() :]


def read_fcidump(path) -> IntegralSet:
    """Read an FCIDUMP file (chemists' notation, 1-based indices).

    Lines may repeat an integral, under any of its index permutations, as
    long as they repeat its value: a second, different value is a
    ``ParseError`` naming that line.
    """
    with open(path) as fh:
        n_orb, n_elec, body = fcidump_header(fh.read())
    pair = _pair_table(n_orb)[2].tolist()
    # what a line of 0, 1, 2 and 4 nonzero indices sets, upper triangles only, and which entries are set
    values = core, eps, h, packed = (np.zeros(()), np.zeros(n_orb), np.zeros((n_orb, n_orb)),
                                     np.zeros((n_orb * (n_orb + 1) // 2,) * 2))
    filled = [np.zeros(v.shape, dtype=bool) for v in values]
    for raw in body.splitlines():
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        try:   # a value and four integer indices, or a malformed line
            value = float(fields[0].upper().replace("D", "E"))
            i, j, k, l = indices = tuple(int(v) for v in fields[1:])
        except ValueError:
            raise ParseError(f"malformed FCIDUMP line: {raw!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value in FCIDUMP line: {raw!r}")
        if min(indices) < 0 or max(indices) > n_orb:
            raise ParseError(f"orbital index out of range in line: {raw!r}")
        # the nonzero indices lead: 0 0 0 0, i 0 0 0, i j 0 0 or i j k l
        n_set = 4 - indices.count(0)
        if n_set == 3 or any(indices[n_set:]):
            raise ParseError(f"malformed index pattern in line: {raw!r}")
        kind = min(n_set, 3)
        at = tuple(sorted((pair[i - 1][j - 1], pair[k - 1][l - 1]) if kind == 3 else
                          [v - 1 for v in indices[:n_set]]))
        if filled[kind][at] and values[kind][at] != value:
            raise ParseError(f"a second, different value for one integral in line: {raw!r}")
        values[kind][at], filled[kind][at] = value, True
    for square in (h, packed):
        lower = np.tril_indices(len(square), -1)
        square[lower] = square.T[lower]
    return IntegralSet(
        n_orb=n_orb,
        h=h,
        eri=_unpacked(packed, n_orb),
        core_energy=float(core),
        n_electrons=n_elec,
        orbital_energies=eps if filled[1].all() else None,
    )


def write_fcidump(mo: IntegralSet, path) -> None:
    """Write unique integrals in chemists' notation with 1-based indices."""
    n = mo.n_orb
    lines = [f"&FCI NORB={n},NELEC={mo.n_electrons},MS2=0,",
             " ORBSYM=" + ",".join(["1"] * n) + ",", " ISYM=1,", "&END"]

    def _emit(value, i, j, k, l):
        lines.append(f"{value: .16E} {i:4d} {j:4d} {k:4d} {l:4d}")

    # (ij|kl) over pairs ij >= kl in ascending order, then h over i >= j
    i, j, _ = _pair_table(n)
    ij, kl = np.tril_indices(i.size)
    quads = np.stack([i[ij], j[ij], i[kl], j[kl]], axis=1)
    values = mo.eri[tuple(quads.T)]
    keep = np.abs(values) > 1e-14
    for value, quad in zip(values[keep].tolist(), (quads[keep] + 1).tolist()):
        _emit(value, *quad)
    for p, q in zip(i.tolist(), j.tolist()):
        if abs(mo.h[p, q]) > 1e-14:
            _emit(mo.h[p, q], p + 1, q + 1, 0, 0)
    if mo.orbital_energies is not None:
        for p, e in enumerate(mo.orbital_energies):
            _emit(e, p + 1, 0, 0, 0)
    _emit(mo.core_energy, 0, 0, 0, 0)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
