"""Fermionic excitation generators and unitary pair-coupled-cluster ansaetze.

This module defines every generator kind and its builders: pair doubles
and singles on the spin-orbital register (UpCCGSD and the PNO variants)
and the pair rotations of the paired encoding (``build_paired_ansatz``,
for ``exact.PairedHamiltonian``).

Every generator G = i(E - E^dag) is Hermitian (the factor i of the
anti-Hermitian cluster operator is absorbed) and is fixed by its
excitation E: the qubits E empties, those it fills, and the qubits whose
parity signs it (``ExcitationGenerator.masks``, by ``exact.between``). Its
Jordan-Wigner image is a set of mutually commuting Pauli strings with real
coefficients, and G^3 = G, so the circuit exp(-i theta/2 G) compiles
exactly into a product of Pauli rotations, one per string, with no Trotter
error. The masks give that image in closed form, as ``(x, z)`` mask pairs
(for the CNOT counts), and the signed permutation by which the simulator
applies G to determinants (``exact._factors``). A circuit runs on
``Ansatz.basis``.

Operator ordering inside a product ansatz is fixed for reproducibility:
pair-doubles block first, then generalized doubles, then singles, each block
in ascending index order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .exact import SectorBasis, between, sector_basis
from .pno import OrbitalSpace

PNO_VARIANTS = ("UpCCD", "UpCCSD", "UpCCGD")
GENERATOR_KINDS = ("pair_double", "single", "paired_double")


@dataclass(frozen=True)
class ExcitationGenerator:
    """One Hermitian excitation generator i(E - E^dag), E moving orbital i's electrons to a.

    ``kind`` names E: a pair double (both spins of spatial orbitals i and a,
    qubits 2i, 2i+1 to 2a, 2a+1), a single (spin-orbital 2i+spin to
    2a+spin) or a hard-core pair rotation of the paired encoding (qubit i
    to qubit a, one qubit per spatial orbital), on a register of
    ``n_qubits`` qubits. A spin is given for singles only. An unknown kind,
    i == a and an orbital outside the register are refused.
    """

    kind: str             # one of GENERATOR_KINDS
    orbitals: tuple       # (i, a) spatial indices
    spin: int | None      # 0 (up) / 1 (down) for singles, None for the other kinds
    n_qubits: int         # the register

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown excitation kind {self.kind!r}")
        if self.spin not in ((0, 1) if self.kind == "single" else (None,)):
            raise ValueError(f"{self.kind} excitation cannot have spin {self.spin!r}")
        i, a = self.orbitals
        if i == a:
            raise ValueError("excitation needs two distinct orbitals")
        if min(i, a) < 0 or (self.masks[0] | self.masks[1]) >> self.n_qubits:
            raise ValueError("excitation orbital outside the register")

    @property
    def masks(self) -> tuple:
        """(emptied, filled, parity) qubit masks of E.

        E empties the first mask and fills the second, with the sign of the
        parity of the occupied qubits in the third (``exact.between``).
        """
        i, a = self.orbitals
        if self.kind == "paired_double":
            return 1 << i, 1 << a, 0
        if self.kind == "pair_double":
            return 3 << 2 * i, 3 << 2 * a, 0
        p, q = 2 * i + self.spin, 2 * a + self.spin
        return 1 << p, 1 << q, between(min(p, q), max(p, q))

    @cached_property
    def strings(self) -> tuple:
        """G's Jordan-Wigner image as (((x, z) masks, real coefficient), ...), by ascending Z mask.

        E = Z_parity prod_filled s+ prod_emptied s-, with s+- = (X -+ iY)/2,
        so G = i(E - E^dag) has one string for each odd-size subset S of the
        L flipped qubits: X on the others, Y on S and Z on the parity
        qubits, with coefficient 2^(1-L) (-1)^((|S|+1)/2) prod_{j in S} c_j,
        c_j = -1 on filled qubits and +1 on emptied ones.
        """
        emptied, filled, parity = self.masks
        flip = emptied | filled
        flipped = [j for j in range(flip.bit_length()) if flip >> j & 1]
        scale = 2.0 ** (1 - len(flipped))
        strings = []
        for pick in range(1 << len(flipped)):    # subsets in ascending mask order
            subset = sum(1 << q for k, q in enumerate(flipped) if pick >> k & 1)
            size = subset.bit_count()
            if size % 2:
                sign = (-1) ** ((size + 1) // 2 + (subset & filled).bit_count())
                strings.append(((flip, subset | parity), sign * scale))
        return tuple(strings)

    @property
    def label(self) -> str:
        i, a = self.orbitals
        if self.kind == "single":
            return f"S{'u' if self.spin == 0 else 'd'}({i}->{a})"
        return f"{'D' if self.kind == 'pair_double' else 'P'}({i}->{a})"


@dataclass(frozen=True)
class Ansatz:
    """Ordered product of parametrized excitation generators."""

    generators: tuple
    n_qubits: int
    reference: tuple     # occupied spin-orbital (qubit) indices
    name: str
    # the simulator's prepared circuit per SectorBasis
    _prepared: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_parameters(self) -> int:
        return len(self.generators)

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.reference, self.reference[1:])):
            raise ValueError("reference occupation must be strictly increasing")
        if any(g.n_qubits != self.n_qubits for g in self.generators):
            raise ValueError("generator register differs from the ansatz register")

    @cached_property
    def basis(self) -> SectorBasis:
        """The sector the circuit keeps its reference in, where its energies and gradients run.

        Pair doubles and spin-keeping singles conserve S_z (qubit 2p is spin
        up, 2p + 1 spin down), so without a pair rotation it is the
        reference's (N, S_z) sector. A pair rotation's qubit is a spatial
        orbital, not a spin, and an odd register has no spin pairs: there it
        is the N sector.
        """
        n = len(self.reference)
        if self.n_qubits % 2 or any(g.kind == "paired_double" for g in self.generators):
            return sector_basis(self.n_qubits, n)
        return sector_basis(self.n_qubits, n, sum(1 - 2 * (q % 2) for q in self.reference))


def make_pair_double(i: int, a: int, n_spatial: int) -> ExcitationGenerator:
    """Pair excitation generator i(a+_au a_iu a+_ad a_id - h.c.).

    Both spin electrons of spatial orbital i move to spatial orbital a.
    The Jordan-Wigner image is 8 weight-4 strings with coefficients +-1/8
    supported on qubits {2i, 2i+1, 2a, 2a+1}; interior parity chains cancel.
    """
    return ExcitationGenerator("pair_double", (i, a), None, 2 * n_spatial)


def make_single(p: int, q: int, spin: int, n_spatial: int) -> ExcitationGenerator:
    """Single excitation generator i(a+_q a_p - h.c.) for one spin channel.

    The image is 2 strings whose weight grows with the parity chain between
    the two spin-orbitals: w = 2(q - p) + 1 for p < q in the interleaved
    ordering.
    """
    return ExcitationGenerator("single", (p, q), spin, 2 * n_spatial)


def make_paired_rotation(i: int, a: int, n_orb: int) -> ExcitationGenerator:
    """Paired-encoding image of the pair excitation i -> a.

    i(P+_a P_i - P+_i P_a) = (Y_a X_i - X_a Y_i)/2 on two qubits; the two
    strings commute, so the exponential is an exact two-rotation circuit.
    """
    return ExcitationGenerator("paired_double", (i, a), None, n_orb)


def build_upccgsd(n_spatial: int, n_electrons: int, layers: int = 1) -> Ansatz:
    """k-UpCCGSD over all spatial orbitals (k = layers, default 1).

    Generators per layer: all generalized pair doubles p < q, then all
    generalized singles p < q for both spins; 3 * C(N, 2) parameters.
    """
    if n_electrons % 2 != 0 or n_electrons > 2 * n_spatial:
        raise ValueError("invalid electron count for the register")
    pairs = list(combinations(range(n_spatial), 2))
    layer = [make_pair_double(p, q, n_spatial) for p, q in pairs]
    layer += [make_single(p, q, spin, n_spatial) for p, q in pairs for spin in (0, 1)]
    return Ansatz(
        generators=tuple(layer) * layers,
        n_qubits=2 * n_spatial,
        reference=tuple(range(n_electrons)),
        name=f"UpCCGSD(k={layers})" if layers > 1 else "UpCCGSD",
    )


def _diagonal_pno_sets(space: OrbitalSpace) -> dict:
    """Occupied orbital -> list of its diagonal-pair PNO orbital indices."""
    sets: dict = {i: [] for i in space.occupied}
    for orb, (i, j) in sorted(space.pno_assignment.items()):
        if i == j and i in sets:
            sets[i].append(orb)
    return sets


def build_pno_ansatz(space: OrbitalSpace, variant: str) -> Ansatz:
    """Ansatz restricted to the diagonal-pair PNO structure of ``space``.

    UpCCD places one pair double i -> a for every PNO a attached to the
    diagonal pair (i, i); UpCCSD adds the two matching singles; UpCCGD adds
    generalized pair doubles a -> b inside each diagonal set, applied after
    the plain doubles block. PNOs selected from off-diagonal pairs act as
    spectator orbitals and contribute no generators.
    """
    if variant not in PNO_VARIANTS:
        raise ValueError(f"unknown PNO ansatz variant {variant!r}")
    if space.pno_assignment is None:
        raise ValueError("PNO metadata required to build a PNO-restricted ansatz")
    n_spatial = space.n_total
    diag = _diagonal_pno_sets(space)

    doubles = [(i, a) for i in sorted(diag) for a in diag[i]]
    gens = [make_pair_double(i, a, n_spatial) for i, a in doubles]
    if variant == "UpCCGD":
        gens += [make_pair_double(a, b, n_spatial) for i in sorted(diag)
                 for a, b in combinations(diag[i], 2)]
    if variant == "UpCCSD":
        gens += [make_single(p, q, spin, n_spatial) for p, q in doubles for spin in (0, 1)]
    return Ansatz(
        generators=tuple(gens),
        n_qubits=2 * n_spatial,
        reference=tuple(range(2 * len(space.occupied))),
        name=f"PNO-{variant}",
    )


def build_paired_ansatz(occupied, pair_doubles, n_orb: int) -> Ansatz:
    """Pair-rotation circuit on n_orb qubits mirroring a PNO-UpCCD ansatz.

    ``pair_doubles`` lists (i, a) spatial excitations in ansatz order;
    ``occupied`` lists the reference's doubly occupied spatial orbitals. An
    empty list is a ``ValueError``: ``Ansatz.basis`` knows a register is
    paired only from its pair rotations, and would read an empty circuit's
    qubits as spins.
    """
    gens = tuple(make_paired_rotation(i, a, n_orb) for i, a in pair_doubles)
    if not gens:
        raise ValueError("a paired circuit needs at least one pair double")
    return Ansatz(
        generators=gens,
        n_qubits=n_orb,
        reference=tuple(sorted(occupied)),
        name="paired-UpCCD",
    )


@dataclass(frozen=True)
class ResourceReport:
    """Parameter and naive CNOT counts for one ansatz."""

    n_parameters: int
    n_cnots: int
    breakdown: tuple   # ((generator label, cnots), ...)

    def as_dict(self) -> dict:
        return {
            "n_parameters": self.n_parameters,
            "n_cnots": self.n_cnots,
            "breakdown": [list(entry) for entry in self.breakdown],
        }


def count_resources(ansatz: Ansatz) -> ResourceReport:
    """Naive CNOT-ladder costing: 2(w - 1) CNOTs per weight-w rotation.

    No cancellation between adjacent rotations is assumed, so a pair double
    always costs 8 * 2 * 3 = 48 CNOTs and a single (p, q) costs 8(q - p)
    per spin channel.
    """
    breakdown = tuple((gen.label, sum(2 * ((x | z).bit_count() - 1) for (x, z), _ in gen.strings))
                      for gen in ansatz.generators)
    return ResourceReport(ansatz.n_parameters, sum(cost for _, cost in breakdown), breakdown)


def format_resource_table(rows: list) -> str:
    """Text table of ``params (cnots)`` cells.

    ``rows`` holds (system label, {variant name: ResourceReport}) pairs;
    columns are the union of variant names in first-seen order.
    """
    variants: list = []
    for _, reports in rows:
        for name in reports:
            if name not in variants:
                variants.append(name)
    header = ["System"] + variants
    table = [header]
    for label, reports in rows:
        row = [label]
        for name in variants:
            rep = reports.get(name)
            row.append(f"{rep.n_parameters} ({rep.n_cnots})" if rep else "-")
        table.append(row)
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in table
    ]
    return "\n".join(lines) + "\n"


def resource_table_json(rows: list) -> str:
    payload = [
        {
            "system": label,
            "variants": {name: rep.as_dict() for name, rep in reports.items()},
        }
        for label, reports in rows
    ]
    return json.dumps(payload, indent=2, sort_keys=True)
