"""MP2 pair natural orbitals and qubit-budget truncation.

The surrogate model: closed-form MP2 amplitudes define one density matrix
per occupied pair, whose eigenvectors (pair natural orbitals, PNOs) are
ranked globally by occupation number. The largest occupations are kept
until the qubit budget is exhausted, orthonormalized by Cholesky in
selection order (which preserves the most important PNO), and combined
with the occupied orbitals into the final compact orbital set. Every
``IntegralSet`` here, parent and compact, holds chemists' (pq|rs) in
``eri``, which the four-index transform reads and writes as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrals import IntegralSet, transform_eri


@dataclass(frozen=True)
class PairAmplitudes:
    """MP2 doubles amplitudes T^{ij} over virtuals, for occupied pairs i<=j."""

    n_occ: int
    n_virt: int
    t: dict            # (i, j) with i <= j -> (n_virt, n_virt) array
    pair_energies: dict
    mp2_total: float


@dataclass(frozen=True)
class PNOSet:
    """Ranked pair-natural-orbital selection under a qubit budget."""

    n_occ: int
    n_virt: int
    occupations: dict   # (i, j) -> descending eigenvalues
    vectors: dict       # (i, j) -> columns are PNOs, occupation order
    selection: tuple    # ((pair, local_index, occupation), ...) as retained
    diagonal_only: bool


@dataclass(frozen=True)
class OrbitalSpace:
    """Final orthonormal orbital set: occupied plus orthonormalized PNOs."""

    n_total: int
    occupied: tuple
    pno_assignment: dict   # final orbital index -> origin pair (i, j)
    transform: np.ndarray  # parent MO basis -> final set, orthonormal columns

    def __post_init__(self):
        gram = self.transform.T @ self.transform
        if not np.allclose(gram, np.eye(self.n_total), atol=1e-8):
            raise ValueError("orbital-space transform is not orthonormal")


def _fock_diagonal(mo: IntegralSet) -> np.ndarray:
    """Orbital energies from the MO-basis Fock matrix, if it is diagonal."""
    fock = mo.mean_field(range(mo.n_occ))
    off = fock - np.diag(np.diag(fock))
    if np.max(np.abs(off)) > 1e-6:
        raise ValueError("non-canonical orbitals: MO Fock matrix not diagonal")
    return np.diag(fock).copy()


def mp2_amplitudes(mo: IntegralSet) -> PairAmplitudes:
    """Closed-form MP2 amplitudes t^{ij}_{ab} = (ia|jb) / (e_i+e_j-e_a-e_b)."""
    n_occ = mo.n_occ
    n_virt = mo.n_orb - n_occ
    eps = mo.orbital_energies
    if eps is None:
        eps = _fock_diagonal(mo)
    eps_v = eps[n_occ:]

    t: dict = {}
    pair_energies: dict = {}
    total = 0.0
    for i in range(n_occ):
        for j in range(i, n_occ):
            denom = eps[i] + eps[j] - eps_v[:, None] - eps_v[None, :]
            if np.any(np.abs(denom) < 1e-8):
                raise ValueError("degenerate occupied/virtual gap in MP2 denominator")
            g = mo.eri[i, n_occ:, j, n_occ:]
            weight = 1.0 if i == j else 2.0
            t[(i, j)] = g / denom
            pair_energies[(i, j)] = weight * float(np.sum(g * (2.0 * g - g.T) / denom))
            total += pair_energies[(i, j)]
    return PairAmplitudes(
        n_occ=n_occ, n_virt=n_virt, t=t, pair_energies=pair_energies,
        mp2_total=float(total),
    )


def pair_densities(amps: PairAmplitudes) -> dict:
    """Virtual-space pair density D^{ij} for every stored pair.

    D^{ij} = sym[ Tt T^T + Tt^T T ] / (1 + delta_ij) with Tt = 4T - 2T^T,
    the standard closed-shell PNO density; positive semidefinite for any
    real amplitudes.
    """
    densities: dict = {}
    for (i, j), t in amps.t.items():
        if not np.all(np.isfinite(t)):
            raise ValueError(f"non-finite amplitudes for pair {(i, j)}")
        tt = 4.0 * t - 2.0 * t.T
        d = tt @ t.T + tt.T @ t
        d = 0.5 * (d + d.T) / (1.0 + (1.0 if i == j else 0.0))
        densities[(i, j)] = d
    return densities


def select_pnos(
    densities: dict,
    qubit_budget: int,
    diagonal_only: bool = False,
    occupation_threshold: float | None = None,
) -> PNOSet:
    """Keep the globally largest-occupation PNOs that fit the qubit budget.

    Each pair density is diagonalized; all (pair, eigenvector, occupation)
    entries are pooled and the top qubit_budget/2 - n_occ occupations are
    retained. Ties break deterministically: larger occupation first, then
    smaller pair lexicographically, then smaller local index.
    """
    if qubit_budget % 2 != 0:
        raise ValueError("qubit budget must be even")
    if not densities:
        raise ValueError("no occupied pairs to select PNOs for: the system has no electrons")
    pairs = sorted(densities)
    n_occ = max(j for _, j in pairs) + 1
    n_virt = densities[pairs[0]].shape[0]
    if diagonal_only:
        pairs = [(i, j) for (i, j) in pairs if i == j]

    occupations: dict = {}
    vectors: dict = {}
    pool = []
    for pair in pairs:
        evals, evecs = np.linalg.eigh(densities[pair])
        order = np.argsort(evals)[::-1]
        evals = evals[order]
        evecs = evecs[:, order]
        if evals.min() < -1e-10:
            raise ValueError(f"pair density for {pair} not positive semidefinite")
        occupations[pair] = evals
        vectors[pair] = evecs
        for local, occ in enumerate(evals):
            pool.append((pair, local, float(occ)))

    n_keep = qubit_budget // 2 - n_occ
    if n_keep < 0:
        raise ValueError(
            f"qubit budget {qubit_budget} cannot hold the {n_occ} occupied "
            f"orbitals (minimum N_q = {2 * n_occ})"
        )
    if n_keep > n_virt:
        raise ValueError(
            f"qubit budget {qubit_budget} exceeds the available virtual space; "
            f"maximum feasible N_q = {2 * (n_occ + n_virt)}"
        )
    pool.sort(key=lambda entry: (-entry[2], entry[0], entry[1]))
    selection = pool[:n_keep]
    if occupation_threshold is not None:
        selection = [s for s in selection if s[2] >= occupation_threshold]
    return PNOSet(
        n_occ=n_occ,
        n_virt=n_virt,
        occupations=occupations,
        vectors=vectors,
        selection=tuple(selection),
        diagonal_only=diagonal_only,
    )


def orthonormalize(selection: PNOSet) -> OrbitalSpace:
    """Orthonormalize the retained PNOs in selection order.

    Cholesky factors G = V^T V = L L^T and rotates with (L^-1)^T, so the
    first (highest-occupation) PNO is preserved up to normalization. The PNO
    vectors live entirely in the virtual space, so projection against the
    occupied block is a no-op here.
    """
    n_occ, n_virt = selection.n_occ, selection.n_virt
    n_parent = n_occ + n_virt
    k = len(selection.selection)
    if k == 0:
        transform = np.eye(n_parent)[:, :n_occ]
        return OrbitalSpace(
            n_total=n_occ,
            occupied=tuple(range(n_occ)),
            pno_assignment={},
            transform=transform,
        )
    v = np.column_stack(
        [selection.vectors[pair][:, local] for pair, local, _ in selection.selection]
    )
    gram = v.T @ v
    if np.linalg.cond(gram) > 1e10:
        raise ValueError("linearly dependent PNO selection")
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise ValueError("linearly dependent PNO selection") from None
    w = np.empty_like(v)
    for j in range(k):
        w[:, j] = (v[:, j] - w[:, :j] @ chol[j, :j]) / chol[j, j]

    transform = np.zeros((n_parent, n_occ + k))
    transform[:n_occ, :n_occ] = np.eye(n_occ)
    transform[n_occ:, n_occ:] = w
    assignment = {
        n_occ + m: pair for m, (pair, _, _) in enumerate(selection.selection)
    }
    return OrbitalSpace(
        n_total=n_occ + k,
        occupied=tuple(range(n_occ)),
        pno_assignment=assignment,
        transform=transform,
    )


def build_final_integrals(mo: IntegralSet, space: OrbitalSpace) -> IntegralSet:
    """Rotate the integrals into the compact occupied + PNO orbital set."""
    u = space.transform
    if u.shape[0] != mo.n_orb:
        raise ValueError("orbital-space transform does not match parent basis")
    return IntegralSet(
        n_orb=space.n_total,
        h=u.T @ mo.h @ u,
        eri=transform_eri(mo.eri, u.T),
        core_energy=mo.core_energy,
        n_electrons=mo.n_electrons,
        orbital_energies=None,
    )


def freeze_core(mo: IntegralSet, frozen: list[int]) -> IntegralSet:
    """Fold doubly occupied frozen orbitals into the core energy.

    core += sum_i 2 h_ii + sum_ij (2 (ii|jj) - (ij|ji)) over frozen i, j;
    the remaining one-electron integrals pick up the frozen mean field.
    """
    frozen = sorted(set(frozen))
    if not frozen:
        return mo
    occupied = set(range(mo.n_occ))
    if not set(frozen) <= occupied:
        raise ValueError("can only freeze occupied orbitals")
    h_eff = mo.mean_field(frozen)
    core = mo.core_energy + np.sum(np.diag(mo.h + h_eff)[frozen])
    keep = [p for p in range(mo.n_orb) if p not in frozen]
    eps = mo.orbital_energies
    return IntegralSet(
        n_orb=len(keep),
        h=h_eff[np.ix_(keep, keep)],
        eri=mo.eri[np.ix_(keep, keep, keep, keep)],
        core_energy=float(core),
        n_electrons=mo.n_electrons - 2 * len(frozen),
        orbital_energies=None if eps is None else eps[keep],
    )
