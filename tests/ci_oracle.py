"""Independent reference implementations for the test suite.

The determinant-basis CI oracles deliberately avoid the package's
Jordan-Wigner encoding and simulator: matrix elements come from
elementary ladder operator action on occupation bitmasks and, separately,
from the Slater-Condon rules. Basis states use the same little-endian
bitmask labeling as the qubit register, with a determinant defined by
applying creation operators in ascending index order.

The AO-integral and MP2 oracles are scalar loops over contracted and
primitive quartets (and virtual pairs) with the scalar Boys function
``boys`` defined here, so they run no package integral code: the
reference the package's array code is compared against. The four-index
transforms are plain ``einsum`` contractions over the full tensor, and the
FCIDUMP oracles fill all eight permutations of each integral line and write
with four nested loops: the references for the package's pair-packed code.
The SCF oracle is the Roothaan-DIIS loop that rebuilt the Fock matrix of a
density it already had, and the DIIS B matrix whole every iteration.

The operator oracles are the term-by-term loops the package's array code
must reproduce bit for bit: the spin-orbital expansion of the integrals,
the Jordan-Wigner product of the ladder images (by ``_mul_masks``, the one
Pauli product here), and the text form of a qubit operator, one label per
term. A fermionic operator is a dict from ladder tuples to coefficients,
as the package's. The projection of a qubit operator
onto a basis, one X group and one term at a time (``reference_matrix``),
is the only sector matrix of a Pauli sum: the package builds its sector
matrices from the integrals, and the tests check them against this
projection of the Jordan-Wigner image. The package's sector operators as
they were built on scipy.sparse (``ReferenceStringSigma``,
``reference_pair_matrix``) are the bits its numpy operators must give.
An excitation generator's Pauli strings come from that Jordan-Wigner
product of its ladders (written out for a pair rotation), never from the
excitation masks the package derives its strings and factors from; every
oracle below that reads a generator reads these strings.

The state-engine oracles that follow build on ``reference_matrix``: the
sparse-G form of a G^3 = G factor from a generator's Pauli
strings and the sparse checks that build it (the reference for the
simulator's determinant-rule factors), the complex sweep in the
reference's particle-number sector that the real (N, S_z) sweep must
reproduce, and central finite differences of the package's energy.
``register_basis`` is every bitmask of a register as a ``SectorBasis``,
for the tests that probe the factors there, and ``symmetry_leaks`` reads
a register matrix for the entries that would break N or S_z. The sector
oracle filters every bitmask of a register by popcount and by its count
of even (spin-up) qubits (``register_sector``); the package builds its
sectors from spin strings.

The full-register oracles at the end run nothing of the package's engine
and read only an operator's terms (or a dense register matrix, as
``paired_register_matrix`` gives) and an ansatz's reference strings: Pauli
sums as Kronecker products (``scipy.sparse.kron`` above 8 qubits), circuit
states by ``expm_multiply`` of each generator, the two-point shift rule on
each Pauli rotation of the 2^n register, dense spectra from ``eigvalsh``,
and the projection onto paired determinants (by ``reference_matrix``).
Dense Hamiltonians are for 8 qubits or fewer.

The optimizer oracle at the very end is the BFGS driver as it stood with a
separate bisection loop (``reference_minimize``, ``reference_run_vqe``):
the package's single strong-Wolfe loop must evaluate the same points and
return the same bits.
"""

from __future__ import annotations

import math
import re
from itertools import combinations, groupby
from operator import itemgetter

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from pnovqe.exact import SectorBasis, _grids, _locate, _string_moves, sector_basis
from pnovqe.integrals import AOIntegralSet, IntegralSet
from pnovqe.scf import SCFResult, _fock_matrix, _orthogonalizer
from pnovqe.operators import _PHASES, COEFF_CUTOFF, QubitOperator
from pnovqe.optimize import OptimizationResult
from pnovqe.simulator import ansatz_expectation, gradient as ansatz_gradient


def apply_ladder(mask: int, index: int, creation: bool):
    """Apply a+/a to an occupation bitmask; returns (mask, sign) or None."""
    bit = 1 << index
    occupied = bool(mask & bit)
    if creation == occupied:
        return None
    sign = -1.0 if ((mask & (bit - 1)).bit_count() % 2) else 1.0
    return mask ^ bit, sign


def spin_orbital_integrals(mo: IntegralSet):
    """Expand spatial integrals over interleaved spin-orbitals."""
    n = mo.n_orb
    n_so = 2 * n
    g = mo.eri.transpose(0, 2, 1, 3)   # physicists' <pq|rs> = (pr|qs)
    h_so = np.zeros((n_so, n_so))
    g_so = np.zeros((n_so, n_so, n_so, n_so))
    for p in range(n):
        for q in range(n):
            for s in (0, 1):
                h_so[2 * p + s, 2 * q + s] = mo.h[p, q]
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s_ in range(n):
                    val = g[p, q, r, s_]
                    if val == 0.0:
                        continue
                    for sig in (0, 1):
                        for tau in (0, 1):
                            g_so[2 * p + sig, 2 * q + tau,
                                 2 * r + sig, 2 * s_ + tau] = val
    return h_so, g_so


def ci_matrix(mo: IntegralSet, masks=None) -> np.ndarray:
    """Hamiltonian matrix over determinants by direct operator application."""
    n_so = 2 * mo.n_orb
    if masks is None:
        masks = list(range(1 << n_so))
    position = {m: i for i, m in enumerate(masks)}
    h_so, g_so = spin_orbital_integrals(mo)
    dim = len(masks)
    mat = np.zeros((dim, dim))
    mat += mo.core_energy * np.eye(dim)

    one_body = [
        (p, q, h_so[p, q])
        for p in range(n_so)
        for q in range(n_so)
        if h_so[p, q] != 0.0
    ]
    two_body = [
        (p, q, r, s, 0.5 * g_so[p, q, r, s])
        for p in range(n_so)
        for q in range(n_so)
        for r in range(n_so)
        for s in range(n_so)
        if g_so[p, q, r, s] != 0.0
    ]

    for col, mask in enumerate(masks):
        for p, q, val in one_body:
            step = apply_ladder(mask, q, False)
            if step is None:
                continue
            m1, s1 = step
            step = apply_ladder(m1, p, True)
            if step is None:
                continue
            m2, s2 = step
            row = position.get(m2)
            if row is not None:
                mat[row, col] += val * s1 * s2
        for p, q, r, s, val in two_body:
            # a+_p a+_q a_s a_r applied right to left
            step = apply_ladder(mask, r, False)
            if step is None:
                continue
            m1, s1 = step
            step = apply_ladder(m1, s, False)
            if step is None:
                continue
            m2, s2 = step
            step = apply_ladder(m2, q, True)
            if step is None:
                continue
            m3, s3 = step
            step = apply_ladder(m3, p, True)
            if step is None:
                continue
            m4, s4 = step
            row = position.get(m4)
            if row is not None:
                mat[row, col] += val * s1 * s2 * s3 * s4
    return mat


def sector_masks(n_so: int, n_elec: int, two_sz: int | None = None):
    """Determinant bitmasks of fixed electron count (and optionally S_z)."""
    masks = []
    for bits in combinations(range(n_so), n_elec):
        if two_sz is not None:
            n_up = sum(1 for b in bits if b % 2 == 0)
            if 2 * n_up - n_elec != two_sz:
                continue
        mask = 0
        for b in bits:
            mask |= 1 << b
        masks.append(mask)
    return sorted(masks)


def _occupied(mask: int):
    return [j for j in range(mask.bit_length()) if (mask >> j) & 1]


def slater_condon_element(bra: int, ket: int, h_so, g_so, core: float) -> float:
    """Matrix element between two determinants via the Slater-Condon rules."""
    if bra.bit_count() != ket.bit_count():
        return 0.0
    diff = bra ^ ket
    n_diff = diff.bit_count() // 2
    if n_diff > 2:
        return 0.0
    occ_ket = _occupied(ket)
    if n_diff == 0:
        value = core
        for p in occ_ket:
            value += h_so[p, p]
            for q in occ_ket:
                value += 0.5 * (g_so[p, q, p, q] - g_so[p, q, q, p])
        return value
    removed = _occupied(ket & diff)
    added = _occupied(bra & diff)
    if n_diff == 1:
        p, q = removed[0], added[0]
        m1, s1 = apply_ladder(ket, p, False)
        _, s2 = apply_ladder(m1, q, True)
        sign = s1 * s2
        value = h_so[q, p]
        for r in _occupied(ket & bra):
            value += g_so[q, r, p, r] - g_so[q, r, r, p]
        return sign * value
    p1, p2 = removed
    q1, q2 = added
    m1, s1 = apply_ladder(ket, p1, False)
    m2, s2 = apply_ladder(m1, p2, False)
    m3, s3 = apply_ladder(m2, q2, True)
    _, s4 = apply_ladder(m3, q1, True)
    sign = s1 * s2 * s3 * s4
    return sign * (g_so[q1, q2, p1, p2] - g_so[q1, q2, p2, p1])


def slater_condon_matrix(mo: IntegralSet, masks) -> np.ndarray:
    h_so, g_so = spin_orbital_integrals(mo)
    dim = len(masks)
    mat = np.zeros((dim, dim))
    for i, bra in enumerate(masks):
        for j, ket in enumerate(masks):
            if j > i:
                break
            val = slater_condon_element(bra, ket, h_so, g_so, mo.core_energy)
            mat[i, j] = val
            mat[j, i] = val
    return mat


def fci_ground_energy(mo: IntegralSet, n_elec: int | None = None,
                      two_sz: int | None = 0) -> float:
    """Reference FCI energy by Slater-Condon diagonalization in a sector."""
    if n_elec is None:
        n_elec = mo.n_electrons
    masks = sector_masks(2 * mo.n_orb, n_elec, two_sz)
    mat = slater_condon_matrix(mo, masks)
    return float(np.linalg.eigvalsh(mat)[0])


def random_integral_set(n_orb: int, n_elec: int, seed: int, scale: float = 0.2,
                        with_energies: bool = False) -> IntegralSet:
    """Random Hermitian integral set with full real 8-fold symmetry."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n_orb, n_orb))
    h = 0.5 * (h + h.T)
    n_pair = n_orb * (n_orb + 1) // 2
    m = scale * rng.standard_normal((n_pair, n_pair))
    m = 0.5 * (m + m.T)

    def pair_index(i, j):
        i, j = max(i, j), min(i, j)
        return i * (i + 1) // 2 + j

    chem = np.zeros((n_orb,) * 4)
    for i in range(n_orb):
        for j in range(n_orb):
            for k in range(n_orb):
                for l in range(n_orb):
                    chem[i, j, k, l] = m[pair_index(i, j), pair_index(k, l)]
    eps = None
    if with_energies:
        # canonical-looking spectrum: ascending, non-degenerate
        eps = np.sort(rng.uniform(-2.0, -0.5, n_orb))
        eps[n_elec // 2 :] = np.sort(rng.uniform(0.5, 2.5, n_orb - n_elec // 2))
    return IntegralSet(
        n_orb=n_orb,
        h=h,
        eri=chem,
        core_energy=float(rng.standard_normal()),
        n_electrons=n_elec,
        orbital_energies=eps,
    )


def boys(n: int, x: float) -> float:
    """Boys function F_n(x) = int_0^1 t^(2n) exp(-x t^2) dt."""
    if n < 0 or n > 16:
        raise ValueError("boys order limited to 0 <= n <= 16")
    if x < 0:
        raise ValueError("boys argument must be non-negative")
    return float(boys_all(n, x)[n])


def boys_all(n_max: int, x: float) -> np.ndarray:
    """F_0(x) .. F_{n_max}(x).

    For x < 35 the series F_n = e^-x sum_k (2x)^k / prod(2n+1 .. 2n+2k+1)
    is evaluated at n_max and recursed downward; beyond that the closed form
    F_0 = sqrt(pi/x)/2 plus stable upward recursion is exact to ~1e-15.
    """
    out = np.empty(n_max + 1)
    ex = math.exp(-x)
    if x >= 35.0:
        out[0] = 0.5 * math.sqrt(math.pi / x)
        for m in range(n_max):
            out[m + 1] = ((2 * m + 1) * out[m] - ex) / (2.0 * x)
        return out
    term = 1.0 / (2 * n_max + 1)
    total = term
    k = 0
    while term > 1e-18 * total:
        term *= 2.0 * x / (2 * n_max + 2 * k + 3)
        total += term
        k += 1
        if k > 500:  # pragma: no cover - series converges long before this
            break
    out[n_max] = ex * total
    for m in range(n_max - 1, -1, -1):
        out[m] = (2.0 * x * out[m + 1] + ex) / (2 * m + 1)
    return out


def _prim_norm(alpha: float) -> float:
    """Normalization of an s-primitive of exponent alpha."""
    return (2.0 * alpha / math.pi) ** 0.75


def reference_ao_integrals(molecule, shells) -> AOIntegralSet:
    """S, H_core, ERIs and E_nuc by scalar loops over contracted quartets."""
    n = len(shells)
    s_mat = np.zeros((n, n))
    t_mat = np.zeros((n, n))
    v_mat = np.zeros((n, n))
    charges = [(z, pos) for _, z, pos in molecule.atoms]

    e_nuc = 0.0
    for i, (za, pa) in enumerate(charges):
        for zb, pb in charges[i + 1 :]:
            e_nuc += za * zb / np.linalg.norm(pa - pb)

    for i in range(n):
        for j in range(i + 1):
            sij = tij = vij = 0.0
            sa, sb = shells[i], shells[j]
            rab2 = float(np.sum((sa.center - sb.center) ** 2))
            for a, ca in zip(sa.exponents, sa.coefficients):
                for b, cb in zip(sb.exponents, sb.coefficients):
                    p = a + b
                    mu = a * b / p
                    pref = ca * cb * _prim_norm(a) * _prim_norm(b)
                    kab = math.exp(-mu * rab2)
                    s0 = (math.pi / p) ** 1.5 * kab
                    sij += pref * s0
                    tij += pref * mu * (3.0 - 2.0 * mu * rab2) * s0
                    pc = (a * sa.center + b * sb.center) / p
                    for zc, rc in charges:
                        arg = p * float(np.sum((pc - rc) ** 2))
                        vij -= pref * zc * (2.0 * math.pi / p) * kab * boys(0, arg)
            s_mat[i, j] = s_mat[j, i] = sij
            t_mat[i, j] = t_mat[j, i] = tij
            v_mat[i, j] = v_mat[j, i] = vij

    eri = np.zeros((n, n, n, n))
    pair_index = lambda i, j: i * (i + 1) // 2 + j
    for i in range(n):
        for j in range(i + 1):
            for k in range(n):
                for l in range(k + 1):
                    if pair_index(i, j) < pair_index(k, l):
                        continue
                    val = _reference_eri(shells[i], shells[j], shells[k], shells[l])
                    for a, b in ((i, j), (j, i)):
                        for c, d in ((k, l), (l, k)):
                            eri[a, b, c, d] = val
                            eri[c, d, a, b] = val
    return AOIntegralSet(
        n_ao=n,
        overlap=s_mat,
        core_hamiltonian=t_mat + v_mat,
        eri=eri,
        nuclear_repulsion=e_nuc,
    )


def reference_mo_eri(eri: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Chemists' (ij|kl) = sum_pqrs C_pi C_qj C_rk C_sl (pq|rs) by one einsum."""
    return np.einsum("pqrs,pi,qj,rk,sl->ijkl", eri, c, c, c, c, optimize=True)


def reference_final_eri(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Two-electron integrals rotated by the columns of u on all four indices, by one einsum."""
    return np.einsum("PQRS,Pp,Qq,Rr,Ss->pqrs", g, u, u, u, u, optimize=True)


def reference_read_fcidump(path) -> tuple:
    """(h, chemists' eri, orbital energies or None, core) of an FCIDUMP file."""
    with open(path) as fh:
        text = fh.read()
    end = re.search(r"(&END|/)", text)
    n = int(re.search(r"NORB\s*=\s*(\d+)", text[: end.start()], re.IGNORECASE).group(1))
    h = np.zeros((n, n))
    chem = np.zeros((n,) * 4)
    eps = np.full(n, np.nan)
    core = 0.0
    for line in text[end.end():].splitlines():
        fields = line.split()
        if not fields:
            continue
        value = float(fields[0].upper().replace("D", "E"))
        i, j, k, l = (int(v) for v in fields[1:])
        if i == 0:
            core = value
        elif j == 0:
            eps[i - 1] = value
        elif k == 0:
            h[i - 1, j - 1] = value
            h[j - 1, i - 1] = value
        else:
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            for p, q in ((a, b), (b, a)):
                for r, s in ((c, d), (d, c)):
                    chem[p, q, r, s] = value
                    chem[r, s, p, q] = value
    return h, chem, None if np.any(np.isnan(eps)) else eps, core


def reference_fcidump_text(mo: IntegralSet) -> str:
    """FCIDUMP text of an integral set: unique (ij|kl) by four nested loops, then h."""
    n = mo.n_orb
    lines = [f"&FCI NORB={n},NELEC={mo.n_electrons},MS2=0,",
             " ORBSYM=" + ",".join(["1"] * n) + ",", " ISYM=1,", "&END"]

    def _emit(value, i, j, k, l):
        lines.append(f"{value: .16E} {i:4d} {j:4d} {k:4d} {l:4d}")

    pair_index = lambda i, j: i * (i + 1) // 2 + j
    for i in range(n):
        for j in range(i + 1):
            for k in range(n):
                for l in range(k + 1):
                    if pair_index(i, j) < pair_index(k, l):
                        continue
                    val = mo.eri[i, j, k, l]
                    if abs(val) > 1e-14:
                        _emit(val, i + 1, j + 1, k + 1, l + 1)
    for i in range(n):
        for j in range(i + 1):
            if abs(mo.h[i, j]) > 1e-14:
                _emit(mo.h[i, j], i + 1, j + 1, 0, 0)
    if mo.orbital_energies is not None:
        for i, e in enumerate(mo.orbital_energies):
            _emit(e, i + 1, 0, 0, 0)
    _emit(mo.core_energy, 0, 0, 0, 0)
    return "\n".join(lines) + "\n"


def _reference_eri(sa, sb, sc, sd) -> float:
    rab2 = float(np.sum((sa.center - sb.center) ** 2))
    rcd2 = float(np.sum((sc.center - sd.center) ** 2))
    total = 0.0
    for a, ca in zip(sa.exponents, sa.coefficients):
        for b, cb in zip(sb.exponents, sb.coefficients):
            p = a + b
            pab = (a * sa.center + b * sb.center) / p
            kab = math.exp(-a * b / p * rab2)
            for c, cc in zip(sc.exponents, sc.coefficients):
                for d, cd in zip(sd.exponents, sd.coefficients):
                    q = c + d
                    pcd = (c * sc.center + d * sd.center) / q
                    kcd = math.exp(-c * d / q * rcd2)
                    rho = p * q / (p + q)
                    arg = rho * float(np.sum((pab - pcd) ** 2))
                    pref = (
                        ca * cb * cc * cd
                        * _prim_norm(a) * _prim_norm(b)
                        * _prim_norm(c) * _prim_norm(d)
                    )
                    total += (
                        pref
                        * 2.0 * math.pi**2.5
                        / (p * q * math.sqrt(p + q))
                        * kab * kcd * boys(0, arg)
                    )
    return total


def reference_mp2_amplitudes(mo: IntegralSet):
    """MP2 amplitudes t[(i, j)] and pair energies by a loop over virtual pairs."""
    n_occ = mo.n_occ
    eps = mo.orbital_energies
    g = mo.eri.transpose(0, 2, 1, 3)   # physicists' <pq|rs> = (pr|qs)
    virt = range(n_occ, mo.n_orb)
    t: dict = {}
    pair_energies: dict = {}
    for i in range(n_occ):
        for j in range(i, n_occ):
            tij = np.zeros((len(virt), len(virt)))
            e_pair = 0.0
            for a_local, a in enumerate(virt):
                for b_local, b in enumerate(virt):
                    denom = eps[i] + eps[j] - eps[a] - eps[b]
                    g_ijab = g[i, j, a, b]
                    g_ijba = g[i, j, b, a]
                    tij[a_local, b_local] = g_ijab / denom
                    e_pair += g_ijab * (2.0 * g_ijab - g_ijba) / denom
            t[(i, j)] = tij
            pair_energies[(i, j)] = (1.0 if i == j else 2.0) * e_pair
    return t, pair_energies


def reference_run_rhf(ao: AOIntegralSet, n_electrons: int, max_iter: int = 100,
                      energy_tol: float = 1e-10, density_tol: float = 1e-8,
                      diis_size: int = 8) -> SCFResult:
    """The Roothaan-DIIS loop that builds the Fock matrix of each density twice.

    Once for the energy of a new density and again at the start of the next
    iteration (and once more for the canonical orbitals); ``scf.run_rhf``
    must return the same bits building it once.
    """
    n_occ = n_electrons // 2
    x = _orthogonalizer(ao.overlap)
    h, s = ao.core_hamiltonian, ao.overlap

    def _density(fock):
        eps, c_ortho = np.linalg.eigh(x.T @ fock @ x)
        c = x @ c_ortho
        return eps, c, 2.0 * c[:, :n_occ] @ c[:, :n_occ].T

    eps, c, density = _density(h)
    energy = 0.5 * np.sum(density * (h + _fock_matrix(ao, density))) + ao.nuclear_repulsion
    fock_list, error_list, history = [], [], [energy]
    converged, iterations = False, 0
    for iterations in range(1, max_iter + 1):
        fock = _fock_matrix(ao, density)
        err = x.T @ (fock @ density @ s - s @ density @ fock) @ x
        fock_list.append(fock)
        error_list.append(err)
        if len(fock_list) > diis_size:
            fock_list.pop(0)
            error_list.pop(0)
        if len(fock_list) > 1:
            fock = reference_diis_extrapolate(fock_list, error_list)
        eps, c, new_density = _density(fock)
        new_energy = (0.5 * np.sum(new_density * (h + _fock_matrix(ao, new_density)))
                      + ao.nuclear_repulsion)
        history.append(new_energy)
        delta_e = abs(new_energy - energy)
        delta_d = np.max(np.abs(new_density - density))
        density, energy = new_density, new_energy
        if delta_e < energy_tol and delta_d < density_tol:
            converged = True
            break
    eps, c, _ = _density(_fock_matrix(ao, density))
    return SCFResult(mo_coefficients=c, orbital_energies=eps, total_energy=float(energy),
                     converged=converged, iterations=iterations, density_matrix=density,
                     energy_history=tuple(history))


def reference_diis_extrapolate(fock_list, error_list) -> np.ndarray:
    """Pulay's DIIS Fock matrix, its B matrix built whole from the error vectors."""
    m = len(fock_list)
    b = -np.ones((m + 1, m + 1))
    b[m, m] = 0.0
    b[:m, :m] = [[np.sum(ei * ej) for ej in error_list] for ei in error_list]
    rhs = np.zeros(m + 1)
    rhs[m] = -1.0
    try:
        coeffs = np.linalg.solve(b, rhs)[:m]
    except np.linalg.LinAlgError:
        return fock_list[-1]
    return sum(ci * fi for ci, fi in zip(coeffs, fock_list))


def reference_build_hamiltonian(mo) -> dict:
    """Second-quantized Hamiltonian, one spin-orbital quartet at a time."""
    n = mo.n_orb
    h = mo.h
    g = mo.eri.transpose(0, 2, 1, 3)   # physicists' <pq|rs> = (pr|qs)
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

    return {term: c for term, c in terms.items() if not abs(c) < COEFF_CUTOFF}


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


def _jw_factor(index: int, creation: bool) -> tuple:
    """Jordan-Wigner image of a single ladder operator as two mask terms."""
    chain = (1 << index) - 1
    bit = 1 << index
    y_coeff = -0.5j if creation else 0.5j
    return ((bit, chain, 0.5 + 0.0j), (bit, chain | bit, y_coeff))


def reference_jordan_wigner(op: dict, n_qubits: int) -> QubitOperator:
    """Jordan-Wigner image by multiplying out the ladder images of every term."""
    if max((index for term in op for index, _ in term), default=-1) >= n_qubits:
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


def reference_generator_strings(gen) -> tuple:
    """An excitation generator's Pauli strings from its fermionic form, never from its masks.

    A pair double or a single is i(E - E^dag) of its ladder product E
    through ``reference_jordan_wigner``; a hard-core pair rotation i -> a
    is the written-out (X_i Y_a - Y_i X_a)/2. Returns (((X mask, Z mask),
    real coefficient), ...) by ascending (X mask, Z mask).
    """
    i, a = gen.orbitals
    if gen.kind == "paired_double":
        flip = (1 << i) | (1 << a)
        terms = {(flip, 1 << a): 0.5, (flip, 1 << i): -0.5}
    else:
        if gen.kind == "pair_double":
            ladders = ((2 * a, True), (2 * i, False), (2 * a + 1, True), (2 * i + 1, False))
        else:
            ladders = ((2 * a + gen.spin, True), (2 * i + gen.spin, False))
        adjoint = tuple((index, not creation) for index, creation in reversed(ladders))
        terms = reference_jordan_wigner({ladders: 1.0j, adjoint: -1.0j}, gen.n_qubits)._terms
    if any(complex(c).imag for c in terms.values()):
        raise ValueError("generator image has a complex coefficient")
    return tuple((key, complex(c).real) for key, c in sorted(terms.items()))


def reference_matrix(op: QubitOperator, states: np.ndarray) -> scipy.sparse.csr_matrix:
    """Projection onto sorted basis bitmasks, one X group and one term at a time."""
    dim = len(states)
    # entries hold row * dim + column, so each X mask adds only two arrays
    entries, vals = [np.zeros(0, np.int64)], [np.zeros(0, complex)]
    for x, terms in groupby(sorted(op._terms), key=itemgetter(0)):
        images = states ^ x
        pos = np.minimum(np.searchsorted(states, images), dim - 1)
        hit = np.flatnonzero(states[pos] == images)
        kept = states[hit]
        values = np.zeros(len(hit), dtype=complex)
        for _, z in terms:
            coeff = op._terms[(x, z)] * _PHASES[(x & z).bit_count() % 4]
            values += np.where(np.bitwise_count(kept & z) & 1, -coeff, coeff)
        keep = values != 0
        entries.append(pos[hit[keep]] * dim + hit[keep])
        vals.append(values[keep])
    entries, vals = np.concatenate(entries), np.concatenate(vals)
    return scipy.sparse.csr_matrix(
        (vals, np.divmod(entries, dim)), shape=(dim, dim), dtype=complex
    )


class ReferenceStringSigma:
    """The string sigma as ``exact._StringSigma`` built it on scipy.sparse: the bits its numpy table must give.

    The table E, a CSC of shape (pairs x dim, dim), holds <j|E_pq + E_qp|i>
    for the pairs p >= q in row pq x dim + i: each spin grid's string moves
    at every string of the other spin, placed and signed by ``exact._grids``,
    summed part by part by scipy. A product is D = E C, G = (1/2 (pq|rs) +
    k_pq d_rs / N) D in one GEMM and sigma = E^T G + core C, both sparse
    products scipy's.
    """

    def __init__(self, mo: IntegralSet, basis: SectorBasis):
        n, dim, grids, eri = mo.n_orb, basis.dim, list(_grids(basis)), mo.eri
        p, q = np.tril_indices(n)
        one = (mo.h - 0.5 * np.einsum("prrq->pq", eri))[p, q]
        self._coupling = 0.5 * eri[p, q][:, p, q] + np.outer(one, p == q) / max(sum(grids[0][:2]), 1)
        coulomb, exchange = np.einsum("ppqq->pq", eri), np.einsum("pqqp->pq", eri)
        self._core, self._diagonal, self._table = float(mo.core_energy), np.empty(dim), 0   # 0: the empty sum
        for n_up, n_down, positions, phases in grids:
            (up, *up_moves), (down, *down_moves) = _string_moves(n, n_up), _string_moves(n, n_down)
            own = [o @ np.diag(mo.h) + 0.5 * ((o @ (coulomb - exchange)) * o).sum(1) for o in (up, down)]
            self._diagonal[positions] = self._core + own[0][:, None] + own[1] + up @ coulomb @ down.T
            # a spin-up move at every spin-down string, a spin-down move at every spin-up string;
            # each part is added as it is built, so that only one part's (row, column) entries are held
            for (pair, string, image, sign), at, sign_at in ((up_moves, positions, phases),
                                                             (down_moves, positions.T, phases.T)):
                self._table = self._table + scipy.sparse.csc_matrix((
                    (sign[:, None] * sign_at[string] * sign_at[image]).ravel(),
                    ((pair[:, None] * dim + at[string]).ravel(), at[image].ravel())), shape=(len(one) * dim, dim))
        self._transpose = self._table.T   # a CSR view of the same arrays

    def diagonal(self) -> np.ndarray:
        return self._diagonal

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        d = self._table @ vector   # a vector, or a (dim, k) block
        g = self._coupling @ d.reshape(len(self._coupling), -1)
        return self._transpose @ g.reshape(d.shape) + self._core * vector


def reference_pair_matrix(mo: IntegralSet, basis: SectorBasis) -> scipy.sparse.csr_matrix:
    """``exact._pair_matrix``'s closed form as it was built on scipy.sparse: the diagonal plus the hops, a real CSR."""
    n, eri, states = mo.n_orb, mo.eri, basis.states
    occ = ((states[:, None] >> np.arange(n)) & 1).astype(bool)
    pair_pair = 4 * np.einsum("ppqq->pq", eri) - 2 * np.einsum("pqqp->pq", eri)
    diagonal = mo.core_energy + occ @ (2 * np.diag(mo.h)) + 0.5 * ((occ @ pair_pair) * occ).sum(1)
    row, p, q = np.nonzero(occ[:, :, None] & ~occ[:, None, :])
    column, found = _locate(states, states[row] ^ (1 << p) ^ (1 << q))
    hops = (np.einsum("pqpq->pq", eri)[p, q][found], (row[found], column[found]))
    return (scipy.sparse.diags(diagonal) + scipy.sparse.csr_matrix(hops, shape=(len(states),) * 2)).tocsr()


def pauli_label(x: int, z: int) -> str:
    """``X0 Y2 Z3``: the Paulis of a mask pair by ascending qubit, ``I`` for the identity."""
    letters = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    words = [f"{letters[(x >> j) & 1, (z >> j) & 1]}{j}"
             for j in range((x | z).bit_length()) if ((x | z) >> j) & 1]
    return " ".join(words) or "I"


def reference_to_text(op: QubitOperator) -> str:
    """One term per line, sorted by (weight, (X mask, Z mask)), labels from ``pauli_label``."""
    lines = []
    for (x, z) in sorted(op._terms, key=lambda k: ((k[0] | k[1]).bit_count(), k)):
        coeff = op._terms[(x, z)]
        if abs(coeff.imag) < COEFF_CUTOFF:
            num = repr(coeff.real)
        else:
            num = repr(coeff)
        lines.append(f"{num} {pauli_label(x, z)}")
    return "\n".join(lines) + "\n"


def reference_factor(strings, basis) -> tuple:
    """(rows, cols, phases) of G = sum_m c_m P_m, checked with sparse products of G.

    G is ``reference_matrix`` of the real-coefficient strings (as
    ``reference_generator_strings`` gives them). The checks, in order:
    PG^2P = (PGP)^2 (G keeps the basis closed, the one check the simulator
    makes), one entry per row, G^3 = G. The simulator's signs are -i times
    the phases.
    """
    terms = dict(strings)
    square: dict = {}
    for (x1, z1), c1 in terms.items():
        for (x2, z2), c2 in terms.items():
            x3, z3, phase = _mul_masks(x1, z1, x2, z2)
            square[(x3, z3)] = square.get((x3, z3), 0.0) + c1 * c2 * phase
    g = reference_matrix(QubitOperator(basis.n_qubits, terms), basis.states)
    g2 = g @ g
    if abs(g2 - reference_matrix(QubitOperator(basis.n_qubits, square), basis.states)).max() > 1e-10:
        raise ValueError("generator maps a basis state outside the basis")
    per_row = np.diff(g.indptr)
    if per_row.max(initial=0) > 1:
        raise ValueError("generator maps a basis state to a superposition of basis states")
    if abs(g2 @ g - g).max() > 1e-10:
        raise ValueError("generator does not satisfy G^3 = G on the basis")
    return np.flatnonzero(per_row), g.indices.astype(np.intp), g.data


def reference_rotate(vec: np.ndarray, g, angle: float) -> np.ndarray:
    """exp(-i angle/2 G) vec for a sparse generator with G^3 = G."""
    g_vec = g @ vec
    return vec + (np.cos(0.5 * angle) - 1.0) * (g @ g_vec) - 1j * np.sin(0.5 * angle) * g_vec


def reference_sector_sweep(op, ansatz, theta) -> tuple:
    """(energy, adjoint gradient) by a complex sweep in the reference's N sector.

    ``op`` is a Pauli sum, such as the Jordan-Wigner image of the
    Hamiltonian the engine reads as an ``IntegralHamiltonian``, or a dense
    register matrix such as ``paired_register_matrix``. Factors come
    from ``reference_factor`` and rotate as v[rows] = cos(a/2) v[rows] - i
    sin(a/2) phases v[cols]; the energy and the terms Im <lam|G_k|psi> read
    the sector block of ``op`` (``reference_matrix`` of a Pauli sum) on a
    complex state.
    """
    basis = sector_basis(ansatz.n_qubits, len(ansatz.reference))
    factors = [reference_factor(reference_generator_strings(gen), basis)
               for gen in ansatz.generators]

    def rotate(vec, factor, angle):
        rows, cols, phases = factor
        vec[rows] = math.cos(0.5 * angle) * vec[rows] - 1j * math.sin(0.5 * angle) * phases * vec[cols]

    psi = np.zeros(basis.dim, dtype=complex)
    psi[np.searchsorted(basis.states, sum(1 << q for q in ansatz.reference))] = 1.0
    for factor, angle in zip(factors, theta):
        rotate(psi, factor, angle)
    if isinstance(op, np.ndarray):
        lam = op[np.ix_(basis.states, basis.states)] @ psi
    else:
        lam = reference_matrix(op, basis.states) @ psi
    energy = float(np.vdot(psi, lam).real)
    grad = np.zeros(len(factors))
    for k in range(len(factors) - 1, -1, -1):
        rows, cols, phases = factors[k]
        grad[k] = np.vdot(lam[rows], phases * psi[cols]).imag
        rotate(psi, factors[k], -theta[k])
        rotate(lam, factors[k], -theta[k])
    return energy, grad


def finite_difference_gradient(op, ansatz, theta, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the circuit energy."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for k in range(len(theta)):
        plus = theta.copy()
        minus = theta.copy()
        plus[k] += step
        minus[k] -= step
        grad[k] = (
            ansatz_expectation(op, ansatz, plus)
            - ansatz_expectation(op, ansatz, minus)
        ) / (2.0 * step)
    return grad


def register_basis(n_qubits: int) -> SectorBasis:
    """Every bitmask of the register, as a basis ``reference_matrix`` and ``_factors`` take."""
    return SectorBasis(n_qubits, np.arange(1 << n_qubits, dtype=np.int64))


def register_sector(n_qubits: int, n_particles: int, two_sz: int | None = None) -> list:
    """The bitmasks of ``range(2**n_qubits)`` in an N (and S_z) sector, ascending.

    A bitmask is kept when it has ``n_particles`` set bits and, given
    ``two_sz``, when its even (spin-up) qubits outnumber its odd ones by
    ``two_sz``: the reference for ``sector_basis``.
    """
    even = sum(1 << q for q in range(0, n_qubits, 2))
    return [m for m in range(1 << n_qubits) if m.bit_count() == n_particles
            and (two_sz is None or 2 * (m & even).bit_count() - n_particles == two_sz)]


def symmetry_leaks(op) -> tuple:
    """(N leak, S_z leak): the largest entries between register states of different N or n_up - n_down.

    ``op`` is a Pauli sum, read by ``reference_matrix`` on ``register_basis``,
    or a matrix over the 2^n register. Entry (i, j) of [op, N] is <i|op|j>
    (N_j - N_i), so op commutes with N exactly when its N leak is 0, and
    likewise with S_z.
    """
    if isinstance(op, QubitOperator):
        op = reference_matrix(op, register_basis(op.n_qubits).states)
    entries = scipy.sparse.coo_matrix(op)
    up = 0x5555_5555_5555_5555  # the even (spin-up) qubits of an int64 mask
    rows, cols = entries.row.astype(np.int64), entries.col.astype(np.int64)
    number = np.bitwise_count(rows) != np.bitwise_count(cols)
    spin = (2 * np.bitwise_count(rows & up) - np.bitwise_count(rows)
            != 2 * np.bitwise_count(cols & up) - np.bitwise_count(cols))
    size = np.abs(entries.data)
    return float(size[number].max(initial=0.0)), float(size[spin].max(initial=0.0))


# ---------------------------------------------------------------------------
# Full-register oracles: Kronecker products, matrix exponentials and dense
# spectra. They read an operator's terms and an ansatz's reference strings
# and run nothing of the package's engine.

_PAULI_MATRICES = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),       # X
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),    # Y: both masks set
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),      # Z
}


def kron_string(x: int, z: int, n_qubits: int, sparse: bool = False):
    """The 2^n matrix of the Pauli string (x, z), qubit 0 the last Kronecker factor (little-endian)."""
    if (x | z) >> n_qubits:
        raise ValueError("Pauli mask exceeds qubit count")
    mat = scipy.sparse.identity(1, dtype=complex, format="csr") if sparse else np.eye(1, dtype=complex)
    kron = (lambda a, b: scipy.sparse.kron(a, b, format="csr")) if sparse else np.kron
    for j in range(n_qubits):
        mat = kron(_PAULI_MATRICES[(x >> j) & 1, (z >> j) & 1], mat)
    return mat


def kron_sum(strings, n_qubits: int, sparse: bool = False):
    """sum_m c_m P_m of ((x, z), c_m) pairs over the 2^n register: a dense array, or CSR when ``sparse``."""
    dim = 1 << n_qubits
    total = scipy.sparse.csr_matrix((dim, dim), dtype=complex) if sparse else np.zeros((dim, dim), complex)
    for (x, z), coeff in strings:
        total = total + coeff * kron_string(x, z, n_qubits, sparse)
    return total


def kron_matrix(op: QubitOperator) -> np.ndarray:
    """The operator over the 2^n register as a dense Kronecker sum of its terms, by ascending (x, z)."""
    return kron_sum(sorted(op.raw_items()), op.n_qubits)


def register_state(n_qubits: int, occupied) -> np.ndarray:
    """The computational basis state with the listed qubits set, over 2^n amplitudes."""
    vec = np.zeros(1 << n_qubits, dtype=complex)
    vec[sum(1 << j for j in occupied)] = 1.0
    return vec


def kron_ansatz_state(ansatz, theta) -> np.ndarray:
    """exp(-i theta_K/2 G_K) ... exp(-i theta_1/2 G_1)|reference> over the 2^n register.

    Each step is ``expm_multiply`` of the generator's Kronecker sum, built
    dense up to 8 qubits and with ``scipy.sparse.kron`` above.
    """
    psi = register_state(ansatz.n_qubits, ansatz.reference)
    for gen, angle in zip(ansatz.generators, theta):
        g = kron_sum(reference_generator_strings(gen), ansatz.n_qubits, sparse=ansatz.n_qubits > 8)
        psi = expm_multiply(scipy.sparse.csr_matrix(-0.5j * angle * g), psi)
    return psi


def kron_expectation(op: QubitOperator, psi: np.ndarray) -> float:
    """<psi|op|psi> with the dense Kronecker matrix of a Hermitian op (8 qubits or fewer)."""
    return float(np.vdot(psi, kron_matrix(op) @ psi).real)


def embed(basis, vec: np.ndarray) -> np.ndarray:
    """A state over a basis as 2^n register amplitudes."""
    out = np.zeros(1 << basis.n_qubits, dtype=complex)
    out[basis.states] = vec
    return out


def reference_register_shift_gradient(op, ansatz, theta) -> np.ndarray:
    """Gradient by the two-point rule at +-pi/2 on every Pauli rotation of every generator.

    Each generator sum_m c_m P_m is applied as the product of its rotations
    exp(-i a/2 P_m), a = theta c_m (exact for the commuting strings of an
    excitation), each cos(a/2) - i sin(a/2) P_m with P_m^2 = 1 and P_m the
    dense Kronecker matrix, on the 2^n register; energies read ``kron_matrix``
    of a Pauli sum ``op``, or ``op`` itself when it is a dense register matrix.
    """
    rotations = [
        (k, kron_string(x, z, ansatz.n_qubits), theta[k] * coeff, coeff)
        for k, gen in enumerate(ansatz.generators)
        for (x, z), coeff in reference_generator_strings(gen)
    ]

    def unitary(pauli, angle):
        return np.cos(0.5 * angle) * np.eye(len(pauli)) - 1j * np.sin(0.5 * angle) * pauli

    plain = [unitary(pauli, angle) for _, pauli, angle, _ in rotations]
    hamiltonian = op if isinstance(op, np.ndarray) else kron_matrix(op)
    reference = register_state(ansatz.n_qubits, ansatz.reference)
    grad = np.zeros(ansatz.n_parameters)
    for r, (k, pauli, angle, coeff) in enumerate(rotations):
        for sign in (1.0, -1.0):
            circuit = plain[:r] + [unitary(pauli, angle + sign * 0.5 * np.pi)] + plain[r + 1:]
            psi = reference
            for u in circuit:
                psi = u @ psi
            grad[k] += sign * 0.5 * coeff * float(np.vdot(psi, hamiltonian @ psi).real)
    return grad


def eigenvalues_dense(op: QubitOperator) -> np.ndarray:
    """Full spectrum of a small operator, from its Kronecker matrix."""
    return np.linalg.eigvalsh(kron_matrix(op))


def seniority_zero_projection(op: QubitOperator, n_orb: int) -> np.ndarray:
    """The full operator restricted to paired states, dense, by ``reference_matrix``.

    Basis state m on n_orb qubits maps to the determinant with qubits
    2p and 2p+1 set for every bit p of m (oracle for the paired
    Hamiltonian); row and column m are that of state m.
    """
    paired_states = [sum(0b11 << (2 * p) for p in range(n_orb) if (m >> p) & 1) for m in range(1 << n_orb)]
    return reference_matrix(op, np.array(paired_states, dtype=np.int64)).toarray()


def paired_register_matrix(mo: IntegralSet) -> np.ndarray:
    """The paired Hamiltonian over its 2^n_orb register, from the reference Jordan-Wigner image."""
    full = reference_jordan_wigner(reference_build_hamiltonian(mo), 2 * mo.n_orb)
    return seniority_zero_projection(full, mo.n_orb)


# The BFGS driver as it stood with two strong-Wolfe loops (doubling in
# ``_reference_wolfe_line_search``, bisection in ``_reference_zoom``), two
# exits from ``reference_minimize`` and restart points drawn after the first
# minimization: copied verbatim apart from its names, the reference whose
# evaluation points and results ``pnovqe.optimize`` must reproduce bit for bit.

_C1 = 1e-4
_C2 = 0.9
_RESTART_SCALE = 0.1
_BRACKET_STEPS, _ZOOM_STEPS = 25, 40


class _ReferenceCounted:
    def __init__(self, fn, what):
        self.fn = fn
        self.what = what
        self.count = 0

    def __call__(self, x):
        self.count += 1
        value = self.fn(x)
        if not np.all(np.isfinite(value)):
            raise RuntimeError(
                f"non-finite {self.what} at theta = {np.asarray(x).tolist()}"
            )
        return value


def reference_minimize(objective, grad, x0, grad_tol: float = 1e-6, max_iter: int = 500) -> OptimizationResult:
    """BFGS with inverse-Hessian updates and a strong-Wolfe line search.

    ``exit_reason`` says why it stopped: gradient infinity-norm below
    ``grad_tol``, ``max_iter`` iterations, no step found by the line search
    (``line_search_failed``) or no descent direction (``no_descent``). NaN
    or Inf in the objective or gradient aborts, naming the parameter vector.
    """
    f = _ReferenceCounted(objective, "objective")
    g = _ReferenceCounted(grad, "gradient")
    x = np.array(x0, dtype=float)
    n = x.size
    fx = f(x)
    gx = np.asarray(g(x), dtype=float)
    gnorm = float(np.max(np.abs(gx))) if n else 0.0
    trajectory = [(float(fx), gnorm)]
    if gnorm < grad_tol:
        return OptimizationResult(
            x=x, fun=float(fx), grad_norm=gnorm, iterations=0,
            n_function_evals=f.count, n_gradient_evals=g.count,
            converged=True, trajectory=tuple(trajectory), exit_reason="grad_tol",
        )

    h_inv = np.eye(n)
    exit_reason = "max_iter"
    iterations = 0
    for iterations in range(1, max_iter + 1):
        direction = -h_inv @ gx
        slope = float(direction @ gx)
        if slope >= 0.0:
            h_inv = np.eye(n)
            direction = -gx
            slope = float(direction @ gx)
            if slope >= 0.0:
                exit_reason = "no_descent"
                break
        alpha, fx_new, gx_new = _reference_wolfe_line_search(f, g, x, direction, fx, slope)
        if alpha is None:
            exit_reason = "line_search_failed"
            break
        step = alpha * direction
        x_new = x + step
        y = gx_new - gx
        sy = float(step @ y)
        if sy > 1e-14 * np.linalg.norm(step) * np.linalg.norm(y):
            rho = 1.0 / sy
            outer = np.outer(step, y)
            h_inv = (
                (np.eye(n) - rho * outer) @ h_inv @ (np.eye(n) - rho * outer.T)
                + rho * np.outer(step, step)
            )
        x, fx, gx = x_new, fx_new, gx_new
        gnorm = float(np.max(np.abs(gx)))
        trajectory.append((float(fx), gnorm))
        if gnorm < grad_tol:
            exit_reason = "grad_tol"
            break

    return OptimizationResult(
        x=x, fun=float(fx), grad_norm=float(np.max(np.abs(gx))) if n else 0.0,
        iterations=iterations,
        n_function_evals=f.count, n_gradient_evals=g.count,
        converged=exit_reason == "grad_tol", trajectory=tuple(trajectory),
        exit_reason=exit_reason,
    )


def _reference_wolfe_line_search(f, g, x, direction, f0, slope0):
    """Strong Wolfe conditions (c1 = 1e-4, c2 = 0.9), initial step 1."""

    def phi(alpha):
        return f(x + alpha * direction)

    def dphi(alpha):
        grad = np.asarray(g(x + alpha * direction), dtype=float)
        return float(grad @ direction), grad

    # the gradient at step 0 is never read: a search that ends there fails
    alpha_prev, phi_prev, grad_prev = 0.0, f0, None
    alpha = 1.0
    for i in range(_BRACKET_STEPS):
        phi_a = phi(alpha)
        if phi_a > f0 + _C1 * alpha * slope0 or (i > 0 and phi_a >= phi_prev):
            return _reference_zoom(f, g, x, direction, f0, slope0, alpha_prev, phi_prev, grad_prev, alpha)
        d_a, grad_a = dphi(alpha)
        if abs(d_a) <= -_C2 * slope0:
            return alpha, phi_a, grad_a
        if d_a >= 0.0:
            return _reference_zoom(f, g, x, direction, f0, slope0, alpha, phi_a, grad_a, alpha_prev)
        alpha_prev, phi_prev, grad_prev = alpha, phi_a, grad_a
        alpha *= 2.0
    return None, None, None


def _reference_zoom(f, g, x, direction, f0, slope0, lo, phi_lo, grad_lo, hi):
    """Bisect [lo, hi] for a strong-Wolfe step; phi_lo and grad_lo are f and g at lo."""
    for _ in range(_ZOOM_STEPS):
        alpha = 0.5 * (lo + hi)
        phi_a = f(x + alpha * direction)
        if phi_a > f0 + _C1 * alpha * slope0 or phi_a >= phi_lo:
            hi = alpha
            continue
        grad_a = np.asarray(g(x + alpha * direction), dtype=float)
        d_a = float(grad_a @ direction)
        if abs(d_a) <= -_C2 * slope0:
            return alpha, phi_a, grad_a
        if d_a * (hi - lo) >= 0.0:
            hi = lo
        lo, phi_lo, grad_lo = alpha, phi_a, grad_a
    # fall back to the best admissible point found, whose values are in hand
    if lo > 0.0:
        return lo, phi_lo, grad_lo
    return None, None, None


def reference_run_vqe(
    hamiltonian,
    ansatz,
    grad_tol: float = 1e-6,
    max_iter: int = 500,
    restarts: int = 0,
    seed: int = 0,
) -> OptimizationResult:
    """The optimizer's ``run_vqe``, copied verbatim apart from its names.

    Minimize <H> over the ansatz parameters, starting from zero.

    Optional random restarts (uniform in +-0.1, seeded) rerun the
    minimization and keep the result of lowest energy. The gradient is
    ``simulator.gradient``'s adjoint sweep.
    """
    n = ansatz.n_parameters

    def objective(theta):
        return ansatz_expectation(hamiltonian, ansatz, theta)

    def grad(theta):
        return ansatz_gradient(hamiltonian, ansatz, theta)

    best = reference_minimize(objective, grad, np.zeros(n), grad_tol=grad_tol, max_iter=max_iter)
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        theta0 = rng.uniform(-_RESTART_SCALE, _RESTART_SCALE, size=n)
        candidate = reference_minimize(objective, grad, theta0, grad_tol=grad_tol, max_iter=max_iter)
        if candidate.fun < best.fun:
            best = candidate
    return best
