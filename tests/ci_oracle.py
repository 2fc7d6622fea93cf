"""Independent reference implementations for the test suite.

The determinant-basis CI oracles deliberately avoid the package's operator
algebra, Jordan-Wigner encoding, and simulator: matrix elements come from
elementary ladder operator action on occupation bitmasks and, separately,
from the Slater-Condon rules. Basis states use the same little-endian
bitmask labeling as the qubit register, with a determinant defined by
applying creation operators in ascending index order.

The AO-integral and MP2 oracles are scalar loops over contracted and
primitive quartets (and virtual pairs) with the scalar Boys function: the
reference the package's array code is compared against.

The operator oracles are the term-by-term loops the package's array code
must reproduce bit for bit: the spin-orbital expansion of the integrals,
the Jordan-Wigner product of the ladder images, and the projection of a
qubit operator onto a basis, one X group and one term at a time.

The state-engine oracles at the end do use the package's Pauli kernel and
energy: the sparse-G form of a G^3 = G factor and the sparse checks that
build it (the references for the simulator's support form), central finite
differences of the energy, a dense spectrum, and the projection onto paired
determinants.
"""

from __future__ import annotations

import math
from itertools import combinations, groupby
from operator import itemgetter

import numpy as np
import scipy.sparse

from pnovqe.integrals import AOIntegralSet, IntegralSet, _prim_norm, boys
from pnovqe.operators import (
    _PHASES, COEFF_CUTOFF, FermionOperator, QubitOperator, _mul_masks,
)
from pnovqe.simulator import ansatz_expectation


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
                    val = mo.g[p, q, r, s_]
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
        g=chem.transpose(0, 2, 1, 3).copy(),
        core_energy=float(rng.standard_normal()),
        n_electrons=n_elec,
        orbital_energies=eps,
    )


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
                    g_ijab = mo.g[i, j, a, b]
                    g_ijba = mo.g[i, j, b, a]
                    tij[a_local, b_local] = g_ijab / denom
                    e_pair += g_ijab * (2.0 * g_ijab - g_ijba) / denom
            t[(i, j)] = tij
            pair_energies[(i, j)] = (1.0 if i == j else 2.0) * e_pair
    return t, pair_energies


def reference_build_hamiltonian(mo) -> FermionOperator:
    """Second-quantized Hamiltonian, one spin-orbital quartet at a time."""
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


def _jw_factor(index: int, creation: bool) -> tuple:
    """Jordan-Wigner image of a single ladder operator as two mask terms."""
    chain = (1 << index) - 1
    bit = 1 << index
    y_coeff = -0.5j if creation else 0.5j
    return ((bit, chain, 0.5 + 0.0j), (bit, chain | bit, y_coeff))


def reference_jordan_wigner(op: FermionOperator, n_qubits: int) -> QubitOperator:
    """Jordan-Wigner image by multiplying out the ladder images of every term."""
    if max((index for term in op._terms for index, _ in term), default=-1) >= n_qubits:
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


def reference_factor(strings, basis) -> tuple:
    """(rows, cols, phases) of G = sum_m c_m P_m, checked with sparse products of G."""
    gen = sum((QubitOperator.from_string(s, c) for s, c in strings), QubitOperator(basis.n_qubits))
    g = gen.matrix(basis.states)
    g2 = g @ g
    if abs(g2 - (gen * gen).matrix(basis.states)).max() > 1e-10:
        raise ValueError("generator maps a basis state outside the basis")
    if abs(g2 @ g - g).max() > 1e-10:
        raise ValueError("generator does not satisfy G^3 = G on the basis")
    per_row = np.diff(g.indptr)
    if per_row.max(initial=0) > 1:
        raise ValueError("generator maps a basis state to a superposition of basis states")
    return np.flatnonzero(per_row), g.indices.astype(np.intp), g.data


def reference_rotate(vec: np.ndarray, g, angle: float) -> np.ndarray:
    """exp(-i angle/2 G) vec for a sparse generator with G^3 = G."""
    g_vec = g @ vec
    return vec + (np.cos(0.5 * angle) - 1.0) * (g @ g_vec) - 1j * np.sin(0.5 * angle) * g_vec


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


def eigenvalues_dense(op: QubitOperator) -> np.ndarray:
    """Full spectrum of a small operator."""
    return np.linalg.eigvalsh(op.to_dense())


def seniority_zero_projection(op: QubitOperator, n_orb: int) -> np.ndarray:
    """Dense matrix of the full operator restricted to paired states.

    Basis state m on n_orb qubits maps to the determinant with qubits
    2p and 2p+1 set for every bit p of m (oracle for the paired
    Hamiltonian).
    """
    paired_states = np.array(
        [sum(0b11 << (2 * p) for p in range(n_orb) if (m >> p) & 1) for m in range(1 << n_orb)],
        dtype=np.int64,
    )
    return op.matrix(paired_states).toarray()
