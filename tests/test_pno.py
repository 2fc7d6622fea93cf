"""MP2 amplitudes, pair densities, budgeted PNO selection, orbital spaces.

The compact orbitals span a subspace of the parent MOs, so on drawn H
chains the compact space's E_FCI is never below the parent's.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

import pnovqe as pq
from pnovqe.pno import PNOSet

from ci_oracle import (
    random_integral_set,
    reference_mp2_amplitudes,
    sector_masks,
    slater_condon_matrix,
)
from pnovqe.workbench import fci_energy

from conftest import h2_big_integrals, lih_like_pipeline


def mp2_brute_force(mo):
    """Direct double-loop evaluation of the MP2 energy formula."""
    eps = mo.orbital_energies
    n_occ = mo.n_occ
    total = 0.0
    for i in range(n_occ):
        for j in range(n_occ):
            for a in range(n_occ, mo.n_orb):
                for b in range(n_occ, mo.n_orb):
                    num = mo.eri[i, a, j, b] * (
                        2.0 * mo.eri[i, a, j, b] - mo.eri[i, b, j, a]
                    )
                    total += num / (eps[i] + eps[j] - eps[a] - eps[b])
    return total


class TestMP2:
    def test_h2_closed_form(self, h2_sto3g):
        mo = h2_sto3g["mo"]
        amps = pq.mp2_amplitudes(mo)
        eps = mo.orbital_energies
        t = mo.eri[0, 1, 0, 1] / (2.0 * eps[0] - 2.0 * eps[1])
        assert amps.t[(0, 0)][0, 0] == pytest.approx(t, abs=1e-12)
        assert amps.mp2_total == pytest.approx(t * mo.eri[0, 1, 0, 1], abs=1e-12)
        assert amps.mp2_total == pytest.approx(-0.0132, abs=5e-4)

    def test_zero_coupling_gives_zero(self):
        h = np.diag([-1.0, 0.5, 0.8])
        mo = pq.IntegralSet(
            n_orb=3, h=h, eri=np.zeros((3,) * 4), core_energy=0.0, n_electrons=2,
            orbital_energies=np.array([-1.0, 0.5, 0.8]),
        )
        assert pq.mp2_amplitudes(mo).mp2_total == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_brute_force(self, seed):
        mo = random_integral_set(5, 4, seed, with_energies=True)
        amps = pq.mp2_amplitudes(mo)
        assert amps.mp2_total == pytest.approx(mp2_brute_force(mo), abs=1e-12)
        assert amps.mp2_total == pytest.approx(
            sum(amps.pair_energies.values()), abs=1e-12
        )

    @pytest.mark.parametrize("system", ["random-0", "random-1", "lih-model", "h2-s10"])
    def test_matches_loop_reference(self, system):
        if system.startswith("random"):
            mo = random_integral_set(6, 4, int(system[-1]), with_energies=True)
        elif system == "lih-model":
            mo = lih_like_pipeline()["mo"]
        else:
            mo = h2_big_integrals(1.4)
        amps = pq.mp2_amplitudes(mo)
        t_ref, e_ref = reference_mp2_amplitudes(mo)
        assert amps.t.keys() == t_ref.keys()
        for pair, t in t_ref.items():
            assert np.array_equal(amps.t[pair], t)
            assert abs(amps.pair_energies[pair] - e_ref[pair]) <= 1e-14

    def test_h2_against_brute_force(self, h2_sto3g):
        mo = h2_sto3g["mo"]
        amps = pq.mp2_amplitudes(mo)
        assert amps.mp2_total == pytest.approx(mp2_brute_force(mo), abs=1e-12)
        assert amps.mp2_total <= 0.0

    def test_diagonal_pair_symmetry(self, h2_sto3g):
        amps = pq.mp2_amplitudes(h2_sto3g["mo"])
        for (i, j), t in amps.t.items():
            if i == j:
                np.testing.assert_allclose(t, t.T, atol=1e-12)

    def test_degenerate_denominator(self):
        h = np.diag([-1.0, -1.0 + 1e-10])
        eri = np.zeros((2,) * 4)
        for idx in [(0, 1, 0, 1), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0)]:
            eri[idx] = 0.1
        mo = pq.IntegralSet(
            n_orb=2, h=h, eri=eri, core_energy=0.0, n_electrons=2,
            orbital_energies=np.array([-1.0, -1.0 + 1e-10]),
        )
        with pytest.raises(ValueError, match="degenerate"):
            pq.mp2_amplitudes(mo)

    def test_noncanonical_rejected(self):
        mo = random_integral_set(3, 2, 4)  # no orbital energies, random Fock
        with pytest.raises(ValueError, match="non-canonical"):
            pq.mp2_amplitudes(mo)

    @pytest.mark.parametrize("lam,bound", [(1e-2, 0.05), (1e-3, 5e-3)])
    def test_weak_coupling_limit_against_fci(self, lam, bound):
        # with canonical orbitals (Brillouin holds), the exact correlation
        # energy approaches MP2 as the two-electron coupling is scaled down
        base = random_integral_set(3, 2, 55, scale=0.5)
        ao = pq.AOIntegralSet(
            n_ao=3,
            overlap=np.eye(3),
            core_hamiltonian=np.diag([-1.3, 0.6, 1.1]),
            eri=lam * base.eri,
            nuclear_repulsion=0.0,
        )
        scf = pq.run_rhf(ao, 2)
        assert scf.converged
        mo = pq.transform_to_mo(ao, scf.mo_coefficients, 2,
                                orbital_energies=scf.orbital_energies)
        e_mp2 = pq.mp2_amplitudes(mo).mp2_total
        hq = pq.IntegralHamiltonian(mo)
        e_fci, _ = pq.exact_ground_energy(hq, pq.sector_basis(6, 2, two_sz=0))
        e_corr = e_fci - scf.total_energy
        assert e_corr == pytest.approx(e_mp2, rel=bound)


class TestPairDensities:
    def test_single_pair_closed_form(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((3, 3))
        t = 0.5 * (t + t.T)
        amps = pq.PairAmplitudes(
            n_occ=1, n_virt=3, t={(0, 0): t}, pair_energies={(0, 0): -0.1},
            mp2_total=-0.1,
        )
        d = pq.pair_densities(amps)[(0, 0)]
        np.testing.assert_allclose(d, 2.0 * t @ t, atol=1e-12)

    def test_zero_amplitudes(self):
        amps = pq.PairAmplitudes(
            n_occ=1, n_virt=2, t={(0, 0): np.zeros((2, 2))},
            pair_energies={(0, 0): 0.0}, mp2_total=0.0,
        )
        np.testing.assert_allclose(
            pq.pair_densities(amps)[(0, 0)], np.zeros((2, 2))
        )

    def test_positive_semidefinite_sweep(self):
        # 100 random 3-occupied / 4-virtual amplitude sets
        for seed in range(100):
            rng = np.random.default_rng(seed)
            t = {}
            for i in range(3):
                for j in range(i, 3):
                    m = rng.standard_normal((4, 4))
                    if i == j:
                        m = 0.5 * (m + m.T)
                    t[(i, j)] = m
            amps = pq.PairAmplitudes(
                n_occ=3, n_virt=4, t=t,
                pair_energies={k: 0.0 for k in t}, mp2_total=0.0,
            )
            for d in pq.pair_densities(amps).values():
                assert np.linalg.eigvalsh(d).min() >= -1e-10


def _synthetic_densities(n_occ, n_virt, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    densities = {}
    for i in range(n_occ):
        for j in range(i, n_occ):
            m = rng.standard_normal((n_virt, n_virt)) * scale
            densities[(i, j)] = m @ m.T
    return densities


class TestSelectPNOs:
    def test_budget_equals_occupied_gives_empty(self):
        densities = _synthetic_densities(2, 3)
        pnos = pq.select_pnos(densities, 4)
        assert pnos.selection == ()

    def test_two_electron_budget_four(self, h2_sto3g):
        amps = pq.mp2_amplitudes(h2_sto3g["mo"])
        pnos = pq.select_pnos(pq.pair_densities(amps), 4)
        assert len(pnos.selection) == 1
        pair, local, occ = pnos.selection[0]
        assert pair == (0, 0) and local == 0
        assert occ == pytest.approx(pnos.occupations[(0, 0)][0])

    def test_dominance_of_retained_occupations(self):
        densities = _synthetic_densities(2, 5, seed=3)
        pnos = pq.select_pnos(densities, 8)
        kept = [occ for _, _, occ in pnos.selection]
        discarded = [
            occ
            for pair, occs in pnos.occupations.items()
            for local, occ in enumerate(occs)
            if (pair, local, occ) not in pnos.selection
        ]
        assert min(kept) >= max(discarded)

    def test_budget_exceeding_virtuals(self):
        densities = _synthetic_densities(1, 3)
        with pytest.raises(ValueError, match="maximum feasible N_q = 8"):
            pq.select_pnos(densities, 10)

    def test_no_pairs_rejected(self):
        # NELEC=0 gives MP2 no pairs; max() over them once failed without a word
        with pytest.raises(ValueError, match="no occupied pairs"):
            pq.select_pnos({}, 4)

    def test_odd_budget_rejected(self):
        with pytest.raises(ValueError, match="even"):
            pq.select_pnos(_synthetic_densities(1, 3), 5)

    def test_diagonal_only_filters_pairs(self):
        densities = _synthetic_densities(2, 4, seed=5)
        pnos = pq.select_pnos(densities, 8, diagonal_only=True)
        assert all(i == j for (i, j), _, _ in pnos.selection)
        assert pnos.diagonal_only

    def test_tie_break_is_lexicographic(self):
        base = np.diag([2.0, 1.0])
        densities = {(0, 0): base.copy(), (0, 1): base.copy(), (1, 1): base.copy()}
        pnos = pq.select_pnos(densities, 8)
        assert [entry[:2] for entry in pnos.selection] == [((0, 0), 0), ((0, 1), 0)]

    def test_occupation_threshold(self):
        densities = {(0, 0): np.diag([1.0, 1e-9])}
        pnos = pq.select_pnos(densities, 6, occupation_threshold=1e-6)
        assert len(pnos.selection) == 1

    def test_diagonal_selection_feeds_pair_ansatz_counts(self, lih_like):
        # 2 occupied + 4 diagonal PNOs: the resulting pair-restricted doubles
        # circuit always carries 4 parameters and 192 CNOTs
        amps = pq.mp2_amplitudes(lih_like["mo"])
        pnos = pq.select_pnos(pq.pair_densities(amps), 12, diagonal_only=True)
        assert len(pnos.selection) == 4
        space = pq.orthonormalize(pnos)
        report = pq.count_resources(pq.build_pno_ansatz(space, "UpCCD"))
        assert (report.n_parameters, report.n_cnots) == (4, 192)


def _pno_set_from_vectors(vectors, n_occ=1):
    """Wrap explicit virtual-space columns as an already-ranked selection."""
    n_virt = vectors.shape[0]
    k = vectors.shape[1]
    occs = np.linspace(1.0, 0.5, k)
    return PNOSet(
        n_occ=n_occ,
        n_virt=n_virt,
        occupations={(0, 0): occs},
        vectors={(0, 0): vectors},
        selection=tuple(((0, 0), m, occs[m]) for m in range(k)),
        diagonal_only=False,
    )


class TestOrthonormalize:
    def test_orthonormal_input_unchanged(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        pnos = _pno_set_from_vectors(q[:, :3])
        space = pq.orthonormalize(pnos)
        np.testing.assert_allclose(space.transform[1:, 1:], q[:, :3], atol=1e-12)

    def test_two_vectors_at_sixty_degrees(self):
        v = np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])
        space = pq.orthonormalize(_pno_set_from_vectors(v))
        w = space.transform[1:, 1:]
        np.testing.assert_allclose(w[:, 0], v[:, 0], atol=1e-12)
        np.testing.assert_allclose(w[:, 1], [0.0, 1.0], atol=1e-12)

    def test_random_selection_gram_and_span(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((8, 5))
        space = pq.orthonormalize(_pno_set_from_vectors(v))
        w = space.transform[1:, 1:]
        np.testing.assert_allclose(w.T @ w, np.eye(5), atol=1e-10)
        # span preserved: each original vector reconstructs from the new set
        proj = w @ (w.T @ v)
        assert np.max(np.abs(proj - v)) < 1e-10

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 11), st.integers(0, 10_000))
    def test_matches_scipy_triangular_solve(self, k, extra, seed):
        v = np.random.default_rng(seed).standard_normal((k + extra, k))
        w = pq.orthonormalize(_pno_set_from_vectors(v)).transform[1:, 1:]
        chol = np.linalg.cholesky(v.T @ v)
        expected = scipy.linalg.solve_triangular(chol, v.T, lower=True).T
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-12)

    def test_linearly_dependent_rejected(self):
        v = np.ones((3, 2))
        with pytest.raises(ValueError, match="linearly dependent"):
            pq.orthonormalize(_pno_set_from_vectors(v))

    def test_orthonormalization_choice_leaves_fci_invariant(self, lih_like):
        # the Cholesky basis of the pipeline and a Loewdin basis of the same
        # PNOs span one space, so the FCI energy cannot tell them apart
        mo = lih_like["mo"]
        pnos = pq.select_pnos(pq.pair_densities(pq.mp2_amplitudes(mo)), 10)
        cholesky = pq.orthonormalize(pnos)
        v = np.column_stack([pnos.vectors[pair][:, local] for pair, local, _ in pnos.selection])
        evals, evecs = np.linalg.eigh(v.T @ v)
        transform = cholesky.transform.copy()
        transform[pnos.n_occ:, pnos.n_occ:] = v @ (evecs @ np.diag(evals**-0.5) @ evecs.T)
        loewdin = pq.OrbitalSpace(n_total=cholesky.n_total, occupied=cholesky.occupied,
                                  pno_assignment=cholesky.pno_assignment, transform=transform)
        assert np.max(np.abs(loewdin.transform - cholesky.transform)) > 1e-3
        energies = []
        for space in (cholesky, loewdin):
            final = pq.build_final_integrals(mo, space)
            hq = pq.IntegralHamiltonian(final)
            e, _ = pq.exact_ground_energy(hq, pq.sector_basis(10, 4, two_sz=0))
            energies.append(e)
        assert energies[0] == pytest.approx(energies[1], abs=1e-9)

    def test_empty_selection_is_occupied_only(self):
        densities = _synthetic_densities(2, 3)
        space = pq.orthonormalize(pq.select_pnos(densities, 4))
        assert space.n_total == 2
        assert space.transform.shape == (5, 2)


class TestBuildFinalIntegrals:
    def test_identity_space(self, h2_sto3g):
        mo = h2_sto3g["mo"]
        space = pq.OrbitalSpace(
            n_total=2, occupied=(0,), pno_assignment={1: (0, 0)},
            transform=np.eye(2),
        )
        final = pq.build_final_integrals(mo, space)
        np.testing.assert_allclose(final.h, mo.h, atol=1e-12)
        np.testing.assert_allclose(final.eri, mo.eri, atol=1e-12)

    def test_occupied_only_space_is_single_determinant(self, h2_sto3g):
        mo = h2_sto3g["mo"]
        scf = h2_sto3g["scf"]
        space = pq.orthonormalize(
            pq.select_pnos(pq.pair_densities(pq.mp2_amplitudes(mo)), 2)
        )
        final = pq.build_final_integrals(mo, space)
        hq = pq.IntegralHamiltonian(final)
        energy, _ = pq.exact_ground_energy(
            hq, pq.sector_basis(2, 2, two_sz=0)
        )
        assert energy == pytest.approx(scf.total_energy, abs=1e-10)

    def test_pno_assignment_metadata(self, h2_sto3g):
        mo = h2_sto3g["mo"]
        pnos = pq.select_pnos(pq.pair_densities(pq.mp2_amplitudes(mo)), 4)
        space = pq.orthonormalize(pnos)
        assert space.occupied == (0,) and space.pno_assignment == {1: (0, 0)}

    def test_truncation_monotonicity_and_compactness(self, h2_sto3g):
        big = h2_big_integrals(1.4)
        amps = pq.mp2_amplitudes(big)
        densities = pq.pair_densities(amps)
        energies = []
        for nq in (4, 6, 8, 10):
            space = pq.orthonormalize(pq.select_pnos(densities, nq))
            final = pq.build_final_integrals(big, space)
            hq = pq.IntegralHamiltonian(final)
            e, _ = pq.exact_ground_energy(
                hq, pq.sector_basis(nq, 2, two_sz=0)
            )
            energies.append(e)
        assert all(b < a - 1e-9 for a, b in zip(energies, energies[1:]))
        e_sto3g, _ = pq.exact_ground_energy(
            pq.IntegralHamiltonian(h2_sto3g["mo"]), pq.sector_basis(4, 2, two_sz=0)
        )
        assert energies[0] < e_sto3g - 1e-9


class TestFreezeCore:
    def test_empty_freeze_is_identity(self, h2_sto3g):
        mo = h2_sto3g["mo"]
        assert pq.freeze_core(mo, []) is mo

    def test_two_orbital_full_freeze(self, h2_sto3g):
        mo = h2_sto3g["mo"]
        scf = h2_sto3g["scf"]
        frozen = pq.freeze_core(mo, [0])
        assert frozen.n_electrons == 0
        assert frozen.core_energy == pytest.approx(scf.total_energy, abs=1e-10)

    def test_frozen_sector_equivalence(self):
        mo = random_integral_set(3, 4, 21)
        frozen = pq.freeze_core(mo, [0])
        hq = pq.IntegralHamiltonian(frozen)
        e_frozen, _ = pq.exact_ground_energy(hq, pq.sector_basis(4, 2, two_sz=0))
        # oracle: full CI restricted to determinants with orbital 0 doubly occupied
        masks = [
            m for m in sector_masks(6, 4, two_sz=0) if (m & 0b11) == 0b11
        ]
        mat = slater_condon_matrix(mo, masks)
        assert e_frozen == pytest.approx(np.linalg.eigvalsh(mat)[0], abs=1e-10)

    def test_freeze_non_occupied_rejected(self, h2_sto3g):
        with pytest.raises(ValueError, match="occupied"):
            pq.freeze_core(h2_sto3g["mo"], [1])

    def test_freeze_reduces_electrons(self):
        mo = random_integral_set(4, 4, 3)
        frozen = pq.freeze_core(mo, [0])
        assert frozen.n_electrons == 2
        assert frozen.n_orb == 3


@st.composite
def h_chains(draw):
    """Canonical MO integrals of a linear H chain, with its first orbital frozen or not.

    2-4 atoms (H3 as the cation), 1-3 even-tempered s shells on each.
    """
    n_atoms = draw(st.integers(2, 4))
    spacing = draw(st.floats(1.2, 2.4))
    alpha0, ratio = draw(st.sampled_from([0.1, 0.2, 0.4])), draw(st.sampled_from([3.0, 4.0]))
    atoms = tuple(("H", 1, np.array([0.0, 0.0, spacing * k])) for k in range(n_atoms))
    molecule = pq.Molecule(atoms=atoms, charge=n_atoms % 2)
    shells = [shell for _, _, pos in atoms
              for shell in pq.even_tempered_shells(pos, draw(st.integers(1, 3)), alpha0, ratio)]
    ao = pq.compute_ao_integrals(molecule, shells)
    scf = pq.run_rhf(ao, molecule.n_electrons)
    assume(scf.converged)
    mo = pq.transform_to_mo(ao, scf.mo_coefficients, molecule.n_electrons,
                            orbital_energies=scf.orbital_energies)
    return pq.freeze_core(mo, [0] if mo.n_occ > 1 and draw(st.booleans()) else [])


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(h_chains(), st.data())
def test_compact_fci_is_never_below_the_parent_fci(parent, data):
    budget = data.draw(st.sampled_from(range(2 * parent.n_occ, 2 * parent.n_orb + 1, 2)))
    pnos = pq.select_pnos(pq.pair_densities(pq.mp2_amplitudes(parent)), budget,
                          diagonal_only=data.draw(st.booleans()))
    compact = pq.build_final_integrals(parent, pq.orthonormalize(pnos))
    e_parent = fci_energy(pq.IntegralHamiltonian(parent))
    assert fci_energy(pq.IntegralHamiltonian(compact)) >= e_parent - 1e-10
