"""Restricted Hartree-Fock solver and the four-index MO transform."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pnovqe as pq
from pnovqe import scf as scf_module
from pnovqe.integrals import transform_eri

from ci_oracle import random_integral_set, reference_final_eri, reference_mo_eri, reference_run_rhf

# the seven non-trivial permutations of chemists' (pq|rs) that leave it unchanged
CHEM_SYMMETRIES = [(1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2), (2, 3, 0, 1),
                   (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]


def assert_exactly_symmetric(chem):
    for perm in CHEM_SYMMETRIES:
        assert np.array_equal(chem, chem.transpose(perm)), perm


def heh_plus():
    mol = pq.parse_xyz("2\n\nHe 0 0 0\nH 0 0 0.7743", charge=1)  # ~1.4632 bohr
    ao = pq.compute_ao_integrals(mol, pq.sto3g_shells(mol))
    return mol, ao


class TestRunRHF:
    def test_negative_electron_count_refused(self, h2_sto3g):
        # -2 electrons once ran with n_occ = -1, a density from all but one orbital
        with pytest.raises(ValueError, match="^negative electron count -2$"):
            pq.run_rhf(h2_sto3g["ao"], -2)

    def test_helium_closed_form(self):
        mol = pq.parse_xyz("1\n\nHe 0 0 0")
        ao = pq.compute_ao_integrals(mol, pq.sto3g_shells(mol))
        scf = pq.run_rhf(ao, 2)
        expected = 2.0 * ao.core_hamiltonian[0, 0] + ao.eri[0, 0, 0, 0]
        assert scf.total_energy == pytest.approx(expected, abs=1e-12)
        assert scf.converged and scf.iterations <= 2

    def test_h2_symmetric_orbital(self, h2_sto3g):
        scf = h2_sto3g["scf"]
        ao = h2_sto3g["ao"]
        s12 = ao.overlap[0, 1]
        expected = 1.0 / np.sqrt(2.0 * (1.0 + s12))
        c_occ = scf.mo_coefficients[:, 0]
        assert np.abs(c_occ) == pytest.approx([expected, expected], abs=1e-8)

    def test_h2_energy_pin_and_density_oracle(self, h2_sto3g):
        scf = h2_sto3g["scf"]
        ao = h2_sto3g["ao"]
        # regression pin (computed by this package, stable to 1e-8)
        assert scf.total_energy == pytest.approx(-1.1167143222, abs=1e-8)
        # independent recomputation from the converged density
        d = scf.density_matrix
        j = np.einsum("pqrs,rs->pq", ao.eri, d)
        k = np.einsum("prqs,rs->pq", ao.eri, d)
        e_elec = np.sum(d * ao.core_hamiltonian) + 0.5 * np.sum(d * (j - 0.5 * k))
        assert scf.total_energy == pytest.approx(
            e_elec + ao.nuclear_repulsion, abs=1e-10
        )

    def test_orthonormality_and_idempotency(self, h2_sto3g):
        scf = h2_sto3g["scf"]
        ao = h2_sto3g["ao"]
        c, s, d = scf.mo_coefficients, ao.overlap, scf.density_matrix
        np.testing.assert_allclose(c.T @ s @ c, np.eye(2), atol=1e-8)
        np.testing.assert_allclose(d @ s @ d, 2.0 * d, atol=1e-6)

    def test_final_fock_diagonal_and_ordering(self):
        mol, ao = heh_plus()
        scf = pq.run_rhf(ao, 2)
        assert scf.converged
        assert np.all(np.diff(scf.orbital_energies) >= 0.0)
        from pnovqe.scf import _fock_matrix
        fock = _fock_matrix(ao, scf.density_matrix)
        f_mo = scf.mo_coefficients.T @ fock @ scf.mo_coefficients
        off = f_mo - np.diag(np.diag(f_mo))
        assert np.max(np.abs(off)) < 1e-6

    def test_nonconvergence_flagged(self, monkeypatch):
        mol, ao = heh_plus()
        monkeypatch.setattr(scf_module, "_MAX_ITER", 1)
        monkeypatch.setattr(scf_module, "_ENERGY_TOL", 1e-14)
        monkeypatch.setattr(scf_module, "_DENSITY_TOL", 1e-14)
        scf = pq.run_rhf(ao, 2)
        assert not scf.converged and scf.iterations == 1

    def test_linear_dependence_error(self):
        mol = pq.parse_xyz("1\n\nHe 0 0 0")
        shells = pq.sto3g_shells(mol) * 2  # duplicated shell: singular overlap
        ao_kwargs = pq.compute_ao_integrals(mol, shells)
        with pytest.raises(ValueError, match="linear dependence"):
            pq.run_rhf(ao_kwargs, 2)

    def test_electron_count_guards(self):
        mol = pq.parse_xyz("1\n\nHe 0 0 0")
        ao = pq.compute_ao_integrals(mol, pq.sto3g_shells(mol))
        with pytest.raises(ValueError):
            pq.run_rhf(ao, 3)
        with pytest.raises(ValueError):
            pq.run_rhf(ao, 4)

    @pytest.mark.parametrize("system", ["heh+", "h8"])
    def test_one_fock_build_per_density_keeps_the_bits(self, monkeypatch, system):
        if system == "heh+":
            mol, ao = heh_plus()
        else:
            rows = "\n".join(f"H 0 0 {0.9 * k:.1f}" for k in range(8))
            mol = pq.parse_xyz(f"8\n\n{rows}")
            ao = pq.compute_ao_integrals(mol, pq.sto3g_shells(mol))
        expected = reference_run_rhf(ao, mol.n_electrons)
        built = []
        fock_matrix = scf_module._fock_matrix
        monkeypatch.setattr(scf_module, "_fock_matrix",
                            lambda ao, density: built.append(1) or fock_matrix(ao, density))
        result = pq.run_rhf(ao, mol.n_electrons)
        assert len(built) <= result.iterations + 1
        # the oracle rebuilds the DIIS B matrix whole; h8 runs past the kept
        # history, so the kept inner products also lose their oldest row
        assert system == "heh+" or result.iterations > scf_module._DIIS_SIZE
        assert (result.iterations, result.converged) == (expected.iterations, expected.converged)
        assert result.total_energy == expected.total_energy
        assert result.energy_history == expected.energy_history
        for name in ("mo_coefficients", "orbital_energies", "density_matrix"):
            assert np.array_equal(getattr(result, name), getattr(expected, name)), name


class TestTransformToMO:
    def _orthonormal_ao(self, seed=13):
        mo = random_integral_set(3, 2, seed)
        return pq.AOIntegralSet(
            n_ao=3,
            overlap=np.eye(3),
            core_hamiltonian=mo.h,
            eri=mo.eri,
            nuclear_repulsion=0.5,
        )

    def test_identity_transform(self):
        ao = self._orthonormal_ao()
        mo = pq.transform_to_mo(ao, np.eye(3), 2)
        np.testing.assert_allclose(mo.h, ao.core_hamiltonian, atol=1e-14)
        np.testing.assert_allclose(mo.eri, ao.eri, atol=1e-14)
        assert mo.core_energy == pytest.approx(0.5)

    def test_trace_invariance(self):
        ao = self._orthonormal_ao(seed=17)
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        mo = pq.transform_to_mo(ao, q, 2)
        assert np.trace(mo.h) == pytest.approx(
            np.trace(ao.core_hamiltonian), abs=1e-10
        )

    def test_hf_energy_from_mo_integrals(self, h2_sto3g):
        mo = h2_sto3g["mo"]
        scf = h2_sto3g["scf"]
        e = mo.core_energy + 2.0 * mo.h[0, 0] + mo.eri[0, 0, 0, 0]
        assert e == pytest.approx(scf.total_energy, abs=1e-8)

    def test_non_orthonormal_rejected(self, h2_sto3g):
        ao = h2_sto3g["ao"]
        with pytest.raises(ValueError, match="orthonormal"):
            pq.transform_to_mo(ao, np.eye(2), 2)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**16))
def test_transform_eri_exactly_symmetric_and_matches_einsum(n_in, n_out, seed):
    chem = random_integral_set(n_in, 2, seed).eri
    c = np.random.default_rng(seed).standard_normal((n_in, n_out))
    out = transform_eri(chem, c.T)
    assert out.shape == (n_out,) * 4
    assert_exactly_symmetric(out)
    np.testing.assert_allclose(out, reference_mo_eri(chem, c), rtol=0, atol=1e-12)


def h_chain(n_atoms: int, n_shells: int, alpha0: float, ratio: float, spacing: float = 1.6):
    """Linear H chain in an even-tempered s set: (molecule, shells)."""
    atoms = tuple(("H", 1, np.array([0.0, 0.0, spacing * k])) for k in range(n_atoms))
    shells = [s for _, _, pos in atoms
              for s in pq.even_tempered_shells(pos, n_shells, alpha0, ratio)]
    return pq.Molecule(atoms=atoms), shells


# Near-dependent even-tempered sets: max |C| is 35.5 for H6 and 19.2 for H4, so
# a full-tensor einsum breaks (pq|rs) symmetry by 6.3e-11 and 5.5e-12.
@pytest.mark.parametrize("n_atoms, n_shells, alpha0, ratio, n_qubits", [
    (6, 2, 0.1, 4.0, 22),
    (4, 4, 0.07, 3.3, 20),
])
def test_ill_conditioned_chains_pass_both_transforms(n_atoms, n_shells, alpha0, ratio, n_qubits):
    mol, shells = h_chain(n_atoms, n_shells, alpha0, ratio)
    ao = pq.compute_ao_integrals(mol, shells)
    scf = pq.run_rhf(ao, mol.n_electrons)
    assert scf.converged
    c = scf.mo_coefficients
    mo = pq.transform_to_mo(ao, c, mol.n_electrons, orbital_energies=scf.orbital_energies)
    chem = mo.eri
    assert_exactly_symmetric(chem)
    # both transforms carry round-off of order max|C|^4 eps
    tol = 8 * np.finfo(float).eps * np.abs(c).max() ** 4
    np.testing.assert_allclose(chem, reference_mo_eri(ao.eri, c), rtol=0, atol=tol)

    amps = pq.mp2_amplitudes(mo)
    space = pq.orthonormalize(pq.select_pnos(pq.pair_densities(amps), n_qubits))
    final = pq.build_final_integrals(mo, space)
    assert final.n_orb == n_qubits // 2
    assert_exactly_symmetric(final.eri)
    np.testing.assert_allclose(final.eri, reference_final_eri(mo.eri, space.transform),
                               rtol=0, atol=1e-12)
