"""Geometry parsing, Boys function, s-Gaussian integrals, FCIDUMP I/O."""

import math
from functools import lru_cache

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings, strategies as st

import pnovqe as pq
from pnovqe import integrals as integrals_mod
from pnovqe.integrals import ParseError, _boys0, _erf, _prim_norm, fcidump_header

from ci_oracle import (
    boys, random_integral_set, reference_ao_integrals, reference_fcidump_text,
    reference_read_fcidump,
)
from conftest import (
    h2_big_integrals, h2_big_system, h2_pipeline, he_big_system, lih_like_pipeline, lih_like_system,
)


class TestParseXYZ:
    def test_h2_unit_conversion(self):
        mol = pq.parse_xyz("2\n\nH 0 0 0\nH 0 0 0.7414")
        r = np.linalg.norm(mol.atoms[0][2] - mol.atoms[1][2])
        assert r == pytest.approx(1.40104, abs=1e-4)
        assert mol.n_electrons == 2

    def test_single_helium(self):
        mol = pq.parse_xyz("1\n\nHe 0 0 0")
        assert mol.atoms[0][1] == 2

    def test_unknown_element_reports_line(self):
        with pytest.raises(ParseError, match="unknown element Xx at line 4"):
            pq.parse_xyz("2\n\nH 0 0 0\nXx 0 0 1")

    def test_non_numeric_coordinate(self):
        with pytest.raises(ParseError, match="line 3"):
            pq.parse_xyz("1\n\nH 0 zero 0")

    def test_malformed_count(self):
        with pytest.raises(ParseError, match="count"):
            pq.parse_xyz("two\n\nH 0 0 0")

    @pytest.mark.parametrize("count", [0, -1])
    def test_atom_count_below_one_rejected(self, count):
        # an empty molecule once reached run_rhf, which failed on a zero-size array
        with pytest.raises(ParseError, match=f"atom count {count} on line 1 is below 1"):
            pq.parse_xyz(f"{count}\n\n")
        with pytest.raises(ValueError, match="at least one atom"):
            pq.Molecule(atoms=())

    def test_charged_molecule_parity(self):
        mol = pq.parse_xyz("2\n\nHe 0 0 0\nH 0 0 0.9", charge=1)
        assert mol.n_electrons == 2
        with pytest.raises(ValueError, match="odd electron"):
            pq.parse_xyz("1\n\nH 0 0 0")

    def test_a_charge_past_the_nuclear_charge_is_refused(self):
        # H2 with charge 4 once had -2 electrons and reached run_rhf
        with pytest.raises(ValueError, match="^charge 4 leaves -2 electrons$"):
            pq.parse_xyz("2\n\nH 0 0 0\nH 0 0 0.74", charge=4)


class TestBoys:
    def test_at_zero(self):
        assert boys(0, 0.0) == pytest.approx(1.0, abs=1e-14)
        for n in range(9):
            assert boys(n, 0.0) == pytest.approx(1.0 / (2 * n + 1), abs=1e-14)

    @pytest.mark.parametrize("n,x", [(0, 1.0), (0, 0.3), (2, 4.5), (5, 12.0),
                                     (8, 30.0), (3, 40.0), (0, 60.0)])
    def test_against_adaptive_quadrature(self, n, x):
        oracle, err = scipy.integrate.quad(
            lambda t: t ** (2 * n) * math.exp(-x * t * t), 0.0, 1.0,
            epsabs=1e-14, epsrel=1e-13,
        )
        assert err < 1e-12
        assert boys(n, x) == pytest.approx(oracle, abs=1e-12)

    def test_f0_at_one_value(self):
        assert boys(0, 1.0) == pytest.approx(0.7468241328124271, abs=1e-12)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_downward_recursion(self, x):
        for n in range(9):
            lhs = boys(n, x)
            rhs = (2.0 * x * boys(n + 1, x) + math.exp(-x)) / (2 * n + 1)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            boys(-1, 1.0)
        with pytest.raises(ValueError):
            boys(17, 1.0)
        with pytest.raises(ValueError):
            boys(0, -0.5)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.one_of(st.floats(0.0, 1e-3), st.floats(0.0, 60.0)))
    @example(0.0)
    @example(5e-324)
    @example(np.nextafter(1e-3, 0.0))
    @example(1e-3)
    @example(35.0)
    @example(np.nextafter(35.0, 0.0))
    @example(60.0)
    def test_vectorized_f0_matches_scalar(self, x):
        assert abs(_boys0(np.array([x]))[0] - boys(0, x)) <= 1e-14

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.floats(0.0, 8.0))
    @example(0.0)
    @example(1.0)
    @example(np.nextafter(1.0, 2.0))
    @example(6.0)
    @example(8.0)
    def test_erf_within_one_ulp_of_scipy(self, x):
        expected = scipy.special.erf(x)
        assert abs(_erf(np.array([x]))[0] - expected) <= np.spacing(expected)

    def test_erf_of_an_array_beyond_the_clip(self):
        x = np.array([0.5, 8.0, 9.0, 30.0, 1e10, 1e300])
        np.testing.assert_array_equal(_erf(x)[1:], 1.0)
        assert abs(_erf(x)[0] - scipy.special.erf(0.5)) <= np.spacing(0.5)


def _grid_overlap(shell_a, shell_b, spacing=0.12, extent=7.5):
    """Direct 3-D quadrature of two contracted s-Gaussians (trapezoid grid)."""
    axis = np.arange(-extent, extent + spacing, spacing)
    total = 0.0
    yy, zz = np.meshgrid(axis, axis, indexing="ij")
    for x in axis:
        val_a = np.zeros_like(yy)
        val_b = np.zeros_like(yy)
        for alpha, coef in zip(shell_a.exponents, shell_a.coefficients):
            r2 = ((x - shell_a.center[0]) ** 2 + (yy - shell_a.center[1]) ** 2
                  + (zz - shell_a.center[2]) ** 2)
            val_a += coef * _prim_norm(alpha) * np.exp(-alpha * r2)
        for alpha, coef in zip(shell_b.exponents, shell_b.coefficients):
            r2 = ((x - shell_b.center[0]) ** 2 + (yy - shell_b.center[1]) ** 2
                  + (zz - shell_b.center[2]) ** 2)
            val_b += coef * _prim_norm(alpha) * np.exp(-alpha * r2)
        total += np.sum(val_a * val_b)
    return total * spacing**3


def _h8_sto3g():
    mol = pq.parse_xyz("8\n\n" + "\n".join(f"H 0 0 {0.8 * k}" for k in range(8)))
    return mol, pq.sto3g_shells(mol)


def _heh_cation():
    mol = pq.parse_xyz("2\n\nHe 0 0 0\nH 0 0 0.7743", charge=1)
    return mol, pq.sto3g_shells(mol)


# Systems the vectorized engine is checked on against the loop reference.
ENGINE_CASES = {
    "h8-sto3g": _h8_sto3g,
    "lih-model": lih_like_system,
    "h2-s10": lambda: h2_big_system(1.4),
    "he-s8": he_big_system,
    "heh-cation": _heh_cation,
}


class TestAOIntegrals:
    def test_h2_overlap_against_quadrature(self):
        mol = pq.parse_xyz("2\n\nH 0 0 0\nH 0 0 0.7408481486")  # 1.4 bohr
        shells = pq.sto3g_shells(mol)
        ao = pq.compute_ao_integrals(mol, shells)
        assert ao.overlap[0, 1] == pytest.approx(0.6593, abs=2e-4)
        oracle = _grid_overlap(shells[0], shells[1])
        assert ao.overlap[0, 1] == pytest.approx(oracle, abs=1e-6)

    def test_contracted_normalization(self):
        mol = pq.parse_xyz("1\n\nHe 0 0 0", charge=0)
        ao = pq.compute_ao_integrals(mol, pq.sto3g_shells(mol))
        assert ao.overlap[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_helium_sign_structure(self):
        mol = pq.parse_xyz("1\n\nHe 0 0 0")
        ao = pq.compute_ao_integrals(mol, pq.sto3g_shells(mol))
        assert ao.eri[0, 0, 0, 0] > 0.0
        assert ao.core_hamiltonian[0, 0] < 0.0

    def test_overlap_positive_definite_and_symmetries(self):
        mol = pq.parse_xyz("2\n\nH 0 0 0\nH 0 0 0.7414")
        ao = pq.compute_ao_integrals(mol, pq.sto3g_shells(mol))
        assert np.linalg.eigvalsh(ao.overlap).min() > 0.0
        g = ao.eri
        for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
            np.testing.assert_allclose(g, g.transpose(perm), atol=1e-12)

    def test_nuclear_coincidence(self):
        mol = pq.Molecule(
            atoms=(("H", 1, np.zeros(3)), ("H", 1, np.zeros(3)))
        )
        with pytest.raises(ValueError, match="coincidence"):
            pq.compute_ao_integrals(mol, pq.sto3g_shells(mol))

    def test_nuclear_coincidence_shared_position_array(self):
        pos = np.zeros(3)
        mol = pq.Molecule(atoms=(("H", 1, pos), ("H", 1, pos)))
        with pytest.raises(ValueError, match="coincidence"):
            pq.compute_ao_integrals(mol, pq.sto3g_shells(mol))

    def test_nuclear_repulsion(self):
        mol = pq.parse_xyz("2\n\nH 0 0 0\nH 0 0 0.7408481486")
        ao = pq.compute_ao_integrals(mol, pq.sto3g_shells(mol))
        assert ao.nuclear_repulsion == pytest.approx(1.0 / 1.4, abs=1e-7)

    def test_outputs_exactly_symmetric(self):
        mol, shells = ENGINE_CASES["lih-model"]()
        ao = pq.compute_ao_integrals(mol, shells)
        assert np.array_equal(ao.overlap, ao.overlap.T)
        assert np.array_equal(ao.core_hamiltonian, ao.core_hamiltonian.T)
        for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
            assert np.array_equal(ao.eri, ao.eri.transpose(perm))

    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_matches_loop_reference(self, case):
        mol, shells = ENGINE_CASES[case]()
        ao = pq.compute_ao_integrals(mol, shells)
        ref = reference_ao_integrals(mol, shells)
        np.testing.assert_allclose(ao.overlap, ref.overlap, rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            ao.core_hamiltonian, ref.core_hamiltonian, rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(ao.eri, ref.eri, rtol=0, atol=1e-13)
        assert abs(ao.nuclear_repulsion - ref.nuclear_repulsion) <= 1e-13


@lru_cache(maxsize=1)
def _h4_sto3g_with_reference_eri():
    mol = pq.parse_xyz("4\n\nH 0 0 0\nH 0 0 0.7\nH 0 0.2 1.5\nH 0 0 2.4")
    shells = pq.sto3g_shells(mol)
    return mol, shells, reference_ao_integrals(mol, shells).eri


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(st.integers(1, 78))
@example(5)    # 16 blocks of 5 rows, the last of 3
@example(77)   # a last block of one row
def test_eri_blocks_of_any_height_match_the_loop_reference(rows):
    # 12 primitives make 78 primitive pairs; each block holds ``rows`` of them
    mol, shells, expected = _h4_sto3g_with_reference_eri()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrals_mod, "_ERI_BLOCK", rows * 78)
        eri = pq.compute_ao_integrals(mol, shells).eri
    np.testing.assert_allclose(eri, expected, rtol=0, atol=1e-13)


class TestFCIDump:
    def test_roundtrip_identity(self, tmp_path):
        mo = random_integral_set(3, 2, 9, with_energies=True)
        path = tmp_path / "random.fcidump"
        pq.write_fcidump(mo, path)
        back = pq.read_fcidump(path)
        np.testing.assert_allclose(back.h, mo.h, atol=1e-12)
        np.testing.assert_allclose(back.eri, mo.eri, atol=1e-12)
        assert back.core_energy == pytest.approx(mo.core_energy, abs=1e-12)
        np.testing.assert_allclose(
            back.orbital_energies, mo.orbital_energies, atol=1e-12
        )
        assert back.n_orb == mo.n_orb and back.n_electrons == mo.n_electrons

    def test_single_body_line(self, tmp_path):
        path = tmp_path / "one.fcidump"
        path.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n&END\n0.5 1 1 1 1\n")
        mo = pq.read_fcidump(path)
        assert mo.eri[0, 0, 0, 0] == pytest.approx(0.5)

    def test_d_exponent_accepted(self, tmp_path):
        path = tmp_path / "d.fcidump"
        path.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n/\n0.5D-01 1 1 0 0\n")
        mo = pq.read_fcidump(path)
        assert mo.h[0, 0] == pytest.approx(0.05)

    def test_missing_header_keys(self, tmp_path):
        path = tmp_path / "bad.fcidump"
        path.write_text("&FCI NELEC=2,\n&END\n")
        with pytest.raises(ParseError, match="NORB"):
            pq.read_fcidump(path)

    def test_missing_header_terminator(self, tmp_path):
        path = tmp_path / "open.fcidump"
        path.write_text("&FCI NORB=1,NELEC=2,MS2=0,\n0.5 1 1 1 1\n")
        with pytest.raises(ParseError, match="terminator"):
            pq.read_fcidump(path)

    def test_header_gives_norb_nelec_and_the_integral_lines(self, tmp_path):
        mo = lih_like_pipeline()["mo"]
        path = tmp_path / "lih.fcidump"
        pq.write_fcidump(mo, path)
        n_orb, n_elec, body = fcidump_header(path.read_text())
        assert (n_orb, n_elec) == (mo.n_orb, mo.n_electrons)
        assert "NORB" not in body.upper() and len(body.split()) % 5 == 0
        back = pq.read_fcidump(path)
        assert (back.n_orb, back.n_electrons) == (n_orb, n_elec)

    @pytest.mark.parametrize("norb, nelec", [(-1, 2), (0, 0), (2, -2)])
    def test_norb_below_one_or_negative_nelec_rejected(self, tmp_path, norb, nelec):
        # NELEC=-2 once gave n_occ == -1, NORB=-1 a numpy dimension error
        path = tmp_path / "count.fcidump"
        path.write_text(f"&FCI NORB={norb},NELEC={nelec},MS2=0,\n&END\n")
        with pytest.raises(ParseError, match="needs NORB >= 1 and NELEC >= 0"):
            pq.read_fcidump(path)

    @pytest.mark.parametrize("indices", [["0", "0", "0", "0"], ["2", "2", "0", "0"], ["2", "2", "1", "1"]],
                             ids=["core", "h", "eri"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_values_name_the_line(self, tmp_path, h2_sto3g, indices, value):
        # once refused later, or elsewhere: "Eigenvalues did not converge" (core),
        # "h must be symmetric" (h) and "<pq|rs> lacks real 8-fold symmetry" (eri)
        path = tmp_path / "h2.fcidump"
        pq.write_fcidump(h2_sto3g["mo"], path)
        lines = path.read_text().splitlines()
        at = next(k for k, text in enumerate(lines) if text.split()[1:] == indices)
        lines[at] = " ".join([value, *indices])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            pq.read_fcidump(path)
        assert str(info.value) == f"non-finite value in FCIDUMP line: {lines[at]!r}"

    @pytest.mark.parametrize("n_orb, seed", [(2, 0), (3, 1), (4, 2)])
    def test_integral_set_holds_chemists_notation_only(self, n_orb, seed):
        # a caller still passing physicists' <pq|rs> = (pr|qs) fails instead of getting another Hamiltonian
        mo = random_integral_set(n_orb, 2, seed)
        fields = dict(n_orb=n_orb, h=mo.h, core_energy=0.0, n_electrons=2)
        assert np.array_equal(pq.IntegralSet(eri=mo.eri, **fields).eri, mo.eri)
        with pytest.raises(ValueError, match=r"^\(pq\|rs\) lacks 8-fold permutation symmetry$"):
            pq.IntegralSet(eri=mo.eri.transpose(0, 2, 1, 3), **fields)
        with pytest.raises(TypeError, match="'g'"):
            pq.IntegralSet(g=mo.eri.transpose(0, 2, 1, 3), **fields)

    def test_integral_set_refuses_a_negative_electron_count(self):
        with pytest.raises(ValueError, match="n_electrons must be even and non-negative"):
            pq.IntegralSet(n_orb=1, h=np.zeros((1, 1)), eri=np.zeros((1,) * 4), core_energy=0.0,
                           n_electrons=-2)

    def test_odd_nelec_rejected(self, tmp_path):
        path = tmp_path / "odd.fcidump"
        path.write_text("&FCI NORB=2,NELEC=3,MS2=1,\n&END\n")
        with pytest.raises(ParseError, match="odd NELEC"):
            pq.read_fcidump(path)

    @pytest.mark.parametrize("ms2", [2, -2])
    def test_nonzero_ms2_rejected(self, tmp_path, ms2):
        # MS2 = 2 was once read and solved as a closed-shell problem
        path = tmp_path / "spin.fcidump"
        path.write_text(f"&FCI NORB=2,NELEC=2,MS2={ms2},\n&END\n")
        with pytest.raises(ParseError, match=f"MS2 = {ms2} not supported"):
            pq.read_fcidump(path)

    def test_absent_ms2_counts_as_zero(self, tmp_path):
        path = tmp_path / "no-ms2.fcidump"
        path.write_text("&FCI NORB=1,NELEC=2,\n&END\n0.5 1 1 0 0\n")
        assert pq.read_fcidump(path).h[0, 0] == 0.5

    @pytest.mark.parametrize("line", ["abc 1 1 1 1", "0.5 1 1 1 1.0", "0.5 1 1 1 x", "0.5 1 1 1"])
    def test_malformed_fields_name_the_line(self, tmp_path, line):
        # the first three once escaped as a bare ValueError naming neither file nor line
        path = tmp_path / "fields.fcidump"
        path.write_text(f"&FCI NORB=2,NELEC=2,MS2=0,\n&END\n{line}\n")
        with pytest.raises(ParseError) as info:
            pq.read_fcidump(path)
        assert str(info.value) == f"malformed FCIDUMP line: {line!r}"

    @pytest.mark.parametrize("first, second", [("0.5 1 1 1 1", "0.7 1 1 1 1"), ("0.5 2 1 2 1", "0.7 1 2 1 2"),
                                               ("0.5 2 1 0 0", "0.7 1 2 0 0"), ("0.5 1 0 0 0", "0.7 1 0 0 0"),
                                               ("0.5 0 0 0 0", "0.7 0 0 0 0")],
                             ids=["eri", "eri-permuted", "h", "orbital-energy", "core"])
    def test_a_second_different_value_names_the_line(self, tmp_path, first, second):
        # the first pair once read (11|11) = 0.7: the last line won
        path = tmp_path / "twice.fcidump"
        path.write_text(f"&FCI NORB=2,NELEC=2,MS2=0,\n&END\n{first}\n{second}\n")
        with pytest.raises(ParseError) as info:
            pq.read_fcidump(path)
        assert str(info.value) == f"a second, different value for one integral in line: {second!r}"

    def test_identical_repeats_are_read(self, tmp_path, h2_sto3g):
        # some writers list every permutation of an integral
        path = tmp_path / "h2.fcidump"
        pq.write_fcidump(h2_sto3g["mo"], path)
        expected = pq.read_fcidump(path)
        head, body = path.read_text().split("&END\n")
        # each line again, and each two-electron line once more as (ji|lk)
        repeats = [f"{value} {j} {i} {l} {k}" for value, i, j, k, l in (line.split() for line in body.splitlines())
                   if "0" not in (i, j, k, l)]
        assert ["1", "2", "1", "2"] in [line.split()[1:] for line in repeats]
        path.write_text(f"{head}&END\n{body}{body}" + "\n".join(repeats) + "\n")
        back = pq.read_fcidump(path)
        assert np.array_equal(back.h, expected.h) and np.array_equal(back.eri, expected.eri)
        assert back.core_energy == expected.core_energy

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "range.fcidump"
        path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.5 3 1 1 1\n")
        with pytest.raises(ParseError, match="out of range"):
            pq.read_fcidump(path)

    @pytest.mark.parametrize("line", ["0.7 0 1 2 0", "0.3 1 0 2 2", "0.2 1 1 1 0", "0.1 0 0 0 1"])
    def test_malformed_index_pattern(self, tmp_path, line):
        # only 0 0 0 0, i 0 0 0, i j 0 0 and i j k l name an integral; the first two
        # lines were once read as the core energy and as orbital energy 1
        path = tmp_path / "pattern.fcidump"
        path.write_text(f"&FCI NORB=2,NELEC=2,MS2=0,\n&END\n{line}\n")
        with pytest.raises(ParseError, match="malformed index pattern"):
            pq.read_fcidump(path)

    @pytest.mark.parametrize("system", ["lih-model", "h2-s10"])
    def test_bytes_and_arrays_match_loop_reference(self, system, tmp_path):
        mo = lih_like_pipeline()["mo"] if system == "lih-model" else h2_big_integrals(1.4)
        path = tmp_path / f"{system}.fcidump"
        pq.write_fcidump(mo, path)
        assert path.read_bytes() == reference_fcidump_text(mo).encode()
        back = pq.read_fcidump(path)
        h, eri, eps, core = reference_read_fcidump(path)
        assert np.array_equal(back.h, h) and np.array_equal(back.eri, eri)
        assert np.array_equal(back.orbital_energies, eps) and back.core_energy == core

    def test_roundtrip_preserves_fci_energy(self, tmp_path):
        base = h2_pipeline(1.4)
        sector = pq.sector_basis(4, 2, two_sz=0)
        e_before, _ = pq.exact_ground_energy(pq.IntegralHamiltonian(base["mo"]), sector)
        path = tmp_path / "h2.fcidump"
        pq.write_fcidump(base["mo"], path)
        mo2 = pq.read_fcidump(path)
        h2q = pq.IntegralHamiltonian(mo2)
        e_after, _ = pq.exact_ground_energy(h2q, sector)
        assert e_after == pytest.approx(e_before, abs=1e-10)
