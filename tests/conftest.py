"""Shared test fixtures: built-in systems, generated FCIDUMP data and excitation generators."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import pnovqe as pq
from pnovqe.ansatz import GENERATOR_KINDS
from pnovqe.integrals import ANGSTROM_TO_BOHR


def h2_xyz(r_bohr: float) -> str:
    r_angstrom = r_bohr / ANGSTROM_TO_BOHR
    return f"2\n\nH 0 0 0\nH 0 0 {r_angstrom:.12f}"


def h2_pipeline(r_bohr: float = 1.4) -> dict:
    mol = pq.parse_xyz(h2_xyz(r_bohr))
    ao = pq.compute_ao_integrals(mol, pq.sto3g_shells(mol))
    scf = pq.run_rhf(ao, mol.n_electrons)
    mo = pq.transform_to_mo(
        ao, scf.mo_coefficients, mol.n_electrons,
        orbital_energies=scf.orbital_energies,
    )
    hamiltonian = pq.jordan_wigner(pq.build_hamiltonian(mo), 2 * mo.n_orb)
    return {"mol": mol, "ao": ao, "scf": scf, "mo": mo, "hamiltonian": hamiltonian}


ROOT = Path(__file__).resolve().parents[1]


def modules_loaded_by_points(fcidump) -> tuple:
    """(scipy and numpy.ma modules held, modules first imported by the points) of a fresh interpreter.

    It imports ``pnovqe``, sets up two points, then runs them: a PNO-UpCCGD
    ``run_point`` on 8 qubits of the FCIDUMP at ``fcidump``, and the xyz
    ``run_point`` of ``demos/h2_sto3g.cfg``.
    """
    lines = ["import json, sys, pnovqe",
             f"configs = [pnovqe.RunConfig(integral_source='fcidump', fcidump={str(fcidump)!r}, n_qubits=8,",
             "                             ansatz='pno-upccgd').validate(),",
             f"           pnovqe.load_config({str(ROOT / 'demos' / 'h2_sto3g.cfg')!r})]",
             "before = set(sys.modules)",
             "for config in configs:",
             "    pnovqe.run_point(config)",
             "print(json.dumps([sorted(name for name in sys.modules",
             "                         if name.split('.')[0] == 'scipy' or name.split('.')[:2] == ['numpy', 'ma']),",
             "                  sorted(set(sys.modules) - before)]))"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p))
    result = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    return tuple(json.loads(result.stdout))


def sector_matrix(hamiltonian, basis) -> np.ndarray:
    """The dense matrix of a Hamiltonian's sector operator, one column per product with a unit vector."""
    operator = pq.exact._sector_operator(hamiltonian, basis)
    return np.column_stack([operator @ unit for unit in np.eye(basis.dim)])


class CountingMatrix:
    """A sector operator that counts the products an iterative solve takes of it."""

    def __init__(self, mat):
        self.mat, self.matvecs = mat, 0

    def diagonal(self):
        return self.mat.diagonal()

    def __matmul__(self, vector):
        self.matvecs += 1
        return self.mat @ vector


@pytest.fixture(scope="session")
def h2_sto3g():
    """H2/STO-3G at 1.4 bohr, the desk-scale baseline system."""
    return h2_pipeline(1.4)


# Even-tempered all-s sets used to play the role of an externally computed
# larger basis (ingested through FCIDUMP).
H_S10_EXPONENTS = (0.055, 3.1)     # alpha0, ratio; 5 shells per H atom
HE_S8_EXPONENTS = (0.16, 3.4)      # 4 shells per He atom


def h2_big_system(r_bohr: float):
    """H2 with 5 even-tempered s shells per atom: (molecule, shells)."""
    mol = pq.parse_xyz(h2_xyz(r_bohr))
    shells = []
    for _, _, pos in mol.atoms:
        shells.extend(pq.even_tempered_shells(pos, 5, *H_S10_EXPONENTS))
    return mol, shells


def h2_big_integrals(r_bohr: float) -> pq.IntegralSet:
    mol, shells = h2_big_system(r_bohr)
    ao = pq.compute_ao_integrals(mol, shells)
    scf = pq.run_rhf(ao, mol.n_electrons)
    assert scf.converged
    return pq.transform_to_mo(
        ao, scf.mo_coefficients, mol.n_electrons,
        orbital_energies=scf.orbital_energies,
    )


def he_big_system():
    """He with 4 even-tempered s shells: (molecule, shells)."""
    mol = pq.Molecule(atoms=(("He", 2, np.zeros(3)),))
    return mol, pq.even_tempered_shells(np.zeros(3), 4, *HE_S8_EXPONENTS)


def he_big_integrals() -> pq.IntegralSet:
    mol, shells = he_big_system()
    ao = pq.compute_ao_integrals(mol, shells)
    scf = pq.run_rhf(ao, mol.n_electrons)
    assert scf.converged
    return pq.transform_to_mo(
        ao, scf.mo_coefficients, mol.n_electrons,
        orbital_energies=scf.orbital_energies,
    )


@pytest.fixture(scope="session")
def h2_big_fcidump(tmp_path_factory):
    """10-orbital H2 integral set at 1.4 bohr, written and reread as FCIDUMP."""
    path = tmp_path_factory.mktemp("data") / "h2_s10.fcidump"
    pq.write_fcidump(h2_big_integrals(1.4), path)
    return path


@pytest.fixture(scope="session")
def he_big_fcidump(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "he_s8.fcidump"
    pq.write_fcidump(he_big_integrals(), path)
    return path


def lih_like_system():
    """All-s model of LiH at 3.0 bohr: (molecule, shells)."""
    li_pos = np.zeros(3)
    h_pos = np.array([0.0, 0.0, 3.0])
    mol = pq.Molecule(atoms=(("Li", 3, li_pos), ("H", 1, h_pos)))
    shells = list(pq.sto3g_shells(mol))
    shells.extend(pq.even_tempered_shells(li_pos, 2, 0.05, 4.0))
    shells.extend(pq.even_tempered_shells(h_pos, 2, 0.08, 5.0))
    return mol, shells


def lih_like_pipeline() -> dict:
    """All-s model of LiH at 3.0 bohr: 7 orbitals, 4 electrons."""
    mol, shells = lih_like_system()
    ao = pq.compute_ao_integrals(mol, shells)
    scf = pq.run_rhf(ao, mol.n_electrons)
    assert scf.converged
    mo = pq.transform_to_mo(
        ao, scf.mo_coefficients, mol.n_electrons,
        orbital_energies=scf.orbital_energies,
    )
    return {"mol": mol, "ao": ao, "scf": scf, "mo": mo}


@pytest.fixture(scope="session")
def lih_like():
    return lih_like_pipeline()


@st.composite
def excitation_generators(draw):
    """A generator of any kind from its maker, orbital pairs in either order.

    Singles take either spin. The register (2-5 spatial orbitals, or 2-5
    qubits for a pair rotation) may be larger than the pair needs.
    """
    kind = draw(st.sampled_from(GENERATOR_KINDS))
    n_spatial = draw(st.integers(2, 5))
    i, a = draw(st.lists(st.integers(0, n_spatial - 1), min_size=2, max_size=2, unique=True))
    if kind == "pair_double":
        return pq.make_pair_double(i, a, n_spatial)
    if kind == "single":
        return pq.make_single(i, a, draw(st.integers(0, 1)), n_spatial)
    return pq.make_paired_rotation(i, a, n_spatial)
