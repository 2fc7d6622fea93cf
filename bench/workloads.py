"""The benchmark's workloads: seeded inputs, run configurations and the gate.

Each workload is a scan of one coordinate (a single point for the H2 run).
Seed 0 gives the canonical coordinates; any other seed shifts every
coordinate by a seeded offset of at most ``max_shift``. The program under
test only ever sees the generated FCIDUMP or xyz files.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pnovqe as pq
from pnovqe.workbench import RunConfig

# Same even-tempered s10 set as the H2 fixture in tests/conftest.py.
H_S10_EXPONENTS = (0.055, 3.1)

# Tolerances of the correctness gate, in hartree.
PINNED_FCI_TOL = 1e-8
PINNED_VQE_TOL = 1e-6
BOUND_TOL = 1e-9   # the slack run_point itself allows on E_VQE >= E_FCI


@dataclass(frozen=True)
class Workload:
    name: str
    source: str              # "fcidump" or "builtin-sto3g"
    write_input: Callable    # (coordinate, path) -> None
    canonical: tuple         # scan coordinates at seed 0
    max_shift: float         # seeded offset bound, in the coordinate's unit
    n_qubits: int
    ansatz: str
    workers: int
    diagonal_only: bool = False
    scan: bool = True

    def coordinates(self, seed: int) -> tuple:
        if seed == 0:
            return self.canonical
        rng = np.random.default_rng(seed)
        shifts = rng.uniform(-self.max_shift, self.max_shift, len(self.canonical))
        return tuple(round(c + s, 6) for c, s in zip(self.canonical, shifts))

    def write_inputs(self, coordinates, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for c in coordinates:
            self.write_input(c, directory / self._input_name(c))

    def config(self, coordinates, directory: Path, output_dir=None,
               workers: int | None = None) -> RunConfig:
        template = str(directory / self._input_name("{R}" if self.scan else None))
        fields = {"xyz_file": template} if self.source == "builtin-sto3g" else {"fcidump": template}
        return RunConfig(
            integral_source=self.source,
            n_qubits=self.n_qubits,
            ansatz=self.ansatz,
            diagonal_only=self.diagonal_only,
            scan=tuple(coordinates) if self.scan else (),
            output_dir=None if output_dir is None else str(output_dir),
            workers=self.workers if workers is None else workers,
            **fields,
        ).validate()

    def _input_name(self, coordinate) -> str:
        suffix = "xyz" if self.source == "builtin-sto3g" else "fcidump"
        if not self.scan:
            return f"{self.name}.{suffix}"
        tag = coordinate if isinstance(coordinate, str) else repr(float(coordinate))
        return f"{self.name}_{tag}.{suffix}"


def _canonical_mo(molecule, shells) -> pq.IntegralSet:
    ao = pq.compute_ao_integrals(molecule, shells)
    scf = pq.run_rhf(ao, molecule.n_electrons)
    if not scf.converged:
        raise RuntimeError("SCF did not converge while generating inputs")
    return pq.transform_to_mo(ao, scf.mo_coefficients, molecule.n_electrons,
                              orbital_energies=scf.orbital_energies)


def h2_s10_integrals(r_bohr: float) -> pq.IntegralSet:
    """H2 in the 10-function even-tempered s basis, 5 shells per atom."""
    atoms = tuple(("H", 1, np.array([0.0, 0.0, z])) for z in (0.0, r_bohr))
    molecule = pq.Molecule(atoms=atoms)
    shells = []
    for _, _, pos in atoms:
        shells.extend(pq.even_tempered_shells(pos, 5, *H_S10_EXPONENTS))
    return _canonical_mo(molecule, shells)


def lih_like_integrals(r_bohr: float) -> pq.IntegralSet:
    """All-s LiH model of tests/conftest.py: 7 orbitals, 4 electrons."""
    li_pos, h_pos = np.zeros(3), np.array([0.0, 0.0, r_bohr])
    molecule = pq.Molecule(atoms=(("Li", 3, li_pos), ("H", 1, h_pos)))
    shells = list(pq.sto3g_shells(molecule))
    shells.extend(pq.even_tempered_shells(li_pos, 2, 0.05, 4.0))
    shells.extend(pq.even_tempered_shells(h_pos, 2, 0.08, 5.0))
    return _canonical_mo(molecule, shells)


def write_h2_s10_fcidump(r_bohr: float, path: Path) -> None:
    pq.write_fcidump(h2_s10_integrals(r_bohr), path)


def write_lih_fcidump(r_bohr: float, path: Path) -> None:
    pq.write_fcidump(lih_like_integrals(r_bohr), path)


def write_h8_xyz(spacing_angstrom: float, path: Path) -> None:
    rows = [f"H 0.0 0.0 {k * spacing_angstrom:.8f}" for k in range(8)]
    path.write_text(f"8\nlinear H8, spacing {spacing_angstrom} A\n" + "\n".join(rows) + "\n")


WORKLOADS = {
    w.name: w
    for w in (
        # A single point, not a scan: every seed runs 1.4 bohr. Its cost follows
        # the X-mask group count, which round-off-level integrals decide (505 to
        # 711 groups for shifts of at most 0.02 bohr), so a seeded shift would
        # make op_s vary by a third from seed to seed. See README.md.
        Workload("h2-s10-q16-point", "fcidump", write_h2_s10_fcidump, (1.4,), 0.0, 16,
                 "pno-upccgd", workers=1, scan=False),
        Workload("lih-q12-scan-w2", "fcidump", write_lih_fcidump,
                 (2.6, 2.8, 3.0, 3.2, 3.4, 3.6), 0.02, 12, "upccgsd", workers=2,
                 diagonal_only=True),
        Workload("h8-sto3g-scan", "builtin-sto3g", write_h8_xyz,
                 (0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5), 0.01, 12, "pno-upccsd",
                 workers=1),
    )
}


# ---------------------------------------------------------------------------
# Memory pre-check

# Resident memory of one process besides the compiled groups: interpreter,
# numpy and scipy, integrals and the few statevectors a sweep keeps.
BASE_RSS_MIB = 256.0


def n_xmask_groups(hamiltonian) -> int:
    """Distinct X masks, i.e. the groups the simulator compiles on first use."""
    return len({x for (x, _z), _c in hamiltonian.raw_items()})


def memory_estimate(hamiltonian, parallel: int, mem_available_mib: float) -> dict:
    """Computed size of the simulator's compiled groups, against free memory.

    Each group holds a 2^n complex diagonal and a 2^n int64 permutation,
    24 B per amplitude. Nothing of that size is allocated here.
    """
    groups = n_xmask_groups(hamiltonian)
    compiled_mib = groups * (1 << hamiltonian.n_qubits) * 24 / 2**20
    need_mib = parallel * (compiled_mib + BASE_RSS_MIB)
    return {
        "n_qubits": hamiltonian.n_qubits,
        "n_xmask_groups": groups,
        "compiled_mib_computed": compiled_mib,
        "parallel_processes": parallel,
        "need_mib": need_mib,
        "mem_available_mib": mem_available_mib,
        "fits": need_mib <= mem_available_mib,
    }


def mem_available_mib(meminfo: Path = Path("/proc/meminfo")) -> float:
    for line in meminfo.read_text().splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no MemAvailable line in {meminfo}")


# ---------------------------------------------------------------------------
# Correctness gate


def point_problems(record: dict, pinned: dict | None) -> list:
    """Reasons one returned point fails the gate; empty when it passes.

    Every point must satisfy E_FCI <= E_VQE <= E_HF. With ``pinned`` (seed 0)
    E_FCI and E_VQE must also match the energies pinned at the seed commit.
    """
    if "error" in record:
        return [f"raised {record['error']}"]
    e_vqe, e_fci, e_hf = record["e_vqe"], record["e_fci"], record["e_hf"]
    problems = []
    if not e_vqe >= e_fci - BOUND_TOL:
        problems.append(f"E_VQE {e_vqe!r} below E_FCI {e_fci!r}")
    if not e_vqe <= e_hf + BOUND_TOL:
        problems.append(f"E_VQE {e_vqe!r} above E_HF {e_hf!r}")
    if pinned is not None:
        if record["coordinate"] != pinned["coordinate"]:
            problems.append(f"coordinate {record['coordinate']!r} is not the pinned {pinned['coordinate']!r}")
        if not abs(e_fci - pinned["e_fci"]) <= PINNED_FCI_TOL:
            problems.append(f"E_FCI {e_fci!r} differs from pinned {pinned['e_fci']!r}")
        if not abs(e_vqe - pinned["e_vqe"]) <= PINNED_VQE_TOL:
            problems.append(f"E_VQE {e_vqe!r} differs from pinned {pinned['e_vqe']!r}")
    return problems


def output_problems(points, output_dir: Path) -> list:
    """Per-point reasons why run.json or curve.csv disagree with the records."""
    problems = [[] for _ in points]
    document = json.loads((output_dir / "run.json").read_text())
    written = document["points"]
    if len(written) != len(points):
        return [["run.json holds a different number of points"] for _ in points]
    for k, (point, stored) in enumerate(zip(points, written)):
        if json.loads(json.dumps(point)) != stored:
            problems[k].append("run.json record differs from the returned record")
    rows = (output_dir / "curve.csv").read_text().splitlines()[1:]
    table = {}
    for row in rows:
        coordinate, e_vqe, e_fci, error = (float(v) for v in row.split(",")[:4])
        table[coordinate] = (e_vqe, e_fci, error)
    for k, point in enumerate(points):
        if "error" in point:
            continue
        expected = (point["e_vqe"], point["e_fci"], point["error_vs_fci"])
        if table.get(point["coordinate"]) != expected:
            problems[k].append("curve.csv row differs from the returned record")
    return problems
