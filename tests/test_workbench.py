"""Run configuration, pipelines, error metrics, persistence, and the CLI."""

import concurrent.futures
import functools
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pnovqe as pq
from pnovqe import cli, workbench
from pnovqe.workbench import ConfigError, load_curve_csv, resource_rows_for

from ci_oracle import (
    fci_ground_energy, random_integral_set, reference_build_hamiltonian, reference_jordan_wigner,
    reference_to_text,
)
from conftest import h2_big_integrals, modules_loaded_by_points

ROOT = Path(__file__).resolve().parents[1]
H2_INLINE = "H 0 0 0; H 0 0 {R}"

BASE_CONFIG = """
[molecule]
xyz = H 0 0 0; H 0 0 0.7408481486

[integrals]
source = builtin-sto3g

[space]
nq = 4

[ansatz]
variant = upccgsd

[output]
seed = 0
"""

LAYERED_CONFIG = BASE_CONFIG.replace("variant = upccgsd", "variant = upccgsd\nlayers = 2")


def h2_config(**overrides) -> pq.RunConfig:
    config = pq.parse_config(BASE_CONFIG)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config.validate()


def reference_pauli_text(config) -> str:
    """The oracle's Pauli text of a single-point config's compact Hamiltonian."""
    stage = workbench.compact_integrals(config)
    fermion = reference_build_hamiltonian(stage["final"])
    return reference_to_text(reference_jordan_wigner(fermion, stage["n_qubits"]))


def test_points_hold_no_scipy_module_and_import_none(h2_big_fcidump):
    # numpy is the one runtime dependency (the xyz point builds its integrals with
    # the package's own erf), and every module a point reads comes with the package
    assert modules_loaded_by_points(h2_big_fcidump) == ([], [])


class TestConfigParsing:
    def test_base_roundtrip(self):
        config = pq.parse_config(BASE_CONFIG)
        assert config.integral_source == "builtin-sto3g"
        assert config.n_qubits == 4
        assert config.ansatz == "upccgsd"
        assert config.scan == ()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            pq.parse_config("[space]\nnq = 4\nbudget = 4\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            pq.parse_config("[quantum]\nnq = 4\n")

    def test_odd_budget_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            h2_config(n_qubits=5)

    def test_scan_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            h2_config(scan=(1.0, 0.5))

    def test_exactly_one_integral_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            cfg = pq.parse_config(BASE_CONFIG)
            cfg.integral_source = "fcidump"
            cfg.fcidump = "x.fcidump"
            cfg.validate()

    def test_scan_requires_placeholder(self):
        with pytest.raises(ConfigError, match="placeholder"):
            h2_config(scan=(0.5, 0.7))

    def test_xyz_file_source(self, tmp_path):
        geom = tmp_path / "h2.xyz"
        geom.write_text("2\n\nH 0 0 0\nH 0 0 0.7408481486\n")
        config = h2_config()
        config.xyz = None
        config.xyz_file = str(geom)
        record = pq.run_point(config.validate())
        assert abs(record["error_vs_fci"]) < 1e-8

    def test_metadata_echoed(self):
        config = pq.parse_config(
            BASE_CONFIG + "\n[metadata]\norbital_solver_threshold = 1e-4\n"
        )
        assert config.metadata == {"orbital_solver_threshold": "1e-4"}

    def test_hash_stable(self):
        assert h2_config().hash() == h2_config().hash()
        assert h2_config().hash() != h2_config(n_qubits=6).hash()


@pytest.mark.parametrize("key, value", [
    ("layers", 0),
    ("layers", 2),  # a PNO circuit has one layer
    ("restarts", -1),
    ("max_iter", -1),
    ("grad_tol", 0.0),
    ("grad_tol", -1e-6),
    ("grad_tol", float("nan")),
    ("grad_tol", float("inf")),
])
def test_bad_optimizer_and_ansatz_settings_are_refused(key, value):
    with pytest.raises(ConfigError, match=key):
        h2_config(ansatz="pno-upccd", **{key: value})


def test_bad_settings_from_a_config_file_are_refused():
    text = BASE_CONFIG.replace("variant = upccgsd", "variant = upccgsd\nlayers = 0")
    with pytest.raises(ConfigError, match="layers"):
        pq.parse_config(text)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-4"])
def test_an_occupation_threshold_that_is_not_finite_and_nonnegative_is_refused(tmp_path, value):
    # a NaN or infinite cutoff would drop every PNO and run the point on HF alone
    path = tmp_path / "threshold.cfg"
    path.write_text(BASE_CONFIG.replace("nq = 4", f"nq = 4\noccupation_threshold = {value}"))
    with pytest.raises(ConfigError, match="occupation_threshold"):
        pq.load_config(path)


def test_the_retired_gradient_method_key_is_refused(tmp_path):
    path = tmp_path / "gradient.cfg"
    path.write_text(BASE_CONFIG + "\n[optimizer]\ngradient_method = adjoint\n")
    with pytest.raises(ConfigError, match=re.escape(
            "unknown key 'gradient_method' in section [optimizer]")):
        pq.load_config(path)


def test_edge_settings_still_validate():
    config = h2_config(layers=1, restarts=0, max_iter=0, grad_tol=1e-12, occupation_threshold=0.0)
    assert config.max_iter == 0


def test_scan_values_sharing_an_artifact_tag_are_refused():
    with pytest.raises(ConfigError, match="r1.400000"):
        h2_config(xyz=H2_INLINE, scan=(0.7, 1.4, 1.4 + 4e-7))
    assert h2_config(xyz=H2_INLINE, scan=(1.4, 1.4 + 6e-7)).scan == (1.4, 1.4 + 6e-7)


def test_readme_schema_block_parses_to_its_documented_values():
    block = re.search(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    config = pq.parse_config(block)
    assert config.n_qubits == 4
    assert config.freeze == (0,)
    assert config.scan == (0.5, 0.7, 0.9)
    assert config.metadata == {"orbital_solver_threshold": "1e-4"}


def test_comments_and_continuation_lines():
    config = pq.parse_config(
        BASE_CONFIG.replace("nq = 4", "nq = 6  # budget\n# nq = 8")
        + "\n[metadata]\nnote = first#not a comment\n  second\n"
    )
    assert config.n_qubits == 6
    assert config.metadata == {"note": "first#not a comment\nsecond"}


@pytest.mark.parametrize("section, key, value", [
    ("space", "nq", "four"),
    ("space", "diagonal_only", "maybe"),
    ("space", "freeze", "0 x"),
    ("scan", "values", "0.5 0.7.1"),
    ("optimizer", "grad_tol", "tiny"),
    ("molecule", "charge", "1.5"),
])
def test_a_bad_value_names_its_section_and_key(section, key, value):
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}:")):
        pq.parse_config(f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("text, line, what", [
    ("[space]\nnq = 4\nnq = 6\n", 3, "option 'nq'"),
    ("[space]\nnq = 4\n\n[ansatz]\nlayers = 1\n[space]\nfreeze = 0\n", 6, "section 'space'"),
])
def test_a_repeated_key_or_section_is_refused_with_its_line(text, line, what):
    with pytest.raises(ConfigError, match=rf"line +{line}\]: {what}"):
        pq.parse_config(text)


@pytest.mark.parametrize("freeze", [(-1,), (0, 0), (1, 0, 1)])
def test_negative_or_repeated_freeze_indices_are_refused(freeze):
    with pytest.raises(ConfigError, match="freeze"):
        h2_config(freeze=freeze)
    with pytest.raises(ConfigError, match="freeze"):
        pq.parse_config(BASE_CONFIG.replace("nq = 4", "nq = 4\nfreeze = " + " ".join(map(str, freeze))))


def test_import_leaves_configparser_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p))
    code = "import sys, pnovqe; sys.exit('configparser' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestMetrics:
    def test_npe_constant_errors(self):
        assert pq.npe([0.1, 0.1, 0.1]) == 0.0

    def test_npe_and_max(self):
        assert pq.npe([1.0, 3.0, 2.0]) == 2.0
        assert pq.max_error([1.0, 3.0, 2.0]) == 3.0
        assert pq.max_error([-4.0, 1.0]) == 4.0

    def test_npe_translation_invariance(self):
        errors = [0.3, -0.7, 1.9, 0.05]
        shifted = [e + 12.345 for e in errors]
        assert pq.npe(shifted) == pq.npe(errors)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pq.npe([])
        with pytest.raises(ValueError):
            pq.max_error([])

    def test_barrier(self):
        assert pq.barrier(-56.0, -56.01) == pytest.approx(0.01)
        assert pq.barrier(1.5, 1.5) == 0.0
        assert pq.barrier_kcal(1.0, 0.0) == pytest.approx(627.5094740631)

    def test_barrier_guards(self):
        with pytest.raises(ValueError):
            pq.barrier(float("inf"), 0.0)

    def test_barrier_direction_from_fcidump_pair(self, tmp_path):
        # two ingested structures at a fixed qubit budget: the distorted one
        # sits above the equilibrium one, so the barrier comes out positive
        energies = {}
        for tag, r in (("eq", 1.4), ("ts", 2.6)):
            path = tmp_path / f"h2_{tag}.fcidump"
            pq.write_fcidump(h2_big_integrals(r), path)
            config = pq.RunConfig(
                integral_source="fcidump", fcidump=str(path), n_qubits=4,
            ).validate()
            energies[tag] = pq.run_point(config)["e_vqe"]
        assert pq.barrier(energies["ts"], energies["eq"]) > 0.0


class TestRunPoint:
    def test_h2_vqe_matches_fci(self):
        record = pq.run_point(h2_config())
        assert abs(record["error_vs_fci"]) < 1e-8
        assert record["n_parameters"] == 3
        assert record["selection_signature"] == ["0.0#0"]

    def test_minimal_budget_returns_hf(self):
        record = pq.run_point(h2_config(n_qubits=2, ansatz="pno-upccd"))
        assert record["e_vqe"] == pytest.approx(record["e_hf"], abs=1e-10)
        assert record["n_parameters"] == 0

    def test_point_past_physical_memory_is_refused_before_the_vqe(self, monkeypatch):
        # H2/STO-3G: 2 orbitals, pairs 3, dim 4, 2 * 2 one-spin moves per determinant:
        # 24 * 16 + 2 * 3 * 4 * 8 + 2 * 24 * 4 * 8 = 2112 B above the base
        ran = []
        monkeypatch.setattr(pq.exact, "_physical_bytes", lambda: (100 << 20) + 2111)
        monkeypatch.setattr(workbench, "run_vqe", lambda *args, **kwargs: ran.append(args))
        with pytest.raises(ValueError, match=r"^the exact solve of 1 \+ 1 electrons in 2 orbitals needs "
                                             r"about 104859712 bytes, past the 104859711 bytes of "
                                             r"physical memory$"):
            pq.run_point(h2_config())
        assert ran == []
        monkeypatch.setattr(pq.exact, "_physical_bytes", lambda: (100 << 20) + 2112)
        pq.exact._check_solvable(2, (1, 1))   # the estimate fits exactly

    def test_sector_past_physical_memory_is_refused_before_it_is_enumerated(self, monkeypatch):
        # 30 orbitals, 15 + 15 electrons: C(30, 15)^2 = 2.4e16 states, which no machine holds
        enumerated = []
        grid = pq.exact._grid
        monkeypatch.setattr(pq.exact, "_grid", lambda *args: enumerated.append(args) or grid(*args))
        pq.exact._sector_basis.cache_clear()   # so that a sector admitted too late shows as a _grid call
        hamiltonian = pq.IntegralHamiltonian(pq.IntegralSet(
            n_orb=30, h=np.zeros((30, 30)), eri=np.zeros((30,) * 4), core_energy=0.0, n_electrons=30))
        with pytest.raises(ValueError, match="the exact solve of 15 \\+ 15 electrons in 30 orbitals "
                                             "needs about [0-9]+ bytes, past the [0-9]+ bytes"):
            workbench.fci_energy(hamiltonian)
        assert enumerated == []
        # and with a tiny machine, the 4-orbital sector a real run takes
        monkeypatch.setattr(pq.exact, "_physical_bytes", lambda: 1 << 20)
        with pytest.raises(ValueError, match="past the 1048576 bytes of physical memory"):
            workbench.fci_energy(pq.IntegralHamiltonian(random_integral_set(4, 2, 0)))
        assert enumerated == []

    def test_physical_memory_is_read_from_the_machine(self):
        ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        try:
            limit = Path(pq.exact._CGROUP_MEMORY_MAX).read_text().strip()
        except OSError:
            limit = "max"
        assert pq.exact._physical_bytes() == (min(ram, int(limit)) if limit.isdecimal() else ram)

    def test_a_cgroup_limit_below_the_ram_is_the_physical_memory(self, monkeypatch, tmp_path):
        ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        limit = tmp_path / "memory.max"
        monkeypatch.setattr(pq.exact, "_CGROUP_MEMORY_MAX", str(limit))
        assert pq.exact._physical_bytes() == ram   # a missing file
        for text, expected in (("max\n", ram), (f"{2 * ram}\n", ram), ("12 34\n", ram), ("", ram),
                               ("1048576\n", 1 << 20)):
            limit.write_text(text)
            assert pq.exact._physical_bytes() == expected
        with pytest.raises(ValueError, match="past the 1048576 bytes of physical memory$"):
            pq.run_point(h2_config())
        limit.write_bytes(b"\xff\n")
        assert pq.exact._physical_bytes() == ram
        limit.unlink()
        limit.mkdir()   # unreadable as a file
        assert pq.exact._physical_bytes() == ram

    def test_fcidump_source_with_freeze(self, tmp_path, lih_like):
        path = tmp_path / "lih.fcidump"
        pq.write_fcidump(lih_like["mo"], path)
        config = pq.RunConfig(
            integral_source="fcidump", fcidump=str(path), n_qubits=6,
            ansatz="pno-upccd", freeze=(0,), diagonal_only=True,
        ).validate()
        record = pq.run_point(config)
        assert record["n_electrons"] == 2

    def test_artifacts_written(self, tmp_path):
        config = h2_config(output_dir=str(tmp_path / "artifacts"))
        pq.run_point(config)
        out = tmp_path / "artifacts"
        assert (out / "point.fcidump").exists()
        assert (out / "point.resources.json").exists()
        assert (out / "point.trajectory.csv").exists()
        assert (out / "point.hamiltonian.txt").read_text() == reference_pauli_text(config)


class TestRegisterFromKeptOrbitals:
    """A point's register is 2 qubits per kept orbital, not the budget."""

    THRESHOLD_CONFIG = """
[integrals]
source = fcidump
fcidump = {path}

[space]
nq = 16
occupation_threshold = 1e-4

[ansatz]
variant = pno-upccgd
"""

    def _write_config(self, tmp_path, fcidump):
        path = tmp_path / "threshold.cfg"
        path.write_text(self.THRESHOLD_CONFIG.format(path=fcidump))
        return str(path)

    def test_run_point_when_the_threshold_drops_pnos(self, h2_big_fcidump):
        # 4 of the 7 PNOs the 16-qubit budget would keep fall below 1e-4
        config = pq.parse_config(self.THRESHOLD_CONFIG.format(path=h2_big_fcidump))
        record = pq.run_point(config)
        assert record["n_qubits"] == 8 and len(record["selection_signature"]) == 3
        assert record["e_fci"] - 1e-9 <= record["e_vqe"] <= record["e_hf"]

    def test_cli_commands_when_the_threshold_drops_pnos(self, tmp_path, capsys, h2_big_fcidump):
        cfg = self._write_config(tmp_path, h2_big_fcidump)
        record = pq.run_point(pq.load_config(cfg))
        assert cli.main(["fci", "--config", cfg]) == 0
        assert f"E(FCI) = {record['e_fci']:.10f} hartree (8 qubits)" in capsys.readouterr().out
        assert cli.main(["vqe", "--config", cfg]) == 0
        assert f"E(VQE) = {record['e_vqe']:.10f}" in capsys.readouterr().out
        out = tmp_path / "h"
        assert cli.main(["hamiltonian", "--config", cfg, "--out", str(out)]) == 0
        assert "n_qubits = 8" in capsys.readouterr().out
        text = (out / "hamiltonian.txt").read_text()
        assert max(int(label[1:]) for label in re.findall(r"[XYZ]\d+", text)) == 7
        assert text == reference_pauli_text(pq.load_config(cfg))
        assert cli.main(["counts", "--config", cfg]) == 0
        assert "system(2,8)" in capsys.readouterr().out

    def test_fci_command_builds_no_ansatz(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIG)
        record = pq.run_point(pq.load_config(cfg))

        def refuse(*args):
            raise AssertionError("pnovqe fci built an ansatz")

        monkeypatch.setattr(workbench, "build_ansatz_for", refuse)
        monkeypatch.setattr(cli, "build_ansatz_for", refuse, raising=False)
        assert cli.main(["fci", "--config", str(cfg)]) == 0
        assert f"E(FCI) = {record['e_fci']:.10f} hartree (4 qubits)" in capsys.readouterr().out


class TestRunCurve:
    def test_single_point_scan_matches_run_point(self):
        config = h2_config(xyz=H2_INLINE, scan=(0.7408481486,))
        curve = pq.run_curve(config)
        assert len(curve.points) == 1
        point = pq.run_point(h2_config(), None)
        assert curve.points[0]["e_vqe"] == pytest.approx(point["e_vqe"], abs=1e-9)

    def test_h2_curve_shape_and_exactness(self):
        scan = tuple(np.round(np.linspace(0.5, 2.3, 10), 6))
        config = h2_config(xyz=H2_INLINE, scan=scan)
        curve = pq.run_curve(config)
        assert curve.failures == 0
        energies = [p["e_vqe"] for p in curve.points]
        coords = [p["coordinate"] for p in curve.points]
        k = int(np.argmin(energies))
        assert 0.6 <= coords[k] <= 0.9
        assert all(b < a for a, b in zip(energies[: k + 1], energies[1 : k + 1]))
        assert all(b > a for a, b in zip(energies[k:], energies[k + 1 :]))
        for p in curve.points:
            assert abs(p["error_vs_fci"]) <= 1e-7
            assert p["e_vqe"] >= p["e_fci"] - 1e-9

    def test_parallel_workers_match_serial(self):
        scan = (0.6, 0.8, 1.1)
        serial = pq.run_curve(h2_config(xyz=H2_INLINE, scan=scan, workers=1))
        parallel = pq.run_curve(h2_config(xyz=H2_INLINE, scan=scan, workers=2))
        assert [p["coordinate"] for p in parallel.points] == list(scan)
        assert json.dumps(serial.points) == json.dumps(parallel.points)

    def test_dead_worker_costs_only_its_point(self, tmp_path, monkeypatch):
        # a worker that exits breaks the process pool; the curve must still
        # return, and write, every other point
        scan = (0.6, 0.8, 1.1)
        run_point = workbench.run_point

        def exit_at_0_8(config, coordinate):
            if coordinate == 0.8:
                os._exit(3)
            return run_point(config, coordinate)

        # forked workers see the patched run_point whatever the default start method
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
            concurrent.futures.ProcessPoolExecutor, mp_context=fork))
        monkeypatch.setattr(workbench, "run_point", exit_at_0_8)
        out = tmp_path / "out"
        curve = pq.run_curve(h2_config(xyz=H2_INLINE, scan=scan, workers=2, output_dir=str(out)))
        assert curve.failures == 1
        assert [p["coordinate"] for p in curve.points] == list(scan)
        assert curve.points[1]["error"].startswith("BrokenProcessPool")
        serial = pq.run_curve(h2_config(xyz=H2_INLINE, scan=(0.6, 1.1), workers=1))
        assert json.dumps([curve.points[0], curve.points[2]]) == json.dumps(serial.points)
        written = json.loads((out / "run.json").read_text())["points"]
        assert written == json.loads(json.dumps(curve.points))
        rows = (out / "curve.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.6, 1.1]

    def test_per_point_failure_recorded(self):
        # R = 0 collapses the nuclei; the curve must continue past it
        config = h2_config(xyz=H2_INLINE, scan=(0.0, 0.74))
        curve = pq.run_curve(config)
        assert curve.failures == 1
        assert "error" in curve.points[0]
        assert "e_vqe" in curve.points[1]

    def test_points_past_physical_memory_are_recorded_without_a_vqe(self, monkeypatch):
        ran = []
        monkeypatch.setattr(pq.exact, "_physical_bytes", lambda: 1 << 20)
        monkeypatch.setattr(workbench, "run_vqe", lambda *args, **kwargs: ran.append(args))
        curve = pq.run_curve(h2_config(xyz=H2_INLINE, scan=(0.7, 0.74)))
        assert curve.failures == 2 and ran == []
        assert all("past the 1048576 bytes of physical memory" in point["error"]
                   for point in curve.points)

    def test_fcidump_path_template_scan(self, tmp_path):
        grid = (1.2, 1.6)
        for r in grid:
            pq.write_fcidump(h2_big_integrals(r), tmp_path / f"h2_{r!r}.fcidump")
        config = pq.RunConfig(
            integral_source="fcidump",
            fcidump=str(tmp_path / "h2_{R}.fcidump"),
            n_qubits=4,
            scan=grid,
        ).validate()
        curve = pq.run_curve(config)
        assert curve.failures == 0
        assert curve.points[0]["e_vqe"] != curve.points[1]["e_vqe"]

    def test_npe_ordering_against_bigger_basis(self, tmp_path):
        # desk-scale compactness: at fixed 4 qubits, per-point PNO selection
        # from a 10-orbital basis tracks the big-basis FCI better than the
        # minimal basis does
        grid = (1.1, 1.4, 1.8, 2.3)  # bohr
        references, dumps = {}, {}
        for r in grid:
            big = h2_big_integrals(r)
            references[r] = fci_ground_energy(big)
            path = tmp_path / f"h2_{r}.fcidump"
            pq.write_fcidump(big, path)
            dumps[r] = path

        pno_errors, sto3g_errors = [], []
        for r in grid:
            config = pq.RunConfig(
                integral_source="fcidump", fcidump=str(dumps[r]), n_qubits=4,
            ).validate()
            record = pq.run_point(config)
            pno_errors.append(record["e_vqe"] - references[r])

            angstrom = r / pq.ANGSTROM_TO_BOHR
            sto_config = h2_config(xyz=f"H 0 0 0; H 0 0 {angstrom:.10f}")
            record = pq.run_point(sto_config)
            sto3g_errors.append(record["e_vqe"] - references[r])
        assert pq.npe(pno_errors) < pq.npe(sto3g_errors)
        assert pq.max_error(pno_errors) < pq.max_error(sto3g_errors)


class TestPersistence:
    def test_outputs_and_determinism(self, tmp_path):
        scan = (0.6, 0.74, 1.0)
        out = tmp_path / "run"
        config = h2_config(
            xyz=H2_INLINE, scan=scan, output_dir=str(out), workers=1
        )
        runs = []
        for _ in range(2):
            pq.run_curve(config)
            runs.append(
                (
                    (out / "run.json").read_bytes(),
                    (out / "curve.csv").read_bytes(),
                )
            )
        assert runs[0][0] != b"" and runs[0][1] != b""
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_json_structure(self, tmp_path):
        out = tmp_path / "run"
        config = h2_config(xyz=H2_INLINE, scan=(0.74,), output_dir=str(out))
        pq.run_curve(config)
        doc = json.loads((out / "run.json").read_text())
        assert set(doc) == {"config", "metadata", "points"}
        assert doc["metadata"]["config_hash"] == config.hash()
        assert "timestamp" not in json.dumps(doc)

    def test_reference_columns_in_csv(self, tmp_path):
        ref = tmp_path / "ref.dat"
        ref.write_text("0.74 -1.15\n")
        out = tmp_path / "run"
        config = h2_config(
            xyz=H2_INLINE, scan=(0.74,), output_dir=str(out),
            reference_file=str(ref),
        )
        pq.run_curve(config)
        header = (out / "curve.csv").read_text().splitlines()[0]
        assert header.endswith("e_reference,error_vs_reference")
        table = load_curve_csv(out / "curve.csv", column="error_vs_reference")
        assert abs(table[0.74]) < 0.05

    @pytest.mark.parametrize("scan, missing", [((0.7, 0.9), "0.9"), ((), "None")])
    def test_reference_without_a_coordinate_is_refused_before_any_point(
            self, tmp_path, monkeypatch, scan, missing):
        ref = tmp_path / "ref.dat"
        ref.write_text("0.7 -1.13\n0.8 -1.14\n")
        out = tmp_path / "run"
        geometry = {"xyz": H2_INLINE} if scan else {}
        config = h2_config(scan=scan, output_dir=str(out), reference_file=str(ref), **geometry)
        ran = []
        monkeypatch.setattr(workbench, "run_point", lambda *args: ran.append(args))
        with pytest.raises(ConfigError, match=f"no reference energy for coordinate {missing}"):
            pq.run_curve(config)
        assert ran == [] and not out.exists()

    @pytest.mark.parametrize("source", ["builtin-sto3g", "fcidump"])
    def test_unoccupied_frozen_orbital_is_refused_before_any_point(
            self, tmp_path, monkeypatch, h2_sto3g, source):
        scan = (0.6, 0.74, 1.0)
        if source == "fcidump":
            for r in scan:
                pq.write_fcidump(h2_sto3g["mo"], tmp_path / f"h2_{r!r}.fcidump")
            config = pq.RunConfig(integral_source="fcidump", fcidump=str(tmp_path / "h2_{R}.fcidump"),
                                  n_qubits=4, scan=scan, freeze=(1,)).validate()
        else:
            config = h2_config(xyz=H2_INLINE, scan=scan, freeze=(1,))
        ran = []
        monkeypatch.setattr(workbench, "run_rhf", lambda *args: ran.append(args))
        monkeypatch.setattr(workbench, "read_fcidump", lambda *args: ran.append(args))
        with pytest.raises(ConfigError, match=r"freeze \[1\]: can only freeze the 1 occupied orbitals"):
            pq.run_curve(config)
        assert ran == []

    def test_freeze_check_leaves_occupied_and_unreadable_inputs_to_the_points(self, tmp_path, lih_like):
        path = tmp_path / "lih.fcidump"
        pq.write_fcidump(lih_like["mo"], path)
        config = pq.RunConfig(integral_source="fcidump", fcidump=str(path), n_qubits=6,
                              ansatz="pno-upccd", freeze=(1,), diagonal_only=True).validate()
        assert pq.run_curve(config).failures == 0
        config.fcidump = str(tmp_path / "missing.fcidump")
        curve = pq.run_curve(config)
        assert curve.failures == 1 and "No such file" in curve.points[0]["error"]

    def test_resource_table_matches_count_resources(self):
        config = h2_config()
        table = pq.format_resource_table(resource_rows_for(config))
        report = pq.count_resources(pq.build_upccgsd(2, 2))
        assert f"{report.n_parameters} ({report.n_cnots})" in table


class TestCLI:
    def _write_config(self, tmp_path, extra=""):
        path = tmp_path / "run.cfg"
        path.write_text(BASE_CONFIG + extra)
        return str(path)

    def test_scf_command(self, tmp_path, capsys):
        assert cli.main(["scf", "--config", self._write_config(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "E(SCF)" in out and "-1.1167" in out

    def test_mp2_command(self, tmp_path, capsys):
        assert cli.main(["mp2", "--config", self._write_config(tmp_path)]) == 0
        assert "E(MP2)" in capsys.readouterr().out

    def test_vqe_command_with_override(self, tmp_path, capsys):
        code = cli.main(
            ["vqe", "--config", self._write_config(tmp_path),
             "--ansatz", "pno-upccd", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "E(VQE)" in out
        assert (tmp_path / "out" / "point.json").exists()

    def test_fci_command(self, tmp_path, capsys):
        assert cli.main(["fci", "--config", self._write_config(tmp_path)]) == 0
        assert "-1.1372" in capsys.readouterr().out

    def test_fci_command_on_the_demo_config(self, capsys):
        assert cli.main(["fci", "--config", str(ROOT / "demos" / "h2_sto3g.cfg")]) == 0
        assert "-1.1372" in capsys.readouterr().out

    def test_every_override_flag_replaces_its_entry(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["curve", "--config", self._write_config(tmp_path), "--nq", "2", "--ansatz",
             "pno-upccd", "--freeze", "0", "--seed", "7", "--out", "o", "--workers", "3"]
        )
        config = cli._configure(args)
        assert (config.n_qubits, config.ansatz, config.freeze, config.seed,
                config.output_dir, config.workers) == (2, "pno-upccd", (0,), 7, "o", 3)

    def test_counts_command(self, tmp_path, capsys):
        assert cli.main(["counts", "--config", self._write_config(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 (64)" in out  # UpCCGSD on 2 orbitals

    def test_counts_of_a_layered_upccgsd_config_list_every_variant(self, tmp_path, capsys):
        cfg = tmp_path / "layers.cfg"
        cfg.write_text(LAYERED_CONFIG)
        assert cli.main(["counts", "--config", str(cfg), "--json"]) == 0
        variants = json.loads(capsys.readouterr().out)[0]["variants"]
        assert sorted(variants) == ["PNO-UpCCD", "PNO-UpCCGD", "PNO-UpCCSD", "UpCCGSD(k=2)"]
        assert variants["UpCCGSD(k=2)"]["n_parameters"] == 6

    def test_a_layered_upccgsd_point_runs_every_layer(self):
        record = pq.run_point(pq.parse_config(LAYERED_CONFIG))
        assert record["n_parameters"] == 6  # two layers of 3

    def test_a_pno_override_of_a_layered_config_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "layers.cfg"
        cfg.write_text(LAYERED_CONFIG)
        assert cli.main(["vqe", "--config", str(cfg), "--ansatz", "pno-upccd"]) == 1
        assert "layers applies to upccgsd only" in capsys.readouterr().err

    def test_counts_json_command(self, tmp_path, capsys):
        assert cli.main(
            ["counts", "--config", self._write_config(tmp_path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        variants = payload[0]["variants"]
        assert variants["UpCCGSD"]["n_parameters"] == 3
        assert variants["UpCCGSD"]["n_cnots"] == 64
        assert variants["PNO-UpCCD"]["n_cnots"] == 48

    def test_hamiltonian_command(self, tmp_path, capsys):
        code = cli.main(
            ["hamiltonian", "--config", self._write_config(tmp_path),
             "--out", str(tmp_path / "h")]
        )
        assert code == 0
        assert (tmp_path / "h" / "compact.fcidump").exists()
        assert (tmp_path / "h" / "hamiltonian.txt").exists()

    def test_curve_command_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "curve.cfg"
        cfg.write_text(
            BASE_CONFIG.replace(
                "xyz = H 0 0 0; H 0 0 0.7408481486", f"xyz = {H2_INLINE}"
            )
            + "\n[scan]\nvalues = 0.7 0.8\n"
        )
        assert cli.main(["curve", "--config", str(cfg)]) == 0
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            BASE_CONFIG.replace(
                "xyz = H 0 0 0; H 0 0 0.7408481486", f"xyz = {H2_INLINE}"
            )
            + "\n[scan]\nvalues = 0.0 0.8\n"
        )
        assert cli.main(["curve", "--config", str(bad)]) == 1

    def test_metrics_command(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        curve.write_text(
            "coordinate,e_vqe,e_fci,error_vs_fci\n"
            "0.5,-1.0,-1.0,0.0\n"
            "1.0,-1.1,-1.1,0.0\n"
            "1.5,-1.05,-1.05,0.0\n"
        )
        ref = tmp_path / "ref.dat"
        ref.write_text("0.5 -1.02\n1.0 -1.13\n1.5 -1.06\n")
        code = cli.main(["metrics", str(curve), "--reference", str(ref)])
        assert code == 0
        out = capsys.readouterr().out
        assert "NPE = 0.0200000000" in out
        assert "MAX = 0.0300000000" in out

    def test_metrics_barrier(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        curve.write_text(
            "coordinate,e_vqe\n0.5,-56.01\n1.0,-56.0\n"
        )
        code = cli.main(
            ["metrics", str(curve), "--barrier-at", "1.0", "0.5"]
        )
        assert code == 0
        assert "0.0100000000 hartree" in capsys.readouterr().out

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_metrics_barrier_refuses_a_non_finite_energy(self, tmp_path, capsys, field):
        curve = tmp_path / "curve.csv"
        curve.write_text(f"coordinate,e_vqe\n0.5,-56.01\n1.0,{field}\n")
        code = cli.main(["metrics", str(curve), "--barrier-at", "1.0", "0.5"])
        assert code == 1
        captured = capsys.readouterr()
        assert "barrier" not in captured.out
        assert captured.err == f"error: {curve}, line 3: {field!r} is not a number\n"

    @pytest.mark.parametrize("row, field", [("0.5 nan", "nan"), ("-inf -1.0", "-inf")])
    def test_metrics_refuses_a_non_finite_reference(self, tmp_path, capsys, row, field):
        # a reference row 0.5 nan once loaded, and NPE and MAX printed nan
        curve = tmp_path / "curve.csv"
        curve.write_text("coordinate,e_vqe\n0.5,-1.0\n")
        ref = tmp_path / "ref.dat"
        ref.write_text(f"0.4 -1.01\n{row}\n")
        code = cli.main(["metrics", str(curve), "--reference", str(ref)])
        assert code == 1
        captured = capsys.readouterr()
        assert "NPE" not in captured.out
        assert captured.err == f"error: {ref}, line 2: {field!r} is not a number\n"

    @pytest.mark.parametrize("text, where", [
        ("", "line 1: no column 'e_vqe' in the header"),
        ("coordinate,e_vqe,e_fci\n0.5,-1.0,-1.0\n1.0\n", "line 3: 1 of 3 fields"),
    ], ids=["empty", "short-row"])
    def test_metrics_names_the_file_and_line_of_a_malformed_curve(self, tmp_path, capsys,
                                                                  text, where):
        curve = tmp_path / "curve.csv"
        curve.write_text(text)
        code = cli.main(["metrics", str(curve), "--barrier-at", "1.0", "0.5"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {curve}, {where}\n"

    def test_metrics_names_the_file_and_line_of_a_non_numeric_curve_field(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        curve.write_text("coordinate,e_vqe,e_fci\n0.5,abc,-1.0\n")
        code = cli.main(["metrics", str(curve), "--barrier-at", "1.0", "0.5"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {curve}, line 2: 'abc' is not a number\n"

    @pytest.mark.parametrize("row", ["inf -1.0", "nan -1.0"])
    def test_a_non_finite_coordinate_after_line_1_is_refused(self, tmp_path, row):
        # once skipped as a header, so metrics failed later: no reference energy for coordinate
        ref = tmp_path / "ref.dat"
        ref.write_text(f"0.4 -1.01\n{row}\n")
        field = row.split()[0]
        with pytest.raises(ValueError, match=rf"^{re.escape(str(ref))}, line 2: '{field}' is not a number$"):
            workbench.load_reference(ref)

    def test_a_header_on_line_1_is_skipped(self, tmp_path):
        ref = tmp_path / "ref.dat"
        ref.write_text("R energy\n# bohr hartree\n\n0.4 -1.01\n0.5, -1.02\n")
        assert workbench.load_reference(ref) == {0.4: -1.01, 0.5: -1.02}
        ref.write_text("0.4 -1.01\nR energy\n")
        with pytest.raises(ValueError, match=r"line 2: 'R' is not a number"):
            workbench.load_reference(ref)

    def test_a_one_field_reference_row_names_the_file_and_line(self, tmp_path):
        ref = tmp_path / "ref.dat"
        ref.write_text("0.4 -1.01\n0.5\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(ref))}, line 2: malformed reference row '0.5'$"):
            workbench.load_reference(ref)

    def test_a_curve_row_with_both_fields_bad_is_reported_by_its_coordinate(self, tmp_path):
        curve = tmp_path / "curve.csv"
        curve.write_text("coordinate,e_vqe\n0.5,-1.0\nR,energy\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(curve))}, line 3: 'R' is not a number$"):
            load_curve_csv(curve)

    def test_metrics_names_the_file_and_line_of_a_non_numeric_reference(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        curve.write_text("coordinate,e_vqe\n0.5,-1.0\n")
        ref = tmp_path / "ref.dat"
        ref.write_text("# R  E\n0.4 -1.01\n0.5 abc\n")
        code = cli.main(["metrics", str(curve), "--reference", str(ref)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {ref}, line 3: 'abc' is not a number\n"

    def test_metrics_barrier_needs_both_coordinates(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        curve.write_text("coordinate,e_vqe\n0.5,-56.01\n1.0,-56.0\n")
        code = cli.main(["metrics", str(curve), "--barrier-at", "9.0", "-3.0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "barrier" not in captured.out
        assert "no curve energy for coordinate 9.0" in captured.err

    def test_curve_refuses_zero_workers(self, tmp_path, capsys):
        cfg = tmp_path / "curve.cfg"
        cfg.write_text(
            BASE_CONFIG.replace(
                "xyz = H 0 0 0; H 0 0 0.7408481486", f"xyz = {H2_INLINE}"
            )
            + "\n[scan]\nvalues = 0.7 0.8\n"
        )
        assert cli.main(["curve", "--config", str(cfg), "--workers", "0"]) == 1
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[space]\nnq = 5\n")
        assert cli.main(["vqe", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fci", "vqe"])
    def test_unoccupied_frozen_orbital_is_refused_before_the_scf(self, capsys, monkeypatch, command):
        ran = []
        monkeypatch.setattr(workbench, "run_rhf", lambda *args: ran.append(args))
        config = str(ROOT / "demos" / "h2_sto3g.cfg")
        assert cli.main([command, "--config", config, "--freeze", "1"]) == 1
        assert ran == []
        assert "error: freeze [1]: can only freeze the 1 occupied orbitals" in capsys.readouterr().err

    def test_unoccupied_frozen_orbital_gets_one_message_from_either_source(
            self, tmp_path, capsys, h2_sto3g):
        # an FCIDUMP source once failed inside pno.freeze_core with another message
        dump = tmp_path / "h2.fcidump"
        pq.write_fcidump(h2_sto3g["mo"], dump)
        cfg = tmp_path / "h2-dump.cfg"
        cfg.write_text(f"[integrals]\nsource = fcidump\nfcidump = {dump}\n[space]\nnq = 4\n")
        errors = []
        for config in (str(cfg), str(ROOT / "demos" / "h2_sto3g.cfg")):
            assert cli.main(["vqe", "--config", config, "--freeze", "1"]) == 1
            errors.append(capsys.readouterr().err)
        assert errors == ["error: freeze [1]: can only freeze the 1 occupied orbitals\n"] * 2

    @pytest.mark.parametrize("command", ["fci", "vqe"])
    def test_a_nan_fcidump_integral_is_refused_with_its_line(self, tmp_path, capsys, h2_sto3g, command):
        # a nan (pq|rs) once failed as "<pq|rs> lacks real 8-fold symmetry"
        dump = tmp_path / "h2.fcidump"
        pq.write_fcidump(h2_sto3g["mo"], dump)
        lines = dump.read_text().splitlines()
        lines[4] = " ".join(["nan", *lines[4].split()[1:]])   # the first (pq|rs) line
        dump.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "h2-dump.cfg"
        cfg.write_text(f"[integrals]\nsource = fcidump\nfcidump = {dump}\n[space]\nnq = 4\n")
        assert cli.main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: non-finite value in FCIDUMP line: {lines[4]!r}\n"

    @pytest.mark.parametrize("command", ["scf", "fci"])
    def test_a_charge_past_the_nuclear_charge_is_refused_before_the_scf(self, tmp_path, capsys,
                                                                        monkeypatch, command):
        ran = []
        monkeypatch.setattr(workbench, "run_rhf", lambda *args: ran.append(args))
        cfg = tmp_path / "h2-charged.cfg"
        cfg.write_text((ROOT / "demos" / "h2_sto3g.cfg").read_text().replace("[molecule]", "[molecule]\ncharge = 4"))
        assert cli.main([command, "--config", str(cfg)]) == 1
        assert ran == []
        assert capsys.readouterr().err == "error: charge 4 leaves -2 electrons\n"

    def test_negative_seed_is_refused_before_any_work(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(workbench, "molecular_integrals", lambda *args: ran.append(args))
        config = str(ROOT / "demos" / "h2_sto3g.cfg")
        assert cli.main(["vqe", "--config", config, "--seed", "-1"]) == 1
        assert ran == []
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_freeze_override(self, tmp_path, capsys, lih_like):
        dump = tmp_path / "lih.fcidump"
        pq.write_fcidump(lih_like["mo"], dump)
        cfg = tmp_path / "lih.cfg"
        cfg.write_text(
            f"[integrals]\nsource = fcidump\nfcidump = {dump}\n"
            "[space]\nnq = 6\ndiagonal_only = true\n"
            "[ansatz]\nvariant = pno-upccd\n"
        )
        out = tmp_path / "out"
        code = cli.main(
            ["vqe", "--config", str(cfg), "--freeze", "0", "--out", str(out)]
        )
        assert code == 0
        record = json.loads((out / "point.json").read_text())
        assert record["n_electrons"] == 2
