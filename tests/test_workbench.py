"""Run configuration, pipelines, error metrics, persistence, and the CLI."""

import concurrent.futures
import functools
import json
import multiprocessing
import os

import numpy as np
import pytest

import pnovqe as pq
from pnovqe import cli, workbench
from pnovqe.workbench import (
    ConfigError,
    load_curve_csv,
    resource_table_for,
)

from ci_oracle import fci_ground_energy
from conftest import h2_big_integrals

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


def h2_config(**overrides) -> pq.RunConfig:
    config = pq.parse_config(BASE_CONFIG)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config.validate()


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
        assert (out / "point.hamiltonian.txt").exists()
        assert (out / "point.resources.json").exists()
        assert (out / "point.trajectory.csv").exists()
        text = (out / "point.hamiltonian.txt").read_text()
        back = pq.QubitOperator.from_text(text, 4)
        assert back.n_terms > 0


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

    def test_resource_table_matches_count_resources(self):
        config = h2_config()
        table = resource_table_for(config, label="H2(2,4)")
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

    def test_counts_command(self, tmp_path, capsys):
        assert cli.main(["counts", "--config", self._write_config(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 (64)" in out  # UpCCGSD on 2 orbitals

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

    def test_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[space]\nnq = 5\n")
        assert cli.main(["vqe", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

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
