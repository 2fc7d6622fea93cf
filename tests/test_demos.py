"""Smoke tests: every demo script and the README quick start run to completion.

The demos and the console commands on ``demos/h2_sto3g.cfg`` must also print
the lines pinned here, whole: an exit code alone would pass a wrong energy or
count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pnovqe import cli

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIG = str(ROOT / "demos" / "h2_sto3g.cfg")

DEMO_LINES = {
    # the exact solve of the compact integrals
    "qubit_budget.py": ["STO-3G (4 qubits)  FCI = -1.13727594 hartree"],
    # the paired Hamiltonian's VQE energy and the 12-qubit exact solve
    "pair_encoding.py": ["paired encoding       :  6 qubits, E = -7.8935100554 hartree",
                         "exact (12-qubit FCI)  : E = -7.8972419295 hartree"],
    # the 22-qubit row and a pair double's CNOTs
    "resource_counts.py": ["LiH-like (4e,22q)  9 (432)    27 (1152)   165 (6160)",
                           "     D(1->2)  48 CNOTs"],
}


@pytest.mark.parametrize(
    "demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name
)
def test_demo_exits_cleanly(demo, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for line in DEMO_LINES.get(demo.name, []):
        assert line in lines


@pytest.mark.parametrize("command, line", [
    ("fci", "E(FCI) = -1.1372759431 hartree (4 qubits)"),
    # the console script's optimizer and gradient
    ("vqe", "E(VQE) = -1.1372759431 hartree"),
    # the parameter and CNOT counts that the generators' Pauli strings give
    ("counts", "system(2,4)  3 (64)   1 (48)     3 (64)      1 (48)"),
])
def test_demo_config_command_prints(command, line, capsys):
    assert cli.main([command, "--config", DEMO_CONFIG]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_demo_config_pauli_text(tmp_path, capsys):
    # build_hamiltonian -> jordan_wigner -> to_text, the one path that writes Pauli text
    assert cli.main(["hamiltonian", "--config", DEMO_CONFIG, "--out", str(tmp_path)]) == 0
    assert "pauli terms = 15" in capsys.readouterr().out.splitlines()
    assert len((tmp_path / "hamiltonian.txt").read_text().splitlines()) == 15


def test_readme_quick_start_runs(capsys):
    # the engine takes an IntegralHamiltonian; a QubitOperator is Pauli text only
    text = (ROOT / "README.md").read_text()
    code = text.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    vqe, exact = map(float, capsys.readouterr().out.splitlines()[0].split())
    assert exact - 1e-9 <= vqe <= exact + 1e-6
