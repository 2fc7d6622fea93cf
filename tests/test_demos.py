"""Smoke tests: every demo script and the README quick start run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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


def test_readme_quick_start_runs(capsys):
    # the engine takes an IntegralHamiltonian; a QubitOperator is Pauli text only
    text = (ROOT / "README.md").read_text()
    code = text.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    vqe, exact = map(float, capsys.readouterr().out.splitlines()[0].split())
    assert exact - 1e-9 <= vqe <= exact + 1e-6
