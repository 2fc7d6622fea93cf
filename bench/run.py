"""Benchmark of the pnovqe pipeline: one workload per run, every point verified.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The run writes the workload's inputs (FCIDUMP
or xyz files made from the seed) under bench/_out/, then runs whole
operations (one run_point, or one run_curve for a scan) until S seconds have
passed, checks every point, and prints one JSON object as the last line of
its output. With --trace 0 the object holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run. See README.md.
"""

import os

# Set before numpy loads, so that this process, the import probes and the
# process-pool workers each use one BLAS/OpenMP thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
SETUP_REPEATS = 3
# A longer operation is killed and fails all of its points; a whole run must
# end within three minutes.
OP_TIMEOUT_S = 150

if not (SRC / "pnovqe" / "__init__.py").is_file():
    sys.exit(f"bench: no pnovqe sources under {SRC}")
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = str(SRC)

import numpy
import scipy
from pnovqe import workbench

import tracing
from workloads import (
    WORKLOADS,
    mem_available_mib,
    memory_estimate,
    output_problems,
    point_problems,
)


@dataclasses.dataclass
class Operation:
    seconds: float
    points: list | None     # returned records, None when the operation failed whole
    problems: list          # per point, the reasons it fails; empty when it passes
    spans: list
    missing: list           # wrapped names that no longer exist


def check_points(workload, points, pinned, out_dir: Path) -> list:
    expected = pinned if pinned is not None else [None] * len(points)
    problems = [point_problems(p, e) for p, e in zip(points, expected)]
    if workload.scan:
        for mine, extra in zip(problems, output_problems(points, out_dir)):
            mine.extend(extra)
    return problems


def run_operation(workload, coordinates, inputs, out_dir: Path, pinned,
                  workers=None, trace=False) -> Operation:
    """One operation, in a fresh interpreter running op.py, checked point by point."""
    request = out_dir.with_name(out_dir.name + ".request.json")
    result_path = out_dir.with_name(out_dir.name + ".result.json")
    request.parent.mkdir(parents=True, exist_ok=True)
    request.write_text(json.dumps({
        "workload": workload.name, "coordinates": list(coordinates), "inputs": str(inputs),
        "output_dir": str(out_dir) if workload.scan else None,
        "workers": workload.workers if workers is None else workers, "trace": trace,
    }))
    start = time.perf_counter()
    try:
        code = subprocess.run([sys.executable, str(BENCH / "op.py"), str(request),
                               str(result_path)], timeout=OP_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    if code != 0 or not result_path.is_file():
        return Operation(time.perf_counter() - start, None,
                         [[f"operation process ended with {code}"] for _ in coordinates], [], [])
    result = json.loads(result_path.read_text())
    spans = [tracing.Span(**s) for s in result["spans"]]
    failed_whole = None
    if "error" in result:
        failed_whole = f"operation raised {result['error']}"
    elif len(result["points"]) != len(coordinates):
        failed_whole = "operation returned another number of points"
    if failed_whole:
        return Operation(result["seconds"], None, [[failed_whole] for _ in coordinates],
                         spans, result["missing"])
    points = result["points"]
    return Operation(result["seconds"], points,
                     check_points(workload, points, pinned, out_dir), spans, result["missing"])


def count_failed(problems, coordinates) -> int:
    for coordinate, mine in zip(coordinates, problems):
        for problem in mine:
            print(f"bench: point {coordinate}: {problem}", file=sys.stderr)
    return sum(1 for mine in problems if mine)


def timed_setup(workload, coordinates, directory: Path) -> float:
    """Write the generated inputs, then import the package in a fresh interpreter."""
    start = time.perf_counter()
    workload.write_inputs(coordinates, directory)
    subprocess.run([sys.executable, "-c", "import pnovqe"], check=True)
    return time.perf_counter() - start


def precheck(workload, coordinates, inputs, available: float) -> dict:
    """Memory estimate from the Jordan-Wigner Hamiltonian of the first point."""
    config = workload.config(coordinates, inputs)
    stage = workbench.compact_hamiltonian(config, coordinates[0] if workload.scan else None)
    parallel = min(workload.workers, len(coordinates))
    return memory_estimate(stage["hamiltonian"], parallel, available)


def infeasible_case(directory: Path, available: float) -> dict:
    """H2 s10 with UpCCGSD on the full 20-qubit register: estimated, never run."""
    h2 = WORKLOADS["h2-s10-q16-point"]
    h2.write_inputs(h2.canonical, directory)
    config = dataclasses.replace(h2.config(h2.canonical, directory),
                                 n_qubits=20, ansatz="upccgsd")
    estimate = memory_estimate(workbench.compact_hamiltonian(config)["hamiltonian"], 1,
                               available)
    status = "feasible (not run)" if estimate["fits"] else "infeasible"
    return {"case": "h2-s10-q20-upccgsd", "status": status, **estimate}


def peak_rss_mib() -> float:
    """Largest peak RSS of this process and of any waited-for descendant.

    Operations run in child processes, and a pooled operation's workers are
    their children; Linux carries a descendant's peak up to its waiter.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024   # ru_maxrss is in KiB on Linux


def untraced_run(workload, coordinates, inputs, pinned, seconds, work, setup):
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(run_operation(workload, coordinates, inputs, work / f"op{len(ops)}", pinned))
    attempted = sum(len(op.problems) for op in ops)
    failed = sum(count_failed(op.problems, coordinates) for op in ops)
    verified = attempted - failed
    times = [op.seconds for op in ops]
    print(json.dumps({"setup_seconds": setup, "operation_seconds": times}))
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "op_s": (statistics.median(times), "s", len(times)),
        "points_per_s": (verified / sum(times), "1/s", verified),
        "peak_rss_mb": (peak_rss_mib(), "MiB", len(ops)),
        "verified_share": (verified / attempted, "share", attempted),
    }
    return attempted, failed, metrics


def traced_run(workload, coordinates, inputs, pinned, seconds, work, available):
    q20 = infeasible_case(work / "q20", available)
    print(json.dumps({"infeasible_record": q20}))
    # Untraced bases: as configured, and serial where the workload uses a pool,
    # since a traced operation runs every point in one process.
    base = run_operation(workload, coordinates, inputs, work / "base", pinned)
    serial = base
    if workload.workers > 1:
        serial = run_operation(workload, coordinates, inputs, work / "serial", pinned,
                               workers=1)
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(run_operation(workload, coordinates, inputs, work / f"traced{len(runs)}",
                                  pinned, workers=1, trace=True))
    missing = sorted({name for op in runs for name in op.missing})
    for name in missing:
        print(f"bench: traced name {name} no longer exists", file=sys.stderr)

    for op in runs:
        if op.points is None or base.points is None:
            continue
        for mine, p, b in zip(op.problems, op.points, base.points):
            if "error" not in p and "error" not in b and (
                    p["e_vqe"], p["e_fci"]) != (b["e_vqe"], b["e_fci"]):
                mine.append("energies differ from the untraced operation")
    checked = [base] + ([serial] if serial is not base else []) + runs
    attempted = sum(len(op.problems) for op in checked)
    failed = sum(count_failed(op.problems, coordinates) for op in checked)

    per_op, shares = [], []
    for op in runs:
        values = tracing.operation_metrics(op.spans)
        layers = tracing.layer_self_times(op.spans)
        point_s = sum(s.duration for s in op.spans if s.name == "workbench.run_point")
        values["workbench.pool_speedup"] = point_s / base.seconds
        values["trace.coverage"] = sum(layers.values()) / op.seconds
        per_op.append(values)
        shares.append({name: t / op.seconds for name, t in layers.items()})
    values = {name: statistics.median(v[name] for v in per_op) for name in per_op[0]}
    for layer in tracing.LAYERS:
        share = statistics.median(s[layer] for s in shares)
        print(f"layer {layer:<10} self share of traced operation {share:8.2%}")
    values.update({
        "trace.overhead_share": statistics.median(op.seconds for op in runs) / serial.seconds - 1,
        "trace.missing_wrappers": len(missing),
        "simulator.infeasible_q20_mib_computed": q20["compiled_mib_computed"],
    })
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"spans-{workload.name}.json").write_text(json.dumps(
        [{"op": k, **dataclasses.asdict(s)} for k, op in enumerate(runs) for s in op.spans]) + "\n")
    metrics = {name: (values[name], unit, len(runs)) for name, unit in tracing.UNITS.items()}
    return attempted, failed, metrics


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pnovqe").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """Commit of a git checkout, read from .git without running git; else None."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args, coordinates) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "coordinates": list(coordinates),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": git_commit(), "source_sha256": source_sha256(),
    }


def emit(attempted: int, failed: int, metrics: dict) -> None:
    """Print every metric with its unit and sample count, then the result line."""
    share = failed / attempted
    print(f"{'failed_share':<40} {share:>16.6g} {'share':<6} n={attempted}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit:<6} n={n}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def run(args, workload, work: Path) -> int:
    coordinates = workload.coordinates(args.seed)
    pinned = None
    if args.seed == 0:
        pinned = json.loads((BENCH / "pinned.json").read_text())[workload.name]
    setup = [timed_setup(workload, coordinates, work / f"inputs{k}")
             for k in range(1 if args.trace else SETUP_REPEATS)]
    inputs = work / "inputs0"
    available = mem_available_mib()
    check = precheck(workload, coordinates, inputs, available)
    print(json.dumps({"provenance": provenance(args, coordinates), "memory_precheck": check}))
    if not check["fits"]:
        print(f"bench: not starting {workload.name}: needs {check['need_mib']:.0f} MiB "
              f"(computed), {available:.0f} MiB available", file=sys.stderr)
        emit(len(coordinates), len(coordinates), {})
        return 1
    if args.trace:
        attempted, failed, metrics = traced_run(workload, coordinates, inputs, pinned,
                                                args.seconds, work, available)
    else:
        attempted, failed, metrics = untraced_run(workload, coordinates, inputs, pinned,
                                                  args.seconds, work, setup)
    emit(attempted, failed, metrics)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pnovqe benchmark (see README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        return run(args, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
