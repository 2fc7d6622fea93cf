"""Tests of the benchmark's own logic: spans, the correctness gate, the memory check.

    python3 -m pytest bench -q
"""

import json
import math
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

import run
import tracing
from pnovqe.operators import QubitOperator
from workloads import WORKLOADS, memory_estimate, point_problems

BENCH = Path(__file__).resolve().parent


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent, point=0)


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        _span("workbench.run_point", 0.0, 10.0),
        _span("optimize.run_vqe", 1.0, 4.0, parent=0),
        _span("simulator.energy", 2.0, 3.0, parent=1),
        _span("exact.exact_ground_energy", 5.0, 7.0, parent=0),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    layers = tracing.layer_self_times(spans)
    assert (layers["workbench"], layers["optimize"], layers["simulator"], layers["exact"]) == (
        5.0, 2.0, 1.0, 2.0)
    assert sum(layers.values()) == spans[0].duration


def test_overlapping_children_are_covered_once():
    spans = [
        _span("workbench.run_curve", 0.0, 10.0),
        _span("workbench.run_point", 1.0, 6.0, parent=0),
        _span("workbench.run_point", 4.0, 8.0, parent=0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_wrappers_record_spans_restore_and_report_missing_names():
    tracer = tracing.Tracer()
    original = math.sqrt
    restore, missing = tracing.install(tracer, (
        ("math", "sqrt", "workbench.sqrt", lambda r: {"value": r}),
        ("math", "no_such_function", "workbench.none", None),
    ))
    try:
        assert math.sqrt(4.0) == 2.0
    finally:
        restore()
    assert math.sqrt is original
    assert missing == ["math.no_such_function"]
    assert [(s.name, s.counts) for s in tracer.spans] == [("workbench.sqrt", {"value": 2.0})]


def test_every_wrapped_name_exists_in_the_package():
    restore, missing = tracing.install(tracing.Tracer())
    restore()
    assert missing == []


def _h2_record(pinned, **changes):
    record = {"coordinate": None, "e_fci": pinned["e_fci"], "e_vqe": pinned["e_vqe"],
              "e_hf": pinned["e_vqe"] + 0.01}
    record.update(changes)
    return record


def test_pinned_energy_mismatch_counts_as_a_failed_point():
    pinned = json.loads((BENCH / "pinned.json").read_text())["h2-s10-q16-point"]
    workload = WORKLOADS["h2-s10-q16-point"]
    good = _h2_record(pinned[0])
    off = _h2_record(pinned[0], e_vqe=pinned[0]["e_vqe"] + 2e-6)
    assert run.check_points(workload, [good], pinned, None) == [[]]
    problems = run.check_points(workload, [off], pinned, None)
    assert run.count_failed(problems, workload.canonical) == 1


def test_bounds_are_checked_without_pins():
    record = {"coordinate": 1.0, "e_fci": -1.0, "e_vqe": -1.1, "e_hf": -0.9}
    assert point_problems(record, None)          # below E_FCI
    record.update(e_vqe=-0.8)
    assert point_problems(record, None)          # above E_HF
    record.update(e_vqe=-0.95)
    assert point_problems(record, None) == []
    assert point_problems({"coordinate": 1.0, "error": "RuntimeError: x"}, None)


def test_memory_estimate_refuses_an_oversized_register_without_allocating():
    op = QubitOperator(30, {(x, 0): 1.0 for x in range(200)})
    tracemalloc.start()
    try:
        estimate = memory_estimate(op, parallel=1, mem_available_mib=8192.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert estimate["n_xmask_groups"] == 200
    assert estimate["compiled_mib_computed"] == 200 * 2**30 * 24 / 2**20
    assert not estimate["fits"]
    assert op._compiled is None
    assert peak < 1 << 20


def test_refused_workload_is_recorded_as_failed_and_never_started(monkeypatch, capsys):
    monkeypatch.setattr(run, "mem_available_mib", lambda: 1.0)

    def must_not_run(*args, **kwargs):
        raise AssertionError("a refused workload was started")

    monkeypatch.setattr(run, "run_operation", must_not_run)
    code = run.main(["--workload", "h2-s10-q16-point", "--seed", "0",
                     "--seconds", "1", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert json.loads(lines[0])["memory_precheck"]["fits"] is False
    result = json.loads(lines[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_seeds_shift_scans_reproducibly_within_bounds():
    for workload in WORKLOADS.values():
        assert workload.coordinates(0) == workload.canonical
        shifted = workload.coordinates(7)
        assert shifted == workload.coordinates(7)
        assert list(shifted) == sorted(shifted)
        for c, s in zip(workload.canonical, shifted):
            assert abs(s - c) <= workload.max_shift + 1e-6


def test_declared_per_layer_metrics_are_the_traced_ones():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == tracing.UNITS
