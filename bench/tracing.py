"""Spans around calls into the pnovqe layers, recorded from outside the package.

Wrappers are installed on the module attributes each caller actually looks
up (``pnovqe.workbench.run_vqe`` is what ``run_point`` calls, and
``pnovqe.optimize.ansatz_expectation`` is what the optimizer calls), only for
a traced run, and removed afterwards. Spans stay in memory until the
operation ends. A span's layer is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

from workloads import n_xmask_groups

LAYERS = ("integrals", "scf", "pno", "operators", "ansatz", "simulator",
          "optimize", "exact", "workbench")


def _counts_jw(h) -> dict:
    return {"n_terms": h.n_terms, "n_xmask_groups": n_xmask_groups(h), "n_qubits": h.n_qubits}


def _counts_ansatz(a) -> dict:
    return {"n_parameters": a.n_parameters,
            "n_strings": sum(len(g.strings) for g in a.generators)}


def _counts_vqe(r) -> dict:
    return {"iterations": r.iterations, "n_function_evals": r.n_function_evals,
            "n_gradient_evals": r.n_gradient_evals, "converged": int(r.converged)}


# (module, attribute, span name, counts taken from the return value)
TARGETS = (
    ("pnovqe.workbench", "run_curve", "workbench.run_curve", None),
    ("pnovqe.workbench", "run_point", "workbench.run_point", None),
    ("pnovqe.workbench", "write_outputs", "workbench.write_outputs", None),
    ("pnovqe.workbench", "_write_point_artifacts", "workbench.write_point_artifacts", None),
    ("pnovqe.workbench", "read_fcidump", "integrals.read_fcidump", None),
    ("pnovqe.workbench", "compute_ao_integrals", "integrals.compute_ao_integrals",
     lambda ao: {"n_ao": ao.n_ao}),
    ("pnovqe.workbench", "run_rhf", "scf.run_rhf", lambda r: {"iterations": r.iterations}),
    ("pnovqe.workbench", "transform_to_mo", "scf.transform_to_mo", None),
    ("pnovqe.workbench", "mp2_amplitudes", "pno.mp2_amplitudes", None),
    ("pnovqe.workbench", "pair_densities", "pno.pair_densities", None),
    ("pnovqe.workbench", "select_pnos", "pno.select_pnos",
     lambda p: {"n_selected": len(p.selection)}),
    ("pnovqe.workbench", "orthonormalize", "pno.orthonormalize", None),
    ("pnovqe.workbench", "build_final_integrals", "pno.build_final_integrals", None),
    ("pnovqe.workbench", "build_hamiltonian", "operators.build_hamiltonian", None),
    ("pnovqe.workbench", "jordan_wigner", "operators.jordan_wigner", _counts_jw),
    ("pnovqe.workbench", "build_pno_ansatz", "ansatz.build_pno_ansatz", _counts_ansatz),
    ("pnovqe.workbench", "build_upccgsd", "ansatz.build_upccgsd", _counts_ansatz),
    ("pnovqe.workbench", "count_resources", "ansatz.count_resources", None),
    ("pnovqe.workbench", "run_vqe", "optimize.run_vqe", _counts_vqe),
    ("pnovqe.optimize", "ansatz_expectation", "simulator.energy", None),
    ("pnovqe.optimize", "ansatz_gradient", "simulator.gradient", None),
    ("pnovqe.workbench", "sector_basis", "exact.sector_basis", lambda s: {"sector_dim": s.dim}),
    ("pnovqe.workbench", "exact_ground_energy", "exact.exact_ground_energy", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None    # index of the enclosing span, None at the top
    point: int | None     # id of the enclosing run_point span
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; wrappers call ``begin`` and ``end``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._points = 0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        if name == "workbench.run_point":
            point = self._points
            self._points += 1
        else:
            point = None if parent is None else self.spans[parent].point
        self.spans.append(Span(name, time.perf_counter(), None, parent, point))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()


def _wrap(tracer: Tracer, name: str, fn, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if counts is not None:
            tracer.spans[index].counts = counts(result)
        return result
    return wrapper


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every target; returns (restore callable, names that do not exist)."""
    saved, missing = [], []
    for module_name, attr, name, counts in targets:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, _wrap(tracer, name, fn, counts))

    def restore():
        for module, attr, fn in saved:
            setattr(module, attr, fn)

    return restore, missing


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        inner = [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        out.append(span.duration - _covered([iv for iv in inner if iv[1] > iv[0]]))
    return out


def layer_self_times(spans) -> dict:
    totals = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] += own
    return totals


# Per-layer metrics of one traced operation, and their units.
UNITS = {
    "integrals.compute_ao_s": "s", "integrals.read_fcidump_s": "s", "integrals.n_ao": "count",
    "scf.run_rhf_s": "s", "scf.iterations": "count", "scf.transform_to_mo_s": "s",
    "pno.mp2_s": "s", "pno.select_s": "s", "pno.final_integrals_s": "s", "pno.n_selected": "count",
    "operators.build_hamiltonian_s": "s", "operators.jordan_wigner_s": "s",
    "operators.n_terms": "count", "operators.n_xmask_groups": "count",
    "ansatz.build_s": "s", "ansatz.n_parameters": "count", "ansatz.n_strings": "count",
    "simulator.energy_calls": "count", "simulator.energy_ms": "ms",
    "simulator.first_energy_ms": "ms", "simulator.gradient_calls": "count",
    "simulator.gradient_ms": "ms", "simulator.compiled_mib_computed": "MiB",
    "simulator.energy_bytes_computed": "B",
    "optimize.run_vqe_s": "s", "optimize.self_s": "s", "optimize.iterations": "count",
    "optimize.n_function_evals": "count", "optimize.n_gradient_evals": "count",
    "optimize.converged": "share",
    "exact.sector_dim": "count", "exact.sector_basis_s": "s", "exact.ground_s": "s",
    "workbench.run_point_self_s": "s", "workbench.write_outputs_s": "s",
    # filled in by run.py from the run as a whole
    "workbench.pool_speedup": "ratio", "trace.overhead_share": "share",
    "trace.coverage": "share", "trace.missing_wrappers": "count",
    "simulator.infeasible_q20_mib_computed": "MiB",
}


def _median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def operation_metrics(spans) -> dict:
    """Per-layer metrics of the spans of one traced operation.

    Times and counts are totals over the operation's points, sizes are the
    largest seen. A layer the operation never calls reads 0.
    """
    mine = list(zip(spans, self_times(spans)))

    def total(*names):
        return sum(s.duration for s, _ in mine if s.name in names)

    def own_time(name):
        return sum(t for s, t in mine if s.name == name)

    def counted(name, key, combine=sum):
        return combine([s.counts[key] for s, _ in mine if s.name == name] or [0])

    energy_by_point: dict = {}
    for s, _ in mine:
        if s.name == "simulator.energy":
            energy_by_point.setdefault(s.point, []).append(s.duration)
    first = [calls[0] for calls in energy_by_point.values()]
    later = [d for calls in energy_by_point.values() for d in calls[1:]]
    gradients = [s.duration for s, _ in mine if s.name == "simulator.gradient"]
    compiled_bytes = max(
        [s.counts["n_xmask_groups"] * (1 << s.counts["n_qubits"]) * 24
         for s, _ in mine if s.name == "operators.jordan_wigner"] or [0])
    vqe_runs = [s for s, _ in mine if s.name == "optimize.run_vqe"]

    return {
        "integrals.compute_ao_s": total("integrals.compute_ao_integrals"),
        "integrals.read_fcidump_s": total("integrals.read_fcidump"),
        "integrals.n_ao": counted("integrals.compute_ao_integrals", "n_ao", max),
        "scf.run_rhf_s": total("scf.run_rhf"),
        "scf.iterations": counted("scf.run_rhf", "iterations"),
        "scf.transform_to_mo_s": total("scf.transform_to_mo"),
        "pno.mp2_s": total("pno.mp2_amplitudes", "pno.pair_densities"),
        "pno.select_s": total("pno.select_pnos", "pno.orthonormalize"),
        "pno.final_integrals_s": total("pno.build_final_integrals"),
        "pno.n_selected": counted("pno.select_pnos", "n_selected", max),
        "operators.build_hamiltonian_s": total("operators.build_hamiltonian"),
        "operators.jordan_wigner_s": total("operators.jordan_wigner"),
        "operators.n_terms": counted("operators.jordan_wigner", "n_terms", max),
        "operators.n_xmask_groups": counted("operators.jordan_wigner", "n_xmask_groups", max),
        "ansatz.build_s": total("ansatz.build_pno_ansatz", "ansatz.build_upccgsd"),
        "ansatz.n_parameters": max(counted("ansatz.build_pno_ansatz", "n_parameters", max),
                                   counted("ansatz.build_upccgsd", "n_parameters", max)),
        "ansatz.n_strings": max(counted("ansatz.build_pno_ansatz", "n_strings", max),
                                counted("ansatz.build_upccgsd", "n_strings", max)),
        "simulator.energy_calls": len(first) + len(later),
        "simulator.energy_ms": 1e3 * _median(later),
        "simulator.first_energy_ms": 1e3 * _median(first),
        "simulator.gradient_calls": len(gradients),
        "simulator.gradient_ms": 1e3 * _median(gradients),
        "simulator.compiled_mib_computed": compiled_bytes / 2**20,
        "simulator.energy_bytes_computed": compiled_bytes,
        "optimize.run_vqe_s": total("optimize.run_vqe"),
        "optimize.self_s": own_time("optimize.run_vqe"),
        "optimize.iterations": counted("optimize.run_vqe", "iterations"),
        "optimize.n_function_evals": counted("optimize.run_vqe", "n_function_evals"),
        "optimize.n_gradient_evals": counted("optimize.run_vqe", "n_gradient_evals"),
        "optimize.converged": (sum(s.counts["converged"] for s in vqe_runs) / len(vqe_runs)
                               if vqe_runs else 0.0),
        "exact.sector_dim": counted("exact.sector_basis", "sector_dim", max),
        "exact.sector_basis_s": total("exact.sector_basis"),
        "exact.ground_s": total("exact.exact_ground_energy"),
        "workbench.run_point_self_s": own_time("workbench.run_point"),
        "workbench.write_outputs_s": total("workbench.write_outputs",
                                           "workbench.write_point_artifacts"),
    }
