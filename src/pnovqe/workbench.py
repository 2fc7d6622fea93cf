"""Pipelines from molecule or FCIDUMP to VQE numbers, plus error metrics.

A run proceeds integrals -> SCF -> MP2 pair densities -> budgeted PNO
selection -> compact integrals -> ansatz -> VQE, with an exact energy of the
same sector matrix (built from the compact integrals) attached to every
point; Jordan-Wigner only writes a point's ``hamiltonian.txt``. PNO
selection is redone independently at every scan geometry, so the orbital
set adapts to each point; the per-point selection signature is recorded to
make curve kinks diagnosable.

Serialized outputs (one JSON document per run, one CSV per curve) contain
no wall-clock data, so identical configurations reproduce byte-identical
files when run serially.
"""

from __future__ import annotations

import concurrent.futures
import gc
import hashlib
import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__, exact
from .ansatz import build_pno_ansatz, build_upccgsd, count_resources
from .exact import IntegralHamiltonian, exact_ground_energy, sector_basis
from .integrals import (
    IntegralSet,
    fcidump_header,
    parse_xyz,
    read_fcidump,
    sto3g_shells,
    write_fcidump,
    compute_ao_integrals,
    HARTREE_TO_KCALMOL,
)
from .operators import build_hamiltonian, jordan_wigner
from .optimize import run_vqe
from .pno import (
    build_final_integrals,
    freeze_core,
    mp2_amplitudes,
    orthonormalize,
    pair_densities,
    select_pnos,
)
from .scf import run_rhf, transform_to_mo

ANSATZ_CHOICES = ("upccgsd", "pno-upccd", "pno-upccsd", "pno-upccgd")
_VARIANT_MAP = {
    "pno-upccd": "UpCCD",
    "pno-upccsd": "UpCCSD",
    "pno-upccgd": "UpCCGD",
}
_COORDINATE_TOL = 1e-9   # a reference or curve coordinate matches a point within this


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything one run needs; see the README for the file schema."""

    integral_source: str = "builtin-sto3g"
    xyz: str | None = None            # inline template, atoms split by ";"
    xyz_file: str | None = None
    charge: int = 0
    fcidump: str | None = None        # path template for the fcidump source
    n_qubits: int = 4
    ansatz: str = "upccgsd"
    layers: int = 1
    diagonal_only: bool = False
    freeze: tuple = ()
    occupation_threshold: float | None = None
    grad_tol: float = 1e-6
    max_iter: int = 500
    restarts: int = 0
    scan: tuple = ()
    output_dir: str | None = None
    workers: int = 1
    seed: int = 0
    reference_file: str | None = None
    metadata: dict = field(default_factory=dict)

    def validate(self) -> "RunConfig":
        self.scan = tuple(float(v) for v in self.scan)
        self.freeze = tuple(int(v) for v in self.freeze)
        if any(i < 0 for i in self.freeze) or len(set(self.freeze)) < len(self.freeze):
            raise ConfigError(f"freeze indices must be distinct and >= 0, got {self.freeze}")
        threshold = self.occupation_threshold
        if threshold is not None and not (np.isfinite(threshold) and threshold >= 0):
            # a NaN or infinite cutoff would drop every PNO without an error
            raise ConfigError(f"occupation_threshold must be finite and >= 0, got {threshold!r}")
        self.n_qubits = int(self.n_qubits)
        if self.n_qubits % 2 != 0:
            raise ConfigError("qubit budget must be even")
        if self.integral_source not in ("builtin-sto3g", "fcidump"):
            raise ConfigError(f"unknown integral source {self.integral_source!r}")
        if self.integral_source == "fcidump":
            if not self.fcidump:
                raise ConfigError("fcidump source needs a path")
            if self.xyz or self.xyz_file:
                raise ConfigError("exactly one integral source: remove the geometry")
            if self.charge:
                raise ConfigError(f"charge {self.charge} does not apply to an fcidump source: "
                                  "its NELEC fixes the electron count")
        else:
            if not (self.xyz or self.xyz_file):
                raise ConfigError("builtin source needs xyz or xyz_file")
            if self.xyz and self.xyz_file:
                raise ConfigError("give either inline xyz or xyz_file, not both")
        if self.ansatz not in ANSATZ_CHOICES:
            raise ConfigError(f"unknown ansatz {self.ansatz!r}")
        if self.scan and any(
            b <= a for a, b in zip(self.scan, self.scan[1:])
        ):
            raise ConfigError("scan values must be strictly increasing")
        tags = [_point_tag(v) for v in self.scan]
        for a, b, tag, other in zip(self.scan, self.scan[1:], tags, tags[1:]):
            if tag == other:
                raise ConfigError(f"scan values {a!r} and {b!r} share the artifact tag {tag}")
        if self.scan:
            if self.integral_source == "fcidump" and "{R}" not in self.fcidump:
                raise ConfigError("scan over fcidump source needs {R} in the path")
            if self.xyz and "{R}" not in self.xyz:
                raise ConfigError("scan needs a {R} placeholder in the geometry")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.layers < 1:
            raise ConfigError("layers must be >= 1")
        if self.layers > 1 and self.ansatz != "upccgsd":
            # a PNO circuit has one layer; more would be silently dropped
            raise ConfigError(f"layers applies to upccgsd only, got layers = {self.layers} "
                              f"for {self.ansatz}")
        if self.restarts < 0:
            raise ConfigError("restarts must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.max_iter < 0:
            raise ConfigError("max_iter must be >= 0")
        if not (np.isfinite(self.grad_tol) and self.grad_tol > 0):
            # an infinite tolerance would stop every VQE at its start point
            raise ConfigError(f"grad_tol must be finite and > 0, got {self.grad_tol!r}")
        return self

    def to_dict(self) -> dict:
        data = asdict(self)
        data["freeze"] = list(self.freeze)
        data["scan"] = list(self.scan)
        return data

    def hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()[:16]


def _as_bool(value: str) -> bool:
    if value.lower() in ("true", "yes", "1", "on"):
        return True
    if value.lower() in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def _split(convert):  # converter of a whitespace-separated list to a tuple
    return lambda text: tuple(convert(v) for v in text.split())


# [section] key -> (RunConfig field, converter); [metadata] is free-form
CONFIG_KEYS = {
    "molecule": {"xyz": ("xyz", str), "xyz_file": ("xyz_file", str), "charge": ("charge", int)},
    "integrals": {"source": ("integral_source", str), "fcidump": ("fcidump", str)},
    "space": {"nq": ("n_qubits", int), "diagonal_only": ("diagonal_only", _as_bool),
              "freeze": ("freeze", _split(int)),
              "occupation_threshold": ("occupation_threshold", float)},
    "ansatz": {"variant": ("ansatz", str), "layers": ("layers", int)},
    "optimizer": {"grad_tol": ("grad_tol", float), "max_iter": ("max_iter", int),
                  "restarts": ("restarts", int)},
    "scan": {"values": ("scan", _split(float))},
    "output": {"directory": ("output_dir", str), "workers": ("workers", int), "seed": ("seed", int)},
    "reference": {"file": ("reference_file", str)},
}


def parse_config(text: str) -> RunConfig:
    """Parse the sectioned ``key = value`` format; unknown sections or keys are errors."""
    import configparser  # only config files need it, not ``import pnovqe``

    # "=" only, since xyz holds ";"; "" can name no section, so none is DEFAULT
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",), inline_comment_prefixes=("#",),
        interpolation=None, default_section="", empty_lines_in_values=False,
    )
    parser.optionxform = str
    try:
        parser.read_string(text, source="config")
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    cfg = RunConfig()
    for section in parser.sections():
        if section == "metadata":
            cfg.metadata = dict(parser[section])
            continue
        keys = CONFIG_KEYS.get(section)
        if keys is None:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in parser[section].items():
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, convert = keys[key]
            try:
                setattr(cfg, name, convert(value))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    return cfg.validate()


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# Pipeline stages


def _inline_to_xyz(inline: str) -> str:
    atoms = [a.strip() for a in inline.split(";") if a.strip()]
    return f"{len(atoms)}\ninline geometry\n" + "\n".join(atoms)


def _substitute(template: str, coordinate) -> str:
    if "{R}" in template:
        if coordinate is None:
            raise ConfigError("geometry template has a {R} placeholder but no scan value")
        return template.replace("{R}", repr(float(coordinate)))
    return template


def _molecule(config: RunConfig, coordinate):
    if config.xyz_file:
        text = Path(_substitute(config.xyz_file, coordinate)).read_text()
        text = _substitute(text, coordinate)
    else:
        text = _inline_to_xyz(_substitute(config.xyz, coordinate))
    return parse_xyz(text, charge=config.charge)


def molecular_integrals(config: RunConfig, coordinate=None):
    """Stage 1: produce the canonical MO IntegralSet for one geometry."""
    if config.integral_source == "fcidump":
        mo = read_fcidump(_substitute(config.fcidump, coordinate))
        _refuse_unoccupied(config.freeze, mo.n_electrons // 2)
        return mo, None
    molecule = _molecule(config, coordinate)
    _refuse_unoccupied(config.freeze, molecule.n_electrons // 2)   # before the SCF
    ao = compute_ao_integrals(molecule, sto3g_shells(molecule))
    scf = run_rhf(ao, molecule.n_electrons)
    if not scf.converged:
        raise RuntimeError("SCF did not converge")
    mo = transform_to_mo(ao, scf.mo_coefficients, molecule.n_electrons,
                         orbital_energies=scf.orbital_energies)
    return mo, scf


def reference_energy(mo: IntegralSet) -> float:
    """Closed-shell single-determinant energy of the first n_occ orbitals."""
    occ = np.arange(mo.n_occ)
    return float(mo.core_energy + np.sum(np.diag(mo.h + mo.mean_field(occ))[occ]))


def compact_integrals(config: RunConfig, coordinate=None):
    """Stages 1-4: integrals and MP2/PNO truncation to the compact integrals.

    Returns a dict with the intermediate artifacts needed downstream; its
    "n_qubits" is the point's register, 2 qubits per kept orbital.
    """
    mo, scf = molecular_integrals(config, coordinate)
    if config.freeze:
        mo = freeze_core(mo, list(config.freeze))
    amps = mp2_amplitudes(mo)
    densities = pair_densities(amps)
    pnos = select_pnos(
        densities,
        config.n_qubits,
        diagonal_only=config.diagonal_only,
        occupation_threshold=config.occupation_threshold,
    )
    space = orthonormalize(pnos)
    final = build_final_integrals(mo, space)
    signature = [f"{i}.{j}#{local}" for (i, j), local, _ in pnos.selection]
    return {
        "mo": mo,
        "scf": scf,
        "amplitudes": amps,
        "pnos": pnos,
        "space": space,
        "final": final,
        "n_qubits": 2 * final.n_orb,
        "e_hf": reference_energy(mo),
        "e_mp2": reference_energy(mo) + amps.mp2_total,
        "selection_signature": signature,
    }


def compact_hamiltonian(config: RunConfig, coordinate=None):
    """``compact_integrals`` plus their Jordan-Wigner Hamiltonian under "hamiltonian"."""
    stage = compact_integrals(config, coordinate)
    stage["hamiltonian"] = jordan_wigner(build_hamiltonian(stage["final"]), stage["n_qubits"])
    return stage


def build_ansatz_for(config: RunConfig, stage: dict):
    if config.ansatz == "upccgsd":
        final = stage["final"]
        return build_upccgsd(final.n_orb, final.n_electrons, layers=config.layers)
    return build_pno_ansatz(stage["space"], _VARIANT_MAP[config.ansatz])


def fci_energy(hamiltonian: IntegralHamiltonian) -> float:
    """E_FCI: the ground state of the Hamiltonian's (N, S_z = 0) sector, where the VQE runs.

    ``sector_basis`` refuses a sector whose exact solve would not fit in
    physical memory before it is enumerated.
    """
    sector = sector_basis(hamiltonian.n_qubits, hamiltonian.integrals.n_electrons, 0)
    return exact_ground_energy(hamiltonian, sector)[0]


def run_point(config: RunConfig, coordinate=None) -> dict:
    """Full single-point pipeline; returns a JSON-ready record."""
    config.validate()
    stage = compact_integrals(config, coordinate)
    ansatz = build_ansatz_for(config, stage)
    resources = count_resources(ansatz)
    final = stage["final"]
    hamiltonian = IntegralHamiltonian(final)
    # first, so that a sector past physical memory is refused before the
    # VQE; both read the one kept sector operator
    e_fci = fci_energy(hamiltonian)
    vqe = run_vqe(
        hamiltonian,
        ansatz,
        grad_tol=config.grad_tol,
        max_iter=config.max_iter,
        restarts=config.restarts,
        seed=config.seed,
    )
    if vqe.fun < e_fci - 1e-9:
        raise RuntimeError("variational bound violated: VQE below FCI")
    record = {
        "coordinate": None if coordinate is None else float(coordinate),
        "e_vqe": vqe.fun,
        "e_fci": e_fci,
        "e_hf": stage["e_hf"],
        "e_mp2": stage["e_mp2"],
        "error_vs_fci": vqe.fun - e_fci,
        "n_qubits": stage["n_qubits"],
        "n_electrons": final.n_electrons,
        "ansatz": ansatz.name,
        "n_parameters": resources.n_parameters,
        "n_cnots": resources.n_cnots,
        "selection_signature": stage["selection_signature"],
        "optimizer": {
            "converged": vqe.converged,
            "exit_reason": vqe.exit_reason,
            "iterations": vqe.iterations,
            "grad_norm": vqe.grad_norm,
            "n_function_evals": vqe.n_function_evals,
            "n_gradient_evals": vqe.n_gradient_evals,
        },
    }
    if config.output_dir:
        _write_point_artifacts(config, coordinate, stage, vqe, resources)
    return record


def _point_tag(coordinate) -> str:
    return "point" if coordinate is None else f"r{coordinate:.6f}"


def _write_point_artifacts(config, coordinate, stage, vqe, resources) -> None:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = _point_tag(coordinate)
    write_fcidump(stage["final"], out / f"{tag}.fcidump")
    qubit_h = jordan_wigner(build_hamiltonian(stage["final"]), stage["n_qubits"])
    (out / f"{tag}.hamiltonian.txt").write_text(qubit_h.to_text())
    (out / f"{tag}.resources.json").write_text(
        json.dumps(resources.as_dict(), indent=2, sort_keys=True) + "\n"
    )
    rows = ["iteration,energy,grad_norm"]
    for it, (energy, gnorm) in enumerate(vqe.trajectory):
        rows.append(f"{it},{energy!r},{gnorm!r}")
    (out / f"{tag}.trajectory.csv").write_text("\n".join(rows) + "\n")


def _point_worker(payload):
    config_dict, coordinate = payload
    config = RunConfig(**config_dict)
    try:
        return run_point(config, coordinate)
    except Exception as exc:  # per-point failures keep the curve going
        return {"coordinate": coordinate, "error": f"{type(exc).__name__}: {exc}"}


def _worker_start(workers: int) -> None:
    """A curve worker's start: it admits sectors against 1 / ``workers`` of the memory and freezes its heap."""
    exact._workers = workers
    # a frozen heap keeps the import-time objects out of the worker's full collections
    gc.freeze()


def _pool_map(payloads, workers: int) -> list:
    """``_point_worker`` per payload in a process pool; a point whose worker died gets an error record.

    The min(``workers``, payloads) processes that run at once share the
    memory that their sectors are admitted against.
    """
    from concurrent.futures.process import BrokenProcessPool   # loads multiprocessing

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers, initializer=_worker_start,
                                                initargs=(min(workers, len(payloads)),)) as pool:
        futures = [pool.submit(_point_worker, payload) for payload in payloads]
    points = []
    for future, (_, coordinate) in zip(futures, payloads):
        exc = future.exception()
        if isinstance(exc, BrokenProcessPool):
            points.append({"coordinate": coordinate, "error": f"{type(exc).__name__}: {exc}"})
        else:
            points.append(future.result())
    return points


@dataclass(frozen=True)
class CurveResult:
    points: tuple
    metadata: dict
    failures: int


def run_curve(config: RunConfig) -> CurveResult:
    """Independent run_point per scan value; failures are recorded per point.

    With several workers a worker process that dies costs only the point it
    was running: the points it took down run again, one per fresh process.
    """
    config.validate()
    coordinates = list(config.scan) if config.scan else [None]
    if config.reference_file:   # a missing reference energy is refused before any point runs
        reference = load_reference(config.reference_file)
        for coordinate in coordinates:
            try:
                lookup_coordinate(reference, coordinate)
            except KeyError as exc:
                raise ConfigError(f"{exc.args[0]} in {config.reference_file}") from None
    if config.freeze:   # and so is a frozen orbital that is not occupied
        _check_freeze(config, coordinates[0])
    payloads = [(config.to_dict(), c) for c in coordinates]
    if config.workers > 1 and len(payloads) > 1:
        points = _pool_map(payloads, config.workers)
        # a dead worker breaks the pool and fails every point it had not
        # finished; each of those runs again alone in a fresh pool, so only a
        # point that kills its worker again stays an error
        for k, point in enumerate(points):
            if point.get("error", "").startswith("BrokenProcessPool"):
                points[k] = _pool_map([payloads[k]], 1)[0]
    else:
        points = [_point_worker(p) for p in payloads]
    failures = sum(1 for p in points if "error" in p)
    metadata = {
        "config_hash": config.hash(),
        "ansatz": config.ansatz,
        "n_qubits": config.n_qubits,
        "package_version": __version__,
        "extra": dict(config.metadata),
    }
    result = CurveResult(points=tuple(points), metadata=metadata, failures=failures)
    if config.output_dir:
        write_outputs(config, result)
    return result


def _check_freeze(config: RunConfig, coordinate) -> None:
    """Refuse ``freeze`` indices the input leaves unoccupied; an unreadable input fails its point."""
    try:
        if config.integral_source == "fcidump":
            n_occ = fcidump_header(Path(_substitute(config.fcidump, coordinate)).read_text())[1] // 2
        else:
            n_occ = _molecule(config, coordinate).n_electrons // 2
    except (OSError, ValueError):
        return
    _refuse_unoccupied(config.freeze, n_occ)


def _refuse_unoccupied(freeze: tuple, n_occ: int) -> None:
    if freeze and max(freeze) >= n_occ:
        raise ConfigError(f"freeze {list(freeze)}: can only freeze the {n_occ} occupied orbitals")


def write_outputs(config: RunConfig, result: CurveResult) -> None:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    document = {
        "config": config.to_dict(),
        "metadata": result.metadata,
        "points": list(result.points),
    }
    (out / "run.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    reference = (
        load_reference(config.reference_file) if config.reference_file else None
    )
    header = "coordinate,e_vqe,e_fci,error_vs_fci"
    if reference is not None:
        header += ",e_reference,error_vs_reference"
    rows = [header]
    for p in result.points:
        if "error" in p:
            continue
        coord = p["coordinate"]
        row = f"{coord!r},{p['e_vqe']!r},{p['e_fci']!r},{p['error_vs_fci']!r}"
        if reference is not None:
            ref = lookup_coordinate(reference, coord)
            row += f",{ref!r},{p['e_vqe'] - ref!r}"
        rows.append(row)
    (out / "curve.csv").write_text("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# Error metrics


def npe(errors) -> float:
    """Non-parallelity error: max - min of the pointwise errors."""
    errors = list(errors)
    if not errors:
        raise ValueError("npe of an empty error list")
    return float(max(errors) - min(errors))


def max_error(errors) -> float:
    errors = list(errors)
    if not errors:
        raise ValueError("max_error of an empty error list")
    return float(max(abs(e) for e in errors))


def barrier(e_transition: float, e_equilibrium: float) -> float:
    """Activation energy in hartree (callers may convert to kcal/mol)."""
    if not (np.isfinite(e_transition) and np.isfinite(e_equilibrium)):
        raise ValueError("barrier needs finite energies")
    return float(e_transition - e_equilibrium)


def barrier_kcal(e_transition: float, e_equilibrium: float) -> float:
    return barrier(e_transition, e_equilibrium) * HARTREE_TO_KCALMOL


def _number(path, lineno: int, text: str) -> float:
    """A finite numeric field of line ``lineno`` of ``path``; any other text is a ``ValueError`` naming both."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan   # refused below, with every other non-finite field
    if not np.isfinite(value):
        raise ValueError(f"{path}, line {lineno}: {text!r} is not a number")
    return value


def load_reference(path) -> dict:
    """Read (coordinate, energy) rows from whitespace- or comma-separated text.

    Blank lines and ``#`` comments are skipped, and so is line 1 if it
    starts with a letter (a header); every other row must hold two finite
    numbers (``_number``).
    """
    table: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or (lineno == 1 and line[0].isalpha()):
            continue
        fields = line.replace(",", " ").split()
        if len(fields) < 2:
            raise ValueError(f"{path}, line {lineno}: malformed reference row {raw!r}")
        coordinate = _number(path, lineno, fields[0])   # the coordinate is reported first
        table[coordinate] = _number(path, lineno, fields[1])
    if not table:
        raise ValueError(f"no reference rows found in {path}")
    return table


def lookup_coordinate(table: dict, coordinate, what: str = "reference") -> float:
    """The energy of ``table`` (coordinate -> energy) within ``_COORDINATE_TOL`` of the coordinate."""
    for key, value in table.items():
        if coordinate is not None and abs(key - coordinate) <= _COORDINATE_TOL:
            return value
    raise KeyError(f"no {what} energy for coordinate {coordinate}")


def load_curve_csv(path, column: str = "e_vqe") -> dict:
    """Read one column of a curve CSV keyed by coordinate."""
    lines = Path(path).read_text().splitlines() or [""]   # an empty file has an empty header
    header = lines[0].split(",")
    if column not in header:
        raise ValueError(f"{path}, line 1: no column {column!r} in the header")
    idx = header.index(column)
    table: dict = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) < len(header):
            raise ValueError(f"{path}, line {lineno}: {len(fields)} of {len(header)} fields")
        coordinate = _number(path, lineno, fields[0])
        table[coordinate] = _number(path, lineno, fields[idx])
    return table


def resource_rows_for(config: RunConfig) -> list:
    """(system label, {variant: ResourceReport}) rows for the configured run."""
    stage = compact_integrals(config, config.scan[0] if config.scan else None)
    reports = {}
    for name in ANSATZ_CHOICES:
        probe = RunConfig(**{**config.to_dict(), "ansatz": name})
        ans = build_ansatz_for(probe, stage)
        reports[ans.name] = count_resources(ans)
    return [(f"system({stage['final'].n_electrons},{stage['n_qubits']})", reports)]
