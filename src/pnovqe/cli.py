"""Command-line front end: scf, mp2, hamiltonian, counts, vqe, fci, curve, metrics."""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from .ansatz import resource_table_json
from .exact import IntegralHamiltonian
from .integrals import HARTREE_TO_KCALMOL, write_fcidump
from .workbench import (
    ANSATZ_CHOICES,
    CONFIG_KEYS,
    RunConfig,
    compact_hamiltonian,
    compact_integrals,
    fci_energy,
    load_config,
    load_curve_csv,
    load_reference,
    lookup_coordinate,
    max_error,
    molecular_integrals,
    npe,
    resource_rows_for,
    resource_table_for,
    run_curve,
    run_point,
)


def _add_common(parser: argparse.ArgumentParser, scan_tools: bool = False) -> None:
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--nq", type=int, help="override the qubit budget")
    parser.add_argument(
        "--ansatz", choices=ANSATZ_CHOICES, help="override the ansatz variant"
    )
    parser.add_argument(
        "--freeze", type=CONFIG_KEYS["space"]["freeze"][1],
        help="override frozen orbitals, space-separated indices",
    )
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--out", help="override the output directory")
    if scan_tools:
        parser.add_argument("--workers", type=int, help="parallel curve workers")


def _configure(args) -> RunConfig:
    config = load_config(args.config)
    for flag, name in (("nq", "n_qubits"), ("ansatz", "ansatz"), ("freeze", "freeze"),
                       ("seed", "seed"), ("out", "output_dir"), ("workers", "workers")):
        if (value := getattr(args, flag, None)) is not None:
            setattr(config, name, value)
    return config.validate()


def _first_coordinate(config: RunConfig):
    return config.scan[0] if config.scan else None


def cmd_scf(args) -> int:
    config = _configure(args)
    mo, scf = molecular_integrals(config, _first_coordinate(config))
    if scf is None:
        print("fcidump source carries converged orbitals already")
        return 0
    print(f"E(SCF)      = {scf.total_energy:.10f} hartree")
    print(f"iterations  = {scf.iterations}  converged = {scf.converged}")
    print("orbital energies (hartree):")
    for i, e in enumerate(scf.orbital_energies):
        print(f"  {i:3d}  {e: .10f}")
    return 0


def cmd_mp2(args) -> int:
    config = _configure(args)
    stage = compact_integrals(config, _first_coordinate(config))
    amps = stage["amplitudes"]
    print(f"E(HF)       = {stage['e_hf']:.10f} hartree")
    print(f"E(MP2 corr) = {amps.mp2_total:.10f} hartree")
    print(f"E(MP2)      = {stage['e_mp2']:.10f} hartree")
    print("pair energies (hartree):")
    for pair, energy in sorted(amps.pair_energies.items()):
        print(f"  {pair}  {energy: .10f}")
    print("retained PNO occupations:")
    for (i, j), local, occ in stage["pnos"].selection:
        print(f"  pair ({i},{j}) #{local}  {occ:.3e}")
    return 0


def cmd_hamiltonian(args) -> int:
    config = _configure(args)
    stage = compact_hamiltonian(config, _first_coordinate(config))
    out = Path(config.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    write_fcidump(stage["final"], out / "compact.fcidump")
    (out / "hamiltonian.txt").write_text(stage["hamiltonian"].to_text())
    print(f"n_qubits = {stage['n_qubits']}")
    print(f"pauli terms = {stage['hamiltonian'].n_terms}")
    print(f"wrote {out / 'compact.fcidump'} and {out / 'hamiltonian.txt'}")
    return 0


def cmd_counts(args) -> int:
    config = _configure(args)
    if args.json:
        print(resource_table_json(resource_rows_for(config)))
    else:
        print(resource_table_for(config), end="")
    return 0


def cmd_vqe(args) -> int:
    config = _configure(args)
    record = run_point(config, _first_coordinate(config))
    print(f"E(VQE) = {record['e_vqe']:.10f} hartree")
    print(f"E(FCI) = {record['e_fci']:.10f} hartree (same compact basis)")
    print(f"error  = {record['error_vs_fci']:.3e} hartree")
    print(f"params = {record['n_parameters']}  cnots = {record['n_cnots']}")
    if config.output_dir:
        path = Path(config.output_dir) / "point.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


def cmd_fci(args) -> int:
    config = _configure(args)
    stage = compact_integrals(config, _first_coordinate(config))
    energy = fci_energy(IntegralHamiltonian(stage["final"]))
    print(f"E(FCI) = {energy:.10f} hartree ({stage['n_qubits']} qubits)")
    return 0


def cmd_curve(args) -> int:
    config = _configure(args)
    result = run_curve(config)
    for point in result.points:
        if "error" in point:
            print(f"  {point['coordinate']}: FAILED {point['error']}")
        else:
            print(
                f"  {point['coordinate']}: E_vqe = {point['e_vqe']:.10f}"
                f"  E_fci = {point['e_fci']:.10f}"
            )
    if config.output_dir:
        print(f"wrote {Path(config.output_dir) / 'run.json'} and curve.csv")
    return 1 if result.failures else 0


def cmd_metrics(args) -> int:
    model = load_curve_csv(args.curve, column=args.column)
    try:
        if args.reference:
            reference = load_reference(args.reference)
            errors = [energy - lookup_coordinate(reference, coord)
                      for coord, energy in sorted(model.items())]
            print(f"NPE = {npe(errors):.10f} hartree")
            print(f"MAX = {max_error(errors):.10f} hartree")
        if args.barrier_at:
            e1, e2 = (lookup_coordinate(model, x, "curve") for x in args.barrier_at)
            delta = e1 - e2
            print(f"barrier = {delta:.10f} hartree = {delta * HARTREE_TO_KCALMOL:.6f} kcal/mol")
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 1
    if not args.reference and not args.barrier_at:
        print("nothing to compute: give --reference and/or --barrier-at", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnovqe",
        description="Compact PNO qubit Hamiltonians and pair coupled-cluster VQE",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_text in [
        ("scf", cmd_scf, "run the restricted Hartree-Fock stage"),
        ("mp2", cmd_mp2, "MP2 energies and PNO occupations"),
        ("hamiltonian", cmd_hamiltonian, "emit the compact FCIDUMP and Pauli text"),
        ("vqe", cmd_vqe, "single-point VQE with exact-diagonalization check"),
        ("fci", cmd_fci, "exact ground energy of the compact Hamiltonian"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("counts", help="parameter and naive CNOT counts")
    _add_common(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.set_defaults(handler=cmd_counts)

    p = sub.add_parser("curve", help="scan a geometry template")
    _add_common(p, scan_tools=True)
    p.set_defaults(handler=cmd_curve)

    p = sub.add_parser("metrics", help="NPE/MAX/barrier over curve CSV files")
    p.add_argument("curve", help="curve CSV produced by the curve command")
    p.add_argument("--reference", help="file of (coordinate, energy) rows")
    p.add_argument("--column", default="e_vqe", help="CSV column to evaluate")
    p.add_argument(
        "--barrier-at", nargs=2, type=float, metavar=("X_TS", "X_EQ"),
        help="coordinates whose energy difference is the barrier",
    )
    p.set_defaults(handler=cmd_metrics)
    return parser


def main(argv=None) -> int:
    # the imports are done: later full collections skip their objects
    gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
