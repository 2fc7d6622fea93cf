"""The 22-qubit H6 point: E_FCI from the integral-built sector matrix, within a memory bound.

    PYTHONPATH=src python tests/h6_q22_check.py

Linear H6 at 1.6 bohr spacing, 2 even-tempered s shells per atom (alpha0
0.1, ratio 4.0), SCF, FCIDUMP, then the PNO-UpCCGD point's compact
integrals on 22 qubits: an (N=6, S_z=0) sector of 27 225 determinants. The
script takes the route of ``run_point`` and ``pnovqe fci``: it builds that
sector's matrix from the compact integrals (``IntegralHamiltonian``), solves
it through ``workbench.fci_energy``, where ``exact_ground_energy`` runs
ARPACK's Lanczos (``eigsh``), and exits nonzero unless E_FCI is within 1e-9
Ha of the pinned value and the process's peak RSS stays under 800 MiB. The
name keeps it out of the test suite's collection: it takes about 10 s and
0.3 GiB.
"""

import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import pnovqe as pq
from pnovqe import workbench

E_FCI = -2.9543291800
E_TOL = 1e-9
PEAK_RSS_MIB = 800.0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KiB on Linux


def main() -> int:
    atoms = tuple(("H", 1, np.array([0.0, 0.0, 1.6 * k])) for k in range(6))
    molecule = pq.Molecule(atoms=atoms)
    shells = [shell for _, _, pos in atoms for shell in pq.even_tempered_shells(pos, 2, 0.1, 4.0)]
    ao = pq.compute_ao_integrals(molecule, shells)
    scf = pq.run_rhf(ao, molecule.n_electrons)
    if not scf.converged:
        print("SCF did not converge", file=sys.stderr)
        return 1
    mo = pq.transform_to_mo(ao, scf.mo_coefficients, molecule.n_electrons,
                            orbital_energies=scf.orbital_energies)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "h6.fcidump"
        pq.write_fcidump(mo, path)
        config = pq.RunConfig(integral_source="fcidump", fcidump=str(path), n_qubits=22,
                              ansatz="pno-upccgd").validate()
        stage = workbench.compact_integrals(config)
    hamiltonian = pq.IntegralHamiltonian(stage["final"])
    # the sector fci_energy solves; its matrix is cached on the Hamiltonian
    sector = pq.sector_basis(hamiltonian.n_qubits, stage["final"].n_electrons, 0)
    start = time.perf_counter()
    matrix = hamiltonian.matrix(sector.states)
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    energy = workbench.fci_energy(hamiltonian)
    solve_s = time.perf_counter() - start
    peak = peak_rss_mib()
    print(f"sector dim {sector.dim}, {matrix.nnz} nonzeros, built in {build_s:.2f} s")
    print(f"E_FCI {energy!r} Ha in {solve_s:.2f} s, peak RSS {peak:.0f} MiB")
    failures = []
    if not abs(energy - E_FCI) < E_TOL:
        failures.append(f"E_FCI {energy!r} is not within {E_TOL} of {E_FCI}")
    if not peak < PEAK_RSS_MIB:
        failures.append(f"peak RSS {peak:.0f} MiB is not under {PEAK_RSS_MIB:.0f} MiB")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
