"""The 22-qubit H6 point: E_FCI and the PNO-UpCCGD E_VQE, within a memory bound.

    PYTHONPATH=src python tests/h6_q22_check.py

Linear H6 at 1.6 bohr spacing, 2 even-tempered s shells per atom (alpha0
0.1, ratio 4.0), SCF, FCIDUMP, then the PNO-UpCCGD point's compact
integrals on 22 qubits: an (N=6, S_z=0) sector of 27 225 determinants. The
script takes the route of ``run_point`` and ``pnovqe fci``: it builds that
sector's matrix from the compact integrals (``IntegralHamiltonian``), solves
it through ``workbench.fci_energy``, where ``exact_ground_energy`` runs the
Davidson solve (``exact._davidson``), then runs the point's 5-parameter VQE
with the config's optimizer settings on the same cached matrix. It reports
the solve's time and matrix-vector products, the certificate's included,
a SHA-256 of the sector's int64 ``states`` with the time to enumerate them,
and a SHA-256 of the sector matrix's CSR ``data``, ``indices`` and
``indptr``, in that order, so that a log shows whether their bits moved. It
exits nonzero unless E_FCI and E_VQE are each within 1e-9 Ha of their
pinned values, the solve takes at most 40 products and the process's peak
RSS stays under 800 MiB. The name keeps it out of the test suite's
collection: it takes about 7 s and 0.3 GiB.
"""

import hashlib
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import pnovqe as pq
from pnovqe import workbench

from conftest import CountingMatrix

E_FCI = -2.9543291800
E_VQE = -2.908391701945759
E_TOL = 1e-9
PEAK_RSS_MIB = 800.0
MAX_MATVECS = 40


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
    # the sector fci_energy solves, enumerated here first; its matrix is cached on the Hamiltonian
    start = time.perf_counter()
    sector = pq.sector_basis(hamiltonian.n_qubits, stage["final"].n_electrons, 0)
    sector_s = time.perf_counter() - start
    start = time.perf_counter()
    matrix = hamiltonian.matrix(sector.states)
    build_s = time.perf_counter() - start
    # the solve reads the cached matrix: count its products there
    counting = hamiltonian._compiled[sector.states.tobytes()] = CountingMatrix(matrix)
    start = time.perf_counter()
    energy = workbench.fci_energy(hamiltonian)
    solve_s = time.perf_counter() - start
    hamiltonian._compiled[sector.states.tobytes()] = matrix
    start = time.perf_counter()
    ansatz = workbench.build_ansatz_for(config, stage)
    vqe = pq.run_vqe(hamiltonian, ansatz, grad_tol=config.grad_tol, max_iter=config.max_iter,
                     restarts=config.restarts, seed=config.seed)
    vqe_s = time.perf_counter() - start
    peak = peak_rss_mib()
    digest = hashlib.sha256()
    for array in (matrix.data, matrix.indices, matrix.indptr):
        digest.update(array)
    print(f"sector states sha256 {hashlib.sha256(sector.states).hexdigest()}, "
          f"enumerated in {1e3 * sector_s:.1f} ms")
    print(f"sector dim {sector.dim}, {matrix.nnz} nonzeros, built in {build_s:.2f} s")
    print(f"sector matrix sha256 {digest.hexdigest()} (CSR data, indices, indptr)")
    print(f"E_FCI {energy!r} Ha in {solve_s:.2f} s ({counting.matvecs} matrix-vector products)")
    print(f"E_VQE {vqe.fun!r} Ha in {vqe_s:.2f} s ({vqe.iterations} iterations), "
          f"peak RSS {peak:.0f} MiB")
    failures = []
    if not abs(energy - E_FCI) < E_TOL:
        failures.append(f"E_FCI {energy!r} is not within {E_TOL} of {E_FCI}")
    if not abs(vqe.fun - E_VQE) < E_TOL:
        failures.append(f"E_VQE {vqe.fun!r} is not within {E_TOL} of {E_VQE}")
    if counting.matvecs > MAX_MATVECS:
        failures.append(f"the E_FCI solve took {counting.matvecs} > {MAX_MATVECS} products")
    if not peak < PEAK_RSS_MIB:
        failures.append(f"peak RSS {peak:.0f} MiB is not under {PEAK_RSS_MIB:.0f} MiB")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
