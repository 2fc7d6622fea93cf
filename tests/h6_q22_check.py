"""The 22- and 26-qubit H6 points: exact and PNO-UpCCGD energies, within a memory bound.

    PYTHONPATH=src python tests/h6_q22_check.py

Linear H6 at 1.6 bohr spacing, with 2 and then 3 even-tempered s shells per
atom (alpha0 0.1, ratio 4.0), SCF, FCIDUMP, then the PNO-UpCCGD point's
compact integrals: on 22 qubits an (N=6, S_z=0) sector of 27 225
determinants, on 26 qubits one of 81 796. For each point the script takes
the route of ``run_point`` and ``pnovqe fci``: it sets up the sector's
operator for the compact integrals (``IntegralHamiltonian``, the string
sigma), solves it through ``workbench.fci_energy``, where
``exact_ground_energy`` runs the Davidson solve (``exact._davidson``),
then runs the point's VQE with the config's optimizer settings on the same
kept operator. It reports the time to enumerate the sector, with a SHA-256
of its int64 ``states`` so that a log shows whether their bits moved, the
operator's setup time, the solve's time and matrix-vector products, the
certificate's included, and the VQE's time. It also prints a SHA-256 of
the compact integrals' ``h`` and ``eri`` (chemists' (pq|rs)) bytes, so that
a log shows whether the integral bits moved.

It exits nonzero unless, on 22 qubits, E_FCI and E_VQE are each within
1e-9 Ha of their pinned values and the solve takes at most 40 products;
on 26 qubits, E_FCI <= E_VQE <= E_HF; and the process's peak RSS, over
both points, stays under 800 MiB. The name keeps it out of the test
suite's collection: it takes about 10 s and 0.3 GiB.
"""

import hashlib
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import pnovqe as pq
from pnovqe import exact, workbench

E_FCI = -2.9543291800
E_VQE = -2.908391701945759
E_TOL = 1e-9
PEAK_RSS_MIB = 800.0
MAX_MATVECS = 40


class CountingOperator:
    """A kept sector operator that counts the products a solve takes of it.

    Local, so that the peak RSS the script checks holds no test framework.
    """

    def __init__(self, operator):
        self.operator, self.matvecs = operator, 0

    def diagonal(self) -> np.ndarray:
        return self.operator.diagonal()

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        self.matvecs += 1
        return self.operator @ vector


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KiB on Linux


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array)).hexdigest()


def run_h6_point(shells_per_atom: int, n_qubits: int) -> dict:
    """The compact PNO-UpCCGD point of the H6 chain: its energies, product count and timings."""
    atoms = tuple(("H", 1, np.array([0.0, 0.0, 1.6 * k])) for k in range(6))
    molecule = pq.Molecule(atoms=atoms)
    shells = [shell for _, _, pos in atoms
              for shell in pq.even_tempered_shells(pos, shells_per_atom, 0.1, 4.0)]
    ao = pq.compute_ao_integrals(molecule, shells)
    scf = pq.run_rhf(ao, molecule.n_electrons)
    if not scf.converged:
        raise RuntimeError("SCF did not converge")
    mo = pq.transform_to_mo(ao, scf.mo_coefficients, molecule.n_electrons,
                            orbital_energies=scf.orbital_energies)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "h6.fcidump"
        pq.write_fcidump(mo, path)
        config = pq.RunConfig(integral_source="fcidump", fcidump=str(path), n_qubits=n_qubits,
                              ansatz="pno-upccgd").validate()
        stage = workbench.compact_integrals(config)
    final = stage["final"]
    print(f"{n_qubits} qubits: compact h sha256 {sha256(final.h)}, eri sha256 {sha256(final.eri)}")
    hamiltonian = pq.IntegralHamiltonian(final)
    # the sector fci_energy solves, enumerated here first; its operator is kept on the Hamiltonian
    start = time.perf_counter()
    sector = pq.sector_basis(hamiltonian.n_qubits, final.n_electrons, 0)
    sector_s = time.perf_counter() - start
    start = time.perf_counter()
    operator = exact._sector_operator(hamiltonian, sector)
    setup_s = time.perf_counter() - start
    # the solve reads the kept operator: count its products there
    key = sector.states.tobytes()
    counting = hamiltonian._operators[key] = CountingOperator(operator)
    start = time.perf_counter()
    energy = workbench.fci_energy(hamiltonian)
    solve_s = time.perf_counter() - start
    hamiltonian._operators[key] = operator
    start = time.perf_counter()
    ansatz = workbench.build_ansatz_for(config, stage)
    vqe = pq.run_vqe(hamiltonian, ansatz, grad_tol=config.grad_tol, max_iter=config.max_iter,
                     restarts=config.restarts, seed=config.seed)
    vqe_s = time.perf_counter() - start
    print(f"{n_qubits} qubits: sector states sha256 {sha256(sector.states)}, "
          f"enumerated in {1e3 * sector_s:.1f} ms")
    print(f"{n_qubits} qubits: sector dim {sector.dim}, operator set up in {1e3 * setup_s:.1f} ms")
    print(f"{n_qubits} qubits: E_FCI {energy!r} Ha in {solve_s:.2f} s "
          f"({counting.matvecs} matrix-vector products)")
    print(f"{n_qubits} qubits: E_VQE {vqe.fun!r} Ha in {vqe_s:.2f} s ({vqe.iterations} iterations), "
          f"E_HF {stage['e_hf']!r} Ha")
    return {"e_fci": energy, "e_vqe": vqe.fun, "e_hf": stage["e_hf"], "matvecs": counting.matvecs}


def main() -> int:
    start = time.perf_counter()
    q22 = run_h6_point(2, 22)
    q22_s = time.perf_counter() - start
    start = time.perf_counter()
    q26 = run_h6_point(3, 26)
    q26_s = time.perf_counter() - start
    peak = peak_rss_mib()
    print(f"22-qubit point {q22_s:.2f} s, 26-qubit point {q26_s:.2f} s end to end, "
          f"peak RSS {peak:.0f} MiB")
    failures = []
    if not abs(q22["e_fci"] - E_FCI) < E_TOL:
        failures.append(f"22 qubits: E_FCI {q22['e_fci']!r} is not within {E_TOL} of {E_FCI}")
    if not abs(q22["e_vqe"] - E_VQE) < E_TOL:
        failures.append(f"22 qubits: E_VQE {q22['e_vqe']!r} is not within {E_TOL} of {E_VQE}")
    if q22["matvecs"] > MAX_MATVECS:
        failures.append(f"22 qubits: the E_FCI solve took {q22['matvecs']} > {MAX_MATVECS} products")
    if not q26["e_fci"] <= q26["e_vqe"] <= q26["e_hf"]:
        failures.append(f"26 qubits: E_FCI {q26['e_fci']!r} <= E_VQE {q26['e_vqe']!r} "
                        f"<= E_HF {q26['e_hf']!r} does not hold")
    if not peak < PEAK_RSS_MIB:
        failures.append(f"peak RSS {peak:.0f} MiB is not under {PEAK_RSS_MIB:.0f} MiB")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
