"""Halving the register: pair-restricted circuits on one qubit per orbital.

A doubles-only pair ansatz never breaks an electron pair, so the whole
calculation lives in the seniority-zero sector where a spatial orbital is
either empty or doubly occupied. Encoding that sector directly (one qubit
per spatial orbital instead of two) reproduces the optimized energy to
numerical precision on half the qubits.
"""

import numpy as np

import pnovqe as pq
from pnovqe.ansatz import build_paired_ansatz
from pnovqe.exact import build_paired_hamiltonian

# all-s model of LiH: 7 orbitals, 4 electrons, truncated to 12 qubits
li, h = np.zeros(3), np.array([0.0, 0.0, 3.0])
mol = pq.Molecule(atoms=(("Li", 3, li), ("H", 1, h)))
shells = list(pq.sto3g_shells(mol))
shells += pq.even_tempered_shells(li, 2, 0.05, 4.0)
shells += pq.even_tempered_shells(h, 2, 0.08, 5.0)
ao = pq.compute_ao_integrals(mol, shells)
scf = pq.run_rhf(ao, mol.n_electrons)
mo = pq.transform_to_mo(ao, scf.mo_coefficients, mol.n_electrons,
                        orbital_energies=scf.orbital_energies)

amps = pq.mp2_amplitudes(mo)
pnos = pq.select_pnos(pq.pair_densities(amps), 12, diagonal_only=True)
space = pq.orthonormalize(pnos)
compact = pq.build_final_integrals(mo, space)

# spin-orbital route: 12 qubits
h_full = pq.IntegralHamiltonian(compact)
ansatz = pq.build_pno_ansatz(space, "UpCCD")
full = pq.run_vqe(h_full, ansatz)
print(f"spin-orbital encoding : {ansatz.n_qubits:>2} qubits, "
      f"E = {full.fun:.10f} hartree")

# paired route: 6 qubits, same pair rotations
h_pair = build_paired_hamiltonian(compact)
paired = pq.run_vqe(
    h_pair,
    build_paired_ansatz(range(compact.n_occ),
                        [g.orbitals for g in ansatz.generators],
                        compact.n_orb),
)
print(f"paired encoding       : {compact.n_orb:>2} qubits, "
      f"E = {paired.fun:.10f} hartree")
print(f"difference            : {abs(full.fun - paired.fun):.2e} hartree")

e_fci, _ = pq.exact_ground_energy(h_full, pq.sector_basis(12, 4, two_sz=0))
print(f"\nexact (12-qubit FCI)  : E = {e_fci:.10f} hartree")
print(f"pair-ansatz error     : {full.fun - e_fci:.2e} hartree "
      "(doubles-only model, not exact)")
