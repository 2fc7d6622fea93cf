"""Energy versus qubit budget: MP2-ranked natural orbitals pay off early.

Builds H2 in a 10-function even-tempered s basis, ranks the correlating
orbitals by their MP2 pair-density occupation numbers, and truncates the
Hamiltonian to increasingly generous qubit budgets. Already at 4 qubits the
selected space beats the full minimal-basis (STO-3G) answer, and the energy
drops monotonically as the budget grows along the occupation ranking.
"""

import numpy as np

import pnovqe as pq

R = 1.4  # bohr
angstrom = R / pq.ANGSTROM_TO_BOHR

# minimal-basis baseline: 4 qubits, exact diagonalization
mol = pq.parse_xyz(f"2\n\nH 0 0 0\nH 0 0 {angstrom:.10f}")
ao = pq.compute_ao_integrals(mol, pq.sto3g_shells(mol))
scf = pq.run_rhf(ao, 2)
mo = pq.transform_to_mo(ao, scf.mo_coefficients, 2,
                        orbital_energies=scf.orbital_energies)
h_min = pq.IntegralHamiltonian(mo)
e_min, _ = pq.exact_ground_energy(h_min, pq.sector_basis(4, 2, two_sz=0))
print(f"STO-3G (4 qubits)  FCI = {e_min:.8f} hartree")

# larger even-tempered s basis: 10 orbitals would need 20 qubits untruncated
shells = []
for _, _, pos in mol.atoms:
    shells.extend(pq.even_tempered_shells(pos, 5, 0.055, 3.1))
ao_big = pq.compute_ao_integrals(mol, shells)
scf_big = pq.run_rhf(ao_big, 2)
big = pq.transform_to_mo(ao_big, scf_big.mo_coefficients, 2,
                         orbital_energies=scf_big.orbital_energies)
print(f"10-orbital basis   HF  = {scf_big.total_energy:.8f} hartree\n")

amps = pq.mp2_amplitudes(big)
densities = pq.pair_densities(amps)
print(f"{'N_q':>4} {'kept PNOs':>10} {'E_FCI(budget)':>16}")
for nq in (4, 6, 8, 10, 12):
    pnos = pq.select_pnos(densities, nq)
    space = pq.orthonormalize(pnos)
    compact = pq.build_final_integrals(big, space)
    hq = pq.IntegralHamiltonian(compact)
    energy, _ = pq.exact_ground_energy(hq, pq.sector_basis(nq, 2, two_sz=0))
    marker = "  < STO-3G" if energy < e_min else ""
    print(f"{nq:>4} {len(pnos.selection):>10} {energy:>16.8f}{marker}")

occs = np.concatenate([v for v in pnos.occupations.values()])
print("\nleading occupation numbers:", np.sort(occs)[::-1][:5].round(6))
