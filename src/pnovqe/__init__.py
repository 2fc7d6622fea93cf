"""Compact qubit Hamiltonians from MP2 pair natural orbitals, with VQE.

The pipeline: molecular integrals (built-in s-Gaussian engine or FCIDUMP)
-> restricted Hartree-Fock -> MP2 pair densities -> globally ranked PNO
selection under a qubit budget -> Cholesky orthonormalization -> compact
integrals on 2 qubits per kept orbital -> their (N, S_z) sector matrix by
Slater-Condon rules -> pair coupled-cluster VQE there, checked against exact
diagonalization of that matrix. Jordan-Wigner runs only for Pauli text.
"""

__version__ = "0.1.0"

from .integrals import (
    ANGSTROM_TO_BOHR,
    HARTREE_TO_KCALMOL,
    AOIntegralSet,
    BasisShell,
    IntegralSet,
    Molecule,
    boys,
    compute_ao_integrals,
    even_tempered_shells,
    parse_xyz,
    read_fcidump,
    sto3g_shells,
    write_fcidump,
)
from .scf import SCFResult, run_rhf, transform_to_mo
from .pno import (
    OrbitalSpace,
    PairAmplitudes,
    PNOSet,
    build_final_integrals,
    freeze_core,
    mp2_amplitudes,
    orthonormalize,
    pair_densities,
    select_pnos,
)
from .operators import PauliString, QubitOperator, build_hamiltonian, jordan_wigner
from .ansatz import (
    Ansatz,
    ExcitationGenerator,
    ResourceReport,
    build_pno_ansatz,
    build_upccgsd,
    count_resources,
    format_resource_table,
    make_pair_double,
    make_single,
)
from .simulator import ansatz_expectation, gradient
from .optimize import OptimizationResult, minimize, run_vqe
from .exact import (
    IntegralHamiltonian,
    SectorBasis,
    build_paired_ansatz,
    build_paired_hamiltonian,
    exact_ground_energy,
    make_paired_rotation,
    sector_basis,
)
from .workbench import (
    CurveResult,
    RunConfig,
    barrier,
    barrier_kcal,
    load_config,
    max_error,
    npe,
    parse_config,
    run_curve,
    run_point,
)
