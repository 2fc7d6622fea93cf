"""One sector per point: the real (N, S_z) sweep, the shared sector operator and the exact solve.

The VQE runs in the sector the ansatz keeps its reference in, in float64,
and the exact solve reads the same kept sector operator. The sweep is
checked against the complex particle-number-sector sweep of
``ci_oracle.reference_sector_sweep``. That pair doubles and singles keep
S_z, so that a circuit without pair rotations may run in the (N, S_z)
sector, is checked on the entries their Jordan-Wigner images have between
states of different S_z. Examples are derandomized.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pnovqe as pq
from pnovqe import exact, workbench
from pnovqe.ansatz import PNO_VARIANTS, build_paired_ansatz, make_pair_double, make_single
from pnovqe.exact import build_paired_hamiltonian
from pnovqe.operators import QubitOperator

from ci_oracle import (
    paired_register_matrix, random_integral_set, reference_generator_strings, reference_matrix,
    reference_sector_sweep, symmetry_leaks,
)
from conftest import lih_like_pipeline

SWEEP = settings(derandomize=True, database=None, max_examples=15, deadline=None)

LIH_MO = lih_like_pipeline()["mo"]


def angles(n: int):
    return st.lists(st.floats(-np.pi, np.pi, allow_nan=False), min_size=n, max_size=n).map(np.array)


@st.composite
def upccgsd_circuits(draw):
    n_orb = draw(st.integers(2, 4))
    n_elec = draw(st.sampled_from([n for n in (2, 4) if n < 2 * n_orb]))
    mo = random_integral_set(n_orb, n_elec, draw(st.integers(0, 10_000)))
    hq = pq.jordan_wigner(pq.build_hamiltonian(mo), 2 * n_orb)
    ansatz = pq.build_upccgsd(n_orb, n_elec)
    return pq.IntegralHamiltonian(mo), hq, ansatz, draw(angles(ansatz.n_parameters))


@st.composite
def pno_circuits(draw):
    """The all-s LiH model truncated to 8-12 qubits, with a PNO ansatz variant."""
    n_qubits = draw(st.sampled_from([8, 10, 12]))
    pnos = pq.select_pnos(pq.pair_densities(pq.mp2_amplitudes(LIH_MO)), n_qubits,
                          diagonal_only=draw(st.booleans()))
    space = pq.orthonormalize(pnos)
    final = pq.build_final_integrals(LIH_MO, space)
    hq = pq.jordan_wigner(pq.build_hamiltonian(final), n_qubits)
    ansatz = pq.build_pno_ansatz(space, draw(st.sampled_from(PNO_VARIANTS)))
    return pq.IntegralHamiltonian(final), hq, ansatz, draw(angles(ansatz.n_parameters))


def check_against_oracle(hamiltonian, hq, ansatz, theta):
    """The engine on ``hamiltonian`` against the oracle sweep on its Jordan-Wigner image ``hq``."""
    energy = pq.ansatz_expectation(hamiltonian, ansatz, theta)
    grad = pq.gradient(hamiltonian, ansatz, theta)
    expected_energy, expected_grad = reference_sector_sweep(hq, ansatz, theta)
    assert abs(energy - expected_energy) < 1e-12
    np.testing.assert_allclose(grad, expected_grad, atol=1e-12, rtol=0)
    (basis, circuit), = ansatz._prepared.items()
    assert basis is pq.sector_basis(ansatz.n_qubits, len(ansatz.reference), two_sz=0)
    assert circuit.reference.dtype == np.float64


@SWEEP
@given(upccgsd_circuits())
def test_real_sz_sweep_matches_complex_number_sector_oracle_upccgsd(circuit):
    check_against_oracle(*circuit)


@SWEEP
@given(pno_circuits())
def test_real_sz_sweep_matches_complex_number_sector_oracle_pno(circuit):
    check_against_oracle(*circuit)


def test_open_shell_reference_keeps_its_own_sz_sector():
    # qubits 0 and 2 are spin up, 1 is spin down: 2 S_z = 1
    mo = random_integral_set(3, 2, 7)
    hamiltonian, hq = pq.IntegralHamiltonian(mo), pq.jordan_wigner(pq.build_hamiltonian(mo), 6)
    closed = pq.build_upccgsd(3, 2)
    ansatz = pq.Ansatz(generators=closed.generators, n_qubits=6, reference=(0, 1, 2), name="doublet")
    theta = np.linspace(-0.5, 0.6, ansatz.n_parameters)
    energy = pq.ansatz_expectation(hamiltonian, ansatz, theta)
    (basis,) = ansatz._prepared
    assert basis is ansatz.basis is pq.sector_basis(6, 3, two_sz=1) and basis.dim == 9
    expected, expected_grad = reference_sector_sweep(hq, ansatz, theta)
    assert abs(energy - expected) < 1e-12
    np.testing.assert_allclose(pq.gradient(hamiltonian, ansatz, theta), expected_grad, atol=1e-12)


@pytest.mark.parametrize("n_spatial", [2, 3, 4])
def test_every_pair_double_and_single_keeps_sz(n_spatial):
    # the leaks read the reference strings, from each generator's fermionic form
    pairs = [(i, a) for i in range(n_spatial) for a in range(n_spatial) if i != a]
    generators = [make_pair_double(i, a, n_spatial) for i, a in pairs]
    generators += [make_single(i, a, spin, n_spatial) for i, a in pairs for spin in (0, 1)]
    for gen in generators:
        g = QubitOperator(gen.n_qubits, dict(reference_generator_strings(gen)))
        assert symmetry_leaks(g) == (0.0, 0.0), gen.label
    ansatz = pq.Ansatz(generators=tuple(generators), n_qubits=2 * n_spatial, reference=(0,),
                       name="all")
    assert ansatz.basis is pq.sector_basis(2 * n_spatial, 1, two_sz=1)


def test_run_point_builds_one_sector_operator(monkeypatch, tmp_path):
    built = []
    build = exact._StringSigma

    def keep(mo, basis):
        built.append((basis.states, build(mo, basis)))
        return built[-1][1]

    monkeypatch.setattr(exact.IntegralHamiltonian, "_operator", staticmethod(keep))
    pq.write_fcidump(LIH_MO, tmp_path / "lih.fcidump")
    config = pq.RunConfig(integral_source="fcidump", fcidump=str(tmp_path / "lih.fcidump"),
                          n_qubits=8, ansatz="upccgsd", diagonal_only=True).validate()
    record = pq.run_point(config)
    ((states, operator),) = built
    assert states.tobytes() == pq.sector_basis(8, 4, 0).states.tobytes()
    assert operator.diagonal().dtype == np.float64
    assert record["e_fci"] <= record["e_vqe"]


def check_paired_sweep(mo, paired, theta):
    """The paired circuit on its register's N sector against the oracle sweep; returns the basis."""
    h_pair = build_paired_hamiltonian(mo)
    energy = pq.ansatz_expectation(h_pair, paired, theta)
    (basis,) = paired._prepared
    assert basis is paired.basis is pq.sector_basis(paired.n_qubits, len(paired.reference))
    expected, expected_grad = reference_sector_sweep(paired_register_matrix(mo), paired, theta)
    assert abs(energy - expected) < 1e-12
    np.testing.assert_allclose(pq.gradient(h_pair, paired, theta), expected_grad, atol=1e-12)
    return basis


def test_paired_ansatz_runs_on_the_number_sector():
    amps = pq.mp2_amplitudes(LIH_MO)
    space = pq.orthonormalize(pq.select_pnos(pq.pair_densities(amps), 12, diagonal_only=True))
    final = pq.build_final_integrals(LIH_MO, space)
    ansatz = pq.build_pno_ansatz(space, "UpCCD")
    paired = build_paired_ansatz(range(final.n_occ), [g.orbitals for g in ansatz.generators],
                                 final.n_orb)
    check_paired_sweep(final, paired, np.linspace(-0.3, 0.4, paired.n_parameters))


def test_same_parity_paired_circuit_runs_on_the_number_sector():
    # read as spins, qubits 0, 2 and 1, 3 would keep this circuit in an
    # "S_z = 0" subset of the paired states, which has no meaning there
    paired = build_paired_ansatz([0, 1], [(0, 2), (1, 3)], 6)
    basis = check_paired_sweep(random_integral_set(6, 4, 3), paired, np.array([0.3, -0.7]))
    assert basis.dim == 15


def test_every_call_form_of_one_sector_returns_the_one_basis():
    # an Ansatz keeps its prepared circuit per basis object, so a sector must be one object
    n_sector = pq.sector_basis(4, 2)
    assert pq.sector_basis(4, 2, None) is n_sector
    assert pq.sector_basis(4, 2, two_sz=None) is n_sector
    assert pq.sector_basis(n_qubits=4, n_particles=2) is n_sector
    sz_sector = pq.sector_basis(4, 2, 0)
    assert pq.sector_basis(4, 2, two_sz=0) is sz_sector
    assert pq.sector_basis(4, n_particles=2, two_sz=0) is sz_sector
    assert sz_sector is not n_sector


def test_real_sector_solve_runs_in_real_arithmetic(h2_sto3g):
    # the Davidson solve on the 4-state sector
    basis = pq.sector_basis(4, 2, 0)
    energy, vector = pq.exact_ground_energy(pq.IntegralHamiltonian(h2_sto3g["mo"]), basis)
    assert vector.dtype == np.float64
    assert energy == pytest.approx(-1.1372759431, abs=1e-8)


def test_real_integral_sector_operator_is_the_kept_float64_real_part(h2_sto3g):
    hamiltonian = pq.IntegralHamiltonian(h2_sto3g["mo"])
    basis = pq.sector_basis(4, 2, 0)
    operator = exact._sector_operator(hamiltonian, basis)
    assert operator is exact._sector_operator(hamiltonian, basis)
    mat = operator @ np.eye(basis.dim)
    assert mat.dtype == operator.diagonal().dtype == np.float64
    assert not operator.diagonal().flags.writeable
    expected = reference_matrix(h2_sto3g["hamiltonian"], basis.states).toarray()
    assert not expected.imag.any()
    np.testing.assert_allclose(mat, expected.real, atol=1e-12, rtol=0)
