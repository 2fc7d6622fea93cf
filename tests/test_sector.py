"""One sector per point: the real (N, S_z) sweep, the shared sector matrix and the exact solve.

The VQE runs in the sector the ansatz keeps its reference in, in float64,
and the exact solve reads the same cached sector matrix. The sweep is
checked against the complex particle-number-sector sweep of
``ci_oracle.reference_sector_sweep``; the S_z rule against the entries
that the generator's Jordan-Wigner image has between states of different
S_z. Examples are derandomized.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pnovqe as pq
from pnovqe import exact, workbench
from pnovqe.ansatz import PNO_VARIANTS
from pnovqe.exact import build_paired_ansatz, build_paired_hamiltonian
from pnovqe.operators import QubitOperator

from ci_oracle import (
    paired_register_matrix, random_integral_set, reference_generator_strings, reference_matrix,
    reference_sector_sweep, symmetry_leaks,
)
from conftest import excitation_generators, lih_like_pipeline

SWEEP = settings(derandomize=True, database=None, max_examples=15, deadline=None)
ALGEBRA = settings(derandomize=True, database=None, max_examples=60, deadline=None)

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
    assert ansatz.two_sz == 1
    energy = pq.ansatz_expectation(hamiltonian, ansatz, theta)
    (basis,) = ansatz._prepared
    assert basis is pq.sector_basis(6, 3, two_sz=1) and basis.dim == 9
    expected, expected_grad = reference_sector_sweep(hq, ansatz, theta)
    assert abs(energy - expected) < 1e-12
    np.testing.assert_allclose(pq.gradient(hamiltonian, ansatz, theta), expected_grad, atol=1e-12)


@ALGEBRA
@given(excitation_generators().filter(lambda gen: gen.n_qubits % 2 == 0))
def test_sz_rule_agrees_with_the_commutator(gen):
    # pair rotations on a spin-orbital register move weight between spins
    # when i and a differ in parity; the leak reads the reference strings
    g = QubitOperator(gen.n_qubits, {(s.x, s.z): c for s, c in reference_generator_strings(gen)})
    commutes = symmetry_leaks(g)[1] < 1e-12
    assert gen.commutes_with_sz == commutes
    ansatz = pq.Ansatz(generators=(gen,), n_qubits=gen.n_qubits, reference=(0,), name="one")
    assert ansatz.two_sz == (1 if commutes else None)


def test_run_point_builds_one_sector_matrix(monkeypatch, tmp_path):
    built = []
    build = exact.determinant_matrix

    def keep(mo, states):
        built.append((states, build(mo, states)))
        return built[-1][1]

    monkeypatch.setattr(exact, "determinant_matrix", keep)
    pq.write_fcidump(LIH_MO, tmp_path / "lih.fcidump")
    config = pq.RunConfig(integral_source="fcidump", fcidump=str(tmp_path / "lih.fcidump"),
                          n_qubits=8, ansatz="upccgsd", diagonal_only=True).validate()
    record = pq.run_point(config)
    ((states, mat),) = built
    assert states.tobytes() == pq.sector_basis(8, 4, 0).states.tobytes()
    assert mat.dtype == np.float64
    assert record["e_fci"] <= record["e_vqe"]


def test_paired_ansatz_runs_on_the_number_sector():
    amps = pq.mp2_amplitudes(LIH_MO)
    space = pq.orthonormalize(pq.select_pnos(pq.pair_densities(amps), 12, diagonal_only=True))
    final = pq.build_final_integrals(LIH_MO, space)
    ansatz = pq.build_pno_ansatz(space, "UpCCD")
    paired = build_paired_ansatz(range(final.n_occ), [g.orbitals for g in ansatz.generators],
                                 final.n_orb)
    h_pair = build_paired_hamiltonian(final)
    theta = np.linspace(-0.3, 0.4, paired.n_parameters)
    assert paired.two_sz is None
    energy = pq.ansatz_expectation(h_pair, paired, theta)
    (basis,) = paired._prepared
    assert basis is pq.sector_basis(paired.n_qubits, final.n_occ)
    expected, expected_grad = reference_sector_sweep(paired_register_matrix(final), paired, theta)
    assert abs(energy - expected) < 1e-12
    np.testing.assert_allclose(pq.gradient(h_pair, paired, theta), expected_grad, atol=1e-12)


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


@pytest.mark.parametrize("dense_dim", [600, 1])
def test_real_sector_solve_runs_in_real_arithmetic(monkeypatch, h2_sto3g, dense_dim):
    # the dense solve, and ARPACK's on the 4-state sector
    monkeypatch.setattr(exact, "_DENSE_DIM", dense_dim)
    basis = pq.sector_basis(4, 2, 0)
    energy, vector = pq.exact_ground_energy(pq.IntegralHamiltonian(h2_sto3g["mo"]), basis)
    assert vector.dtype == np.float64
    assert energy == pytest.approx(-1.1372759431, abs=1e-8)


def test_real_integral_sector_matrix_is_the_cached_float64_real_part(h2_sto3g):
    hamiltonian = pq.IntegralHamiltonian(h2_sto3g["mo"])
    basis = pq.sector_basis(4, 2, 0)
    mat = hamiltonian.matrix(basis.states)
    assert mat is hamiltonian.matrix(basis.states)
    assert mat.dtype == np.float64
    assert not mat.data.flags.writeable
    expected = reference_matrix(h2_sto3g["hamiltonian"], basis.states).toarray()
    assert not expected.imag.any()
    np.testing.assert_allclose(mat.toarray(), expected.real, atol=1e-12, rtol=0)
