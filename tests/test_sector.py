"""One sector per point: the real (N, S_z) sweep, the shared sector matrix and the exact solve.

The VQE runs in the sector the ansatz keeps its reference in, in float64,
and the exact solve reads the same cached sector matrix. The sweep is
checked against the complex particle-number-sector sweep of
``ci_oracle.reference_sector_sweep``; the S_z rule against the commutator
of the operator algebra. Examples are derandomized.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pnovqe as pq
from pnovqe import exact, workbench
from pnovqe.ansatz import PNO_VARIANTS
from pnovqe.exact import build_paired_ansatz, build_paired_hamiltonian
from pnovqe.operators import QubitOperator, commutator, spin_z_operator

from ci_oracle import (
    kron_ansatz_state, kron_expectation, random_integral_set, reference_generator_strings,
    reference_matrix, reference_sector_sweep,
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
    return hq, ansatz, draw(angles(ansatz.n_parameters))


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
    return hq, ansatz, draw(angles(ansatz.n_parameters))


def check_against_oracle(hq, ansatz, theta):
    energy = pq.ansatz_expectation(hq, ansatz, theta)
    grad = pq.gradient(hq, ansatz, theta)
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
    hq = pq.jordan_wigner(pq.build_hamiltonian(random_integral_set(3, 2, 7)), 6)
    closed = pq.build_upccgsd(3, 2)
    ansatz = pq.Ansatz(generators=closed.generators, n_qubits=6, reference=(0, 1, 2), name="doublet")
    theta = np.linspace(-0.5, 0.6, ansatz.n_parameters)
    assert ansatz.two_sz == 1
    energy = pq.ansatz_expectation(hq, ansatz, theta)
    (basis,) = ansatz._prepared
    assert basis is pq.sector_basis(6, 3, two_sz=1) and basis.dim == 9
    expected, expected_grad = reference_sector_sweep(hq, ansatz, theta)
    assert abs(energy - expected) < 1e-12
    np.testing.assert_allclose(pq.gradient(hq, ansatz, theta), expected_grad, atol=1e-12)


@ALGEBRA
@given(excitation_generators().filter(lambda gen: gen.n_qubits % 2 == 0))
def test_sz_rule_agrees_with_the_commutator(gen):
    # pair rotations on a spin-orbital register move weight between spins
    # when i and a differ in parity; the commutator reads the reference strings
    g = sum((QubitOperator.from_string(s, c) for s, c in reference_generator_strings(gen)),
            QubitOperator(gen.n_qubits))
    commutes = commutator(g, spin_z_operator(gen.n_qubits // 2)).norm() < 1e-12
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
    expected, expected_grad = reference_sector_sweep(h_pair, paired, theta)
    assert abs(energy - expected) < 1e-12
    np.testing.assert_allclose(pq.gradient(h_pair, paired, theta), expected_grad, atol=1e-12)


def imaginary_operator(n_qubits: int = 2):
    """0.3 Z0 + (X0 Y1 - Y0 X1)/2: Hermitian, with imaginary entries on the one-particle sector."""
    label = pq.PauliString.from_label
    return (QubitOperator.from_string(label(n_qubits, "Z0"), 0.3)
            + QubitOperator.from_string(label(n_qubits, "X0 Y1"), 0.5)
            + QubitOperator.from_string(label(n_qubits, "Y0 X1"), -0.5))


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
def test_imaginary_sector_entries_get_the_complex_solve(monkeypatch, dense_dim):
    # 3 qubits: complex ARPACK needs a sector of at least 3 states; |001>,
    # |010> give -sqrt(1.09) and +sqrt(1.09), |100> 0.3
    monkeypatch.setattr(exact, "_DENSE_DIM", dense_dim)
    op = imaginary_operator(3)
    basis = pq.sector_basis(3, 1)
    assert op.matrix(basis.states).data.imag.any()
    energy, vector = pq.exact_ground_energy(op, basis)
    assert np.iscomplexobj(vector)
    assert energy == pytest.approx(-np.sqrt(1.09), abs=1e-12)


def test_real_sector_solve_runs_in_real_arithmetic(h2_sto3g):
    hq = h2_sto3g["hamiltonian"]
    basis = pq.sector_basis(4, 2, 0)
    energy, vector = pq.exact_ground_energy(hq, basis)
    assert vector.dtype == np.float64
    assert energy == pytest.approx(-1.1372759431, abs=1e-8)


def test_real_integral_sector_matrix_is_the_cached_float64_real_part(h2_sto3g):
    hq = pq.jordan_wigner(pq.build_hamiltonian(h2_sto3g["mo"]), 4)
    basis = pq.sector_basis(4, 2, 0)
    mat = hq.matrix(basis.states)
    assert mat is hq.matrix(basis.states)
    assert mat.dtype == np.float64
    assert not mat.data.flags.writeable
    expected = reference_matrix(hq, basis.states)
    assert np.array_equal(mat.data, expected.data.real)
    assert np.array_equal(mat.indices, expected.indices) and np.array_equal(mat.indptr, expected.indptr)


def test_real_circuit_state_reads_a_complex_matrix():
    # the state cos(a/2)|01> + sin(a/2)|10> is real, so the imaginary entries
    # of H, from (X0 Y1 - Y0 X1)/2, drop out: E = 0.3 <Z0> = -0.3 cos a
    ansatz = pq.Ansatz(generators=(pq.make_paired_rotation(0, 1, 2),), n_qubits=2,
                       reference=(0,), name="pair")
    op, theta = imaginary_operator(), [0.7]
    assert op.matrix(pq.sector_basis(2, 1).states).dtype == np.complex128
    energy = pq.ansatz_expectation(op, ansatz, theta)
    (circuit,) = ansatz._prepared.values()
    assert circuit.reference.dtype == np.float64
    assert energy == pytest.approx(-0.3 * np.cos(0.7), abs=1e-12)
    assert energy == pytest.approx(kron_expectation(op, kron_ansatz_state(ansatz, theta)), abs=1e-12)
    np.testing.assert_allclose(pq.gradient(op, ansatz, theta), [0.3 * np.sin(0.7)], atol=1e-12)
