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
from pnovqe.ansatz import PNO_VARIANTS, _commutes_with_sz
from pnovqe.exact import build_paired_ansatz, build_paired_hamiltonian
from pnovqe.operators import QubitOperator, commutator, spin_z_operator

from ci_oracle import random_integral_set, reference_matrix, reference_sector_sweep
from conftest import lih_like_pipeline

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
    assert basis.two_sz == 0
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
    assert (basis.n_particles, basis.two_sz, basis.dim) == (3, 1, 9)
    expected, expected_grad = reference_sector_sweep(hq, ansatz, theta)
    assert abs(energy - expected) < 1e-12
    np.testing.assert_allclose(pq.gradient(hq, ansatz, theta), expected_grad, atol=1e-12)


@st.composite
def pauli_sums(draw):
    """Real or complex Pauli sums on an even register; pair doubles and singles among them."""
    n_spatial = draw(st.integers(1, 3))
    n = 2 * n_spatial
    if n_spatial > 1 and draw(st.booleans()):
        p, q = sorted(draw(st.lists(st.integers(0, n_spatial - 1), min_size=2, max_size=2,
                                    unique=True)))
        gen = (pq.make_pair_double(p, q, n_spatial) if draw(st.booleans())
               else pq.make_single(p, q, draw(st.integers(0, 1)), n_spatial))
        return n, gen.strings
    mask = st.integers(0, (1 << n) - 1)
    weights = st.sampled_from([0.5, -0.5, 0.25, 1.0, 0.5j])
    terms = draw(st.dictionaries(st.tuples(mask, mask), weights, min_size=1, max_size=6))
    return n, tuple((pq.PauliString(n, x, z), c) for (x, z), c in terms.items())


@ALGEBRA
@given(pauli_sums())
def test_sz_rule_agrees_with_the_commutator(case):
    n, strings = case
    gen = sum((QubitOperator.from_string(s, c) for s, c in strings), QubitOperator(n))
    assert _commutes_with_sz(strings) == (commutator(gen, spin_z_operator(n // 2)).norm() < 1e-12)


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
    assert basis.two_sz is None and basis.n_particles == final.n_occ
    expected, expected_grad = reference_sector_sweep(h_pair, paired, theta)
    assert abs(energy - expected) < 1e-12
    np.testing.assert_allclose(pq.gradient(h_pair, paired, theta), expected_grad, atol=1e-12)


def imaginary_operator(n_qubits: int = 2):
    """0.3 Z0 + (X0 Y1 - Y0 X1)/2: Hermitian, with imaginary entries on the one-particle sector."""
    label = pq.PauliString.from_label
    return (QubitOperator.from_string(label(n_qubits, "Z0"), 0.3)
            + QubitOperator.from_string(label(n_qubits, "X0 Y1"), 0.5)
            + QubitOperator.from_string(label(n_qubits, "Y0 X1"), -0.5))


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


def test_complex_circuit_state_reads_the_complex_matrix():
    # (X0 X1 + Y0 Y1)/2 has real entries, so its signs are imaginary and the
    # state is complex; the sweep must then read the imaginary part of H too
    label = pq.PauliString.from_label
    strings = ((label(2, "X0 X1"), 0.5), (label(2, "Y0 Y1"), 0.5))
    gen = pq.ExcitationGenerator(kind="single", orbitals=(0, 1), spin=0, strings=strings)
    ansatz = pq.Ansatz(generators=(gen,), n_qubits=2, reference=(0,), name="hop")
    op, theta = imaginary_operator(), [0.7]
    energy = pq.ansatz_expectation(op, ansatz, theta)
    (circuit,) = ansatz._prepared.values()
    assert circuit.reference.dtype == np.complex128
    # cos(a/2)|01> - i sin(a/2)|10>: <Z0> = -cos a, <(X0 Y1 - Y0 X1)/2> = -sin a
    assert energy == pytest.approx(-0.3 * np.cos(0.7) - np.sin(0.7), abs=1e-12)
    assert energy == pytest.approx(pq.expectation(pq.ansatz_state(ansatz, theta), op), abs=1e-12)
    np.testing.assert_allclose(pq.gradient(op, ansatz, theta),
                               [0.3 * np.sin(0.7) - np.cos(0.7)], atol=1e-12)
