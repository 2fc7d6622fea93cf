"""The sector matrix built from the compact integrals by the Slater-Condon rules.

``exact.determinant_matrix`` is checked against the determinant oracle
``ci_oracle.slater_condon_matrix`` and against the Jordan-Wigner route
(``ci_oracle.reference_matrix`` of ``jordan_wigner(build_hamiltonian(mo))``)
on random integrals and on every seed-0 benchmark point; its row blocks
must change no bit. Its sign mask, ``exact.between``, is checked against
the Jordan-Wigner sign of a hop and its image lookup, ``exact._locate``,
against set membership. A point
runs on it, and runs the Jordan-Wigner encoding only to write its
``hamiltonian.txt``. Examples are derandomized.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pnovqe as pq
from pnovqe import cli, exact, workbench
from pnovqe.exact import IntegralHamiltonian, determinant_matrix
from pnovqe.operators import COEFF_CUTOFF

from ci_oracle import (
    random_integral_set, reference_jordan_wigner, reference_matrix, slater_condon_matrix,
)

BUILDER = settings(derandomize=True, database=None, max_examples=80, deadline=None)
RULE = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def jw_matrix(mo, states):
    return reference_matrix(pq.jordan_wigner(pq.build_hamiltonian(mo), 2 * mo.n_orb), states)


@st.composite
def sectors(draw):
    """(integrals, basis): (N, S_z) or N sectors, open and closed shell."""
    n_orb = draw(st.integers(1, 4))
    mo = random_integral_set(n_orb, 2, draw(st.integers(0, 10_000)))
    n_qubits = 2 * n_orb
    n_particles = draw(st.integers(0, n_qubits))
    two_sz = draw(st.sampled_from([None] + list(range(-n_particles, n_particles + 1, 2))))
    try:
        basis = pq.sector_basis(n_qubits, n_particles, two_sz)
    except ValueError:   # a spin balance the register cannot hold
        basis = pq.sector_basis(n_qubits, n_particles)
    return mo, basis


@BUILDER
@given(sectors())
def test_builder_matches_the_determinant_oracle_and_the_jordan_wigner_matrix(case):
    mo, basis = case
    mat = determinant_matrix(mo, basis.states)
    assert mat.dtype == np.float64 and mat.has_sorted_indices
    assert not mat.data.flags.writeable
    assert np.all(np.abs(mat.data) >= COEFF_CUTOFF)
    dense = mat.toarray()
    jw = jw_matrix(mo, basis.states).toarray()
    np.testing.assert_allclose(dense, jw.real, atol=1e-12, rtol=0)
    oracle = slater_condon_matrix(mo, [int(s) for s in basis.states])
    np.testing.assert_allclose(dense, oracle, atol=1e-12, rtol=0)


def benchmark_points():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for coordinate in workload.coordinates(0) if workload.scan else (None,):
            yield pytest.param(workload, coordinate, id=f"{name}-{coordinate}")


@pytest.mark.parametrize("workload, coordinate", benchmark_points())
def test_builder_matches_the_jordan_wigner_matrix_on_benchmark_points(workload, coordinate,
                                                                      tmp_path):
    coordinates = workload.coordinates(0)
    workload.write_inputs([coordinate] if workload.scan else coordinates, tmp_path)
    config = workload.config(coordinates, tmp_path)
    stage = workbench.compact_hamiltonian(config, coordinate)
    ansatz = workbench.build_ansatz_for(config, stage)
    basis = ansatz.basis
    mat = IntegralHamiltonian(stage["final"]).matrix(basis.states)
    jw = reference_matrix(stage["hamiltonian"], basis.states)
    assert not jw.data.imag.any()
    assert abs(mat - jw.real).max() < 1e-12


@pytest.mark.parametrize("two_sz", [0, 1, None])
def test_row_blocks_change_no_bit(monkeypatch, two_sz):
    mo = random_integral_set(5, 4, 11)
    states = pq.sector_basis(10, 3 if two_sz == 1 else 4, two_sz).states
    built = []
    for block in (1, 7, exact._DETERMINANT_BLOCK):
        monkeypatch.setattr(exact, "_DETERMINANT_BLOCK", block)
        built.append(determinant_matrix(mo, states))
    first = built[0]
    for mat in built[1:]:
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(mat, name), getattr(first, name)), name


@st.composite
def hops(draw):
    """(n_qubits, row, p, q): a determinant of an int64 register with p occupied and q empty."""
    n_qubits = draw(st.integers(2, 62))
    p, q = draw(st.lists(st.integers(0, n_qubits - 1), min_size=2, max_size=2, unique=True))
    row = (draw(st.integers(0, (1 << n_qubits) - 1)) | 1 << p) & ~(1 << q)
    return n_qubits, row, p, q


@RULE
@given(hops())
def test_between_gives_the_jordan_wigner_sign_of_a_hop(hop):
    n_qubits, row, p, q = hop
    image = row ^ (1 << p) ^ (1 << q)
    hop_op = reference_jordan_wigner({((q, True), (p, False)): 1.0}, n_qubits)
    states = np.array(sorted((row, image)), dtype=np.int64)
    mat = reference_matrix(hop_op, states).toarray()
    sign = mat[states.tolist().index(image), states.tolist().index(row)]
    lo, hi = min(p, q), max(p, q)
    assert sign == (-1) ** (row & exact.between(lo, hi)).bit_count()
    # elementwise on int64 arrays, bit-equal to the Python int
    assert exact.between(np.array([lo]), np.array([hi])).tolist() == [exact.between(lo, hi)]


@RULE
@given(st.lists(st.integers(0, 120), min_size=2, max_size=2, unique=True).map(sorted))
def test_between_is_exact_past_64_qubits(pair):
    lo, hi = pair
    assert exact.between(lo, hi) == sum(1 << k for k in range(lo + 1, hi))


@RULE
@given(st.sets(st.integers(0, 2**62), min_size=1, max_size=30),
       st.lists(st.integers(0, 2**62), max_size=30), st.data())
def test_locate_finds_exactly_the_basis_states(states, others, data):
    states = np.array(sorted(states), dtype=np.int64)
    images = others + data.draw(st.lists(st.sampled_from(states.tolist()), max_size=30))
    column, found = exact._locate(states, np.array(images, dtype=np.int64))
    assert found.tolist() == [image in states.tolist() for image in images]
    assert np.array_equal(states[column[found]], np.array(images, dtype=np.int64)[found])


def test_integral_hamiltonian_caches_one_matrix_per_basis():
    mo = random_integral_set(3, 2, 4)
    hamiltonian = IntegralHamiltonian(mo)
    basis = pq.sector_basis(6, 2, 0)
    mat = hamiltonian.matrix(basis.states)
    assert hamiltonian.matrix(basis.states) is mat
    assert hamiltonian.n_qubits == 6
    with pytest.raises(ValueError, match="fixed-particle-number"):
        hamiltonian.matrix(np.arange(4, dtype=np.int64))
    with pytest.raises(ValueError, match="strictly increasing bitmasks of the register"):
        hamiltonian.matrix(pq.sector_basis(8, 2, 0).states)


def test_matrix_refuses_shuffled_states():
    # images are located by searchsorted: a shuffled basis gave a symmetric
    # matrix whose two lowest eigenvalues were 0.0 and 0.0
    hamiltonian = IntegralHamiltonian(random_integral_set(3, 2, 7))
    states = pq.sector_basis(6, 2, 0).states
    shuffled = states[np.random.default_rng(0).permutation(9)]
    with pytest.raises(ValueError, match="strictly increasing bitmasks of the register"):
        hamiltonian.matrix(shuffled)
    lowest = np.linalg.eigvalsh(hamiltonian.matrix(states).toarray())[:2]
    np.testing.assert_allclose(lowest, [-3.305, -3.060], atol=1e-3)
    with pytest.raises(ValueError, match="strictly increasing bitmasks of the register"):
        pq.build_paired_hamiltonian(random_integral_set(3, 2, 7)).matrix(np.array([0b110, 0b011]))


def test_matrix_refuses_unsorted_states_outside_the_register():
    # this basis failed inside numpy, on a reshape of the occupied orbitals
    hamiltonian = IntegralHamiltonian(random_integral_set(3, 2, 7))
    with pytest.raises(ValueError, match="strictly increasing bitmasks of the register"):
        hamiltonian.matrix([0b11, 0b1000001, 0b101])


def lih_config(tmp_path, lih_like, **fields):
    pq.write_fcidump(lih_like["mo"], tmp_path / "lih.fcidump")
    return pq.RunConfig(integral_source="fcidump", fcidump=str(tmp_path / "lih.fcidump"),
                        n_qubits=8, ansatz="upccgsd", diagonal_only=True, **fields).validate()


@pytest.mark.parametrize("with_output", [False, True])
def test_jordan_wigner_runs_only_to_write_the_point_artifacts(monkeypatch, tmp_path, lih_like,
                                                              with_output):
    encoded = []

    def count(*args):
        encoded.append(args)
        return pq.jordan_wigner(*args)

    monkeypatch.setattr(workbench, "jordan_wigner", count)
    out = tmp_path / "out"
    config = lih_config(tmp_path, lih_like, output_dir=str(out) if with_output else None)
    pq.run_point(config)
    assert len(encoded) == int(with_output)
    if with_output:
        (operator, n_qubits), = encoded
        text = pq.jordan_wigner(operator, n_qubits).to_text()
        assert (out / "point.hamiltonian.txt").read_text() == text


def test_fci_command_reads_the_matrix_of_run_point(monkeypatch, tmp_path, lih_like):
    config = lih_config(tmp_path, lih_like)
    path = tmp_path / "lih.cfg"
    path.write_text(f"[integrals]\nsource = fcidump\nfcidump = {config.fcidump}\n\n"
                    "[space]\nnq = 8\ndiagonal_only = true\n\n[ansatz]\nvariant = upccgsd\n")
    solved = []

    def keep(hamiltonian, sector):
        solved.append((hamiltonian, pq.exact_ground_energy(hamiltonian, sector)[0]))
        return solved[-1][1], None

    monkeypatch.setattr(workbench, "exact_ground_energy", keep)
    assert cli.main(["fci", "--config", str(path)]) == 0
    (hamiltonian, energy), = solved
    assert isinstance(hamiltonian, IntegralHamiltonian)
    assert energy == pq.run_point(config)["e_fci"]
