"""The sector operator that applies the compact integrals by their one-electron moves.

``exact._StringSigma`` (its products on vectors and its closed-form
diagonal) is checked byte for byte against the scipy.sparse table it
replaced (``ci_oracle.ReferenceStringSigma``), as the pair matrix is
against ``ci_oracle.reference_pair_matrix`` on pair-count sectors, and to
1e-12 against the determinant oracle
``ci_oracle.slater_condon_matrix`` and against the Jordan-Wigner route
(``ci_oracle.reference_matrix`` of ``jordan_wigner(build_hamiltonian(mo))``)
on random integrals, on (N, S_z) sectors with n_up != n_down and on N
sectors (unions of spin grids), and on every seed-0 benchmark point. The
Davidson solve of it matches ``eigvalsh`` of the oracle on tiny sectors,
where the subspace can exhaust the space, and a basis that is not a sector
is refused. Its string moves are checked against ladder operators on
bitmasks (``ci_oracle.apply_ladder``), and its grid positions and signs
against the sign of putting a grid determinant's creators in ascending
order. Its sign mask, ``exact.between``, is checked against the
Jordan-Wigner sign of a hop and its image lookup, ``exact._locate``,
against set membership. A point runs on it, and runs the Jordan-Wigner
encoding only to write its ``hamiltonian.txt``. Examples are derandomized.
"""

import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pnovqe as pq
from pnovqe import cli, exact, workbench
from pnovqe.exact import IntegralHamiltonian, SectorBasis, _sector_operator

from ci_oracle import (
    ReferenceStringSigma, apply_ladder, random_integral_set, reference_jordan_wigner, reference_matrix,
    reference_pair_matrix, register_sector, slater_condon_matrix,
)
from conftest import sector_matrix

BUILDER = settings(derandomize=True, database=None, max_examples=80, deadline=None)
RULE = settings(derandomize=True, database=None, max_examples=200, deadline=None)
BLOCKS = (exact._BLOCK, 16, 64)   # the default: one block on these sectors; the others: several


def jw_matrix(mo, states):
    return reference_matrix(pq.jordan_wigner(pq.build_hamiltonian(mo), 2 * mo.n_orb), states)


@st.composite
def sectors(draw, orbitals=(1, 4)):
    """(integrals, basis): (N, S_z) or N sectors, open and closed shell."""
    n_orb = draw(st.integers(*orbitals))
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
@given(sectors(), st.integers(0, 2**32 - 1))
def test_sigma_matches_the_determinant_oracle_and_the_jordan_wigner_matrix(case, seed):
    mo, basis = case
    operator = _sector_operator(IntegralHamiltonian(mo), basis)
    oracle = slater_condon_matrix(mo, [int(s) for s in basis.states])
    np.testing.assert_allclose(jw_matrix(mo, basis.states).toarray().real, oracle, atol=1e-12, rtol=0)
    for vector in np.random.default_rng(seed).standard_normal((3, basis.dim)):
        product = operator @ vector
        assert product.dtype == np.float64 and product.shape == vector.shape
        np.testing.assert_allclose(product, oracle @ vector, atol=1e-12, rtol=0)
    np.testing.assert_allclose(operator.diagonal(), np.diag(oracle), atol=1e-12, rtol=0)
    assert not operator.diagonal().flags.writeable   # the operator is kept and shared


def vectors(rng, dim: int) -> tuple:
    """A vector with exact zeros (as a circuit state has) and three dense vectors."""
    vector = rng.standard_normal(dim)
    return np.where(rng.random(dim) < 0.3, 0.0, vector), *rng.standard_normal((3, dim))


@BUILDER
@given(sectors(), st.integers(0, 2**32 - 1), st.sampled_from(BLOCKS))
# one row of 8 slots
@example(case=(random_integral_set(4, 2, 0), pq.sector_basis(8, 8, 0)), seed=4, block=exact._BLOCK)
def test_sigma_has_the_bits_of_the_scipy_table(case, seed, block):
    # the numpy table against the scipy.sparse one it replaced, byte for byte; a small
    # ``_BLOCK`` splits the table into many blocks of two or more rows, the last one partly filled
    mo, basis = case
    with mock.patch.object(exact, "_BLOCK", block):
        operator = _sector_operator(IntegralHamiltonian(mo), basis)
    reference = ReferenceStringSigma(mo, basis)
    for x in vectors(np.random.default_rng(seed), basis.dim):
        want = (reference @ x).tobytes()
        assert (operator @ x).tobytes() == want
        assert (operator @ x).tobytes() == want   # again, on the work arrays the first product left
    assert operator.diagonal().tobytes() == reference.diagonal().tobytes()


@BUILDER
@given(st.integers(1, 6), st.integers(0, 10_000), st.sampled_from(BLOCKS), st.data())
def test_pair_matrix_has_the_bits_of_the_scipy_matrix(n_orb, seed, block, data):
    # on every pair-count sector, in one block and, with a small ``_BLOCK``, in many
    mo = random_integral_set(n_orb, 2, seed)
    basis = pq.sector_basis(n_orb, data.draw(st.integers(0, n_orb)))
    with mock.patch.object(exact, "_BLOCK", block):
        operator = _sector_operator(pq.build_paired_hamiltonian(mo), basis)
    reference = reference_pair_matrix(mo, basis)
    for x in vectors(np.random.default_rng(seed), basis.dim):
        assert (operator @ x).tobytes() == (reference @ x).tobytes()
    assert operator.diagonal().tobytes() == reference.diagonal().tobytes()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(sectors(orbitals=(1, 3)).filter(lambda case: case[1].dim <= 30))
def test_davidson_matches_the_oracle_spectrum_on_tiny_sectors(case):
    # dims 1-30: the 24-vector subspace can span the whole sector
    mo, basis = case
    energy, vector = pq.exact_ground_energy(IntegralHamiltonian(mo), basis)
    oracle = slater_condon_matrix(mo, [int(s) for s in basis.states])
    assert abs(energy - np.linalg.eigvalsh(oracle)[0]) < 1e-10
    assert np.linalg.norm(oracle @ vector - energy * vector) < 1e-8


@BUILDER
@given(sectors(orbitals=(1, 3)), st.data())
def test_a_basis_that_is_not_a_sector_is_refused(case, data):
    # a sector with states dropped or added; the result is refused unless it
    # happens to be another sector (``register_sector``)
    mo, basis = case
    n_qubits, states = basis.n_qubits, set(basis.states.tolist())
    dropped = data.draw(st.sets(st.sampled_from(sorted(states))))
    added = data.draw(st.sets(st.integers(0, 2**n_qubits - 1), max_size=3))
    kept = sorted((states - dropped) | added) or [0]
    sectors_of_register = [register_sector(n_qubits, n, two_sz) for n in range(n_qubits + 1)
                           for two_sz in [None, *range(-n, n + 1, 2)]]
    subset = SectorBasis(n_qubits, np.array(kept, dtype=np.int64))
    if kept in sectors_of_register:
        np.testing.assert_allclose(sector_matrix(IntegralHamiltonian(mo), subset),
                                   slater_condon_matrix(mo, kept), atol=1e-12, rtol=0)
    else:
        with pytest.raises(ValueError, match=r"needs an \(N, S_z\) or an N sector basis"):
            _sector_operator(IntegralHamiltonian(mo), subset)


def _creators_sign(creators: list) -> tuple:
    """(bitmask, sign) of a+_c1 a+_c2 ... |0> for ``creators`` c1, c2, ..., applied right to left."""
    mask, sign = 0, 1.0
    for c in reversed(creators):
        mask, step = apply_ladder(mask, c, True)
        sign *= step
    return mask, sign


@pytest.mark.parametrize("n_orb", range(1, 9))
def test_string_moves_are_the_merged_one_spin_replacements(n_orb):
    # move (pair pq, string I, image J, sign) is <J|E_pq + E_qp|I> for p > q and <J|E_pp|I>, by ladders
    for n_occupied in range(n_orb + 1):
        strings = exact._strings(n_orb, n_occupied).tolist()
        occupations, pair, string, image, sign = exact._string_moves(n_orb, n_occupied)
        assert occupations.tolist() == [[s >> p & 1 for p in range(n_orb)] for s in strings]
        assert len(set(zip(pair.tolist(), string.tolist()))) == len(pair)   # one image per (pair, string)
        assert len(pair) == len(strings) * n_occupied * (n_orb + 1 - n_occupied)   # as _check_solvable counts
        moves = np.zeros((n_orb * (n_orb + 1) // 2, len(strings), len(strings)))
        moves[pair, image, string] = sign
        expected = np.zeros(moves.shape)
        for p in range(n_orb):
            for q in range(p + 1):
                for i, s in enumerate(strings):
                    for a, b in {(p, q), (q, p)}:   # a+_a a_b
                        emptied = apply_ladder(s, b, False)
                        filled = emptied and apply_ladder(emptied[0], a, True)
                        if filled:
                            expected[p * (p + 1) // 2 + q, strings.index(filled[0]), i] += emptied[1] * filled[1]
        assert np.array_equal(moves, expected)
        assert np.array_equal(moves, moves.transpose(0, 2, 1))


@pytest.mark.parametrize("n_orb", range(1, 7))
def test_grid_positions_and_phases_order_the_creators(n_orb):
    # a grid determinant is a+ of its spin-up orbitals, then of its spin-down ones; in
    # the basis it is the same creators in ascending qubit order, which take no sign
    for n in range(2 * n_orb + 1):
        for two_sz in [None, *range(-n, n + 1, 2)]:
            try:
                basis = pq.sector_basis(2 * n_orb, n, two_sz)
            except ValueError:
                continue
            covered = []
            for n_up, n_down, positions, phases in exact._grids(basis):
                up, down = exact._strings(n_orb, n_up).tolist(), exact._strings(n_orb, n_down).tolist()
                for i, alpha in enumerate(up):
                    for j, beta in enumerate(down):
                        creators = [2 * p for p in range(n_orb) if alpha >> p & 1]
                        creators += [2 * p + 1 for p in range(n_orb) if beta >> p & 1]
                        determinant, sign = _creators_sign(creators)
                        assert basis.states[positions[i, j]] == determinant
                        assert phases[i, j] == sign
                covered += positions.ravel().tolist()
            assert sorted(covered) == list(range(basis.dim))


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
def test_sigma_matches_the_jordan_wigner_matrix_on_benchmark_points(workload, coordinate,
                                                                      tmp_path):
    coordinates = workload.coordinates(0)
    workload.write_inputs([coordinate] if workload.scan else coordinates, tmp_path)
    config = workload.config(coordinates, tmp_path)
    stage = workbench.compact_hamiltonian(config, coordinate)
    ansatz = workbench.build_ansatz_for(config, stage)
    basis = ansatz.basis
    mat = sector_matrix(IntegralHamiltonian(stage["final"]), basis)
    jw = reference_matrix(stage["hamiltonian"], basis.states)
    assert not jw.data.imag.any()
    assert np.abs(mat - jw.real).max() < 1e-12


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


def test_integral_hamiltonian_keeps_one_operator_per_basis():
    mo = random_integral_set(3, 2, 4)
    hamiltonian = IntegralHamiltonian(mo)
    basis = pq.sector_basis(6, 2, 0)
    operator = _sector_operator(hamiltonian, basis)
    assert _sector_operator(hamiltonian, SectorBasis(6, basis.states)) is operator
    assert hamiltonian.n_qubits == 6
    with pytest.raises(ValueError, match="N sector basis"):
        _sector_operator(hamiltonian, SectorBasis(6, np.arange(4, dtype=np.int64)))
    with pytest.raises(ValueError, match="register"):
        _sector_operator(hamiltonian, pq.sector_basis(8, 2, 0))


def test_basis_refuses_shuffled_states():
    # images are located by searchsorted: a shuffled basis gave a symmetric
    # matrix whose two lowest eigenvalues were 0.0 and 0.0
    hamiltonian = IntegralHamiltonian(random_integral_set(3, 2, 7))
    basis = pq.sector_basis(6, 2, 0)
    shuffled = basis.states[np.random.default_rng(0).permutation(9)]
    with pytest.raises(ValueError, match="strictly increasing bitmasks of the register"):
        SectorBasis(6, shuffled)
    lowest = np.linalg.eigvalsh(sector_matrix(hamiltonian, basis))[:2]
    np.testing.assert_allclose(lowest, [-3.305, -3.060], atol=1e-3)
    with pytest.raises(ValueError, match="strictly increasing bitmasks of the register"):
        SectorBasis(3, np.array([0b110, 0b011]))


def test_basis_refuses_unsorted_states_outside_the_register():
    # this basis failed inside numpy, on a reshape of the occupied orbitals
    with pytest.raises(ValueError, match="strictly increasing bitmasks of the register"):
        SectorBasis(6, [0b11, 0b1000001, 0b101])


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


def test_fci_command_reads_the_operator_of_run_point(monkeypatch, tmp_path, lih_like):
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
