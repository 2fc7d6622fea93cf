"""The batched factor pass against the one-generator build, bit for bit.

``simulator._factors`` builds every generator of a set together. For each it
must return the arrays of ``ci_oracle.reference_support_factor``: rows,
columns and signs, the same bits and the same sign dtype. Or it must raise
the first failing generator's error with the same message. Examples
are derandomized. Some checks shrink the block constant so that one set
spans many blocks; the result must not depend on it.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pnovqe as pq
from pnovqe import simulator
from pnovqe.exact import SectorBasis
from pnovqe.simulator import _factors

from ci_oracle import reference_support_factor, register_basis

EXACT = settings(derandomize=True, database=None, max_examples=80, deadline=None)

# 1e-15 is below the cutoff, so a generator can lose terms or end up empty
real_weights = st.sampled_from([0.5, -0.5, 1.0, -1.0, 0.25, 2.0 ** -0.5, 0.7, 1e-15])
complex_weights = st.sampled_from([0.5j, -0.5j, 0.5 + 0.5j, -1.0j])


@st.composite
def sectors(draw, n):
    """An N sector, or an (N, S_z) sector of an even register."""
    n_particles = draw(st.integers(0, n))
    if n % 2 or draw(st.booleans()):
        return pq.sector_basis(n, n_particles)
    n_up = draw(st.integers(max(0, n_particles - n // 2), min(n_particles, n // 2)))
    return pq.sector_basis(n, n_particles, 2 * n_up - n_particles)


@st.composite
def bases(draw, n):
    """The register, a sector, or an arbitrary subset of the register."""
    kind = draw(st.sampled_from(["register", "sector", "subset"]))
    if kind == "register":
        return register_basis(n)
    if kind == "sector":
        return draw(sectors(n))
    states = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=1 << n, unique=True))
    return SectorBasis(n, np.array(sorted(states), dtype=np.int64))


def excitations(n):
    """Pair doubles and singles of an n-qubit register (n even, at least 4)."""
    n_spatial = n // 2
    pair = st.lists(st.integers(0, n_spatial - 1), min_size=2, max_size=2, unique=True)
    doubles = pair.map(lambda p: pq.make_pair_double(*p, n_spatial).strings)
    singles = st.tuples(pair, st.integers(0, 1)).map(
        lambda a: pq.make_single(*a[0], a[1], n_spatial).strings)
    return doubles | singles


@st.composite
def generator_sets(draw):
    """Pauli sums, valid or not, with repeated strings, sharing a few X masks.

    Sums have real or complex weights (so some are not Hermitian), one or
    several X groups, X mask 0 (diagonal strings) and no terms at all.
    """
    n = draw(st.integers(1, 6))
    mask = st.integers(0, (1 << n) - 1)
    shared_x = draw(st.lists(st.just(0) | mask, min_size=1, max_size=3))
    string = st.builds(lambda x, z: pq.PauliString(n, x, z), st.sampled_from(shared_x), mask)
    pauli_sum = st.lists(st.tuples(string, real_weights | complex_weights), max_size=4).map(tuple)
    kinds = pauli_sum | string.map(lambda s: ((s, 1.0),))
    if n % 2 == 0 and n >= 4:
        kinds |= excitations(n)
    return draw(st.lists(kinds, min_size=1, max_size=6)), draw(bases(n))


@st.composite
def valid_sets(draw):
    """Excitations on a sector, or single Pauli strings on the register: every factor exists."""
    n = draw(st.sampled_from([4, 6, 8]))
    if draw(st.booleans()):
        strings = st.builds(lambda x, z: ((pq.PauliString(n, x, z), 1.0),),
                            st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
        return draw(st.lists(strings, min_size=1, max_size=8)), register_basis(n)
    return draw(st.lists(excitations(n), min_size=1, max_size=8)), draw(sectors(n))


def outcome(build, generators, basis):
    try:
        return build(generators, basis)
    except ValueError as exc:
        return str(exc)


def oracle(generators, basis):
    return [reference_support_factor(strings, basis) for strings in generators]


def assert_same(got, expected):
    if isinstance(expected, str):
        assert got == expected
        return
    assert not isinstance(got, str), got
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert a[2].dtype == b[2].dtype


@EXACT
@given(generator_sets())
def test_any_generator_set_matches_the_one_generator_build(case):
    assert_same(outcome(_factors, *case), outcome(oracle, *case))


@EXACT
@given(valid_sets())
def test_valid_sets_match_the_one_generator_build(case):
    assert_same(_factors(*case), oracle(*case))


@EXACT
@given(generator_sets(), st.sampled_from([1, 7, 100]))
def test_block_constant_changes_no_bit(case, block):
    expected = outcome(oracle, *case)
    with mock.patch.object(pq.operators, "_PAULI_BLOCK", block):
        assert_same(outcome(_factors, *case), expected)


@pytest.mark.parametrize("block", [1, 50, pq.operators._PAULI_BLOCK])
@pytest.mark.parametrize("build", [
    lambda: pq.build_upccgsd(4, 4),
    lambda: pq.build_upccgsd(3, 2, layers=2),
    lambda: pq.build_paired_ansatz((0,), [(0, 1), (0, 2), (0, 3)], 4),
], ids=["upccgsd", "upccgsd-k2", "paired"])
def test_ansatz_circuits_match_on_their_sector(build, block):
    ansatz = build()    # a fresh ansatz, so its circuit is prepared here
    basis = pq.sector_basis(ansatz.n_qubits, len(ansatz.reference), ansatz.two_sz)
    generators = [gen.strings for gen in ansatz.generators]
    with mock.patch.object(pq.operators, "_PAULI_BLOCK", block):
        circuit = simulator._prepared(ansatz, basis)
    assert_same(list(circuit.factors), oracle(generators, basis))


def test_first_failing_generator_raises():
    # the second generator leaves the N = 1 sector, the third fails G^3 = G,
    # the fourth has a complex weight
    basis = pq.sector_basis(2, 1)
    label = pq.PauliString.from_label
    generators = [
        ((label(2, "X0 X1"), 0.5), (label(2, "Y0 Y1"), 0.5)),
        ((label(2, "X0"), 1.0),),
        ((label(2, "Z0"), 0.5),),
        ((label(2, "X0 Y1"), 0.5j),),
    ]
    with pytest.raises(ValueError, match="outside the basis"):
        _factors(generators, basis)
    with pytest.raises(ValueError, match="outside the basis"):
        _factors(generators[1::2], basis)
    with pytest.raises(ValueError, match="not Hermitian"):
        _factors(generators[::-1], basis)
    with pytest.raises(ValueError, match=r"G\^3 = G"):
        _factors(generators[:3:2], basis)
    assert len(_factors(generators[:1], basis)) == 1


def test_superposition_after_a_valid_generator_is_refused():
    # (X0 + X1)/2 has G^3 = G and keeps the register closed, but maps |00>
    # to (|01> + |10>)/2
    label = pq.PauliString.from_label
    generators = [((label(2, "Y0 X1"), 1.0),), ((label(2, "X0"), 0.5), (label(2, "X1"), 0.5))]
    basis = register_basis(2)
    with pytest.raises(ValueError, match="superposition"):
        _factors(generators, basis)
    assert_same(outcome(_factors, generators, basis), outcome(oracle, generators, basis))


def test_entries_sum_their_terms_in_ascending_z_order():
    # on |000> and |111> the entries are +-(0.1 + 0.2 + 0.7): 1.0 summed in
    # ascending Z order, 0.9999999999999999 in descending order; both pass
    # G^3 = G within 1e-10, so only the summation order tells them apart
    label = pq.PauliString.from_label
    strings = ((label(3, "Z2"), 0.7), (label(3, "Z0"), 0.1), (label(3, "Z1"), 0.2))
    basis = SectorBasis(3, np.array([0b000, 0b111], dtype=np.int64))
    (factor,) = _factors([strings], basis)
    total = ((0.0 + 0.1) + 0.2) + 0.7
    assert factor[2].tolist() == [-1j * total, 1j * total]    # signs = -i G entries
    assert_same([factor], oracle([strings], basis))
