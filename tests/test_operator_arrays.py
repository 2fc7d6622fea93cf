"""Array-built operators against the term-by-term oracles, bit for bit.

``build_hamiltonian`` and ``jordan_wigner`` must give exactly what the
loops in ``ci_oracle`` give: the same dict items in the same order;
``QubitOperator.to_text`` the same bytes. Examples are derandomized. The
block size is shrunk in some checks so that every example spans many
blocks; the result must not depend on it.
"""

import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pnovqe as pq
from pnovqe import operators, workbench
from pnovqe.operators import QubitOperator

from ci_oracle import (
    random_integral_set,
    reference_build_hamiltonian,
    reference_jordan_wigner,
    reference_to_text,
)

EXACT = settings(derandomize=True, database=None, max_examples=60, deadline=None)

# values that cancel, sit on either side of the cutoff, or are exactly zero
entries = st.sampled_from([0.0, 1e-15, -1e-15, 2e-14, 0.25, -0.25, 0.5, 1.0 / 3.0, -0.7, 1.5])
coefficients = st.builds(complex, entries, entries)


def same_items(a, b) -> bool:
    """Equal keys in the same order, and coefficients equal to the bit."""
    a, b = list(a), list(b)
    if [k for k, _ in a] != [k for k, _ in b]:
        return False
    values_a = np.array([complex(v) for _, v in a], dtype=complex)
    values_b = np.array([complex(v) for _, v in b], dtype=complex)
    return values_a.tobytes() == values_b.tobytes()


@st.composite
def integral_sets(draw):
    """Integrals without symmetry (which IntegralSet would demand), so sign
    flips and cancellations meet in one key."""
    n = draw(st.integers(1, 4))
    h = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    eri = np.array(draw(st.lists(entries, min_size=n**4, max_size=n**4))).reshape((n,) * 4)
    return SimpleNamespace(n_orb=n, h=h, eri=eri, core_energy=draw(entries))


@st.composite
def fermion_operators(draw):
    """Ladder products of length 0 to 4, in any order, repeated indices included."""
    n_qubits = draw(st.integers(1, 7))
    ladder = st.tuples(st.integers(0, n_qubits - 1), st.booleans())
    terms = draw(st.dictionaries(st.lists(ladder, max_size=4).map(tuple), coefficients,
                                 max_size=30))
    return terms, n_qubits


class TestBuildHamiltonian:
    @EXACT
    @given(integral_sets())
    def test_matches_the_loop(self, mo):
        assert same_items(pq.build_hamiltonian(mo).items(),
                          reference_build_hamiltonian(mo).items())

    @pytest.mark.parametrize("n_orb, seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
    def test_random_symmetric_sets(self, n_orb, seed):
        mo = random_integral_set(n_orb, 2, seed)
        assert same_items(pq.build_hamiltonian(mo).items(),
                          reference_build_hamiltonian(mo).items())


class TestJordanWigner:
    @EXACT
    @given(fermion_operators())
    def test_matches_the_loop(self, case):
        op, n_qubits = case
        assert same_items(pq.jordan_wigner(op, n_qubits).raw_items(),
                          reference_jordan_wigner(op, n_qubits).raw_items())

    @EXACT
    @given(fermion_operators())
    def test_block_size_changes_no_bit(self, case):
        op, n_qubits = case
        expected = reference_jordan_wigner(op, n_qubits).raw_items()
        for block in (1, 3, 1 << 10):
            with mock.patch.object(operators, "_JW_BLOCK", block):
                assert same_items(pq.jordan_wigner(op, n_qubits).raw_items(), expected)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_hamiltonians(self, seed):
        mo = random_integral_set(4, 4, seed)
        fermion = pq.build_hamiltonian(mo)
        assert same_items(pq.jordan_wigner(fermion, 8).raw_items(),
                          reference_jordan_wigner(fermion, 8).raw_items())

    @pytest.mark.parametrize("n_qubits, index", [(40, 39), (63, 62)])
    def test_wide_registers(self, n_qubits, index):
        # two masks of a product together need more than 63 bits; the last
        # two hoppings share Z masks and differ only in high X bits
        op = {((index, True), (0, False)): 0.5, ((0, True), (index, False)): 0.5}
        op.update({((j, True), (j, False)): 0.1 * j for j in range(5, n_qubits, 5)})
        op.update({((index - 1, True), (index - 3, False)): 0.3,
                   ((index - 1, True), (index - 2, False)): 0.2})
        assert same_items(pq.jordan_wigner(op, n_qubits).raw_items(),
                          reference_jordan_wigner(op, n_qubits).raw_items())

    def test_mixed_lengths_expand_only_real_products(self):
        # one long term among many short ones must not widen the block of the
        # short ones: every expanded row is a term's own 2^L products
        rng = np.random.default_rng(7)
        terms = {}
        for k in range(300):
            length = 10 if k in (5, 150) else int(rng.integers(0, 5))
            ladders = zip(rng.integers(0, 12, length).tolist(), rng.integers(0, 2, length).tolist())
            terms[tuple((i, bool(c)) for i, c in ladders)] = complex(*rng.standard_normal(2))
        expanded = []

        def spy(index, y_power, coeffs):
            out = expand(index, y_power, coeffs)
            expanded.append(out[1].size)
            return out

        expand = operators._expand_block
        with mock.patch.object(operators, "_JW_BLOCK", 64), \
                mock.patch.object(operators, "_expand_block", spy):
            got = pq.jordan_wigner(terms, 12).raw_items()
        assert same_items(got, reference_jordan_wigner(terms, 12).raw_items())
        assert sum(expanded) == sum(1 << len(term) for term in terms)
        assert max(expanded) == 1 << 10

    @pytest.mark.parametrize("n_number_terms", [0, 9])
    def test_negative_index_rejected(self, n_number_terms):
        op = {((-1, True), (0, False)): 1.0 + 0j}
        op.update({((j, True), (j, False)): 1.0 + 0j for j in range(n_number_terms)})
        with pytest.raises(ValueError, match="negative fermionic index"):
            pq.jordan_wigner(op, 10)

    @pytest.mark.parametrize("n_number_terms", [0, 9])
    def test_index_beyond_register_rejected(self, n_number_terms):
        op = {((10, True), (0, False)): 1.0 + 0j}
        op.update({((j, True), (j, False)): 1.0 + 0j for j in range(n_number_terms)})
        with pytest.raises(ValueError, match="index overflow"):
            pq.jordan_wigner(op, 10)

    def test_register_beyond_int64_masks_rejected(self):
        op = {((0, True), (0, False)): 1.0}
        with pytest.raises(ValueError, match="at most 63 qubits"):
            pq.jordan_wigner(op, 64)


@st.composite
def text_operators(draw):
    """Qubit operators with the identity, real and complex terms, and imaginary parts at the cutoff."""
    n = draw(st.integers(1, 12))
    mask = st.integers(0, (1 << n) - 1)
    terms = draw(st.dictionaries(st.tuples(mask, mask), coefficients, max_size=30))
    return QubitOperator(n, terms)


class TestToText:
    @EXACT
    @given(text_operators())
    def test_matches_the_loop(self, op):
        assert op.to_text() == reference_to_text(op)

    def test_empty_and_identity(self):
        assert QubitOperator(3).to_text() == reference_to_text(QubitOperator(3)) == "\n"
        identity = QubitOperator(3, {(0, 0): -0.5})
        assert identity.to_text() == reference_to_text(identity) == "-0.5 I\n"

    def test_hamiltonian(self):
        mo = random_integral_set(5, 4, 4)
        hq = pq.jordan_wigner(pq.build_hamiltonian(mo), 10)
        assert hq.to_text() == reference_to_text(hq)


# seed-0 inputs of the benchmark's workloads and their qubit Hamiltonians'
# (terms, X-mask groups) at every scan point; h2's counts hinge on MO integrals
# of round-off size, so they move with the AO integrals' and four-index transform's round-off
WORKLOAD_COUNTS = {
    "h2-s10-q16-point": (3517, 613),
    "lih-q12-scan-w2": (1819, 286),
    "h8-sto3g-scan": (919, 148),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_COUNTS))
def test_workload_term_counts(name, tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    workload = WORKLOADS[name]
    coordinates = workload.coordinates(0)
    workload.write_inputs(coordinates, tmp_path)
    config = workload.config(coordinates, tmp_path)
    for coordinate in coordinates if workload.scan else (None,):
        hamiltonian = workbench.compact_hamiltonian(config, coordinate)["hamiltonian"]
        groups = len({x for (x, _z), _c in hamiltonian.raw_items()})
        assert (hamiltonian.n_terms, groups) == WORKLOAD_COUNTS[name]
