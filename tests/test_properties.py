"""Property tests for the oracle's Pauli projection and the generator engine.

``ci_oracle.reference_matrix`` is the one sector projection of a Pauli sum
that the tests compare the package's determinant matrices with; it is
checked here against Kronecker products. Examples are derandomized, so
every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import pnovqe as pq
from pnovqe.operators import QubitOperator
from pnovqe.simulator import _sector_state

from ci_oracle import (
    embed, kron_ansatz_state, kron_expectation, kron_matrix, random_integral_set,
    reference_matrix, reference_register_shift_gradient,
)

KERNEL = settings(derandomize=True, database=None, max_examples=30, deadline=None)
ENGINE = settings(derandomize=True, database=None, max_examples=15, deadline=None)

coefficients = st.builds(
    complex,
    st.floats(-2.0, 2.0, allow_nan=False),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@st.composite
def qubit_operators(draw):
    n = draw(st.integers(1, 4))
    mask = st.integers(0, (1 << n) - 1)
    terms = draw(st.dictionaries(st.tuples(mask, mask), coefficients, max_size=10))
    return QubitOperator(n, terms)


@KERNEL
@given(qubit_operators())
def test_matrix_on_full_basis_matches_kron_oracle(op):
    states = np.arange(1 << op.n_qubits, dtype=np.int64)
    np.testing.assert_allclose(reference_matrix(op, states).toarray(), kron_matrix(op), atol=1e-12)


@KERNEL
@given(qubit_operators(), st.data())
def test_matrix_on_subset_is_the_submatrix(op, data):
    subset = sorted(data.draw(
        st.lists(st.integers(0, (1 << op.n_qubits) - 1), min_size=1, unique=True)
    ))
    expected = kron_matrix(op)[np.ix_(subset, subset)]
    got = reference_matrix(op, np.array(subset, dtype=np.int64)).toarray()
    np.testing.assert_allclose(got, expected, atol=1e-12)


@st.composite
def circuits(draw):
    """A random integral set's Hamiltonian, its Jordan-Wigner image, its UpCCGSD ansatz and angles."""
    n_orb = draw(st.integers(2, 3))
    n_elec = draw(st.sampled_from((2,) if n_orb == 2 else (2, 4)))
    mo = random_integral_set(n_orb, n_elec, draw(st.integers(0, 10_000)))
    hq = pq.jordan_wigner(pq.build_hamiltonian(mo), 2 * n_orb)
    ansatz = pq.build_upccgsd(n_orb, n_elec)
    angle = st.floats(-np.pi, np.pi, allow_nan=False)
    theta = np.array(draw(st.lists(angle, min_size=ansatz.n_parameters,
                                   max_size=ansatz.n_parameters)))
    return pq.IntegralHamiltonian(mo), hq, ansatz, theta


@ENGINE
@given(circuits())
def test_sector_energy_matches_full_register(circuit):
    hamiltonian, hq, ansatz, theta = circuit
    oracle = kron_ansatz_state(ansatz, theta)
    assert abs(pq.ansatz_expectation(hamiltonian, ansatz, theta) - kron_expectation(hq, oracle)) < 1e-10
    basis, _, psi = _sector_state(ansatz, theta)
    assert abs(abs(np.vdot(embed(basis, psi), oracle)) - 1.0) < 1e-10


@ENGINE
@given(circuits())
def test_sector_adjoint_gradient_matches_register_shift_rule(circuit):
    hamiltonian, hq, ansatz, theta = circuit
    expected = reference_register_shift_gradient(hq, ansatz, theta)
    np.testing.assert_allclose(pq.gradient(hamiltonian, ansatz, theta), expected, atol=1e-10, rtol=0)
