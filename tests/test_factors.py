"""Support-form circuit factors and the per-ansatz prepared circuit.

A factor stores G as a phased permutation of its support and is checked
against the matrix exponential and against the sparse G^3 = G formula in
``ci_oracle.reference_rotate``; building it must accept and reject exactly
the generators that the sparse-product checks of ``ci_oracle.reference_factor``
do, with the same first error. A generator with a complex coefficient is not
Hermitian and is refused before any other check. The prepared circuit keeps
the last forward state, the signed input of each rotation and H times the
state; the cache tests require bit-equal results to a fresh ansatz however
the parameters change between calls, and count one sector mat-vec and one
sweep each way per parameter point. Examples are derandomized.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import pnovqe as pq
from pnovqe import simulator
from pnovqe.ansatz import PNO_VARIANTS
from pnovqe.exact import SectorBasis
from pnovqe.simulator import _factors, _rotate, _sector_state

from ci_oracle import (
    kron_string, random_integral_set, reference_factor, reference_register_shift_gradient,
    reference_rotate, register_basis,
)

FACTORS = settings(derandomize=True, database=None, max_examples=40, deadline=None)
CACHE = settings(derandomize=True, database=None, max_examples=10, deadline=None)

angles = st.floats(-2.0 * np.pi, 2.0 * np.pi, allow_nan=False)


def one_factor(strings, basis):
    return _factors((strings,), basis)[0]


def random_state(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


@st.composite
def sector_generators(draw):
    """(strings, basis) for a pair double or single on a random (N, S_z) sector."""
    n_spatial = draw(st.integers(2, 4))
    p, q = sorted(draw(st.lists(st.integers(0, n_spatial - 1), min_size=2, max_size=2,
                                unique=True)))
    if draw(st.booleans()):
        gen = pq.make_pair_double(p, q, n_spatial)
    else:
        gen = pq.make_single(p, q, draw(st.integers(0, 1)), n_spatial)
    n_particles = draw(st.integers(0, 2 * n_spatial))
    n_up = draw(st.integers(max(0, n_particles - n_spatial), min(n_particles, n_spatial)))
    two_sz = draw(st.sampled_from([None, 2 * n_up - n_particles]))
    return gen.strings, pq.sector_basis(2 * n_spatial, n_particles, two_sz)


@st.composite
def register_strings(draw):
    """(strings, basis) for one Pauli string, diagonal ones included, on the register."""
    n = draw(st.integers(1, 5))
    x = draw(st.sampled_from([0, draw(st.integers(0, (1 << n) - 1))]))
    z = draw(st.integers(0, (1 << n) - 1))
    return ((pq.PauliString(n, x, z), 1.0),), register_basis(n)


def check_factor(strings, basis, angle, seed):
    gen = sum((pq.QubitOperator.from_string(s, c) for s, c in strings),
              pq.QubitOperator(basis.n_qubits))
    g = gen.matrix(basis.states)
    vec = random_state(basis.dim, seed)
    factor = one_factor(strings, basis)
    got = vec.copy()
    _rotate(got, factor, angle)
    expected = scipy.linalg.expm(-0.5j * angle * g.toarray()) @ vec
    np.testing.assert_allclose(got, expected, atol=1e-12)
    np.testing.assert_allclose(got, reference_rotate(vec, g, angle), atol=1e-12)


@FACTORS
@given(sector_generators(), angles, st.integers(0, 2**16))
def test_excitation_factor_matches_expm_and_reference(case, angle, seed):
    check_factor(*case, angle, seed)


@FACTORS
@given(register_strings(), angles, st.integers(0, 2**16))
def test_pauli_string_factor_matches_expm_and_reference(case, angle, seed):
    check_factor(*case, angle, seed)


def test_generator_mapping_to_a_superposition_is_rejected():
    # G = (X0 + X1)/2 has G^3 = G and keeps the register closed, but maps
    # |0000> to (|0001> + |0010>)/2
    strings = tuple((pq.PauliString.from_label(4, label), 0.5) for label in ("X0", "X1"))
    with pytest.raises(ValueError, match="superposition"):
        one_factor(strings, register_basis(4))
    check_same_outcome(strings, register_basis(4))


@st.composite
def any_generators(draw):
    """(strings, basis): real Pauli sums, valid or not, on the register, a sector or a subset."""
    n = draw(st.integers(1, 4))
    mask = st.integers(0, (1 << n) - 1)
    weights = st.sampled_from([0.5, -0.5, 1.0, -1.0, 0.25, 2.0 ** -0.5, 0.7])
    terms = draw(st.dictionaries(st.tuples(mask, mask), weights, min_size=1, max_size=4))
    strings = tuple((pq.PauliString(n, x, z), c) for (x, z), c in terms.items())
    kind = draw(st.sampled_from(["register", "sector", "subset"]))
    if kind == "register":
        return strings, register_basis(n)
    if kind == "sector":
        return strings, pq.sector_basis(n, draw(st.integers(0, n)))
    states = draw(st.lists(mask, min_size=1, max_size=1 << n, unique=True))
    return strings, SectorBasis(n, np.array(sorted(states), dtype=np.int64))


def factor_outcome(build, strings, basis):
    try:
        return build(strings, basis)
    except ValueError as exc:
        return str(exc)


def check_same_outcome(strings, basis):
    got = factor_outcome(one_factor, strings, basis)
    expected = factor_outcome(reference_factor, strings, basis)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        rows, cols, phases = expected
        assert np.array_equal(got[0], rows) and np.array_equal(got[1], cols)
        assert np.array_equal(got[2], -1j * phases)


@FACTORS
@given(any_generators())
def test_factor_checks_agree_with_the_sparse_products(case):
    check_same_outcome(*case)


@FACTORS
@given(st.one_of(sector_generators(), register_strings()))
def test_valid_factors_agree_with_the_sparse_products(case):
    check_same_outcome(*case)


@pytest.mark.parametrize("labels, coeff, basis, message", [
    (("X0",), 1.0, pq.sector_basis(4, 2), "outside the basis"),
    (("X0",), 2.0, register_basis(1), r"G\^3 = G"),
    # X0 + Z0 and X0 + X1 fail G^3 = G too, but map to superpositions first
    (("X0", "Z0"), 0.5, register_basis(1), "superposition"),
    (("X0", "X1"), 1.0, register_basis(2), "superposition"),
    (("X0", "X1"), 0.5, register_basis(2), "superposition"),
    (("X0", "Z0"), 2.0 ** -0.5, register_basis(1), "superposition"),
])
def test_each_rejection_matches_the_sparse_products(labels, coeff, basis, message):
    strings = tuple((pq.PauliString.from_label(basis.n_qubits, label), coeff) for label in labels)
    with pytest.raises(ValueError, match=message):
        one_factor(strings, basis)
    check_same_outcome(strings, basis)


def test_cyclic_generator_is_refused_as_non_hermitian():
    # G = |1><0| + |2><1| + |0><2| keeps the register closed and has one
    # entry per row, and G^3 is the identity on its support; its Pauli
    # coefficients are complex, which is refused first
    cycle = np.zeros((4, 4))
    cycle[1, 0] = cycle[2, 1] = cycle[0, 2] = 1.0
    strings = []
    for x in range(4):
        for z in range(4):
            string = pq.PauliString(2, x, z)
            coeff = np.trace(kron_string(string) @ cycle) / 4
            if abs(coeff) > 1e-12:
                strings.append((string, complex(coeff)))
    assert any(c.imag for _, c in strings)
    with pytest.raises(ValueError, match="not Hermitian"):
        one_factor(tuple(strings), register_basis(2))
    check_same_outcome(tuple(strings), register_basis(2))


@st.composite
def complex_generators(draw):
    """(strings, basis): Pauli sums with complex weights, mostly not Hermitian."""
    strings, basis = draw(any_generators())
    weights = st.sampled_from([0.5j, -0.5j, 0.5 + 0.5j, 1.0, 0.5, -1.0j])
    return tuple((s, draw(weights)) for s, _ in strings), basis


@FACTORS
@given(complex_generators())
def test_complex_weight_generators_are_refused_as_non_hermitian(case):
    strings, basis = case
    if any(c.imag for _, c in strings):
        with pytest.raises(ValueError, match=r"^generator is not Hermitian \(complex coefficients\)$"):
            one_factor(strings, basis)
    check_same_outcome(strings, basis)


def test_raising_operator_is_refused_as_non_hermitian():
    # G = (X0 - i Y0)/2 = |1><0| maps |0> out of the basis {|0>} and never
    # back, so PG^2P = (PGP)^2 = 0 although ||G|0>|| = 1; an empty factor
    # would leave every energy at the reference's and every gradient at 0
    strings = ((pq.PauliString.from_label(1, "X0"), 0.5), (pq.PauliString.from_label(1, "Y0"), -0.5j))
    with pytest.raises(ValueError, match="not Hermitian"):
        one_factor(strings, SectorBasis(1, np.array([0], dtype=np.int64)))
    gen = pq.ExcitationGenerator(kind="single", orbitals=(0, 0), spin=0, strings=strings)
    ansatz = pq.Ansatz(generators=(gen,), n_qubits=1, reference=(), name="raising")
    z0 = pq.QubitOperator.from_string(pq.PauliString.from_label(1, "Z0"))
    for theta in (0.0, 0.7, 2.0):
        with pytest.raises(ValueError, match="not Hermitian"):
            pq.ansatz_expectation(z0, ansatz, [theta])
        with pytest.raises(ValueError, match="not Hermitian"):
            pq.gradient(z0, ansatz, [theta])


def small_problem(seed: int):
    mo = random_integral_set(3, 2, seed)
    return pq.jordan_wigner(pq.build_hamiltonian(mo), 6)


def fresh_ansatz():
    return pq.build_upccgsd(3, 2)


def parameters(n: int):
    return st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=n, max_size=n).map(np.array)


N_PARAMS = fresh_ansatz().n_parameters


@CACHE
@given(parameters(N_PARAMS), parameters(N_PARAMS))
def test_gradient_after_energy_at_other_parameters_is_fresh(theta1, theta2):
    hq = small_problem(1)
    ansatz = fresh_ansatz()
    pq.ansatz_expectation(hq, ansatz, theta1)
    got = pq.gradient(hq, ansatz, theta2)
    assert np.array_equal(got, pq.gradient(hq, fresh_ansatz(), theta2))


@CACHE
@given(parameters(N_PARAMS), st.integers(0, N_PARAMS - 1), st.floats(1e-9, 0.5))
def test_parameters_mutated_in_place_between_calls_are_seen(theta, k, step):
    hq = small_problem(2)
    ansatz = fresh_ansatz()
    pq.ansatz_expectation(hq, ansatz, theta)
    theta[k] += step
    energy = pq.ansatz_expectation(hq, ansatz, theta)
    grad = pq.gradient(hq, ansatz, theta)
    assert energy == pq.ansatz_expectation(hq, fresh_ansatz(), theta)
    assert np.array_equal(grad, pq.gradient(hq, fresh_ansatz(), theta))


@CACHE
@given(parameters(N_PARAMS), parameters(N_PARAMS))
def test_interleaved_ansatze_and_operators_give_fresh_results(theta_a, theta_b):
    h1, h2 = small_problem(3), small_problem(4)
    a, b = fresh_ansatz(), fresh_ansatz()
    calls = [
        (pq.ansatz_expectation, h1, a, theta_a),
        (pq.ansatz_expectation, h2, b, theta_b),
        (pq.gradient, h2, a, theta_a),
        (pq.ansatz_expectation, h2, a, theta_a),
        (pq.gradient, h1, b, theta_b),
        (pq.gradient, h1, a, theta_b),
        (pq.ansatz_expectation, h1, b, theta_a),
    ]
    for fn, hq, ansatz, theta in calls:
        assert np.array_equal(fn(hq, ansatz, theta), fn(hq, fresh_ansatz(), theta))


def test_cached_state_refuses_writes_and_survives_the_gradient():
    hq = small_problem(5)
    ansatz = fresh_ansatz()
    theta = np.linspace(-0.4, 0.4, ansatz.n_parameters)
    energy = pq.ansatz_expectation(hq, ansatz, theta)
    _, _, psi = _sector_state(ansatz, theta)
    with pytest.raises(ValueError, match="read-only"):
        psi[0] = 1.0
    pq.gradient(hq, ansatz, theta)
    assert pq.ansatz_expectation(hq, ansatz, theta) == energy


def test_gradient_reuses_the_forward_sweep_of_the_energy(monkeypatch):
    hq = small_problem(6)
    ansatz = fresh_ansatz()
    theta = np.linspace(-0.3, 0.5, ansatz.n_parameters)
    sweeps = []
    evolve = simulator._evolve

    def counted(*args):
        sweeps.append(1)
        return evolve(*args)

    monkeypatch.setattr(simulator, "_evolve", counted)
    pq.ansatz_expectation(hq, ansatz, theta)
    pq.gradient(hq, ansatz, theta)
    assert len(sweeps) == 1
    pq.gradient(hq, ansatz, theta + 0.1)
    assert len(sweeps) == 2


def test_one_mat_vec_and_one_backward_sweep_per_parameter_point(monkeypatch):
    h1, h2 = small_problem(7), small_problem(8)
    ansatz = fresh_ansatz()
    k = ansatz.n_parameters
    theta = np.linspace(-0.2, 0.6, k)
    products, rotations = [], []
    hermitian_matrix, rotate = simulator._hermitian_matrix, simulator._rotate

    class CountedMatrix:
        def __init__(self, mat):
            self.mat = mat

        def __matmul__(self, vec):
            products.append(1)
            return self.mat @ vec

    def counted_rotate(*args):
        rotations.append(1)
        return rotate(*args)

    monkeypatch.setattr(simulator, "_hermitian_matrix",
                        lambda op, basis: CountedMatrix(hermitian_matrix(op, basis)))
    monkeypatch.setattr(simulator, "_rotate", counted_rotate)
    pq.ansatz_expectation(h1, ansatz, theta)
    grad = pq.gradient(h1, ansatz, theta)
    assert (len(products), len(rotations)) == (1, 2 * k)    # K on psi, K on lam
    assert np.array_equal(pq.gradient(h1, ansatz, theta), grad)
    assert (len(products), len(rotations)) == (1, 3 * k)
    # H psi is kept for its operator only
    pq.ansatz_expectation(h2, ansatz, theta)
    assert (len(products), len(rotations)) == (2, 3 * k)


def hop(p: int, q: int, n_qubits: int):
    """a+_p a_q + a+_q a_p on same-spin qubits p < q: real entries, so its signs are imaginary."""
    z = "".join(f" Z{j}" for j in range(p + 1, q))
    label = pq.PauliString.from_label
    strings = ((label(n_qubits, f"X{p}{z} X{q}"), 0.5), (label(n_qubits, f"Y{p}{z} Y{q}"), 0.5))
    return pq.ExcitationGenerator(kind="single", orbitals=(p // 2, q // 2), spin=p % 2,
                                  strings=strings)


@st.composite
def sweep_circuits(draw, kind: str):
    """(operator, ansatz, theta) on a random integral set: UpCCGSD, a PNO variant or complex signs."""
    seed = draw(st.integers(0, 10_000))
    if kind in PNO_VARIANTS:
        mo = random_integral_set(4, draw(st.sampled_from([2, 4])), seed, with_energies=True)
        pnos = pq.select_pnos(pq.pair_densities(pq.mp2_amplitudes(mo)), 6,
                              diagonal_only=draw(st.booleans()))
        space = pq.orthonormalize(pnos)
        mo = pq.build_final_integrals(mo, space)
        ansatz = pq.build_pno_ansatz(space, kind)
    else:
        mo = random_integral_set(3, 2, seed)
        ansatz = pq.build_upccgsd(3, 2)
        if kind == "complex":
            generators = ansatz.generators
            ansatz = pq.Ansatz(generators=(hop(0, 2, 6),) + generators[:3] + (hop(1, 5, 6),),
                               n_qubits=6, reference=ansatz.reference, name="hops")
    hq = pq.jordan_wigner(pq.build_hamiltonian(mo), 2 * mo.n_orb)
    theta = draw(st.lists(st.floats(-np.pi, np.pi, allow_nan=False),
                          min_size=ansatz.n_parameters, max_size=ansatz.n_parameters))
    return hq, ansatz, np.array(theta)


@pytest.mark.parametrize("kind", ("UpCCGSD", "complex") + PNO_VARIANTS)
@CACHE
@given(data=st.data(), gradient_first=st.booleans())
def test_backward_sweep_matches_register_shift_rule(kind, data, gradient_first):
    hq, ansatz, theta = data.draw(sweep_circuits(kind))
    if gradient_first:
        grad = pq.gradient(hq, ansatz, theta)
        energy = pq.ansatz_expectation(hq, ansatz, theta)
    else:
        energy = pq.ansatz_expectation(hq, ansatz, theta)
        grad = pq.gradient(hq, ansatz, theta)
    np.testing.assert_allclose(grad, reference_register_shift_gradient(hq, ansatz, theta),
                               atol=1e-10, rtol=0)
    (basis, circuit), = ansatz._prepared.items()
    assert (circuit.reference.dtype == np.complex128) == (kind == "complex")
    psi, _ = simulator._evolve(circuit.reference.copy(), circuit.factors, theta)
    assert energy == float(np.vdot(psi, hq.matrix(basis.states) @ psi).real)
