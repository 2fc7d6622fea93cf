"""Circuit factors from the determinant rule, and the per-ansatz prepared circuit.

A factor stores G as a signed permutation of its support, built from the
generator's excitation masks alone. It must be array-equal to
``ci_oracle.reference_factor`` of the generator's reference Pauli strings
(``ci_oracle.reference_generator_strings``, the Jordan-Wigner image of its
fermionic form, which never reads the masks), and raise the same leak
error where the oracle does. That the factor is a Hermitian signed permutation with G^3 = G,
which the build no longer checks, is asserted on its sparse matrix; its
rotation is checked against the matrix exponential and against the sparse
G^3 = G formula in ``ci_oracle.reference_rotate``. The
prepared circuit keeps the last forward state, the signed input of each
rotation and H times the state; the cache tests require bit-equal results to
a fresh ansatz however the parameters change between calls, and count one
sector mat-vec and one sweep each way per parameter point. Examples are
derandomized.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st

import pnovqe as pq
from pnovqe import simulator
from pnovqe.ansatz import GENERATOR_KINDS, PNO_VARIANTS
from pnovqe.exact import SectorBasis
from pnovqe.simulator import _factors, _rotate, _sector_state

from ci_oracle import (
    paired_register_matrix, random_integral_set, reference_factor, reference_generator_strings,
    reference_matrix, reference_register_shift_gradient, reference_rotate,
)

FACTORS = settings(derandomize=True, database=None, max_examples=40, deadline=None)
ORACLE = settings(derandomize=True, database=None, max_examples=200, deadline=None)
CACHE = settings(derandomize=True, database=None, max_examples=10, deadline=None)

angles = st.floats(-2.0 * np.pi, 2.0 * np.pi, allow_nan=False)


def one_factor(gen, basis):
    return _factors((gen,), basis)[0]


def random_state(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


@st.composite
def generator_cases(draw, subsets: bool = True, kinds=GENERATOR_KINDS, closed: bool = False):
    """(generator, basis) from make_pair_double, make_single or make_paired_rotation.

    The generator is of one of ``kinds``. The basis is an N sector, an
    (N, S_z) sector of a spin-orbital register or, with ``subsets``, a random
    subset of the register that is closed under the generator's X mask or
    not (always closed with ``closed``).
    """
    kind = draw(st.sampled_from(kinds))
    n_spatial = draw(st.integers(2, 4))
    i, a = draw(st.lists(st.integers(0, n_spatial - 1), min_size=2, max_size=2, unique=True))
    if kind == "pair_double":
        gen, n = pq.make_pair_double(i, a, n_spatial), 2 * n_spatial
    elif kind == "single":
        gen, n = pq.make_single(i, a, draw(st.integers(0, 1)), n_spatial), 2 * n_spatial
    else:
        gen, n = pq.make_paired_rotation(i, a, n_spatial), n_spatial
    mask = st.integers(0, (1 << n) - 1)
    shape = draw(st.sampled_from(["sector", "subset"] if subsets else ["sector"]))
    if shape == "subset":
        states = set(draw(st.lists(mask, min_size=1, max_size=40, unique=True)))
        if closed or draw(st.booleans()):
            # every string of an excitation flips the same qubits
            x = reference_generator_strings(gen)[0][0].x
            states |= {s ^ x for s in states}
        return gen, SectorBasis(n, np.array(sorted(states), dtype=np.int64))
    n_particles = draw(st.integers(0, n))
    if kind == "paired_double" or draw(st.booleans()):
        return gen, pq.sector_basis(n, n_particles)
    n_up = draw(st.integers(max(0, n_particles - n // 2), min(n_particles, n // 2)))
    return gen, pq.sector_basis(n, n_particles, 2 * n_up - n_particles)


def factor_outcome(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


def assert_matches_oracle(factor, gen, basis):
    """The factor is the oracle's: the same rows and columns, signs -i times its entries, float64."""
    rows, cols, phases = reference_factor(reference_generator_strings(gen), basis)
    expected = -1j * phases
    assert not expected.imag.any()
    assert np.array_equal(factor[0], rows) and np.array_equal(factor[1], cols)
    assert factor[2].dtype == np.float64 and np.array_equal(factor[2], expected.real)


@ORACLE
@given(generator_cases())
def test_factor_matches_the_oracle_of_its_strings(case):
    gen, basis = case
    expected = factor_outcome(reference_factor, reference_generator_strings(gen), basis)
    if isinstance(expected, str):
        assert expected == "generator maps a basis state outside the basis"
        with pytest.raises(ValueError, match=f"^{expected}$"):
            one_factor(gen, basis)
    else:
        assert_matches_oracle(one_factor(gen, basis), gen, basis)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@FACTORS
@given(data=st.data())
def test_factor_is_a_hermitian_signed_permutation_with_g_cubed_equal_to_g(kind, data):
    # the checks the factor build no longer runs must hold by construction:
    # one entry +-i per row, G Hermitian, the support closed and G^3 = G
    gen, basis = data.draw(generator_cases(kinds=(kind,), closed=True))
    rows, cols, signs = one_factor(gen, basis)
    assert signs.dtype == np.float64 and np.array_equal(np.abs(signs), np.ones(rows.size))
    assert np.array_equal(np.unique(rows), rows) and np.array_equal(np.sort(cols), rows)
    g = scipy.sparse.csr_matrix((1j * signs, (rows, cols)), shape=(basis.dim, basis.dim))
    assert (g - g.conj().T).count_nonzero() == 0
    assert (g @ g @ g - g).count_nonzero() == 0
    projector = np.zeros(basis.dim)
    projector[rows] = 1.0
    assert np.array_equal((g @ g).toarray(), np.diag(projector).astype(complex))


def every_generator(kind: str, n_spatial: int):
    """Every generator of one kind that the makers build on n_spatial orbitals."""
    pairs = [(i, a) for i in range(n_spatial) for a in range(n_spatial) if i != a]
    if kind == "pair_double":
        return [pq.make_pair_double(i, a, n_spatial) for i, a in pairs]
    if kind == "single":
        return [pq.make_single(i, a, spin, n_spatial) for i, a in pairs for spin in (0, 1)]
    return [pq.make_paired_rotation(i, a, n_spatial) for i, a in pairs]


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_every_generator_matches_the_oracle_on_every_sector(kind):
    n_spatial = 3
    n = n_spatial if kind == "paired_double" else 2 * n_spatial
    bases = [pq.sector_basis(n, n_particles) for n_particles in range(n + 1)]
    if kind != "paired_double":
        bases += [pq.sector_basis(n, n_up + n_down, n_up - n_down)
                  for n_up in range(n_spatial + 1) for n_down in range(n_spatial + 1)]
    for gen in every_generator(kind, n_spatial):
        for basis in bases:
            assert_matches_oracle(one_factor(gen, basis), gen, basis)


LEAK = "generator maps a basis state outside the basis"


@pytest.mark.parametrize("gen, state", [
    (pq.make_pair_double(0, 2, 3), 0b000011),
    (pq.make_single(0, 2, 1, 3), 0b000110),
    (pq.make_paired_rotation(0, 2, 3), 0b001),
], ids=GENERATOR_KINDS)
def test_each_kind_refuses_a_basis_without_its_image(gen, state):
    basis = SectorBasis(gen.n_qubits, np.array([state], dtype=np.int64))
    with pytest.raises(ValueError, match=f"^{LEAK}$"):
        one_factor(gen, basis)
    with pytest.raises(ValueError, match=f"^{LEAK}$"):
        reference_factor(reference_generator_strings(gen), basis)


def test_first_leaking_generator_of_a_set_raises():
    # on {|0011>, |1100>} the pair double 0 -> 1 is closed and the single 0 -> 1 leaks
    basis = SectorBasis(4, np.array([0b0011, 0b1100], dtype=np.int64))
    closed, leaking = pq.make_pair_double(0, 1, 2), pq.make_single(0, 1, 0, 2)
    for generators in ([closed, leaking], [leaking, closed], [closed, leaking, closed]):
        with pytest.raises(ValueError, match=f"^{LEAK}$"):
            _factors(generators, basis)
    (factor,) = _factors([closed], basis)
    assert_matches_oracle(factor, closed, basis)


def pno_space():
    """Two occupied orbitals with one and two diagonal-pair PNOs: 10 qubits."""
    return pq.OrbitalSpace(n_total=5, occupied=(0, 1),
                           pno_assignment={2: (0, 0), 3: (1, 1), 4: (1, 1)},
                           transform=np.eye(5))


@pytest.mark.parametrize("build", [
    lambda: pq.build_upccgsd(4, 4),
    lambda: pq.build_upccgsd(3, 2, layers=2),
    *(lambda variant=variant: pq.build_pno_ansatz(pno_space(), variant)
      for variant in PNO_VARIANTS),
    lambda: pq.build_paired_ansatz((0,), [(0, 1), (0, 2), (0, 3)], 4),
], ids=["upccgsd", "upccgsd-k2", *PNO_VARIANTS, "paired"])
def test_circuit_factors_match_the_oracle_on_their_sector(build):
    ansatz = build()    # a fresh ansatz, so its circuit is prepared here
    basis = pq.sector_basis(ansatz.n_qubits, len(ansatz.reference), ansatz.two_sz)
    circuit = simulator._prepared(ansatz, basis)
    assert len(circuit.factors) == ansatz.n_parameters
    for gen, factor in zip(ansatz.generators, circuit.factors):
        assert_matches_oracle(factor, gen, basis)
    assert circuit.reference.dtype == np.float64


@pytest.mark.parametrize("build", [
    lambda: pq.build_upccgsd(4, 4),
    lambda: pq.build_upccgsd(3, 2, layers=2),
    *(lambda variant=variant: pq.build_pno_ansatz(pno_space(), variant)
      for variant in PNO_VARIANTS),
], ids=["upccgsd", "upccgsd-k2", *PNO_VARIANTS])
def test_circuit_factors_match_the_oracle_on_the_n_sector(build):
    # the N sector holds every S_z of the reference's N, so each factor has more rows
    ansatz = build()
    basis = pq.sector_basis(ansatz.n_qubits, len(ansatz.reference))
    factors = simulator._prepared(ansatz, basis).factors
    for gen, factor in zip(ansatz.generators, factors, strict=True):
        assert_matches_oracle(factor, gen, basis)


def check_factor(gen, basis, angle, seed):
    gen_op = pq.QubitOperator(basis.n_qubits,
                              {(s.x, s.z): c for s, c in reference_generator_strings(gen)})
    g = reference_matrix(gen_op, basis.states)
    vec = random_state(basis.dim, seed)
    got = vec.copy()
    _rotate(got, one_factor(gen, basis), angle)
    expected = scipy.linalg.expm(-0.5j * angle * g.toarray()) @ vec
    np.testing.assert_allclose(got, expected, atol=1e-12)
    np.testing.assert_allclose(got, reference_rotate(vec, g, angle), atol=1e-12)


@FACTORS
@given(generator_cases(subsets=False), angles, st.integers(0, 2**16))
def test_excitation_factor_matches_expm_and_reference(case, angle, seed):
    check_factor(*case, angle, seed)


def small_problem(seed: int):
    return pq.IntegralHamiltonian(random_integral_set(3, 2, seed))


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
    sector_matrix, rotate = simulator._sector_matrix, simulator._rotate

    class CountedMatrix:
        def __init__(self, mat):
            self.mat = mat

        def __matmul__(self, vec):
            products.append(1)
            return self.mat @ vec

    def counted_rotate(*args):
        rotations.append(1)
        return rotate(*args)

    monkeypatch.setattr(simulator, "_sector_matrix",
                        lambda op, basis: CountedMatrix(sector_matrix(op, basis)))
    monkeypatch.setattr(simulator, "_rotate", counted_rotate)
    pq.ansatz_expectation(h1, ansatz, theta)
    grad = pq.gradient(h1, ansatz, theta)
    assert (len(products), len(rotations)) == (1, 2 * k)    # K on psi, K on lam
    assert np.array_equal(pq.gradient(h1, ansatz, theta), grad)
    assert (len(products), len(rotations)) == (1, 3 * k)
    # H psi is kept for its operator only
    pq.ansatz_expectation(h2, ansatz, theta)
    assert (len(products), len(rotations)) == (2, 3 * k)


@st.composite
def sweep_circuits(draw, kind: str):
    """(Hamiltonian, its register oracle, ansatz, theta) on a random integral set.

    The ansatz is UpCCGSD, a PNO variant or paired; the oracle is the
    Jordan-Wigner image, or the paired register matrix.
    """
    seed = draw(st.integers(0, 10_000))
    if kind == "paired":
        mo = random_integral_set(4, 4, seed)
        pairs = draw(st.lists(st.sampled_from([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1)]),
                              min_size=1, max_size=6))
        ansatz = pq.build_paired_ansatz((0, 1), pairs, 4)
        theta = draw(st.lists(st.floats(-np.pi, np.pi, allow_nan=False),
                              min_size=ansatz.n_parameters, max_size=ansatz.n_parameters))
        return pq.build_paired_hamiltonian(mo), paired_register_matrix(mo), ansatz, np.array(theta)
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
    oracle = pq.jordan_wigner(pq.build_hamiltonian(mo), 2 * mo.n_orb)
    theta = draw(st.lists(st.floats(-np.pi, np.pi, allow_nan=False),
                          min_size=ansatz.n_parameters, max_size=ansatz.n_parameters))
    return pq.IntegralHamiltonian(mo), oracle, ansatz, np.array(theta)


@pytest.mark.parametrize("kind", ("UpCCGSD",) + PNO_VARIANTS + ("paired",))
@CACHE
@given(data=st.data(), gradient_first=st.booleans())
def test_backward_sweep_matches_register_shift_rule(kind, data, gradient_first):
    hq, oracle, ansatz, theta = data.draw(sweep_circuits(kind))
    if gradient_first:
        grad = pq.gradient(hq, ansatz, theta)
        energy = pq.ansatz_expectation(hq, ansatz, theta)
    else:
        energy = pq.ansatz_expectation(hq, ansatz, theta)
        grad = pq.gradient(hq, ansatz, theta)
    np.testing.assert_allclose(grad, reference_register_shift_gradient(oracle, ansatz, theta),
                               atol=1e-10, rtol=0)
    (basis, circuit), = ansatz._prepared.items()
    assert circuit.reference.dtype == np.float64
    psi, _ = simulator._evolve(circuit.reference.copy(), circuit.factors, theta)
    assert energy == float(np.vdot(psi, hq.matrix(basis.states) @ psi))
