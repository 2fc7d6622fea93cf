"""BFGS minimizer benchmarks and the VQE driver.

``TestSameIterates`` holds the optimizer to ``ci_oracle``'s copy of the
driver with a separate bisection loop: the same evaluation points and the
same result bits on random objectives, derandomized so every run checks the
same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pnovqe as pq
from pnovqe import optimize
from pnovqe.optimize import _wolfe_line_search

from ci_oracle import random_integral_set, reference_minimize, reference_run_vqe
from test_workbench import h2_config


class TestMinimize:
    def test_quadratic_exact_recovery(self):
        rng = np.random.default_rng(0)
        for dim in (2, 5, 9):
            center = rng.standard_normal(dim)
            x0 = rng.standard_normal(dim) * 3.0

            def fun(x):
                return 0.5 * np.sum((x - center) ** 2)

            def grad(x):
                return x - center

            result = pq.minimize(fun, grad, x0, grad_tol=1e-10)
            assert result.converged
            assert result.iterations <= dim + 2
            np.testing.assert_allclose(result.x, center, atol=1e-8)

    def test_zero_gradient_start_returns_immediately(self):
        result = pq.minimize(
            lambda x: 1.0, lambda x: np.zeros(3), np.zeros(3)
        )
        assert result.iterations == 0
        assert result.converged

    def test_rosenbrock(self):
        def fun(x):
            return (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

        def grad(x):
            return np.array([
                -2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
                200.0 * (x[1] - x[0] ** 2),
            ])

        result = pq.minimize(fun, grad, np.array([-1.2, 1.0]), grad_tol=1e-8,
                             max_iter=2000)
        assert result.converged
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-6)

    def test_nan_aborts_with_theta(self):
        def fun(x):
            return float("nan")

        with pytest.raises(RuntimeError, match="non-finite objective"):
            pq.minimize(fun, lambda x: np.ones(2), np.array([0.25, -0.5]))

    def test_trajectory_non_increasing(self):
        def fun(x):
            return np.sum(x**4) + np.sum(x**2)

        def grad(x):
            return 4.0 * x**3 + 2.0 * x

        result = pq.minimize(fun, grad, np.full(4, 2.0))
        energies = [e for e, _ in result.trajectory]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_final_energy_not_above_start(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        a = a @ a.T + np.eye(6)

        def fun(x):
            return 0.5 * x @ a @ x

        def grad(x):
            return a @ x

        x0 = rng.standard_normal(6)
        result = pq.minimize(fun, grad, x0)
        assert result.fun <= fun(x0) + 1e-12
        assert result.grad_norm < 1e-6


class TestRunVQE:
    def test_h2_reaches_fci(self, h2_sto3g):
        hq = pq.IntegralHamiltonian(h2_sto3g["mo"])
        ansatz = pq.build_upccgsd(2, 2)
        result = pq.run_vqe(hq, ansatz)
        e_fci, _ = pq.exact_ground_energy(hq, pq.sector_basis(4, 2, two_sz=0))
        assert result.fun == pytest.approx(e_fci, abs=1e-8)
        assert result.converged

    def test_diagonal_hamiltonian_keeps_reference(self):
        # diagonal h and Coulomb-only (pp|qq) give a diagonal determinant matrix:
        # theta = 0 is stationary, energy is the reference value, and the
        # optimizer exits without iterating
        eri = np.zeros((2,) * 4)
        eri[0, 0, 0, 0], eri[0, 0, 1, 1], eri[1, 1, 0, 0] = 0.6, 0.2, 0.2
        mo = pq.IntegralSet(n_orb=2, h=np.diag([-0.4, 0.7]), eri=eri, core_energy=-0.5, n_electrons=2)
        hq = pq.IntegralHamiltonian(mo)
        ansatz = pq.build_upccgsd(2, 2)
        grad0 = pq.gradient(hq, ansatz, np.zeros(3))
        np.testing.assert_allclose(grad0, 0.0, atol=1e-12)
        result = pq.run_vqe(hq, ansatz)
        # the reference |0011> fills orbital 0: -0.5 + 2 * (-0.4) + <00|00>
        assert result.fun == pytest.approx(-0.7, abs=1e-12)
        assert result.iterations == 0

    def test_zero_parameter_ansatz(self, h2_sto3g):
        mo = h2_sto3g["mo"]
        pnos = pq.select_pnos(pq.pair_densities(pq.mp2_amplitudes(mo)), 2)
        space = pq.orthonormalize(pnos)
        final = pq.build_final_integrals(mo, space)
        hq = pq.IntegralHamiltonian(final)
        ansatz = pq.build_pno_ansatz(space, "UpCCD")
        assert ansatz.n_parameters == 0
        result = pq.run_vqe(hq, ansatz)
        assert result.fun == pytest.approx(h2_sto3g["scf"].total_energy, abs=1e-10)

    def test_he_pno_beats_minimal_basis_fci(self, he_big_fcidump):
        # 4-qubit Hamiltonian from an ingested larger basis is variationally
        # below the minimal-basis exact energy
        mol = pq.parse_xyz("1\n\nHe 0 0 0")
        ao = pq.compute_ao_integrals(mol, pq.sto3g_shells(mol))
        scf = pq.run_rhf(ao, 2)
        e_sto3g = scf.total_energy  # one orbital: FCI equals HF

        big = pq.read_fcidump(he_big_fcidump)
        pnos = pq.select_pnos(pq.pair_densities(pq.mp2_amplitudes(big)), 4)
        space = pq.orthonormalize(pnos)
        final = pq.build_final_integrals(big, space)
        hq = pq.IntegralHamiltonian(final)
        result = pq.run_vqe(hq, pq.build_upccgsd(2, 2))
        assert result.fun < e_sto3g - 1e-3

    def test_variational_bound(self, h2_sto3g):
        hq = pq.IntegralHamiltonian(h2_sto3g["mo"])
        result = pq.run_vqe(hq, pq.build_upccgsd(2, 2))
        e_fci, _ = pq.exact_ground_energy(hq, pq.sector_basis(4, 2, two_sz=0))
        assert result.fun >= e_fci - 1e-9

    def test_restarts_logged_and_deterministic(self, h2_sto3g):
        hq = pq.IntegralHamiltonian(h2_sto3g["mo"])
        ansatz = pq.build_upccgsd(2, 2)
        a = pq.run_vqe(hq, ansatz, restarts=2, seed=7)
        b = pq.run_vqe(hq, ansatz, restarts=2, seed=7)
        assert a.fun == b.fun
        np.testing.assert_array_equal(a.x, b.x)

    def test_serial_determinism_of_trajectory(self, h2_sto3g):
        hq = pq.IntegralHamiltonian(h2_sto3g["mo"])
        ansatz = pq.build_upccgsd(2, 2)
        a = pq.run_vqe(hq, ansatz)
        b = pq.run_vqe(hq, ansatz)
        assert a.trajectory == b.trajectory


class TestExitReason:
    def test_quadratic_stops_on_the_gradient_tolerance(self):
        center = np.array([1.0, -2.0, 0.5])
        result = pq.minimize(lambda x: 0.5 * np.sum((x - center) ** 2),
                             lambda x: x - center, np.zeros(3), grad_tol=1e-10)
        assert result.exit_reason == "grad_tol"
        assert result.converged

    def test_iteration_cap(self):
        scales = np.array([1.0, 10.0])
        result = pq.minimize(lambda x: 0.5 * np.sum(scales * x**2), lambda x: scales * x,
                             np.ones(2), max_iter=1)
        assert result.exit_reason == "max_iter"
        assert result.iterations == 1
        assert not result.converged

    def test_gradient_of_the_wrong_sign_fails_the_line_search(self):
        result = pq.minimize(lambda x: float(x @ x), lambda x: -2.0 * x, np.ones(2))
        assert result.exit_reason == "line_search_failed"
        assert not result.converged

    def test_failed_line_search_evaluates_the_gradient_once(self):
        # every step along the wrong-sign gradient raises x @ x; the search
        # fails at step 0, where the gradient is already known
        points = []

        def grad(x):
            points.append(x.copy())
            return -2.0 * x

        result = pq.minimize(lambda x: x @ x, grad, [1.0])
        assert result.exit_reason == "line_search_failed"
        assert result.n_gradient_evals == len(points) == 1

    def test_bisection_fallback_reuses_the_values_at_lo(self):
        # step 1 is admissible but too steep, and no later point (step 2, then
        # forty bisections of (1, 2)) falls below phi(1) = 0: the search
        # returns step 1 with the values found there, calling g only there
        grad_lo = np.array([-1.0])
        f_steps, g_steps = [], []

        def f(x):
            f_steps.append(x[0])
            return 0.0 if x[0] == 1.0 else 0.5

        def g(x):
            g_steps.append(x[0])
            return grad_lo

        alpha, phi, grad = _wolfe_line_search(f, g, np.zeros(1), np.ones(1), 1.0, -1.0)
        assert alpha == 1.0 and phi == 0.0 and grad is grad_lo and g_steps == [1.0]
        assert f_steps[:2] == [1.0, 2.0] and len(f_steps) == 2 + 40

    def test_zero_parameter_vqe(self, h2_sto3g):
        ansatz = pq.Ansatz(generators=(), n_qubits=4, reference=(0, 1), name="empty")
        hamiltonian = pq.IntegralHamiltonian(h2_sto3g["mo"])
        result = pq.run_vqe(hamiltonian, ansatz)
        assert result.exit_reason == "grad_tol"
        # minimize stops at iteration 0 after one energy and one (empty) gradient
        assert (result.iterations, result.n_function_evals, result.n_gradient_evals) == (0, 1, 1)
        assert result.converged and result.grad_norm == 0.0 and result.x.shape == (0,)
        energy = pq.ansatz_expectation(hamiltonian, ansatz, np.zeros(0))
        assert result.fun == energy and result.trajectory == ((energy, 0.0),)

    def test_run_point_records_the_exit_reason(self):
        record = pq.run_point(h2_config())
        assert record["optimizer"]["exit_reason"] == "grad_tol"
        record = pq.run_point(h2_config(max_iter=1))
        assert record["optimizer"]["exit_reason"] == "max_iter"


def _objective(kind, n, rng):
    """A random objective and its gradient, both of numpy arrays."""
    if kind == "quadratic":
        a = rng.standard_normal((n, n))
        a = a @ a.T + 0.1 * np.eye(n)
        center = rng.standard_normal(n)
        return (lambda x: 0.5 * (x - center) @ a @ (x - center)), (lambda x: a @ (x - center))
    if kind == "ill_conditioned":
        scales = 10.0 ** rng.uniform(-4.0, 6.0, n)
        return (lambda x: 0.5 * np.sum(scales * x**2)), (lambda x: scales * x)
    if kind == "rosenbrock":
        def fun(x):
            return np.sum((1.0 - x) ** 2) + 100.0 * np.sum((x[1:] - x[:-1] ** 2) ** 2)

        def grad(x):
            g = -2.0 * (1.0 - x)
            g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
            g[:-1] -= 400.0 * x[:-1] * (x[1:] - x[:-1] ** 2)
            return g
        return fun, grad
    if kind == "periodic":
        w, p = rng.uniform(0.5, 2.0, (2, n))
        k = rng.uniform(0.5, 8.0, n)   # fast enough for step 1 to overshoot a trough
        return (lambda x: np.sum(w * np.sin(k * x + p))), (lambda x: w * k * np.cos(k * x + p))
    if kind == "plateau":
        # the objective rounds to steps; the gradient is that of the smooth bowl
        scales = rng.uniform(0.5, 5.0, n)
        return (lambda x: np.round(4.0 * np.sum(scales * x**2)) / 4.0), (lambda x: 2.0 * scales * x)
    if kind == "flat":
        # a constant large enough to swallow small Armijo decreases, and a fixed slope
        level = 10.0 ** rng.uniform(-3.0, 12.0)
        slope = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 0.0)
        return (lambda x: level), (lambda x: slope.copy())
    assert kind == "unbounded"
    a = rng.standard_normal(n)
    return (lambda x: a @ x), (lambda x: a.copy())


def _logged(fn, name, log):
    def wrapped(x):
        log.append((name, np.asarray(x, dtype=float).tobytes()))
        return fn(x)
    return wrapped


def _bits(result):
    """Every field of an OptimizationResult, floats as their bytes."""
    return (
        result.x.tobytes(), result.x.shape, np.float64(result.fun).tobytes(),
        np.float64(result.grad_norm).tobytes(), result.iterations, result.n_function_evals,
        result.n_gradient_evals, result.converged,
        np.array(result.trajectory, dtype=float).tobytes(), result.exit_reason,
    )


class TestSameIterates:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(
            ("quadratic", "ill_conditioned", "rosenbrock", "periodic", "plateau", "flat", "unbounded")
        ),
        n=st.integers(1, 5),
        max_iter=st.integers(0, 500),
        log_tol=st.floats(-12.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_minimize_matches_the_reference(self, kind, n, max_iter, log_tol, seed):
        rng = np.random.default_rng(seed)
        fun, grad = _objective(kind, n, rng)
        x0 = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 1.0)
        runs = []
        for driver in (pq.minimize, reference_minimize):
            log = []
            result = driver(_logged(fun, "f", log), _logged(grad, "g", log), x0,
                            grad_tol=10.0**log_tol, max_iter=max_iter)
            runs.append((log, _bits(result)))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("restarts", [0, 1, 2, 3])
    def test_run_vqe_matches_the_reference(self, restarts):
        hamiltonian = pq.IntegralHamiltonian(random_integral_set(3, 2, seed=5))
        ansatz = pq.build_upccgsd(3, 2)
        result = pq.run_vqe(hamiltonian, ansatz, restarts=restarts, seed=11)
        expected = reference_run_vqe(hamiltonian, ansatz, restarts=restarts, seed=11)
        assert _bits(result) == _bits(expected)

    def test_a_negative_seed_fails_before_any_evaluation(self, h2_sto3g, monkeypatch):
        calls = []
        monkeypatch.setattr(optimize, "ansatz_expectation", lambda *args: calls.append(args))
        with pytest.raises(ValueError):
            pq.run_vqe(pq.IntegralHamiltonian(h2_sto3g["mo"]), pq.build_upccgsd(2, 2), seed=-1)
        assert not calls
