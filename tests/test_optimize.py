"""BFGS minimizer benchmarks and the VQE driver."""

import numpy as np
import pytest

import pnovqe as pq
from pnovqe.optimize import _zoom

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
        # diagonal h and Coulomb-only g give a diagonal determinant matrix:
        # theta = 0 is stationary, energy is the reference value, and the
        # optimizer exits without iterating
        g = np.zeros((2,) * 4)
        g[0, 0, 0, 0], g[0, 1, 0, 1], g[1, 0, 1, 0] = 0.6, 0.2, 0.2
        mo = pq.IntegralSet(n_orb=2, h=np.diag([-0.4, 0.7]), g=g, core_energy=-0.5, n_electrons=2)
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
        # no bisection point of (1, 2) falls below phi(1) = 0: the search
        # returns step 1 with the values it was given, calling g never
        calls = []
        grad_lo = np.array([-0.5])
        alpha, phi, grad = _zoom(lambda x: 0.5, lambda x: calls.append(x), np.zeros(1),
                                 np.ones(1), 1.0, -1.0, 1.0, 0.0, grad_lo, 2.0)
        assert alpha == 1.0 and phi == 0.0 and grad is grad_lo and not calls

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
