"""BFGS minimizer with strong-Wolfe line search, and the VQE driver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import Ansatz
from .exact import IntegralHamiltonian
from .simulator import ansatz_expectation, gradient as ansatz_gradient

_C1 = 1e-4
_C2 = 0.9
_RESTART_SCALE = 0.1   # half-width of the uniform draw of a restart's start point
_BRACKET_STEPS, _ZOOM_STEPS = 25, 40   # step doublings and bisections of one line search


@dataclass(frozen=True)
class OptimizationResult:
    x: np.ndarray
    fun: float
    grad_norm: float
    iterations: int
    n_function_evals: int
    n_gradient_evals: int
    converged: bool
    trajectory: tuple            # per-iteration (energy, grad inf-norm)
    exit_reason: str             # grad_tol, max_iter, line_search_failed, no_descent


class _Counted:
    def __init__(self, fn, what):
        self.fn = fn
        self.what = what
        self.count = 0

    def __call__(self, x):
        self.count += 1
        value = self.fn(x)
        if not np.all(np.isfinite(value)):
            raise RuntimeError(
                f"non-finite {self.what} at theta = {np.asarray(x).tolist()}"
            )
        return value


def minimize(objective, grad, x0, grad_tol: float = 1e-6, max_iter: int = 500) -> OptimizationResult:
    """BFGS with inverse-Hessian updates and a strong-Wolfe line search.

    ``exit_reason`` says why it stopped: gradient infinity-norm below
    ``grad_tol``, ``max_iter`` iterations, no step found by the line search
    (``line_search_failed``) or no descent direction (``no_descent``). NaN
    or Inf in the objective or gradient aborts, naming the parameter vector.
    """
    f = _Counted(objective, "objective")
    g = _Counted(grad, "gradient")
    x = np.array(x0, dtype=float)
    n = x.size
    fx = f(x)
    gx = np.asarray(g(x), dtype=float)
    gnorm = float(np.max(np.abs(gx))) if n else 0.0
    trajectory = [(float(fx), gnorm)]
    if gnorm < grad_tol:
        return OptimizationResult(
            x=x, fun=float(fx), grad_norm=gnorm, iterations=0,
            n_function_evals=f.count, n_gradient_evals=g.count,
            converged=True, trajectory=tuple(trajectory), exit_reason="grad_tol",
        )

    h_inv = np.eye(n)
    exit_reason = "max_iter"
    iterations = 0
    for iterations in range(1, max_iter + 1):
        direction = -h_inv @ gx
        slope = float(direction @ gx)
        if slope >= 0.0:
            h_inv = np.eye(n)
            direction = -gx
            slope = float(direction @ gx)
            if slope >= 0.0:
                exit_reason = "no_descent"
                break
        alpha, fx_new, gx_new = _wolfe_line_search(f, g, x, direction, fx, slope)
        if alpha is None:
            exit_reason = "line_search_failed"
            break
        step = alpha * direction
        x_new = x + step
        y = gx_new - gx
        sy = float(step @ y)
        if sy > 1e-14 * np.linalg.norm(step) * np.linalg.norm(y):
            rho = 1.0 / sy
            outer = np.outer(step, y)
            h_inv = (
                (np.eye(n) - rho * outer) @ h_inv @ (np.eye(n) - rho * outer.T)
                + rho * np.outer(step, step)
            )
        x, fx, gx = x_new, fx_new, gx_new
        gnorm = float(np.max(np.abs(gx)))
        trajectory.append((float(fx), gnorm))
        if gnorm < grad_tol:
            exit_reason = "grad_tol"
            break

    return OptimizationResult(
        x=x, fun=float(fx), grad_norm=float(np.max(np.abs(gx))) if n else 0.0,
        iterations=iterations,
        n_function_evals=f.count, n_gradient_evals=g.count,
        converged=exit_reason == "grad_tol", trajectory=tuple(trajectory),
        exit_reason=exit_reason,
    )


def _wolfe_line_search(f, g, x, direction, f0, slope0):
    """Strong Wolfe conditions (c1 = 1e-4, c2 = 0.9), initial step 1."""

    def phi(alpha):
        return f(x + alpha * direction)

    def dphi(alpha):
        grad = np.asarray(g(x + alpha * direction), dtype=float)
        return float(grad @ direction), grad

    # the gradient at step 0 is never read: a search that ends there fails
    alpha_prev, phi_prev, grad_prev = 0.0, f0, None
    alpha = 1.0
    for i in range(_BRACKET_STEPS):
        phi_a = phi(alpha)
        if phi_a > f0 + _C1 * alpha * slope0 or (i > 0 and phi_a >= phi_prev):
            return _zoom(f, g, x, direction, f0, slope0, alpha_prev, phi_prev, grad_prev, alpha)
        d_a, grad_a = dphi(alpha)
        if abs(d_a) <= -_C2 * slope0:
            return alpha, phi_a, grad_a
        if d_a >= 0.0:
            return _zoom(f, g, x, direction, f0, slope0, alpha, phi_a, grad_a, alpha_prev)
        alpha_prev, phi_prev, grad_prev = alpha, phi_a, grad_a
        alpha *= 2.0
    return None, None, None


def _zoom(f, g, x, direction, f0, slope0, lo, phi_lo, grad_lo, hi):
    """Bisect [lo, hi] for a strong-Wolfe step; phi_lo and grad_lo are f and g at lo."""
    for _ in range(_ZOOM_STEPS):
        alpha = 0.5 * (lo + hi)
        phi_a = f(x + alpha * direction)
        if phi_a > f0 + _C1 * alpha * slope0 or phi_a >= phi_lo:
            hi = alpha
            continue
        grad_a = np.asarray(g(x + alpha * direction), dtype=float)
        d_a = float(grad_a @ direction)
        if abs(d_a) <= -_C2 * slope0:
            return alpha, phi_a, grad_a
        if d_a * (hi - lo) >= 0.0:
            hi = lo
        lo, phi_lo, grad_lo = alpha, phi_a, grad_a
    # fall back to the best admissible point found, whose values are in hand
    if lo > 0.0:
        return lo, phi_lo, grad_lo
    return None, None, None


def run_vqe(
    hamiltonian: IntegralHamiltonian,
    ansatz: Ansatz,
    grad_tol: float = 1e-6,
    max_iter: int = 500,
    restarts: int = 0,
    seed: int = 0,
) -> OptimizationResult:
    """Minimize <H> over the ansatz parameters, starting from zero.

    Optional random restarts (uniform in +-0.1, seeded) rerun the
    minimization and keep the result of lowest energy. The gradient is
    ``simulator.gradient``'s adjoint sweep.
    """
    n = ansatz.n_parameters

    def objective(theta):
        return ansatz_expectation(hamiltonian, ansatz, theta)

    def grad(theta):
        return ansatz_gradient(hamiltonian, ansatz, theta)

    best = minimize(objective, grad, np.zeros(n), grad_tol=grad_tol, max_iter=max_iter)
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        theta0 = rng.uniform(-_RESTART_SCALE, _RESTART_SCALE, size=n)
        candidate = minimize(objective, grad, theta0, grad_tol=grad_tol, max_iter=max_iter)
        if candidate.fun < best.fun:
            best = candidate
    return best
