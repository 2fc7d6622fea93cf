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
_DOUBLINGS, _BISECTIONS = 25, 40   # the step budgets of one line search


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
    h_inv = np.eye(n)
    trajectory = []
    iterations = 0
    while True:
        gnorm = float(np.max(np.abs(gx))) if n else 0.0
        trajectory.append((float(fx), gnorm))
        if gnorm < grad_tol or iterations == max_iter:
            exit_reason = "grad_tol" if gnorm < grad_tol else "max_iter"
            break
        iterations += 1
        direction = -h_inv @ gx
        if direction @ gx >= 0.0:   # uphill: drop the curvature model for steepest descent
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
        y = gx_new - gx
        sy = float(step @ y)
        if sy > 1e-14 * np.linalg.norm(step) * np.linalg.norm(y):
            rho = 1.0 / sy
            outer = np.outer(step, y)
            h_inv = (
                (np.eye(n) - rho * outer) @ h_inv @ (np.eye(n) - rho * outer.T)
                + rho * np.outer(step, step)
            )
        x, fx, gx = x + step, fx_new, gx_new

    return OptimizationResult(
        x=x, fun=float(fx), grad_norm=gnorm, iterations=iterations,
        n_function_evals=f.count, n_gradient_evals=g.count,
        converged=exit_reason == "grad_tol", trajectory=tuple(trajectory),
        exit_reason=exit_reason,
    )


def _wolfe_line_search(f, g, x, direction, f0, slope0):
    """Strong Wolfe conditions (c1 = 1e-4, c2 = 0.9) by doubling, then bisection.

    ``lo`` is the last admissible step, with f and g there in hand (the
    gradient at step 0 is never read: a search that ends there fails).
    ``hi`` is None while the step doubles from 1, and then the other end of
    the bracket that bisection narrows. Running out of doublings fails; running
    out of bisections falls back to ``lo``.
    """
    lo, phi_lo, grad_lo, hi = 0.0, f0, None, None
    doublings = bisections = 0
    while (doublings < _DOUBLINGS) if hi is None else (bisections < _BISECTIONS):
        if hi is None:
            doublings += 1
            alpha = 2.0 * lo if lo else 1.0
        else:
            bisections += 1
            alpha = 0.5 * (lo + hi)
        phi_a = f(x + alpha * direction)
        first_trial = hi is None and lo == 0.0   # step 1 has no earlier step to beat
        if phi_a > f0 + _C1 * alpha * slope0 or (not first_trial and phi_a >= phi_lo):
            hi = alpha
            continue
        grad_a = np.asarray(g(x + alpha * direction), dtype=float)
        d_a = float(grad_a @ direction)
        if abs(d_a) <= -_C2 * slope0:
            return alpha, phi_a, grad_a
        # while doubling, the bracket's far end lies beyond every step
        if d_a * (1.0 if hi is None else hi - lo) >= 0.0:
            hi = lo
        lo, phi_lo, grad_lo = alpha, phi_a, grad_a
    return (lo, phi_lo, grad_lo) if hi is not None and lo > 0.0 else (None, None, None)


def run_vqe(
    hamiltonian: IntegralHamiltonian,
    ansatz: Ansatz,
    grad_tol: float = 1e-6,
    max_iter: int = 500,
    restarts: int = 0,
    seed: int = 0,
) -> OptimizationResult:
    """Minimize <H> over the ansatz parameters, starting from zero.

    Optional random restarts (uniform in +-0.1, seeded, all drawn before the
    first minimization) rerun it; the first result of lowest energy is kept.
    The gradient is ``simulator.gradient``'s adjoint sweep.
    """
    n = ansatz.n_parameters

    def objective(theta):
        return ansatz_expectation(hamiltonian, ansatz, theta)

    def grad(theta):
        return ansatz_gradient(hamiltonian, ansatz, theta)

    # every restart is drawn before any minimization, so a bad seed costs nothing
    rng = np.random.default_rng(seed)
    draws = [rng.uniform(-_RESTART_SCALE, _RESTART_SCALE, size=n) for _ in range(restarts)]
    results = [minimize(objective, grad, theta0, grad_tol=grad_tol, max_iter=max_iter)
               for theta0 in [np.zeros(n)] + draws]
    return min(results, key=lambda result: result.fun)   # the first of the lowest
