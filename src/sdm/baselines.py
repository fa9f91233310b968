"""Classical second-order baselines on ||h(x) - y||^2.

Full Newton uses the exact chain-rule Hessian
``2 (J^T J + sum_i r_i d2h_i)`` whenever the map supplies second
derivatives, falling back to central differences of the Jacobian or of
the gradient. Gauss-Newton drops the curvature term. Neither does any
line search or damping.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Array, NlsProblem, SmoothMap, as_vector

RESIDUAL_TOL = 1e-12
STEP_REL_TOL = 1e-10
STALL_STEP_TOL = 1e-14
GRAD_TOL = 1e-12
DIVERGENCE_THRESHOLD = 1e8


class RunStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    DIVERGED = "diverged"
    SINGULAR_HESSIAN = "singular_hessian"
    SADDLE_STALL = "saddle_stall"


@dataclass(frozen=True)
class DescentRun:
    """Iterates and per-iterate residual norms of one solver run."""

    iterates: tuple[Array, ...]
    residuals: tuple[float, ...]
    status: RunStatus

    def __post_init__(self):
        if not self.iterates:
            raise ValueError("a run records at least its starting point")
        if len(self.iterates) != len(self.residuals):
            raise ValueError("iterates and residuals must be aligned")

    @property
    def final(self) -> Array:
        return self.iterates[-1]


def _component_hessians(map: SmoothMap, x: Array) -> Array:
    """(m, p, p) second derivatives, analytic or FD on the Jacobian."""
    if map.hess is not None:
        H = np.asarray(map.hess(x), dtype=float)
        return H.reshape(map.feature_dim, map.param_dim, map.param_dim)
    p = map.param_dim
    out = np.empty((map.feature_dim, p, p))
    for j in range(p):
        h = map.jacobian_fd_step * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        out[:, :, j] = (map.jacobian(xp) - map.jacobian(xm)) / (2.0 * h)
    # symmetrize across the two parameter axes
    return (out + out.transpose(0, 2, 1)) / 2.0


def nls_gradient(problem: NlsProblem, x: Array) -> Array:
    r = problem.map.evaluate(x) - problem.target
    return 2.0 * problem.map.jacobian(x).T @ r


def nls_hessian(problem: NlsProblem, x: Array) -> Array:
    r = problem.map.evaluate(x) - problem.target
    J = problem.map.jacobian(x)
    curvature = np.einsum("i,ijk->jk", r, _component_hessians(problem.map, x))
    return 2.0 * (J.T @ J + curvature)


def _classify_end(residuals: list[float]) -> RunStatus:
    # A run that used up its budget while moving away from the data is a
    # divergence even when the residual stays bounded (e.g. a parameter
    # escaping to infinity on a saturating map).
    if residuals[-1] > residuals[0] and residuals[-1] > RESIDUAL_TOL:
        return RunStatus.DIVERGED
    return RunStatus.MAX_ITERS


def _descent_iteration(
    problem: NlsProblem, x0, max_iters: int, step_fn, stall_on_singular_stationary: bool
):
    """The iteration shared by Newton and Gauss-Newton, as a generator
    that asks for one map evaluation per iterate: it yields each iterate
    x and is sent back ``(h(x), extra)``, where `extra` is whatever
    ``step_fn(x, r, extra)`` needs besides the residual r = h(x) - target.
    It returns the DescentRun (see `_run` and `gauss_newton_rows`)."""
    x = as_vector(x0, "x0", dim=problem.map.param_dim)
    h, extra = yield x
    r = h - problem.target
    iterates = [np.array(x)]
    residuals = [float(np.linalg.norm(r))]
    status = None

    for _ in range(max_iters):
        rn = residuals[-1]
        if not np.isfinite(rn) or rn > DIVERGENCE_THRESHOLD:
            status = RunStatus.DIVERGED
            break
        if rn <= RESIDUAL_TOL:
            status = RunStatus.CONVERGED
            break
        x = iterates[-1]
        step, singular = step_fn(x, r, extra)
        if singular:
            # a singular system at a stationary point is a saddle the
            # full-Newton model cannot leave; Gauss-Newton has no such
            # notion and just reports the singularity
            status = RunStatus.SINGULAR_HESSIAN
            if stall_on_singular_stationary:
                grad = nls_gradient(problem, x)
                if np.linalg.norm(grad) <= GRAD_TOL:
                    status = RunStatus.SADDLE_STALL
            break
        if not np.all(np.isfinite(step)):
            status = RunStatus.DIVERGED
            break
        if np.linalg.norm(step) < STALL_STEP_TOL:
            status = RunStatus.SADDLE_STALL
            break
        x_next = x - step
        h, extra = yield x_next
        r = h - problem.target
        iterates.append(x_next)
        residuals.append(float(np.linalg.norm(r)))
        if np.linalg.norm(x_next - x) <= STEP_REL_TOL * max(1.0, np.linalg.norm(x_next)):
            status = RunStatus.CONVERGED
            break

    if status is None:
        status = _classify_end(residuals)
    return DescentRun(iterates=tuple(iterates), residuals=tuple(residuals), status=status)


def _run(iteration, evaluate) -> DescentRun:
    """Drive one `_descent_iteration`, evaluating with ``evaluate(x)``."""
    try:
        x = next(iteration)
        while True:
            x = iteration.send(evaluate(x))
    except StopIteration as done:
        return done.value


def newton_minimize(problem: NlsProblem, x0, max_iters: int = 50) -> DescentRun:
    """Full Newton iteration ``x - H^{-1} grad``.

    An exactly singular system yields status `singular_hessian` (or
    `saddle_stall` when the gradient also vanishes), never an
    exception.
    """

    def step_fn(x, r, _):
        H = nls_hessian(problem, x)
        g = nls_gradient(problem, x)
        try:
            return np.linalg.solve(H, g), False
        except np.linalg.LinAlgError:
            return None, True

    iteration = _descent_iteration(problem, x0, max_iters, step_fn, True)
    return _run(iteration, lambda x: (problem.map.evaluate(x), None))


def _gauss_newton_step(x, r, J):
    """The shared loop's Gauss-Newton step, or a singular system."""
    try:
        # minus sign: the shared loop applies x - step
        return np.linalg.solve(J.T @ J, J.T @ r), False
    except np.linalg.LinAlgError:
        return None, True


def gauss_newton_minimize(problem: NlsProblem, x0, max_iters: int = 50) -> DescentRun:
    """Gauss-Newton iteration ``x + (J^T J)^{-1} J^T (y - h)``, with one
    evaluation of value and Jacobian (`SmoothMap.value_and_jacobian`)
    per iterate."""
    iteration = _descent_iteration(problem, x0, max_iters, _gauss_newton_step, False)
    return _run(iteration, problem.map.value_and_jacobian)


def gauss_newton_rows(map: SmoothMap, targets, X0, max_iters: int = 50) -> list[DescentRun]:
    """`gauss_newton_minimize` of N problems at once: problem i has the
    target row i of an (N, m) array and starts at row i of X0 (N, p).

    Each round evaluates value and Jacobian once, on the rows of every
    run still going. The runs are those of N single calls, bit for bit,
    when the map's row kernels give each row the bits of a one-point
    evaluation, as the projection kernel does.
    """
    runs = [_descent_iteration(NlsProblem(map, y), x0, max_iters, _gauss_newton_step, False)
            for y, x0 in zip(targets, X0)]
    out = [None] * len(runs)
    live = [(i, next(run)) for i, run in enumerate(runs)]
    while live:
        H, J = map.value_and_jacobian(np.array([x for _, x in live]))
        going = []
        for (i, _), h, jac in zip(live, H, J):
            try:
                going.append((i, runs[i].send((h, jac))))
            except StopIteration as done:
                out[i] = done.value
        live = going
    return out
