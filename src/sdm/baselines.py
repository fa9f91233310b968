"""Classical second-order baselines on ||h(x) - y||^2.

Full Newton uses the exact chain-rule Hessian
``2 (J^T J + sum_i r_i d2h_i)`` whenever the map supplies second
derivatives, else central differences of the Jacobian; Gauss-Newton
drops the curvature term. Neither does any line search or damping. Both
run in one loop on the rows of an array of starts (`_descend`).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Array, NlsProblem, SmoothMap, as_matrix, as_vector

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
    """Iterates (k, p) and per-iterate residual norms (k,) of one solver run."""

    iterates: Array
    residuals: Array
    status: RunStatus

    def __post_init__(self):
        if not len(self.iterates):
            raise ValueError("a run records at least its starting point")
        if len(self.iterates) != len(self.residuals):
            raise ValueError("iterates and residuals must be aligned")

    @property
    def final(self) -> Array:
        return self.iterates[-1]


def _norms(V: Array) -> Array:
    """Norm of every row of V from one dot product, as ``np.linalg.norm``."""
    return np.sqrt(np.vecdot(V, V))


def _solve(A: Array, B: Array) -> tuple[Array, Array]:
    """Solutions of ``A[i] s = B[i]`` for every row i, and the mask of
    rows whose system is singular (their solution is NaN)."""
    try:
        return np.linalg.solve(A, B[..., None])[..., 0], np.zeros(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.full(B.shape, np.nan), np.ones(1, dtype=bool)
        S, singular = zip(*(_solve(A[i:i + 1], B[i:i + 1]) for i in range(len(A))))
        return np.concatenate(S), np.concatenate(singular)


def _descend(map: SmoothMap, Y: Array, X0: Array, max_iters: int,
             newton: bool) -> list[DescentRun]:
    """Newton (`newton`) or Gauss-Newton from every row of X0 (N, p), row i
    against the target Y[i] (N, m). Each iterate makes one kernel call on
    the rows still going, for the value, the Jacobian and, for Newton, the
    second derivatives; both methods build ``J^T J`` and ``J^T r`` from it,
    and Newton adds the curvature ``sum_i r_i d2h_i`` and the factor 2 of
    ||h - y||^2. A single row goes through the map's one-point path, which
    gives it the same bits sooner.

    Each round tests the live rows in this order: the residual diverged
    (non-finite or above DIVERGENCE_THRESHOLD), it converged, the system
    is singular (a saddle, for Newton, when the gradient vanishes too),
    the step is not finite, the step stalls. Only rows that pass the two
    residual tests get a step; the others move, and have converged when
    the move is below STEP_REL_TOL relative. A row leaves when it ends.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    n = len(X0)
    traj, res = np.empty((max_iters + 1, *X0.shape)), np.empty((max_iters + 1, n))
    length, status = np.zeros(n, dtype=np.intp), np.empty(n, dtype=object)

    order = 2 if newton else 1

    def observe(live, X, Y, k):
        if len(X) == 1:
            H, *D = (v[None] for v in map.derivatives(X[0], order))
        else:
            H, *D = map.derivatives(X, order)
        R = H - Y
        rn = _norms(R)
        rows = slice(None) if len(live) == n else live
        traj[k, rows], res[k, rows], length[rows] = X, rn, k + 1
        return R, rn, D

    def stop(tests, live, *arrays):
        """End the rows of `live` failing one of `tests`, (mask, status) pairs
        in test order, with the status of the first test they fail; returns
        `live` and `arrays` at the rows that go on."""
        failed = tests[0][0]
        for mask, _ in tests[1:]:
            failed = failed | mask
        if not failed.any():
            return (live, *arrays)
        for mask, s in reversed(tests):  # the first test a row fails is written last
            status[live[mask]] = s
        return tuple(a[~failed] for a in (live, *arrays))

    live, X = np.arange(n), X0
    R, rn, D = observe(live, X, Y, 0)
    moved = np.zeros(n, dtype=bool)  # the last move met the step-size test
    for k in range(1, max_iters + 1):
        # NaN compares false: a residual that is not finite has diverged
        live, X, Y, R, *D = stop([(moved, RunStatus.CONVERGED),
                                  (~(rn <= DIVERGENCE_THRESHOLD), RunStatus.DIVERGED),
                                  (rn <= RESIDUAL_TOL, RunStatus.CONVERGED)], live, X, Y, R, *D)
        if not live.size:
            break
        Jt = D[0].transpose(0, 2, 1)
        A, G = Jt @ D[0], (Jt @ R[..., None])[..., 0]
        if newton:
            A, G = 2.0 * (A + np.einsum("ni,nijk->njk", R, D[1])), 2.0 * G
        S, singular = _solve(A, G)
        saddle = [(singular & (_norms(G) <= GRAD_TOL), RunStatus.SADDLE_STALL)] if newton else []
        finite = np.logical_and.reduce(np.isfinite(S), axis=1)
        live, X_prev, S, Y = stop([*saddle, (singular, RunStatus.SINGULAR_HESSIAN),
                                   (~finite, RunStatus.DIVERGED),
                                   (_norms(S) < STALL_STEP_TOL, RunStatus.SADDLE_STALL)],
                                  live, X, S, Y)
        if not live.size:
            break
        X = X_prev - S
        R, rn, D = observe(live, X, Y, k)
        moved = _norms(X - X_prev) <= STEP_REL_TOL * np.maximum(1.0, _norms(X))
    else:
        live, = stop([(moved, RunStatus.CONVERGED)], live)
        # out of iterations while moving away from the data is a divergence,
        # even with a bounded residual (a parameter escaping on a saturating map)
        away = res[-1, live] > np.maximum(res[0, live], RESIDUAL_TOL)
        status[live[away]], status[live[~away]] = RunStatus.DIVERGED, RunStatus.MAX_ITERS
    return _runs(traj, res, length, status)


def _runs(traj: Array, res: Array, length: Array, status: Array) -> list[DescentRun]:
    """One DescentRun per row of `_descend`'s (iterate, row) arrays."""
    return [DescentRun(iterates=traj[:k, i], residuals=res[:k, i], status=s)
            for i, (k, s) in enumerate(zip(length.tolist(), status))]


def _rows(map: SmoothMap, targets, X0, max_iters: int, newton: bool) -> list[DescentRun]:
    """`_descend` from the rows of X0 (N, p) against targets (N, m), validated."""
    Y = as_matrix(targets, "targets", width=map.feature_dim)
    X0 = as_matrix(X0, "x0", width=map.param_dim, rows=len(Y))
    return _descend(map, Y, X0, max_iters, newton=newton) if len(X0) else []


def newton_minimize(problem: NlsProblem, x0, max_iters: int = 50) -> DescentRun:
    """Full Newton iteration ``x - H^{-1} grad`` as a one-row call, with one
    evaluation of value, Jacobian and second derivatives
    (`SmoothMap.derivatives`) per iterate. An exactly
    singular system yields status `singular_hessian` (`saddle_stall` when
    the gradient also vanishes), never an exception."""
    x0 = as_vector(x0, "x0", dim=problem.map.param_dim)
    return _descend(problem.map, problem.target[None], x0[None], max_iters, newton=True)[0]


def newton_rows(map: SmoothMap, targets, X0, max_iters: int = 50) -> list[DescentRun]:
    """`newton_minimize` of N problems at once: problem i has the target
    row i of an (N, m) array and starts at row i of X0 (N, p)."""
    return _rows(map, targets, X0, max_iters, newton=True)


def gauss_newton_minimize(problem: NlsProblem, x0, max_iters: int = 50) -> DescentRun:
    """Gauss-Newton iteration ``x + (J^T J)^{-1} J^T (y - h)`` as a one-row
    call, with one evaluation of value and Jacobian
    (`SmoothMap.derivatives`) per iterate."""
    x0 = as_vector(x0, "x0", dim=problem.map.param_dim)
    return _descend(problem.map, problem.target[None], x0[None], max_iters, newton=False)[0]


def gauss_newton_rows(map: SmoothMap, targets, X0, max_iters: int = 50) -> list[DescentRun]:
    """`gauss_newton_minimize` of N problems at once: problem i has the
    target row i of an (N, m) array and starts at row i of X0 (N, p).

    Each round evaluates value and Jacobian once, on the rows of every
    run still going. The runs are those of N single calls, bit for bit,
    when the map's kernel gives each row the bits of a one-point call,
    as the package's kernels do.
    """
    return _rows(map, targets, X0, max_iters, newton=False)
