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

from .core import Array, NlsProblem, SmoothMap, as_matrix, as_vector, every
from .errors import SettingError

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
    """One run: iterates (k, p), residual norms (k,), a RunStatus, `iterations` = k - 1. Runs on
    rows: (K+1, N, p) and (K+1, N), rows held at their last iterate, (N,) statuses and counts."""

    iterates: Array
    residuals: Array
    status: RunStatus | Array
    iterations: int | Array

    def __post_init__(self):
        shape = np.shape(self.residuals)  # (k,) for one run, (K+1, N) for runs on rows
        if (not len(self.iterates) or np.shape(self.iterates)[:len(shape)] != shape
                or not getattr(self.status, "shape", ()) == shape[1:] == np.shape(self.iterations)):
            raise ValueError("a run needs a start, and aligned iterates, residuals and statuses")

    @property
    def final(self) -> Array:
        return self.iterates[-1]

    def row(self, i: int) -> DescentRun:
        """Row i of runs on rows as one run, up to its last iterate."""
        k = int(self.iterations[i])
        return DescentRun(self.iterates[:k + 1, i], self.residuals[:k + 1, i], self.status[i], k)


def _norms(V: Array) -> Array:
    """Norm of every row of V from one dot product, as ``np.linalg.norm``."""
    return np.sqrt(np.vecdot(V, V))


def _solve_rows(A: Array, B: Array) -> tuple[Array, Array]:
    """Solutions of ``A[i] s = B[i]``, one row at a time, where the batched
    solve met a singular system; and the mask of rows whose system is
    singular (their solution is NaN)."""
    S, singular = np.full(B.shape, np.nan), np.zeros(len(A), dtype=bool)
    for i in range(len(A)):
        try:
            S[i] = np.linalg.solve(A[i:i + 1], B[i:i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            singular[i] = True
    return S, singular


def _descend(map: SmoothMap, Y: Array, X0: Array, max_iters: int,
             newton: bool) -> DescentRun:
    """Newton (`newton`) or Gauss-Newton from every row of X0 (N, p), row i
    against the target Y[i] (N, m). Each iterate makes one kernel call on
    the rows still going, for the value, the Jacobian and, for Newton, the
    second derivatives; both methods build ``J^T J`` and ``J^T r`` from it,
    and Newton adds the curvature ``sum_i r_i d2h_i`` and the factor 2 of
    ||h - y||^2. An iterate no row can step from (every row met the
    step-size test on the way there, or it is iterate `max_iters`) is
    evaluated for its value alone. A single row goes through the map's
    one-point path, which gives it the same bits sooner.

    Each round tests the live rows in this order: the residual diverged
    (non-finite or above DIVERGENCE_THRESHOLD), it converged, the system
    is singular (a saddle, for Newton, when the gradient vanishes too),
    the step is not finite, the step stalls. Only rows that pass the two
    residual tests get a step; the others move, and have converged when
    the move is below STEP_REL_TOL relative. A row leaves when it ends,
    held at its last iterate and residual from then on. A round in which
    every row passes costs one combined test; the ordered tests run only
    when some row ends.
    """
    if max_iters < 0:
        raise SettingError(f"max_iters must be >= 0, got {max_iters}")
    n = len(X0)
    traj, res = np.empty((max_iters + 1, *X0.shape)), np.empty((max_iters + 1, n))
    # per row, its steps and its status (RunStatus members), as a run through every round has them
    steps, status = np.array([max_iters] * n), np.array([RunStatus.MAX_ITERS] * n, dtype=object)
    top = 2 if newton else 1
    if not n:
        return DescentRun(traj, res, status, steps)

    def observe(live, X, Y, k, order):
        """Residuals at the rows X of `live` against Y, their norms, recorded as
        iterate k, and the derivatives up to `order`."""
        if len(X) == 1:
            H, *D = [v[None] for v in map.derivatives(X[0], order)]
        else:
            H, *D = map.derivatives(X, order)
        R = H - Y
        rn = _norms(R)
        rows = slice(None) if len(live) == n else live
        traj[k, rows], res[k, rows] = X, rn
        return R, rn, D

    def end(rows, k, s):
        """End `rows` at iterate k - 1 with status `s`, held there from then on."""
        rows = slice(None) if len(rows) == n else rows  # every row: a faster basic index
        steps[rows], status[rows] = k - 1, s
        traj[k:, rows], res[k:, rows] = traj[k - 1, rows], res[k - 1, rows]

    def stop(k, tests, live, *arrays):
        """End the rows of `live` failing one of `tests`, (mask, status) pairs
        in test order, at iterate k - 1 with the status of the first test
        they fail; returns `live` and `arrays` at the rows that go on."""
        failed = np.zeros(len(live), dtype=bool)
        for mask, s in tests:
            end(live[mask & ~failed], k, s)
            failed |= mask
        return tuple(a[~failed] for a in (live, *arrays))

    live, X = np.arange(n), X0
    R, rn, D = observe(live, X, Y, 0, top if max_iters else 0)
    moved = np.zeros(n, dtype=bool)  # the last move met the step-size test
    for k in range(1, max_iters + 1):
        # NaN compares false: a residual that is not finite fails both bounds
        if not every((rn > RESIDUAL_TOL) & (rn <= DIVERGENCE_THRESHOLD) & ~moved):
            live, X, Y, R, *D = stop(k, [(moved, RunStatus.CONVERGED),
                                         (~(rn <= DIVERGENCE_THRESHOLD), RunStatus.DIVERGED),
                                         (rn <= RESIDUAL_TOL, RunStatus.CONVERGED)],
                                     live, X, Y, R, *D)
            if not live.size:
                break
        Jt = D[0].transpose(0, 2, 1)
        A, G = Jt @ D[0], (Jt @ R[..., None])[..., 0]
        if newton:
            A, G = 2.0 * (A + np.einsum("ni,nijk->njk", R, D[1])), 2.0 * G
        try:
            S, singular = np.linalg.solve(A, G[..., None])[..., 0], None
        except np.linalg.LinAlgError:
            S, singular = _solve_rows(A, G)
        sn = _norms(S)
        # a finite step whose norm overflows fails this test and passes the ordered ones
        if singular is not None or not every((sn >= STALL_STEP_TOL) & (sn < np.inf)):
            singular = np.zeros(len(S), dtype=bool) if singular is None else singular
            saddle = ([(singular & (_norms(G) <= GRAD_TOL), RunStatus.SADDLE_STALL)]
                      if newton else [])
            finite = np.logical_and.reduce(np.isfinite(S), axis=1)
            live, X, S, Y = stop(k, [*saddle, (singular, RunStatus.SINGULAR_HESSIAN),
                                     (~finite, RunStatus.DIVERGED),
                                     (sn < STALL_STEP_TOL, RunStatus.SADDLE_STALL)],
                                 live, X, S, Y)
            if not live.size:
                break
        X_prev, X = X, X - S
        moved = _norms(X - X_prev) <= STEP_REL_TOL * np.maximum(1.0, _norms(X))
        if every(moved):  # every row converges here, with the value its last iterate needs
            observe(live, X, Y, k, 0)
            end(live, k + 1, RunStatus.CONVERGED)
            break
        R, rn, D = observe(live, X, Y, k, 0 if k == max_iters else top)
    else:
        live, = stop(max_iters + 1, [(moved, RunStatus.CONVERGED)], live)
        # out of iterations while moving away from the data is a divergence,
        # even with a bounded residual (a parameter escaping on a saturating map)
        status[live[res[-1, live] > np.maximum(res[0, live], RESIDUAL_TOL)]] = RunStatus.DIVERGED
    return DescentRun(traj, res, status, steps)


def _rows(map: SmoothMap, targets, X0, max_iters: int, newton: bool) -> DescentRun:
    """`_descend` from the rows of X0 (N, p) against targets (N, m), validated."""
    Y = as_matrix(targets, "targets", width=map.feature_dim)
    X0 = as_matrix(X0, "x0", width=map.param_dim, rows=len(Y))
    return _descend(map, Y, X0, max_iters, newton=newton)


def newton_minimize(problem: NlsProblem, x0, max_iters: int = 50) -> DescentRun:
    """Full Newton iteration ``x - H^{-1} grad`` as a one-row call, with one
    evaluation of value, Jacobian and second derivatives
    (`SmoothMap.derivatives`) per iterate, and of the value alone at a
    last iterate reached on the step-size test or at `max_iters`. An
    exactly singular system yields status `singular_hessian`
    (`saddle_stall` when the gradient also vanishes), never an exception."""
    x0 = as_vector(x0, "x0", dim=problem.map.param_dim)
    return _descend(problem.map, problem.target[None], x0[None], max_iters, newton=True).row(0)


def newton_rows(map: SmoothMap, targets, X0, max_iters: int = 50) -> DescentRun:
    """`newton_minimize` of N problems at once: problem i has the target
    row i of an (N, m) array and starts at row i of X0 (N, p)."""
    return _rows(map, targets, X0, max_iters, newton=True)


def gauss_newton_minimize(problem: NlsProblem, x0, max_iters: int = 50) -> DescentRun:
    """Gauss-Newton iteration ``x + (J^T J)^{-1} J^T (y - h)`` as a one-row
    call, with one evaluation of value and Jacobian
    (`SmoothMap.derivatives`) per iterate, and of the value alone at a last
    iterate reached on the step-size test or at `max_iters`."""
    x0 = as_vector(x0, "x0", dim=problem.map.param_dim)
    return _descend(problem.map, problem.target[None], x0[None], max_iters, newton=False).row(0)


def gauss_newton_rows(map: SmoothMap, targets, X0, max_iters: int = 50) -> DescentRun:
    """`gauss_newton_minimize` of N problems at once: problem i has the
    target row i of an (N, m) array and starts at row i of X0 (N, p).

    Each round evaluates value and Jacobian once (the value alone where no
    row can step on), on the rows of every run still going. Row i of the
    record is the run of a single call, bit for bit, when the map's kernel
    gives each row the bits of a one-point call, as the package's kernels do.
    """
    return _rows(map, targets, X0, max_iters, newton=False)
