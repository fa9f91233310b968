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

from .core import Array, NlsProblem, SmoothMap, as_matrix, as_vector, central_differences
from .errors import DimensionMismatchError

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
    out = central_differences(map.jacobian, x)
    # symmetrize across the two parameter axes
    return (out + out.transpose(0, 2, 1)) / 2.0


def _newton_system(map: SmoothMap, x: Array, r: Array, J: Array) -> tuple[Array, Array]:
    """Hessian ``2 (J^T J + sum_i r_i d2h_i)`` and gradient ``2 J^T r`` of
    ||h - y||^2 at x, from the residual r = h(x) - y and J = h'(x)."""
    curvature = np.einsum("i,ijk->jk", r, _component_hessians(map, x))
    return 2.0 * (J.T @ J + curvature), 2.0 * J.T @ r


def nls_hessian(problem: NlsProblem, x: Array) -> Array:
    h, J = problem.map.value_and_jacobian(x)
    return _newton_system(problem.map, x, h - problem.target, J)[0]


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


def _descend(map: SmoothMap, Y: Array, X0: Array, max_iters: int, newton: bool,
             one_point: bool = False) -> list[DescentRun]:
    """Newton (`newton`) or Gauss-Newton from every row of X0 (N, p), row i
    against the target Y[i] (N, m), with one `value_and_jacobian` call per
    iterate for the rows still going (`one_point`: for the one row, on
    the map's one-point path).

    Each round tests the live rows in this order: the residual diverged
    (non-finite or above DIVERGENCE_THRESHOLD), it converged, the system
    is singular (a saddle, for Newton, when the gradient vanishes too),
    the step is not finite, the step stalls. Only rows that pass the two
    residual tests get a step; the others move, and have converged when
    the move is below STEP_REL_TOL relative. A row leaves when it ends.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    iterates, residuals = [[] for _ in range(len(X0))], [[] for _ in range(len(X0))]
    status = [None] * len(X0)

    def observe(live, X, Y):
        H, J = map.value_and_jacobian(X[0] if one_point else X)
        if one_point:
            H, J = H[None], J[None]
        R = H - Y
        rn = _norms(R)
        for i, x, v in zip(live.tolist(), X, rn.tolist()):
            iterates[i].append(x)
            residuals[i].append(v)
        return R, J, rn

    def stop(tests, live, *arrays):
        """End the rows of `live` failing one of `tests`, (mask, status) pairs
        in test order, with the status of the first test they fail; returns
        `live` and `arrays` at the rows that go on."""
        failed = tests[0][0]
        for mask, _ in tests[1:]:
            failed = failed | mask
        ended = failed.nonzero()[0]
        if not ended.size:
            return (live, *arrays)
        for j in ended:
            status[live[j]] = next(s for mask, s in tests if mask[j])
        return tuple(a[~failed] for a in (live, *arrays))

    live, X = np.arange(len(X0)), X0
    R, J, rn = observe(live, X, Y)
    moved = np.zeros(len(X0), dtype=bool)  # the last move met the step-size test
    for _ in range(max_iters):
        # NaN compares false: a residual that is not finite has diverged
        live, X, Y, R, J = stop([(moved, RunStatus.CONVERGED),
                                 (~(rn <= DIVERGENCE_THRESHOLD), RunStatus.DIVERGED),
                                 (rn <= RESIDUAL_TOL, RunStatus.CONVERGED)], live, X, Y, R, J)
        if not live.size:
            break
        if newton:
            systems = [_newton_system(map, x, r, j) for x, r, j in zip(X, R, J)]
            A, G = np.array([a for a, _ in systems]), np.array([g for _, g in systems])
        else:
            Jt = J.transpose(0, 2, 1)
            A, G = Jt @ J, (Jt @ R[..., None])[..., 0]
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
        R, J, rn = observe(live, X, Y)
        moved = _norms(X - X_prev) <= STEP_REL_TOL * np.maximum(1.0, _norms(X))
    else:
        live, = stop([(moved, RunStatus.CONVERGED)], live)
    for i in live:
        # out of iterations while moving away from the data is a divergence,
        # even with a bounded residual (a parameter escaping on a saturating map)
        r = residuals[i]
        status[i] = RunStatus.DIVERGED if r[-1] > max(r[0], RESIDUAL_TOL) else RunStatus.MAX_ITERS
    return [DescentRun(iterates=tuple(x), residuals=tuple(r), status=s)
            for x, r, s in zip(iterates, residuals, status)]


def _rows(map: SmoothMap, targets, X0, max_iters: int, newton: bool) -> list[DescentRun]:
    """`_descend` from the rows of X0 (N, p) against targets (N, m), validated."""
    Y, X0 = as_matrix(targets, "targets"), as_matrix(X0, "x0")
    for name, expected, got in (("targets", map.feature_dim, Y.shape[1]),
                                ("x0", map.param_dim, X0.shape[1]), ("x0 rows", len(Y), len(X0))):
        if got != expected:
            raise DimensionMismatchError(name, expected=expected, got=got)
    return _descend(map, Y, X0, max_iters, newton=newton) if len(X0) else []


def newton_minimize(problem: NlsProblem, x0, max_iters: int = 50) -> DescentRun:
    """Full Newton iteration ``x - H^{-1} grad`` as a one-row call: one
    evaluation of value and Jacobian per iterate, second derivatives only
    where it steps. An exactly singular system yields status
    `singular_hessian` (`saddle_stall` when the gradient also vanishes),
    never an exception."""
    x0 = as_vector(x0, "x0", dim=problem.map.param_dim)
    return _descend(problem.map, problem.target[None], x0[None], max_iters,
                    newton=True, one_point=True)[0]


def newton_rows(map: SmoothMap, targets, X0, max_iters: int = 50) -> list[DescentRun]:
    """`newton_minimize` of N problems at once: problem i has the target
    row i of an (N, m) array and starts at row i of X0 (N, p)."""
    return _rows(map, targets, X0, max_iters, newton=True)


def gauss_newton_minimize(problem: NlsProblem, x0, max_iters: int = 50) -> DescentRun:
    """Gauss-Newton iteration ``x + (J^T J)^{-1} J^T (y - h)`` as a one-row
    call, with one evaluation of value and Jacobian
    (`SmoothMap.value_and_jacobian`) per iterate."""
    x0 = as_vector(x0, "x0", dim=problem.map.param_dim)
    return _descend(problem.map, problem.target[None], x0[None], max_iters,
                    newton=False, one_point=True)[0]


def gauss_newton_rows(map: SmoothMap, targets, X0, max_iters: int = 50) -> list[DescentRun]:
    """`gauss_newton_minimize` of N problems at once: problem i has the
    target row i of an (N, m) array and starts at row i of X0 (N, p).

    Each round evaluates value and Jacobian once, on the rows of every
    run still going. The runs are those of N single calls, bit for bit,
    when the map's row kernels give each row the bits of a one-point
    evaluation, as the projection kernel does.
    """
    return _rows(map, targets, X0, max_iters, newton=False)
