"""Core types and the update rule for learned-descent-map optimization.

Parameter and feature vectors are plain 1-D float64 numpy arrays. The
helpers here validate shape and finiteness at API boundaries; hot loops
operate on the validated arrays directly. A DescentStep is one learned
linear update, ``x <- x + R (y - h(x)) + b`` (`DescentStep.advance`;
generalized mode has y = 0 and a learned bias b, the other modes b = 0),
and a DescentSequence is the trained cascade that gets applied at test
time; a partitioned cascade holds one step per region of parameter
space at every stage.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, DivergedError, PartitionError

Array = np.ndarray

# step of `central_differences` along coordinate i: JACOBIAN_FD_STEP * max(1, |x_i|)
JACOBIAN_FD_STEP = 1e-6


def as_vector(values, name: str = "vector", dim: int | None = None) -> Array:
    """Coerce to a finite, read-only 1-D float64 array."""
    arr = np.array(values, dtype=float, copy=True).reshape(-1)
    if arr.size < 1:
        raise ValueError(f"{name} must have length >= 1")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(name, expected=dim, got=arr.size)
    arr.setflags(write=False)
    return arr


def as_matrix(values, name: str = "matrix", shape: tuple[int, int] | None = None) -> Array:
    """Coerce to a finite, read-only 2-D float64 array."""
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def central_differences(f: Callable[[Array], Array], x: Array) -> Array:
    """Central differences of f at the point x (p,), one per coordinate, on a new last axis."""
    columns = []
    for i in range(x.size):
        h = JACOBIAN_FD_STEP * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        columns.append((f(xp) - f(xm)) / (2.0 * h))
    return np.stack(columns, axis=-1)


class Mode(str, Enum):
    """Training/test-time convention for how targets enter the update."""

    TEMPLATE = "template"        # one fixed target shared by all samples
    REVERSED = "reversed"        # fixed start, per-sample targets
    GENERALIZED = "generalized"  # target absorbed into a learned bias


@dataclass(frozen=True)
class SmoothMap:
    """An evaluatable map h: R^p -> R^m with optional analytic derivatives.

    `fn` must be a pure function of its input. `jac` (m x p) and `hess`
    (m x p x p component second derivatives) are optional; when `jac` is
    absent, `jacobian` falls back to central finite differences
    (`fd_jacobian`). `rows` is an optional vectorized kernel taking an
    (N, p) array to the (N, m) array of its rows' values; without it,
    `evaluate_rows` calls `evaluate` row by row. `fused` is an optional
    kernel returning the value and the Jacobian together, for one point
    or for (N, p) rows (see `value_and_jacobian`); without it, they come
    from separate evaluations.
    """

    param_dim: int
    feature_dim: int
    fn: Callable[[Array], Array]
    jac: Callable[[Array], Array] | None = None
    hess: Callable[[Array], Array] | None = None
    name: str = ""
    rows: Callable[[Array], Array] | None = None
    fused: Callable[[Array], tuple[Array, Array]] | None = None

    def __post_init__(self):
        if self.param_dim < 1 or self.feature_dim < 1:
            raise ValueError("param_dim and feature_dim must be >= 1")

    def evaluate(self, x: Array) -> Array:
        """Evaluate the map; the result is a length-m float64 array."""
        out = np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float).reshape(-1)
        if out.size != self.feature_dim:
            raise DimensionMismatchError("feature", expected=self.feature_dim, got=out.size)
        return out

    def evaluate_rows(self, X) -> Array:
        """Evaluate the map at every row of an (N, p) array; returns (N, m)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.param_dim:
            raise ValueError(f"rows must have shape (N, {self.param_dim}), got {X.shape}")
        if self.rows is None:
            out = np.array([self.evaluate(x) for x in X]).reshape(len(X), self.feature_dim)
        else:
            out = np.asarray(self.rows(X), dtype=float)
        if out.shape != (len(X), self.feature_dim):
            raise DimensionMismatchError("feature", expected=self.feature_dim, got=out.shape[-1])
        return out

    def jacobian(self, x: Array) -> Array:
        """Analytic Jacobian when supplied, otherwise central differences."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.param_dim:
            raise DimensionMismatchError("param", expected=self.param_dim, got=x.size)
        if self.jac is not None:
            J = np.asarray(self.jac(x), dtype=float).reshape(self.feature_dim, self.param_dim)
            return J
        return self.fd_jacobian(x)

    def value_and_jacobian(self, X) -> tuple[Array, Array]:
        """The map and its Jacobian at one point x (p,), shapes (m,) and
        (m, p), or at every row of an (N, p) array, shapes (N, m) and
        (N, m, p): from one `fused` call when the map has the hook,
        otherwise from `evaluate` (`evaluate_rows`) and `jacobian`."""
        X = np.asarray(X, dtype=float)
        if self.fused is not None:
            return self.fused(X)
        if X.ndim == 2:
            return self.evaluate_rows(X), np.array([self.jacobian(x) for x in X])
        return self.evaluate(X), self.jacobian(X)

    def fd_jacobian(self, x: Array) -> Array:
        """Central finite-difference Jacobian, regardless of `jac`."""
        return central_differences(self.evaluate, np.asarray(x, dtype=float).reshape(-1))


@dataclass(frozen=True)
class DescentStep:
    """One learned update: a gain matrix R (p x m) and a bias b (length p).

    `advance` is the one update rule of the package, used in training,
    at test time and by the contraction certificates. The bias is all
    zeros except in generalized mode, where it absorbs the unknown
    target.
    """

    gain: Array
    bias: Array

    def __post_init__(self):
        gain = as_matrix(self.gain, "gain")
        object.__setattr__(self, "gain", gain)
        bias = as_vector(self.bias, "bias", dim=gain.shape[0])
        object.__setattr__(self, "bias", bias)

    @classmethod
    def from_gain(cls, gain) -> "DescentStep":
        gain = as_matrix(gain, "gain")
        return cls(gain=gain, bias=np.zeros(gain.shape[0]))

    @property
    def param_dim(self) -> int:
        return self.gain.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.gain.shape[1]

    def advance(self, X, Phi) -> Array:
        """``X + R (y - h) + b``: one point X (p,) with its feature
        residual Phi = y - h (m,), or (N, p) points with (N, m)
        residuals, one per row. Generalized mode passes y = 0."""
        return X + Phi @ self.gain.T + self.bias


def partition_coords(partition, param_dim: int) -> tuple[int, ...]:
    """Validate partition coordinates: distinct indices into a length-p vector."""
    coords = tuple(int(c) for c in partition)
    if len(set(coords)) != len(coords) or any(not 0 <= c < param_dim for c in coords):
        raise PartitionError(
            f"partition coordinates must be distinct indices in [0, {param_dim}), "
            f"got {list(coords)}"
        )
    return coords


def region_index(x, partition: tuple[int, ...], center):
    """Region of the point `x` in a partition of parameter space.

    Bit j of the region index is set where coordinate ``partition[j]``
    of `x` exceeds ``center[j]``; a point at the center, and every point
    when there are no partition coordinates, is in region 0. An (N, p)
    array of points gives the length-N integer array of their regions.
    """
    if np.ndim(x) == 2:
        above = np.asarray(x)[:, list(partition)] > center
        return above.astype(np.intp) @ (1 << np.arange(len(partition), dtype=np.intp))
    return sum(1 << j for j, (c, v) in enumerate(zip(partition, center)) if x[c] > v)


@dataclass(frozen=True)
class DescentSequence:
    """An ordered cascade of descent steps plus training metadata.

    `training_report` holds the mean squared parameter residual on the
    training set before any update and after each stage.

    A partitioned cascade splits parameter space into
    ``2**len(partition)`` regions by the sign of each offset
    ``x[partition[j]] - center[j]`` (see `region_index`) and holds one
    step per region at every stage. `steps` is stage-major: stage k's
    step for region r is ``steps[k * n_regions + r]``. Without partition
    coordinates there is one region and one step per stage. Only
    generalized mode learns a bias: a template or reversed sequence with
    a nonzero bias is refused.
    """

    steps: tuple[DescentStep, ...]
    param_dim: int
    feature_dim: int
    mode: Mode
    training_report: tuple[float, ...] = ()
    partition: tuple[int, ...] = ()
    center: Array | None = None

    def __post_init__(self):
        steps = tuple(self.steps)
        if len(steps) < 1:
            raise ValueError("a descent sequence needs at least one step")
        for k, s in enumerate(steps):
            if s.param_dim != self.param_dim:
                raise DimensionMismatchError(f"step[{k}].param", self.param_dim, s.param_dim)
            if s.feature_dim != self.feature_dim:
                raise DimensionMismatchError(f"step[{k}].feature", self.feature_dim, s.feature_dim)
        partition = partition_coords(self.partition, self.param_dim)
        center = np.array(() if self.center is None else self.center, dtype=float).reshape(-1)
        if center.size != len(partition) or not np.all(np.isfinite(center)):
            raise PartitionError(
                f"partition center needs {len(partition)} finite entries, got {center.size}"
            )
        center.setflags(write=False)
        if len(steps) % (1 << len(partition)):
            raise PartitionError(
                f"{len(steps)} steps do not split into stages of {1 << len(partition)} regions"
            )
        mode = Mode(self.mode)
        if mode is not Mode.GENERALIZED and any(s.bias.any() for s in steps):
            raise ValueError(f"a {mode.value}-mode sequence has nonzero biases")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "training_report", tuple(float(v) for v in self.training_report))
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "center", center)

    @property
    def n_regions(self) -> int:
        return 1 << len(self.partition)

    def __len__(self) -> int:
        return len(self.steps) // self.n_regions

    def step_at(self, stage: int, x) -> DescentStep:
        """The step that stage `stage` applies at the point `x`."""
        return self.steps[stage * self.n_regions + region_index(x, self.partition, self.center)]


def advance_regions(steps, X: Array, Phi: Array, regions: Array) -> Array:
    """Every row of X (N, p) advanced with its residual Phi (N, m) by the
    step of its region, ``steps[regions[i]]`` (see `region_index`)."""
    out = np.empty_like(X)
    for r, step in enumerate(steps):
        rows = regions == r
        out[rows] = step.advance(X[rows], Phi[rows])
    return out


@dataclass(frozen=True)
class NlsProblem:
    """A nonlinear least-squares instance: minimize ||h(x) - target||^2."""

    map: SmoothMap
    target: Array

    def __post_init__(self):
        target = as_vector(self.target, "target", dim=self.map.feature_dim)
        object.__setattr__(self, "target", target)


def _cascade_target(seq: DescentSequence, map: SmoothMap, y, rows: int | None) -> Array:
    """The validated target of a cascade run: y (m,) for one point, or
    (rows, m) for `rows` rows; zeros in generalized mode, which takes no
    target."""
    if (map.param_dim, map.feature_dim) != (seq.param_dim, seq.feature_dim):
        raise DimensionMismatchError("map", (seq.param_dim, seq.feature_dim),
                                     (map.param_dim, map.feature_dim))
    shape = (seq.feature_dim,) if rows is None else (rows, seq.feature_dim)
    if seq.mode is Mode.GENERALIZED:
        if y is not None:
            raise ValueError("generalized-mode sequences take no target")
        return np.zeros(shape)
    if y is None:
        raise ValueError(f"{seq.mode.value}-mode sequences require a target y")
    return as_vector(y, "y", dim=seq.feature_dim) if rows is None else as_matrix(y, "y", shape)


def apply_sequence(
    seq: DescentSequence,
    x0,
    map: SmoothMap,
    y=None,
) -> list[Array]:
    """Run the cascade from `x0`, re-evaluating the map at every step.

    Returns the full trajectory, ``len(seq) + 1`` iterates starting at
    `x0`. Each stage applies its step for the region holding the current
    iterate, as ``x = step.advance(x, y - h(x))``. In generalized mode
    `y` must be omitted and is taken as zero (the steps' biases stand in
    for it); otherwise it is the target for the residual. A non-finite
    evaluation raises DivergedError carrying the partial trajectory.
    """
    x = as_vector(x0, "x0", dim=seq.param_dim)
    y = _cascade_target(seq, map, y, None)
    trajectory = [np.array(x)]
    for k in range(len(seq)):
        h = map.evaluate(trajectory[-1])
        if not np.all(np.isfinite(h)):
            raise DivergedError("map produced a non-finite value mid-trajectory", trajectory)
        trajectory.append(seq.step_at(k, trajectory[-1]).advance(trajectory[-1], y - h))
    return trajectory


def apply_sequence_rows(seq: DescentSequence, X0, map: SmoothMap, Y=None) -> Array:
    """`apply_sequence` from every row of X0 (N, p) at once, row i against
    the target Y[i] of an (N, m) array (omitted in generalized mode).

    Each stage evaluates the map once for all rows (`evaluate_rows`) and
    advances every row by the step of its region (`advance_regions`), so
    the results match the one-point path to rounding: the products are
    summed in another order. Returns the (len(seq) + 1, N, p) array of
    trajectories. If some row's evaluation turns non-finite, the first
    such row in row order raises DivergedError once every row has run,
    with the partial trajectory `apply_sequence` would give it.
    """
    X0 = as_matrix(X0, "x0")
    if X0.shape[1] != seq.param_dim:
        raise DimensionMismatchError("x0", expected=seq.param_dim, got=X0.shape[1])
    Y = _cascade_target(seq, map, Y, len(X0))
    traj = np.empty((len(seq) + 1, *X0.shape))
    traj[0] = X0
    broke = np.full(len(X0), len(seq))  # the stage at which a row's evaluation broke down
    for k in range(len(seq)):
        X = traj[k]
        Phi = Y - map.evaluate_rows(X)
        bad = ~np.isfinite(Phi).all(axis=1)
        broke[bad & (broke > k)] = k
        Phi[bad] = 0.0  # what such a row does next is never reported
        regions = region_index(X, seq.partition, seq.center)
        stage = seq.steps[k * seq.n_regions:(k + 1) * seq.n_regions]
        traj[k + 1] = advance_regions(stage, X, Phi, regions)
    failed = np.flatnonzero(broke < len(seq))
    if failed.size:
        i = failed[0]
        raise DivergedError(f"map produced a non-finite value mid-trajectory (row {i})",
                            list(traj[:broke[i] + 1, i]))
    return traj
