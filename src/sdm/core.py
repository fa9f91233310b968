"""Core types and the update rule for learned-descent-map optimization.

Parameter and feature vectors are plain 1-D float64 numpy arrays. The
helpers here validate shape and finiteness at API boundaries; hot loops
operate on the validated arrays directly. A DescentStep is one learned
linear update, ``x <- x + R (y - h(x)) + b`` (`DescentStep.advance`;
generalized mode has y = 0 and a learned bias b, the other modes b = 0),
and a DescentSequence is the trained cascade that gets applied at test
time; a partitioned cascade holds one step per region of parameter
space at every stage. `apply_sequence` runs a cascade from one point or
from the rows of an array, and a row gets the same bits alone as in a
stack.
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

# The most rows of one kernel call: `SmoothMap` runs more rows in blocks of this many, so
# a kernel's intermediates stay a few megabytes and, by the row contract, keep their bits.
BLOCK_ROWS = 4096


def every(mask: Array) -> bool:
    """``mask.all()`` in one C call: `ndarray.all` goes through a Python
    wrapper that costs more than the test on the few entries of a point."""
    return np.count_nonzero(mask) == mask.size


def as_vector(values, name: str = "vector", dim: int | None = None) -> Array:
    """Coerce a scalar or a 1-D sequence to a finite, read-only 1-D float64 array."""
    arr = np.array(values, dtype=float, copy=True, ndmin=1)
    if arr.ndim > 1:
        raise DimensionMismatchError(name, expected=dim or "1-D", got=arr.shape)
    if arr.size < 1:
        raise ValueError(f"{name} must have length >= 1")
    if not every(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(name, expected=dim, got=arr.size)
    arr.setflags(write=False)
    return arr


def as_matrix(values, name: str = "matrix", width: int | None = None,
              rows: int | None = None) -> Array:
    """Coerce to a finite, read-only, C-contiguous 2-D float64 array of
    `rows` rows of `width` entries, where given. The one size rule for
    row arguments: a wrong size raises DimensionMismatchError naming
    `name`."""
    arr = np.array(values, dtype=float, copy=True, order="C")
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    for axis, expected, got in ((name, width, arr.shape[1]), (f"{name} rows", rows, len(arr))):
        if expected is not None and got != expected:
            raise DimensionMismatchError(axis, expected=expected, got=got)
    arr.setflags(write=False)
    return arr


def matvec_rows(A: Array, X: Array) -> Array:
    """``A @ x`` at the point X (p,) or at each row of X (N, p), as a stack of
    one-row products: a row gets the bits of that point alone."""
    return (X[..., None, :] @ A.T)[..., 0, :]


def central_differences(f: Callable[[Array], Array], X: Array) -> Array:
    """Central differences of f at the point X (p,), or at every row of an
    (N, p) array, one per coordinate, on a new last axis. `f` takes rows
    (K, p) to (K, ...) and is called once, on the 2p shifted copies of
    every point."""
    P = X.reshape(-1, X.shape[-1])
    n, p = P.shape
    h = JACOBIAN_FD_STEP * np.maximum(1.0, np.abs(P))
    shift = np.eye(p)[:, None] * h  # shift k moves coordinate k of every point
    F = np.asarray(f(np.concatenate([P + shift, P - shift]).reshape(-1, p)))
    F = F.reshape(2, p, n, *F.shape[1:])
    D = (F[0] - F[1]) / (2.0 * h.T).reshape(p, n, *(1,) * (F.ndim - 3))
    return np.moveaxis(D, 0, -1).reshape(*X.shape[:-1], *F.shape[3:], p)


class Mode(str, Enum):
    """Training/test-time convention for how targets enter the update."""

    TEMPLATE = "template"        # one fixed target shared by all samples
    REVERSED = "reversed"        # fixed start, per-sample targets
    GENERALIZED = "generalized"  # target absorbed into a learned bias


@dataclass(frozen=True)
class SmoothMap:
    """A map h: R^p -> R^m given by one array kernel.

    The kernel takes one point x (p,) or the rows of an (N, p) array, and
    must give each row the bits it gives that row alone (so it may run on
    blocks of `BLOCK_ROWS` rows). ``kernel(X)`` is
    h, of shape (m,) or (N, m). A map of `order` k >= 1 also gives its
    derivatives: ``kernel(X, d)`` for 1 <= d <= k is the tuple h, J
    (..., m, p) and, for d = 2, the component second derivatives
    (..., m, p, p). For every d, the value ``kernel(X, d)`` returns has
    the bits of ``kernel(X)``: the solvers take h from their derivative
    call. Derivatives the map does not declare come from central
    differences on rows (see `derivatives`). A non-finite row, one with a
    NaN entry or all entries ±inf, must give a non-finite value, and no
    row with a non-finite entry may raise: the cascade runs such rows on.
    """

    param_dim: int
    feature_dim: int
    kernel: Callable
    order: int = 0
    name: str = ""

    def __post_init__(self):
        if self.param_dim < 1 or self.feature_dim < 1:
            raise ValueError("param_dim and feature_dim must be >= 1")

    def _points(self, X) -> Array:
        X = np.asarray(X, dtype=float)
        if X.ndim not in (1, 2) or X.shape[-1] != self.param_dim:
            raise DimensionMismatchError("param", expected=self.param_dim, got=X.shape)
        return X

    @staticmethod
    def _checked(value, shape: tuple) -> Array:
        """A kernel output of the declared `shape`."""
        value = np.asarray(value, dtype=float)
        if value.shape != shape:
            raise DimensionMismatchError("feature", expected=shape, got=value.shape)
        return value

    def _values(self, X: Array, order: int) -> list[Array]:
        """h and its first `order` derivatives from the kernel, checked; more
        than `BLOCK_ROWS` rows run in blocks, each written into one output."""
        if X.ndim == 2 and len(X) > BLOCK_ROWS:
            out = [np.empty((len(X), self.feature_dim, *(self.param_dim,) * d))
                   for d in range(order + 1)]
            for lo in range(0, len(X), BLOCK_ROWS):
                for o, v in zip(out, self._values(X[lo:lo + BLOCK_ROWS], order), strict=True):
                    o[lo:lo + BLOCK_ROWS] = v
            return out
        shape = (*X.shape[:-1], self.feature_dim)
        if not order:  # the value alone, without the loop: a point's latency counts
            return [self._checked(self.kernel(X), shape)]
        out = []
        for value in self.kernel(X, order):  # h, then each derivative one axis of p longer
            out.append(self._checked(value, shape))
            shape += (self.param_dim,)
        return out

    def evaluate(self, X) -> Array:
        """The map at one point x (p,), shape (m,), or at every row of an
        (N, p) array, shape (N, m)."""
        return self._values(self._points(X), 0)[0]

    def derivatives(self, X, order: int = 1) -> tuple[Array, ...]:
        """h, J and, for `order` 2, the second derivatives at one point or at
        every row of an (N, p) array; for `order` 0, h alone. An order the
        map does not declare is central differences, on rows, of the order
        below it, taken by this same call (symmetrized at order 2)."""
        if not order:
            return (self.evaluate(X),)
        X = self._points(X)
        if order <= self.order:
            return tuple(self._values(X, order))
        D = central_differences(lambda Z: self.derivatives(Z, order - 1)[-1], X)
        top = (D + D.swapaxes(-1, -2)) / 2.0 if order == 2 else D
        return (*self.derivatives(X, order - 1), top)

    def jacobian(self, X) -> Array:
        """``derivatives(X, 1)[1]``; kept while perfbench wraps it as a layer."""
        return self.derivatives(X, 1)[1]


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
        residual Phi = y - h (m,), or (N, p) points with (N, m) residuals.
        Generalized mode passes y = 0. Each entry of R (y - h) is one dot
        product, so a row has the same bits alone as in a stack."""
        return X + np.vecdot(Phi[..., None, :], self.gain) + self.bias


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
    array of points gives the length-N array of their regions in the
    narrowest unsigned type that holds them, which numpy sorts by radix.
    """
    if np.ndim(x) == 2:
        bits = np.arange(len(partition), dtype=np.min_scalar_type((1 << len(partition)) - 1))
        return (np.asarray(x)[:, list(partition)] > center).astype(bits.dtype) @ (1 << bits)
    x, center = np.asarray(x).tolist(), np.asarray(center).tolist()  # compared as Python floats
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


def region_rows(regions: Array, n_regions: int) -> list[Array]:
    """For each of `n_regions` regions, the indices of the rows that
    `regions` (see `region_index`) puts in it, in row order: the blocks of
    one stable sort, an empty block for a region that holds no row."""
    order = np.argsort(regions, kind="stable")
    ends = np.bincount(regions, minlength=n_regions).cumsum().tolist()
    return [order[lo:hi] for lo, hi in zip([0, *ends], ends)]


def advance_regions(steps, X: Array, Phi: Array, blocks) -> Array:
    """Advance the rows of X (N, p) with their residuals Phi (N, m), each
    block ``blocks[r]`` of row indices (see `region_rows`) by
    ``steps[r]``."""
    out = np.empty_like(X)
    for step, rows in zip(steps, blocks):
        if rows.size == len(X):  # one block of every row, in order: advanced without copies
            return step.advance(X, Phi)
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


def apply_sequence(seq: DescentSequence, x0, map: SmoothMap, y=None) -> Array:
    """Run the cascade from one point x0 (p,), or from every row of an
    (N, p) array at once, re-evaluating the map at every stage.

    Returns the (len(seq) + 1, p) or (len(seq) + 1, N, p) trajectory of
    iterates starting at x0. Each stage evaluates the map once and
    advances every row by the step of the region holding it, ``x =
    step.advance(x, y - h(x))`` (`advance_regions`), so a row has the
    same bits alone as in a stack. In generalized mode `y` must be
    omitted and is taken as zero (the steps' biases stand in for it);
    otherwise it is the target, (m,) for a point or (N, m) with row i's
    target in row i. A row whose value or update turns non-finite runs
    on as inf or NaN; then the first row whose last iterate is not finite
    raises DivergedError with its index and the iterates before its first
    non-finite one, the partial trajectory its one-point run gives.
    """
    if (map.param_dim, map.feature_dim) != (seq.param_dim, seq.feature_dim):
        raise DimensionMismatchError("map", (seq.param_dim, seq.feature_dim),
                                     (map.param_dim, map.feature_dim))
    p, m = seq.param_dim, seq.feature_dim
    X0 = as_matrix(x0, "x0", width=p) if np.ndim(x0) == 2 else as_vector(x0, "x0", dim=p)
    if seq.mode is Mode.GENERALIZED:
        if y is not None:
            raise ValueError("generalized-mode sequences take no target")
        Y = np.zeros((*X0.shape[:-1], m))
    elif y is None:
        raise ValueError(f"{seq.mode.value}-mode sequences require a target y")
    else:
        Y = as_matrix(y, "y", width=m, rows=len(X0)) if X0.ndim == 2 else as_vector(y, "y", dim=m)
    n, r = len(seq), seq.n_regions
    traj = np.empty((n + 1, *X0.shape))
    traj[0] = X0
    with np.errstate(invalid="ignore", over="ignore"):  # a row that diverges carries inf or NaN
        for k, X in enumerate(traj[:-1]):  # X views traj[k], written by the stage before
            stage, Phi = seq.steps[k * r:(k + 1) * r], Y - map.evaluate(X)
            regions = region_index(X, seq.partition, seq.center) if r > 1 else 0
            # rows of several regions by their blocks; a point, or rows of one region, by one step
            traj[k + 1] = (advance_regions(stage, X, Phi, region_rows(regions, r))
                           if isinstance(regions, Array) else stage[regions].advance(X, Phi))
    if not every(np.isfinite(traj[-1])):
        rows = traj.reshape(n + 1, -1, p)
        finite = np.isfinite(rows).all(axis=-1)  # (n + 1, N): a row stays non-finite once it is
        i = np.flatnonzero(~finite[-1])[0]
        raise DivergedError("the cascade produced a non-finite iterate",
                            rows[:finite[:, i].argmin(), i], row=int(i) if X0.ndim == 2 else None)
    return traj
