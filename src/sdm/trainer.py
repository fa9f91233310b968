"""Batch training of descent-map cascades.

Each stage solves one linear least-squares problem (parameter residuals
against feature residuals Phi = y - h), then advances every sample with
the freshly learned steps by `core.advance_regions`, the function
`apply_sequence` runs at test time, before the next stage. Three
data conventions are supported: a fixed shared target (template), a
fixed start with per-sample targets (reversed), and target-free
regression with a learned bias (generalized, Phi = -h). A reversed
cascade can also be partitioned: each stage then fits one step per
region of parameter space, the region of a sample being given by where
its current estimate lies relative to the shared start point.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Array,
    DescentSequence,
    DescentStep,
    Mode,
    SmoothMap,
    advance_regions,
    as_matrix,
    as_vector,
    every,
    partition_coords,
    region_index,
    region_rows,
)
from .errors import PartitionError, RankDeficiencyError, SettingError, TrainingDivergedError


def _grid_axis(lo: float, hi: float, step: float) -> Array:
    # arange semantics: last value is the largest lo + k*step <= hi
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return np.linspace(lo, lo + step * (n - 1), n)


def grid_offsets(lo, hi, step) -> Array:
    """The Cartesian grid from `lo` to `hi` by `step` per dimension, as
    an (N, p) array of offsets with the last coordinate varying fastest.

    Each axis runs ``lo, lo + step, ...`` up to the largest value not
    above `hi`. Steps must be positive and ``lo <= hi``.
    """
    lo = as_vector(lo, "lo")
    hi = as_vector(hi, "hi", dim=lo.size)
    step = as_vector(step, "step", dim=lo.size)
    if np.any(step <= 0):
        raise SettingError("grid step entries must be > 0")
    if np.any(lo > hi):
        raise SettingError("grid needs lo <= hi per dimension")
    axes = [_grid_axis(a, b, st) for a, b, st in zip(lo, hi, step)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, lo.size)


@dataclass(frozen=True)
class TrainingSet:
    """One map and N aligned samples, one per row of each array: the
    optima (N, p), the targets (N, m) and the initial states (N, p)."""

    mode: Mode
    map: SmoothMap
    optima: Array
    targets: Array
    starts: Array

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))
        if len(self.optima) == 0:
            raise ValueError("training set must be nonempty")
        p, m = self.map.param_dim, self.map.feature_dim
        optima = as_matrix(self.optima, "optima", width=p)
        targets = as_matrix(self.targets, "targets", width=m, rows=len(optima))
        starts = as_matrix(self.starts, "initial states", width=p, rows=len(optima))
        if self.mode is Mode.REVERSED and not (starts == starts[0]).all():
            raise ValueError("reversed mode requires one shared initial state")
        object.__setattr__(self, "optima", optima)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "starts", starts)

    @property
    def param_dim(self) -> int:
        return self.map.param_dim

    @property
    def feature_dim(self) -> int:
        return self.map.feature_dim

    def __len__(self) -> int:
        return len(self.optima)

    @classmethod
    def template(cls, map: SmoothMap, x_opt, initial_states, target=None) -> "TrainingSet":
        """One shared problem, many starts sampled around the optimum."""
        x_opt = as_vector(x_opt, "x_opt", dim=map.param_dim)
        if target is None:
            target = map.evaluate(x_opt)
        target = as_vector(target, "target", dim=map.feature_dim)
        starts = as_matrix(initial_states, "initial states", width=map.param_dim)
        n = len(starts)
        return cls(Mode.TEMPLATE, map, np.tile(x_opt, (n, 1)), np.tile(target, (n, 1)), starts)

    @classmethod
    def reversed_targets(cls, map: SmoothMap, x0, optima, targets=None) -> "TrainingSet":
        """One shared start, many optima; targets default to map(x_opt)."""
        x0 = as_vector(x0, "x0", dim=map.param_dim)
        optima = as_matrix(optima, "optima", width=map.param_dim)
        if targets is None:
            targets = map.evaluate(optima)
        return cls(Mode.REVERSED, map, optima, targets, np.tile(x0, (len(optima), 1)))


def _check_ridge(ridge: float) -> None:
    if not 0 <= ridge < math.inf:
        raise SettingError(f"ridge must be finite and >= 0, got {ridge}")


@dataclass(frozen=True)
class TrainerConfig:
    """Stage count and ridge strength.

    ``ridge=None`` scales automatically per stage as
    ``1e-6 * sum(phi^2) / feature_dim``; pass 0.0 for the exact
    unregularized solve.
    """

    stages: int = 4
    ridge: float | None = None

    def __post_init__(self):
        if self.stages < 1:
            raise SettingError("stages must be >= 1")
        if self.ridge is not None:
            _check_ridge(self.ridge)


def solve_stage(residuals, features, with_bias: bool = False, ridge: float = 0.0) -> DescentStep:
    """Least-squares fit of parameter residuals against features.

    Minimizes ``sum_i ||dx_i - R phi_i - b||^2 + ridge * ||R||_F^2``
    (b fixed at zero unless `with_bias`; the bias is never penalized).
    With ridge 0 the minimum-norm solution is returned; fewer samples
    than feature dimensions then raises RankDeficiencyError. Non-finite
    residuals or features are refused before any solve.
    """
    D = np.atleast_2d(np.asarray(residuals, dtype=float))
    Phi = np.atleast_2d(np.asarray(features, dtype=float))
    if D.shape[0] != Phi.shape[0] or D.shape[0] == 0:
        raise ValueError("residuals and features must be equal-length and nonempty")
    for name, arr in (("residuals", D), ("features", Phi)):
        if not every(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite entries")
    _check_ridge(ridge)
    n, m = Phi.shape

    cols = m + 1 if with_bias else m
    if with_bias:
        Phi = np.hstack([Phi, np.ones((n, 1))])
    if ridge == 0.0:
        if n < cols:
            raise RankDeficiencyError(
                f"{n} samples cannot determine {cols} coefficients at ridge 0; "
                "pass a nonzero ridge"
            )
        W, *_ = np.linalg.lstsq(Phi, D, rcond=None)
    else:
        gram = Phi.T @ Phi
        diag = np.full(cols, ridge)
        if with_bias:
            diag[-1] = 0.0
        try:
            W = np.linalg.solve(gram + np.diag(diag), Phi.T @ D)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(
                "normal equations are singular; increase ridge"
            ) from exc
    W = W.T  # (p, cols)
    if with_bias:
        return DescentStep(gain=W[:, :m], bias=W[:, m])
    return DescentStep.from_gain(W)


def _stage_ridge(config: TrainerConfig, Phi: Array) -> float:
    if config.ridge is not None:
        return config.ridge
    return 1e-6 * float(np.sum(Phi * Phi)) / Phi.shape[1]


def _solve_regions(
    D: Array, Phi: Array, blocks: list[Array], with_bias: bool, config: TrainerConfig,
) -> list[DescentStep]:
    """One step per region, each fitted on its block of `region_rows` only.

    A region with no samples takes the fit over all samples; so does a
    region with all of them, which is the same fit (and keeps an
    unpartitioned cascade bit-identical). That fit is solved only if a
    region takes it, and once.
    """
    def fit(D: Array, Phi: Array) -> DescentStep:
        return solve_stage(D, Phi, with_bias=with_bias, ridge=_stage_ridge(config, Phi))

    fit_all = functools.cache(lambda: fit(D, Phi))
    return [fit_all() if rows.size in (0, len(D)) else fit(D[rows], Phi[rows])
            for rows in blocks]


def train(
    tset: TrainingSet,
    config: TrainerConfig = TrainerConfig(),
    partition=(),
) -> DescentSequence:
    """Learn a cascade of descent steps by alternating solve and update.

    Each stage evaluates the map once over all samples' current
    estimates (`SmoothMap.evaluate`), fits the stage, and advances
    every sample with it; the mean squared parameter residual before
    training and after each stage is recorded in the sequence's
    training_report (non-increasing on the training set).

    `partition` names parameter coordinates to split on (reversed mode
    only). At every stage each sample falls in the region given by the
    signs of its current estimate's offsets from the shared start point
    in those coordinates, and one step is fitted per region; a region
    with no samples at a stage takes that stage's fit over all samples.
    No partition coordinates gives one region, i.e. one step per stage.
    """
    p, m = tset.param_dim, tset.feature_dim
    partition = partition_coords(partition, p)
    if partition and tset.mode is not Mode.REVERSED:
        raise PartitionError("a partitioned cascade needs reversed mode (one shared start point)")
    center = tset.starts[0, list(partition)]
    n_regions = 1 << len(partition)
    generalized = tset.mode is Mode.GENERALIZED
    X = tset.starts

    def mean_sq_residual():
        errs = tset.optima - X
        return float(np.mean(np.sum(errs * errs, axis=1)))

    report = [mean_sq_residual()]
    steps: list[DescentStep] = []
    for k in range(config.stages):
        H = tset.map.evaluate(X)
        diverged = np.flatnonzero(~np.isfinite(H).all(axis=1))
        if diverged.size:
            raise TrainingDivergedError(stage=k, sample=int(diverged[0]))
        D = tset.optima - X
        Phi = -H if generalized else tset.targets - H
        blocks = region_rows(region_index(X, partition, center), n_regions)
        stage = _solve_regions(D, Phi, blocks, with_bias=generalized, config=config)
        steps.extend(stage)
        X = advance_regions(stage, X, Phi, blocks)
        report.append(mean_sq_residual())

    return DescentSequence(
        steps=tuple(steps),
        param_dim=p,
        feature_dim=m,
        mode=tset.mode,
        training_report=tuple(report),
        partition=partition,
        center=center,
    )
