"""Online refresh of a trained cascade via recursive least squares.

The state keeps, per stage, an inverse information matrix over
bias-augmented features ([h; 1]) and the stage's weight matrix W, the
regression coefficients of the parameter residual on [h; 1]. Publicly
the stages are DescentStep objects (``gain = -W[:, :m]``,
``bias = W[:, m]``) of a generalized-mode sequence, so that
``x + W @ [h; 1]`` is the package's one update ``step.advance(x, -h)``.
Each ingest is a rank-one update: no matrix is ever inverted, so the
per-stage cost is O(m^2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Array, DescentSequence, DescentStep, Mode, SmoothMap, as_vector
from .errors import (
    DimensionMismatchError,
    NumericalBreakdownError,
    PartitionError,
    RankDeficiencyError,
)


def _augment(h: Array) -> Array:
    return np.append(h, 1.0)


def _weights_from_step(step: DescentStep) -> Array:
    return np.hstack([-step.gain, step.bias[:, None]])


def _step_from_weights(W: Array) -> DescentStep:
    return DescentStep(gain=-W[:, :-1], bias=W[:, -1])


@dataclass
class OnlineState:
    """Mutable per-stage weights and inverse information matrices.

    `forgetting` is the exponential discount (1.0 keeps all history);
    `sample_weight` scales each new sample. Single writer; an ingest
    swaps all per-stage arrays in one assignment so readers never see a
    half-applied update.
    """

    weights: list[Array]
    inv_cov: list[Array]
    param_dim: int
    feature_dim: int
    forgetting: float = 1.0
    sample_weight: float = 1.0

    def __post_init__(self):
        if not (0 < self.forgetting <= 1):
            raise ValueError("forgetting factor must lie in (0, 1]")
        if not self.sample_weight > 0:
            raise ValueError("sample_weight must be > 0")
        if len(self.weights) != len(self.inv_cov) or not self.weights:
            raise ValueError("weights and inv_cov must be aligned and nonempty")
        maug = self.feature_dim + 1
        for k, (W, S) in enumerate(zip(self.weights, self.inv_cov)):
            if W.shape != (self.param_dim, maug):
                raise DimensionMismatchError(f"weights[{k}]", (self.param_dim, maug), W.shape)
            if S.shape != (maug, maug):
                raise DimensionMismatchError(f"inv_cov[{k}]", (maug, maug), S.shape)

    @property
    def n_stages(self) -> int:
        return len(self.weights)

    @property
    def steps(self) -> list[DescentStep]:
        return [_step_from_weights(W) for W in self.weights]

    def to_sequence(self) -> DescentSequence:
        return DescentSequence(
            steps=tuple(self.steps),
            param_dim=self.param_dim,
            feature_dim=self.feature_dim,
            mode=Mode.GENERALIZED,
        )


def init_online(
    seq: DescentSequence,
    training_features=None,
    ridge: float = 0.0,
    forgetting: float = 1.0,
    sample_weight: float = 1.0,
) -> OnlineState:
    """Build an OnlineState from a trained sequence.

    `training_features` is one matrix per stage, rows of raw features
    (n, m) which get a constant-1 column appended, or already-augmented
    rows (n, m+1) used as given. The inverse information matrix is
    inv(F^T F + ridge I). Without feature matrices a ridge > 0 is
    required and the state starts at (1/ridge) I. The state keeps one
    step per stage, so a region-partitioned sequence raises
    PartitionError.
    """
    if seq.partition:
        raise PartitionError(
            f"online refresh keeps one step per stage; this sequence is partitioned "
            f"into {seq.n_regions} regions"
        )
    m = seq.feature_dim
    maug = m + 1
    if training_features is None:
        if ridge <= 0:
            raise RankDeficiencyError(
                "initializing without training features requires ridge > 0"
            )
        inv_cov = [np.eye(maug) / ridge for _ in seq.steps]
    else:
        if len(training_features) != len(seq.steps):
            raise ValueError("need one feature matrix per stage")
        inv_cov = []
        for F in training_features:
            F = np.asarray(F, dtype=float)
            if F.ndim != 2 or F.shape[1] not in (m, maug):
                raise DimensionMismatchError("features", expected=m, got=F.shape[-1])
            if F.shape[1] == m:
                F = np.hstack([F, np.ones((F.shape[0], 1))])
            gram = F.T @ F + ridge * np.eye(maug)
            try:
                S = np.linalg.inv(gram)
            except np.linalg.LinAlgError as exc:
                raise RankDeficiencyError(
                    "feature information matrix is singular; pass ridge > 0"
                ) from exc
            inv_cov.append((S + S.T) / 2.0)
    weights = [_weights_from_step(s) for s in seq.steps]
    return OnlineState(
        weights=weights,
        inv_cov=inv_cov,
        param_dim=seq.param_dim,
        feature_dim=m,
        forgetting=forgetting,
        sample_weight=sample_weight,
    )


def rls_ingest(
    state: OnlineState,
    x_opt,
    x0,
    map: SmoothMap,
) -> OnlineState:
    """Fold one labeled sample (optimum, start) into every stage.

    Per stage: rank-one downdate of the inverse information matrix,
    weight refresh from the prediction error, then the next stage's
    residual/feature pair generated with the just-updated weights, the
    features being evaluated at the current iterate ``x_opt - dx_k``.

    Updates `state` in place and returns it.
    """
    if map.param_dim != state.param_dim or map.feature_dim != state.feature_dim:
        raise DimensionMismatchError("map", (state.param_dim, state.feature_dim),
                                     (map.param_dim, map.feature_dim))
    x_opt = as_vector(x_opt, "x_opt", dim=state.param_dim)
    x0 = as_vector(x0, "x0", dim=state.param_dim)
    lam = state.forgetting
    w = state.sample_weight

    dx = x_opt - x0
    new_weights: list[Array] = []
    new_inv_cov: list[Array] = []
    for k in range(state.n_stages):
        phi = _augment(map.evaluate(x_opt - dx))

        S = state.inv_cov[k]
        Sphi = S @ phi
        denom = lam / w + float(phi @ Sphi)
        if denom <= 0:
            raise NumericalBreakdownError(
                f"non-positive update denominator {denom} at stage {k}"
            )
        S_new = (S - np.outer(Sphi, Sphi) / denom) / lam
        S_new = (S_new + S_new.T) / 2.0  # keep symmetric under fp drift

        W = state.weights[k]
        W_new = W + np.outer(dx - W @ phi, w * (phi @ S_new))

        new_weights.append(W_new)
        new_inv_cov.append(S_new)
        dx = dx - W_new @ phi

    state.weights[:] = new_weights
    state.inv_cov[:] = new_inv_cov
    return state
