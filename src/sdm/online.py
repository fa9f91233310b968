"""Online refresh of a trained cascade via recursive least squares.

The state keeps, per stage, an inverse information matrix S over
bias-augmented features phi = [h; 1] and the stage's weight matrix W,
the regression coefficients of the parameter residual on phi. Publicly
the stages are DescentStep objects (``gain = -W[:, :m]``,
``bias = W[:, m]``) of a generalized-mode sequence, so that
``x + W @ phi`` is the package's one update ``step.advance(x, -h)``.
An ingest makes one product ``S @ phi`` and one in-place rank-one
downdate of S per stage: O(m^2) time, no matrix inverted or copied.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import Array, DescentSequence, DescentStep, Mode, SmoothMap, as_vector
from .errors import DimensionMismatchError, NumericalBreakdownError, PartitionError


_BLOCK = 1 << 15  # entries of S per downdate block: 256 KiB, which stays in cache


def _weights_from_step(step: DescentStep) -> Array:
    return np.hstack([-step.gain, step.bias[:, None]])


@dataclass
class OnlineState:
    """Mutable per-stage weights and inverse information matrices.

    `forgetting` in (0, 1] is the exponential discount (1.0 keeps all
    history). Every entry of `weights` and `inv_cov` is finite. Single
    writer. An ingest swaps new weight arrays in with one assignment, so
    readers of `weights`, `steps` and `to_sequence()` never see a
    half-applied update, and downdates the `inv_cov` arrays in place, so
    they must be exactly symmetric and share no memory.
    """

    weights: list[Array]
    inv_cov: list[Array]
    param_dim: int
    feature_dim: int
    forgetting: float = 1.0

    def __post_init__(self):
        if not (0 < self.forgetting <= 1):
            raise ValueError(f"forgetting factor must lie in (0, 1], got {self.forgetting}")
        if len(self.weights) != len(self.inv_cov) or not self.weights:
            raise ValueError("weights and inv_cov must be aligned and nonempty")
        maug = self.feature_dim + 1
        for k, (W, S) in enumerate(zip(self.weights, self.inv_cov)):
            if W.shape != (self.param_dim, maug):
                raise DimensionMismatchError(f"weights[{k}]", (self.param_dim, maug), W.shape)
            if S.shape != (maug, maug):
                raise DimensionMismatchError(f"inv_cov[{k}]", (maug, maug), S.shape)
            for name, a in ((f"weights[{k}]", W), (f"inv_cov[{k}]", S)):
                # min and max propagate NaN and scan in place: no temporary of S's size
                if not (np.isfinite(a.min()) and np.isfinite(a.max())):
                    raise ValueError(f"{name} contains non-finite entries")
            if not np.array_equal(S, S.T):
                raise ValueError(f"inv_cov[{k}] is not exactly symmetric")
        if any(np.may_share_memory(a, b) for a, b in combinations(self.inv_cov, 2)):
            raise ValueError("inv_cov arrays are downdated in place and must not share memory")

    @property
    def n_stages(self) -> int:
        return len(self.weights)

    @property
    def steps(self) -> list[DescentStep]:
        return [DescentStep(gain=-W[:, :-1], bias=W[:, -1]) for W in self.weights]

    def to_sequence(self) -> DescentSequence:
        return DescentSequence(
            steps=tuple(self.steps),
            param_dim=self.param_dim,
            feature_dim=self.feature_dim,
            mode=Mode.GENERALIZED,
        )


def init_online(seq: DescentSequence, ridge: float, forgetting: float = 1.0) -> OnlineState:
    """Build an OnlineState from a trained sequence.

    Every stage's inverse information matrix starts at (1/ridge) I, so
    `ridge` must be > 0 and finite, with a finite 1/ridge (a subnormal
    ridge has none). The state keeps one step per stage, so a
    region-partitioned sequence raises PartitionError.
    """
    if not (ridge > 0 and 0 < 1.0 / float(ridge) < np.inf):
        raise ValueError(f"ridge must be > 0 and finite with a finite 1/ridge, got {ridge}")
    if seq.partition:
        raise PartitionError(
            f"online refresh keeps one step per stage; this sequence is partitioned "
            f"into {seq.n_regions} regions"
        )
    return OnlineState(
        weights=[_weights_from_step(s) for s in seq.steps],
        inv_cov=[np.eye(seq.feature_dim + 1) / ridge for _ in seq.steps],
        param_dim=seq.param_dim,
        feature_dim=seq.feature_dim,
        forgetting=forgetting,
    )


def rls_ingest(state: OnlineState, x_opt, x0, map: SmoothMap) -> OnlineState:
    """Fold one labeled sample (optimum, start) into every stage.

    Stage k takes phi = [h(x_opt - dx_k); 1] at the current iterate and
    one product ``S @ phi`` with its inverse information matrix S. Its
    weights move by the prediction error times the gain ``S phi / denom``,
    ``denom = forgetting + phi' S phi``, and the next stage's residual dx
    uses them. All stages' weights are computed
    before anything is written, so NumericalBreakdownError (denom <= 0)
    or a failing map leaves `state` as it was. Then every S is downdated
    in place to ``(S - S phi phi' S / denom) / forgetting`` and the new
    weight arrays replace the old ones in `state.weights`. Returns `state`.
    """
    if map.param_dim != state.param_dim or map.feature_dim != state.feature_dim:
        raise DimensionMismatchError("map", (state.param_dim, state.feature_dim),
                                     (map.param_dim, map.feature_dim))
    x_opt = as_vector(x_opt, "x_opt", dim=state.param_dim)
    x0 = as_vector(x0, "x0", dim=state.param_dim)
    lam = state.forgetting

    dx = x_opt - x0
    new_weights, downdates = [], []
    for k, (W, S) in enumerate(zip(state.weights, state.inv_cov)):
        phi = np.append(map.evaluate(x_opt - dx), 1.0)
        Sphi = np.vecdot(S, phi)  # one dot per entry: a threaded BLAS S @ phi stalls on busy hosts
        denom = lam + float(phi @ Sphi)
        if denom <= 0:
            raise NumericalBreakdownError(f"non-positive update denominator {denom} at stage {k}")
        W_new = W + np.outer(dx - W @ phi, Sphi / denom)
        new_weights.append(W_new)
        downdates.append(Sphi / np.sqrt(denom))
        dx = dx - W_new @ phi

    # S <- (S - g g') / forgetting by row blocks through one buffer; as
    # g_i * g_j == g_j * g_i in floating point, S stays exactly symmetric.
    n = state.feature_dim + 1
    rows = max(1, _BLOCK // n)
    buf = np.empty((min(rows, n), n))
    for S, g in zip(state.inv_cov, downdates):
        for i in range(0, n, rows):
            block, term = S[i : i + rows], buf[: min(rows, n - i)]
            np.multiply(g[i : i + rows, None], g, out=term)
            block -= term
            if lam != 1.0:
                block /= lam
    state.weights[:] = new_weights
    return state
