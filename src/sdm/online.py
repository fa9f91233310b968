"""Online refresh of a trained cascade via recursive least squares.

The state keeps, per stage, an inverse information matrix S over
bias-augmented features phi = [h; 1] and the stage's weight matrix W,
the regression coefficients of the parameter residual on phi. Publicly
the stages are DescentStep objects (``gain = -W[:, :m]``,
``bias = W[:, m]``) of a generalized-mode sequence, so that
``x + W @ phi`` is the package's one update ``step.advance(x, -h)``.

Each S is held as ``scale * (S_base - Q' Q)``: the rows of Q are the
rank-one downdates made since S_base was last written, each divided by
the square root of the scale it was made at (the compact low-rank form
of limited-memory quasi-Newton methods). An ingest reads S_base once,
for ``S @ phi``, and appends one row of Q per stage; it writes no
(m+1)^2 entries. A stage folds, ``S_base <- scale * (S_base - Q' Q)`` in
one row-blocked pass, when its scale passes `_MAX_SCALE` (under
forgetting < 1 the difference of a stale S_base and Q'Q loses about
log10(scale) digits), and otherwise the stage holding the most rows
folds once it holds `_FOLD`, so that the stages take turns and one
ingest pays for at most one stage's pass at forgetting 1. Reading
`inv_cov` folds every stage first. An ingest costs O(m^2) time per
stage and allocates no matrix of S's size.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .core import (Array, DescentSequence, DescentStep, Mode, SmoothMap, as_vector, every,
                   matvec_rows)
from .errors import DimensionMismatchError, NumericalBreakdownError, PartitionError, SettingError


_BLOCK = 1 << 15  # entries of S per fold block: 256 KiB, which stays in cache
# pending downdate rows a stage collects before its S_base absorbs them: a
# fold costs the same per row for any count, so this only trades Q's memory
# against how often an ingest pays for one
_FOLD = 32
# largest scale a stage carries into an ingest (see the module docstring);
# forgetting 1 never raises it, and 0.99 reaches it only after 69 ingests
_MAX_SCALE = 2.0


def _weights_from_step(step: DescentStep) -> Array:
    return np.hstack([-step.gain, step.bias[:, None]])


class OnlineState:
    """Mutable per-stage weights and inverse information matrices.

    `forgetting` in (0, 1] is the exponential discount (1.0 keeps all
    history). Every entry of `weights` and `inv_cov` is finite. Single
    writer. An ingest swaps new weight arrays in with one assignment, so
    readers of `weights`, `steps` and `to_sequence()` never see a
    half-applied update.

    Stage k's inverse information matrix is ``scale_k * (inv_cov[k] -
    Q_k' Q_k)`` with its own pending downdate rows Q_k and scale (see
    the module docstring). Reading `inv_cov` folds the pending rows into
    the given arrays in place and returns them, so they must be exactly
    symmetric and share no memory, and the read is a write: it belongs
    to the single writer.
    """

    def __init__(self, weights: list[Array], inv_cov: list[Array], param_dim: int,
                 feature_dim: int, forgetting: float = 1.0):
        if not (0 < forgetting <= 1):
            raise SettingError(f"forgetting factor must lie in (0, 1], got {forgetting}")
        if len(weights) != len(inv_cov) or not weights:
            raise ValueError("weights and inv_cov must be aligned and nonempty")
        maug = feature_dim + 1
        for k, (W, S) in enumerate(zip(weights, inv_cov)):
            if W.shape != (param_dim, maug):
                raise DimensionMismatchError(f"weights[{k}]", (param_dim, maug), W.shape)
            if S.shape != (maug, maug):
                raise DimensionMismatchError(f"inv_cov[{k}]", (maug, maug), S.shape)
            for name, a in ((f"weights[{k}]", W), (f"inv_cov[{k}]", S)):
                # min and max propagate NaN and scan in place: no temporary of S's size
                if not (np.isfinite(a.min()) and np.isfinite(a.max())):
                    raise ValueError(f"{name} contains non-finite entries")
            if not np.array_equal(S, S.T):
                raise ValueError(f"inv_cov[{k}] is not exactly symmetric")
        if any(np.may_share_memory(a, b) for a, b in combinations(inv_cov, 2)):
            raise ValueError("inv_cov arrays are folded in place and must not share memory")
        self.weights = weights
        self.param_dim = param_dim
        self.feature_dim = feature_dim
        self.forgetting = forgetting
        self._base = list(inv_cov)
        self._scale = [1.0] * len(inv_cov)
        self._count = [0] * len(inv_cov)
        # one fold per ingest keeps a full stage waiting at most n_stages - 1 ingests
        self._pending = np.empty((len(inv_cov), _FOLD + len(inv_cov) - 1, maug))

    @property
    def inv_cov(self) -> list[Array]:
        for k in range(self.n_stages):
            self._fold(k)
        return list(self._base)

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

    def _fold(self, k: int) -> None:
        """S_base <- scale * (S_base - Q' Q) for stage k; Q empties.

        Row blocks go through one buffer, each from its diagonal on, and
        the part below the diagonal is copied from the part above. The
        products run in numpy's own loops, not a (threaded) BLAS, so the
        bits do not depend on the threading, and as the sum for entry
        (i, j) of a diagonal block takes the same products in the same
        order as the one for (j, i), S_base stays exactly symmetric.
        """
        c = self._count[k]
        if not c:
            return
        S, Q, scale = self._base[k], self._pending[k, :c], self._scale[k]
        n = self.feature_dim + 1
        rows = max(1, _BLOCK // n)
        buf = np.empty(min(rows, n) * n)
        for i in range(0, n, rows):
            block = S[i : i + rows, i:]
            term = buf[: block.size].reshape(block.shape)
            np.einsum("ki,kj->ij", Q[:, i : i + rows], Q[:, i:], out=term)
            block -= term
            block *= scale
            S[i + rows :, i : i + rows] = block[:, rows:].T
        self._scale[k], self._count[k] = 1.0, 0


def init_online(seq: DescentSequence, ridge: float, forgetting: float = 1.0) -> OnlineState:
    """Build an OnlineState from a trained sequence.

    Every stage's inverse information matrix starts at (1/ridge) I, so
    `ridge` must be > 0 and finite, with a finite 1/ridge (a subnormal
    ridge has none). The state keeps one step per stage, so a
    region-partitioned sequence raises PartitionError.
    """
    if not (ridge > 0 and 0 < 1.0 / float(ridge) < np.inf):
        raise SettingError(f"ridge must be > 0 and finite with a finite 1/ridge, got {ridge}")
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
    one product ``S @ phi`` with its inverse information matrix S, read
    from the pending form as ``scale * (S_base @ phi - Q' (Q phi))``. Its
    weights move by the prediction error times the gain ``S phi / denom``,
    ``denom = forgetting + phi' S phi``, and the next stage's residual dx
    uses them. All stages' weights are computed before anything is
    written, so NumericalBreakdownError (a non-finite map value, denom
    not in (0, inf), or a fold that would overflow) or a failing map
    leaves `state` as it was.
    Then S becomes ``(S - g g') / forgetting``
    with ``g = S phi / sqrt(denom)``: ``g / sqrt(scale)`` is appended to
    Q, scale is divided by the forgetting factor, the stages the module
    docstring names fold, and the new weight arrays replace the old ones
    in `state.weights`. Returns `state`.
    """
    if map.param_dim != state.param_dim or map.feature_dim != state.feature_dim:
        raise DimensionMismatchError("map", (state.param_dim, state.feature_dim),
                                     (map.param_dim, map.feature_dim))
    x_opt = as_vector(x_opt, "x_opt", dim=state.param_dim)
    x0 = as_vector(x0, "x0", dim=state.param_dim)
    lam, count = state.forgetting, state._count

    dx = x_opt - x0
    new_weights, downdates = [], []
    for k, (W, S, scale) in enumerate(zip(state.weights, state._base, state._scale)):
        Q = state._pending[k, : count[k]]
        phi = np.append(map.evaluate(x_opt - dx), 1.0)
        if not every(np.isfinite(phi)):  # before the products, where inf times 0 would warn
            raise NumericalBreakdownError(f"non-finite map value at stage {k}")
        # one dot per entry: a threaded BLAS S @ phi stalls on busy hosts
        Sphi = scale * (np.vecdot(S, phi) - np.einsum("k,ki->i", np.vecdot(Q, phi), Q))
        denom = lam + float(phi @ Sphi)
        if not 0 < denom < np.inf:
            raise NumericalBreakdownError(f"denominator {denom} not in (0, inf) at stage {k}")
        W_new = W + np.outer(dx - W @ phi, Sphi / denom)
        new_weights.append(W_new)
        downdates.append(Sphi / np.sqrt(denom * scale))
        dx = dx - W_new @ phi

    scales = [scale / lam for scale in state._scale]
    folds = [k for k, scale in enumerate(scales) if scale > _MAX_SCALE]
    rows = [0 if k in folds else c + 1 for k, c in enumerate(count)]  # held after the folds
    fullest = max(range(state.n_stages), key=rows.__getitem__)
    if rows[fullest] >= _FOLD:
        folds.append(fullest)
    for k in folds:
        # S_base - Q'Q and Q'Q are PSD, so no entry of either passes S_base's largest
        # diagonal entry, and twice that bounds each entry that the fold scales
        if not 2 * scales[k] * float(state._base[k].diagonal().max()) < np.inf:
            raise NumericalBreakdownError(f"folding stage {k} at scale {scales[k]} would "
                                          "overflow")

    for k, q in enumerate(downdates):
        state._pending[k, count[k]] = q
        count[k] += 1
    state._scale[:] = scales
    for k in folds:
        state._fold(k)
    state.weights[:] = new_weights
    return state


def batch_deviation(rng, n: int, m: int, p: int, forgetting: float, ridge: float) -> float:
    """Relative Frobenius deviation of one stage over a zero generalized
    cascade, after ingesting n samples (a linear map A (m x p), then n
    starts, then n optima, drawn from `rng`), from the exponentially
    weighted ridge solve over ``[h; 1]`` (at forgetting 1, the plain one)."""
    A = rng.normal(size=(m, p))
    smap = SmoothMap(p, m, lambda X: matvec_rows(A, X), name="demo-linear")
    zero = DescentStep(gain=np.zeros((p, m)), bias=np.zeros(p))
    seq = DescentSequence(steps=(zero,), param_dim=p, feature_dim=m, mode=Mode.GENERALIZED)
    state = init_online(seq, ridge=ridge, forgetting=forgetting)
    starts, optima = rng.normal(size=(2, n, p))
    for x0, x_opt in zip(starts, optima):
        rls_ingest(state, x_opt, x0, smap)
    feats = np.column_stack([smap.evaluate(starts), np.ones(n)])
    # ridge over all augmented coefficients, decayed as the recursive state's is
    weights = forgetting ** np.arange(n - 1, -1, -1)
    gram = feats.T @ (weights[:, None] * feats) + (forgetting**n) * ridge * np.eye(m + 1)
    W_batch = np.linalg.solve(gram, feats.T @ (weights[:, None] * (optima - starts))).T
    # both over the power of two of the largest batch weight, which is exact, so
    # that no square in the norms underflows at a large ridge
    shift = -np.frexp(np.abs(W_batch).max())[1]
    W_online, W_batch = np.ldexp(state.weights[0], shift), np.ldexp(W_batch, shift)
    return float(np.linalg.norm(W_online - W_batch, "fro") / np.linalg.norm(W_batch, "fro"))
