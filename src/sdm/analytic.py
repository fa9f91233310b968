"""Scalar-function benchmark: reversed-cascade training vs full Newton.

Each registered function carries analytic first and second derivatives
and an exact inverse on its declared target range, so training data and
ground truth come from an oracle rather than from the method under
test. Targets never include a point with optimum zero (the convergence
metric divides by ||x*||).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import RunStatus, newton_rows
from .core import DescentSequence, SmoothMap, apply_sequence
from .trainer import TrainerConfig, TrainingSet, train

RESIDUAL_CAP = 1e8

# below this, both methods sit in float rounding dust and accuracy
# comparisons between them are meaningless
ACCURACY_FLOOR = 1e-14


def _exp(t: float) -> float:
    """math.exp, but inf where the result overflows instead of OverflowError."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def _bisect_inverse(f, y: float, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Inverse of a strictly increasing scalar f by bracketed bisection."""
    flo, fhi = f(lo), f(hi)
    if not (flo <= y <= fhi):
        raise ValueError(f"target {y} outside bracket [{flo}, {fhi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_map(h, h_prime, h_double_prime, name: str = "") -> SmoothMap:
    """h and both derivatives as one kernel of order 2, each callable applied
    entry by entry to Python floats, whose arithmetic has float64's bits. An
    entry where that fails is redone on a float64 scalar, as numpy computes
    it: one that raises an ArithmeticError, as ``t**3`` past overflow or
    ``1/t`` at zero do on a float, or gives a complex, as ``t**0.5`` below
    zero does. Past overflow a value is inf, silently."""
    def values(f, ts: list) -> np.ndarray:
        try:
            return np.fromiter(map(f, ts), float, len(ts))
        except (ArithmeticError, TypeError):  # TypeError: fromiter refuses a complex
            if len(ts) > 1:  # redo entry by entry, to find the entries that raise
                return np.concatenate([values(f, [t]) for t in ts])
            with np.errstate(over="ignore"):
                return np.array([f(np.float64(ts[0]))])

    def kernel(X, order=0):
        ts = X.reshape(-1).tolist()
        out = tuple(values(f, ts).reshape(*X.shape, *(1,) * d)
                    for d, f in enumerate((h, h_prime, h_double_prime)[:order + 1]))
        return out if order else out[0]

    return SmoothMap(1, 1, kernel, order=2, name=name)


@dataclass(frozen=True)
class AnalyticFunction:
    """A scalar benchmark function with oracle derivatives and inverse."""

    name: str
    h: callable
    h_prime: callable
    h_double_prime: callable
    h_inverse: callable
    y_lo: float
    y_hi: float
    train_step: float
    test_step: float
    x0: float

    def __post_init__(self):
        if not self.test_step < self.train_step:
            raise ValueError("test targets must be generated at a finer step than training")

    def smooth_map(self) -> SmoothMap:
        return scalar_map(self.h, self.h_prime, self.h_double_prime, self.name)

    def _targets(self, step: float) -> np.ndarray:
        n = int(round((self.y_hi - self.y_lo) / step)) + 1
        return np.linspace(self.y_lo, self.y_lo + step * (n - 1), n)

    def train_targets(self) -> np.ndarray:
        return self._targets(self.train_step)

    def test_targets(self) -> np.ndarray:
        return self._targets(self.test_step)

    def constants_header(self) -> str:
        return (
            f"function={self.name} y_range=[{self.y_lo}:{self.train_step}:{self.y_hi}] "
            f"test_step={self.test_step} x0={self.x0}"
        )


def registry() -> dict[str, AnalyticFunction]:
    """The four benchmark functions.

    The linear entry is a control slot: one-step convergence on it
    separates cascade behavior from genuine nonlinearity. The exp start
    sits where the full-Newton curvature is negative for every target,
    so that baseline walks away from the data.
    """
    return {
        "linear": AnalyticFunction(
            name="linear",
            h=lambda t: 2.0 * t,
            h_prime=lambda t: 2.0,
            h_double_prime=lambda t: 0.0,
            h_inverse=lambda y: y / 2.0,
            y_lo=0.2, y_hi=2.0, train_step=0.1, test_step=0.05, x0=0.4,
        ),
        "cube": AnalyticFunction(
            name="cube",
            h=lambda t: t**3,
            h_prime=lambda t: 3.0 * t**2,
            h_double_prime=lambda t: 6.0 * t,
            h_inverse=lambda y: float(np.cbrt(y)),
            y_lo=0.3, y_hi=3.0, train_step=0.05, test_step=0.025, x0=0.0,
        ),
        "exp": AnalyticFunction(
            name="exp",
            h=_exp,
            h_prime=_exp,
            h_double_prime=_exp,
            h_inverse=math.log,
            y_lo=1.1, y_hi=4.0, train_step=0.05, test_step=0.025, x0=-2.0,
        ),
        "erf": AnalyticFunction(
            name="erf",
            h=math.erf,
            h_prime=lambda t: 2.0 / math.sqrt(math.pi) * math.exp(-t * t),
            h_double_prime=lambda t: -4.0 * t / math.sqrt(math.pi) * math.exp(-t * t),
            h_inverse=lambda y: _bisect_inverse(math.erf, y, -6.0, 6.0),
            y_lo=-0.89, y_hi=0.89, train_step=0.02, test_step=0.004, x0=0.0,
        ),
    }


def build_training_set(fn: AnalyticFunction) -> TrainingSet:
    """Targets sampled on the training range, optima via the inverse oracle."""
    ys = fn.train_targets()
    optima = np.array([fn.h_inverse(y) for y in ys])[:, None]
    return TrainingSet.reversed_targets(fn.smooth_map(), np.array([fn.x0]), optima, ys[:, None])


@dataclass(frozen=True)
class ComparisonResult:
    """Mean normalized error per iteration (0 to stages) for both methods."""

    sdm_mean: np.ndarray
    newton_mean: np.ndarray
    n_test: int
    newton_statuses: tuple[str, ...]
    sequence: DescentSequence

    @property
    def sdm_final_mean(self) -> float:
        return float(self.sdm_mean[-1])

    @property
    def newton_final_mean(self) -> float:
        return float(self.newton_mean[-1])

    def rows(self) -> list[tuple]:
        return [(method, k, v, self.n_test)
                for method, series in (("sdm", self.sdm_mean), ("newton", self.newton_mean))
                for k, v in enumerate(series)]


def run_comparison(fn: AnalyticFunction, stages: int = 10) -> ComparisonResult:
    """Train a reversed cascade, then race it against Newton on all test
    targets at once. A Newton run that ends early keeps its last iterate; an
    error |x_k - x*| / |x*| above RESIDUAL_CAP, or not finite, counts as the cap."""
    seq = train(build_training_set(fn), TrainerConfig(stages=stages, ridge=0.0))
    smap = fn.smooth_map()
    Y = fn.test_targets()[:, None]
    X0 = np.full_like(Y, fn.x0)
    x_star = np.array([fn.h_inverse(y) for y in Y[:, 0]])[:, None]
    traj = apply_sequence(seq, X0, smap, Y)
    runs = newton_rows(smap, Y, X0, max_iters=stages)
    # (method, target, iteration), C-contiguous: each table is averaged over targets in row order
    table = np.stack([traj[..., 0], runs.iterates[..., 0]]).transpose(0, 2, 1).copy()
    E = np.abs(table - x_star) / np.abs(x_star)
    sdm_mean, newton_mean = (e.mean(axis=0) for e in np.where(E <= RESIDUAL_CAP, E, RESIDUAL_CAP))
    return ComparisonResult(
        sdm_mean=sdm_mean,
        newton_mean=newton_mean,
        n_test=len(Y),
        newton_statuses=tuple(s.value for s in runs.status),
        sequence=seq,
    )


def check_registry_invariants(fn: AnalyticFunction, result: ComparisonResult) -> list[str]:
    """Violated-property names for one function's comparison (empty = ok)."""
    problems = []
    for y in fn.train_targets():
        if abs(fn.h(fn.h_inverse(y)) - y) > 1e-10:
            problems.append("inverse-roundtrip")
            break
    if result.sdm_final_mean >= 1e-2:
        problems.append("sdm-final-error")
    if result.sdm_mean[-1] > result.sdm_mean[1]:
        problems.append("sdm-iteration-decrease")
    if np.any(np.diff(result.sdm_mean) > 1e-9):
        problems.append("sdm-monotone-mean")
    if all(s == RunStatus.CONVERGED.value for s in result.newton_statuses):
        newton_wins = result.newton_final_mean < result.sdm_final_mean
        both_at_floor = (
            result.newton_final_mean < ACCURACY_FLOOR
            and result.sdm_final_mean < ACCURACY_FLOOR
        )
        if not (newton_wins or both_at_floor):
            problems.append("newton-accuracy-when-converged")
    return problems
