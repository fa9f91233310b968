"""Constructive verification of descent-map contraction conditions.

Everything here is finite-sample evidence on a deterministic grid, not a
proof. `anchored_sample` samples a neighborhood once and evaluates the
map there once; every check reads that sample and its anchored Lipschitz
constant K, computed once: strict local monotonicity, the 1-D gain
``sign(h') * (2/K - eps)``, the Frobenius-norm sufficient bound, and the
sample-by-sample contraction certificate. `certificate_suite` is the one
experiment built from them, which `sdm-bench verify` runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analytic import registry
from .core import Array, DescentStep, SmoothMap, as_matrix, as_vector, matvec_rows
from .errors import (DegenerateNeighborhoodError, DimensionMismatchError, NotMonotoneError,
                     SettingError)

# Total sample budget for multi-dimensional lattices; beyond the largest
# lattice that fits, the remainder is filled with seeded uniform draws.
LATTICE_CAP = 100_000

# Cosines at or below this count as violations in strict monotonicity checks.
STRICT_TOL = 1e-12


@dataclass(frozen=True)
class Neighborhood:
    """A sampled Euclidean ball around an anchor point.

    `grid_per_dim` controls the per-axis resolution of the regular
    lattice (>= 3 so the anchor and both extremes appear in 1-D). A
    subnormal radius is refused: the sample's cosines would underflow.
    """

    anchor: Array
    radius: float
    grid_per_dim: int = 1001

    def __post_init__(self):
        object.__setattr__(self, "anchor", as_vector(self.anchor, "anchor"))
        if not (math.isfinite(self.radius) and self.radius >= np.finfo(float).tiny):
            raise DegenerateNeighborhoodError(
                f"neighborhood radius must be finite and positive, not subnormal, got {self.radius}"
            )
        if self.grid_per_dim < 3:
            raise SettingError("grid_per_dim must be >= 3")

    @property
    def dim(self) -> int:
        return self.anchor.size


def neighborhood_points(nbhd: Neighborhood, seed: int = 0) -> tuple[Array, Array]:
    """Deterministic sample of the ball, shape (N, p), anchor included, and
    the (N,) `_row_norms` distances of its points to the anchor.

    1-D uses the full regular grid. In higher dimensions a regular
    lattice is intersected with the ball; if the requested lattice would
    exceed the sample cap, the per-axis count is reduced and the budget
    is topped up with seeded uniform draws from the ball.
    """
    p = nbhd.dim
    a, r = nbhd.anchor, nbhd.radius
    if p == 1:
        pts = np.linspace(a[0] - r, a[0] + r, nbhd.grid_per_dim).reshape(-1, 1)
        return pts, _row_norms(pts - a)

    g, total = nbhd.grid_per_dim, min(nbhd.grid_per_dim**p, LATTICE_CAP)
    if g**p > LATTICE_CAP:
        g = max(3, int(LATTICE_CAP ** (1.0 / p)))
    def ball(cand, bound):  # the rows of `cand` within `bound` of the anchor, and their distances
        d = _row_norms(cand - a)
        return cand.compress(d <= bound, axis=0), d.compress(d <= bound)

    pts = np.empty((*(g,) * p, p))  # the lattice, written axis by axis without a mesh
    for i in range(p):
        pts[..., i] = np.linspace(a[i] - r, a[i] + r, g).reshape(-1, *(1,) * (p - 1 - i))
    parts = [ball(pts.reshape(-1, p), r * (1 + 1e-12))]
    # top-up by rejection sampling in blocks: the first `needed` accepted
    # draws, in draw order, are the points a one-draw-at-a-time loop keeps
    needed, rng = total - parts[0][1].size, np.random.default_rng(seed)
    while sum(d.size for _, d in parts) < total:
        parts.append(ball(a + rng.uniform(-r, r, size=(needed, p)), r))
    return tuple(np.concatenate(part)[:total] for part in zip(*parts))


def _row_norms(V: Array) -> Array:
    """Euclidean norm of every row of V, free of overflow in the squares:
    each row is scaled by a power of two near its largest entry first,
    an exact scaling. The reductions run down the columns of a contiguous
    (p, N) copy, which sums ``((a0 + a1) + a2) + ...`` as numpy sums a row
    of fewer than 8 entries, so for widths 1 to 7 the norms are bit for
    bit those of ``np.linalg.norm(V, axis=1)`` wherever that neither
    overflows nor underflows; at 8 or more, where numpy sums a row
    pairwise, they may differ in the last bit."""
    A = np.abs(V.T, order="C")  # (p, N): the squares need no sign
    scale = np.ldexp(1.0, np.frexp(A.max(axis=0))[1])
    A /= scale
    A *= A
    return np.sqrt(A.sum(axis=0)) * scale


@dataclass(frozen=True)
class ContractionCertificate:
    """Finite-sample contraction evidence: the max observed ratio
    ||x* - x'|| / ||x* - x|| over all checked samples."""

    contraction_factor: float
    samples_checked: int

    @property
    def valid(self) -> bool:
        return self.contraction_factor < 1.0


@dataclass(frozen=True)
class AnchoredSample:
    """One map evaluated once on one sampled neighborhood.

    `points` (N, p) excludes the anchor x*, `dist` (N,) holds their distances
    to it and `dh` (N, m) the differences h(x*) - h(x) at each point x.
    `K`, which every check reads, is computed once.
    """

    map: SmoothMap
    nbhd: Neighborhood
    points: Array
    dist: Array
    dh: Array

    # the sample's `lipschitz_anchored`, computed on first read and kept; the name is looked up then
    K = cached_property(lambda self: lipschitz_anchored(self))


def anchored_sample(map: SmoothMap, nbhd: Neighborhood) -> AnchoredSample:
    """Sample `nbhd` (see `neighborhood_points`) and evaluate `map` there."""
    if map.param_dim != nbhd.dim:
        raise DimensionMismatchError("param", expected=map.param_dim, got=nbhd.dim)
    pts, dist = neighborhood_points(nbhd)
    # drop the anchor itself plus float-rounding ghosts of it, whose
    # difference quotients are pure cancellation noise
    keep = dist > 1e-12 * nbhd.radius
    pts, dist = pts.compress(keep, axis=0), dist.compress(keep)
    if pts.shape[0] == 0:
        raise DegenerateNeighborhoodError("all sampled points coincide with the anchor")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        h0 = map.evaluate(nbhd.anchor)
        hv = map.evaluate(pts)
    if not (np.isfinite(h0).all() and np.isfinite(hv).all()):
        raise DegenerateNeighborhoodError(f"map {map.name!r} is not finite on the neighborhood")
    return AnchoredSample(map, nbhd, pts, dist, h0 - hv)


def lipschitz_anchored(s: AnchoredSample) -> float:
    """Anchored Lipschitz estimate: max ||h(x)-h(x*)|| / ||x-x*|| on the grid.
    The checks read it as the sample's `K`, which computes it once."""
    return float(np.max(_row_norms(s.dh) / s.dist))


def monotone_anchored_1d(s: AnchoredSample) -> int | None:
    """Sign of (h(x)-h(x*))*(x-x*) over the grid: +1, -1, or None if mixed."""
    if s.nbhd.dim != 1 or s.dh.shape[1] != 1:
        raise ValueError("monotone_anchored_1d requires p = m = 1")
    cos = _cosines(s, [[1.0]])  # the cosines under gain -1 are these negated
    return 1 if np.all(cos > STRICT_TOL) else -1 if np.all(cos < -STRICT_TOL) else None


def generic_dm_1d(s: AnchoredSample, epsilon: float | None = None) -> float:
    """Scalar gain ``sign * (2/K - epsilon)`` for a 1-D monotone map.

    `epsilon` defaults to 1% of the 2/K budget. A given epsilon that is
    not positive, or at or above 2/K (it would flip the bound), raises
    SettingError naming the map, before monotonicity is tested.
    """
    budget = 2.0 / s.K if s.K else math.inf  # K = 0: a constant map, refused as not monotone
    if epsilon is not None and not 0 < epsilon < budget:
        bound = "positive" if epsilon <= 0 else f"below 2/K = {budget:.6g}"
        raise SettingError(f"epsilon must be {bound} for map {s.map.name}, got {epsilon}")
    sign = monotone_anchored_1d(s)
    if sign is None:
        ties = np.count_nonzero(s.dh == 0)
        raise NotMonotoneError(f"map {s.map.name!r} is not monotone on the grid around "
                               f"{s.nbhd.anchor}: {ties} of {s.dist.size} samples tie its value")
    return sign * (budget - (0.01 * budget if epsilon is None else epsilon))


def _cosines(s: AnchoredSample, gain) -> Array:
    """Per sample, the cosine of x* - x and gain @ (h(x*) - h(x)); NaN where the latter is 0."""
    gain = as_matrix(gain, "gain", width=s.dh.shape[1], rows=s.nbhd.dim)
    rdh = s.dh @ gain.T
    # rows over powers of two, as in `_row_norms`: the same quotient, finite at any radius
    v = rdh / np.ldexp(1.0, np.frexp(np.abs(rdh.T, order="C").max(axis=0))[1])[:, None]
    with np.errstate(invalid="ignore"):  # 0/0 is NaN, which passes no test
        return np.einsum("ij,ij->i", s.nbhd.anchor - s.points, v) / (s.dist * _row_norms(v))


def monotone_operator_check(s: AnchoredSample, gain) -> bool:
    """True iff x -> gain @ h(x) is strictly monotone anchored at the anchor.

    Checks <x - x*, R h(x) - R h(x*)> > 0 at every grid sample by its
    cosine, a test that does not shrink with the radius; a cosine at or
    below STRICT_TOL, or a tie, counts as a violation.
    """
    return bool(np.all(_cosines(s, gain) > STRICT_TOL))


def frobenius_dm_bound(s: AnchoredSample, gain) -> tuple[float, bool]:
    """Sufficient-condition bound ``(2/K) * min_i cos(theta_i)``.

    theta_i is the angle between (x* - x_i) and gain @ (h(x*) - h(x_i)).
    Returns the bound and whether ||gain||_F lies strictly below it.
    Requires the monotone-operator condition (otherwise some cosine is
    not positive and the bound is meaningless).
    """
    cos = _cosines(s, gain)
    if not np.all(cos > STRICT_TOL):
        raise NotMonotoneError("gain @ h is not a strictly monotone operator on the grid")
    bound = (2.0 / s.K) * float(np.min(cos))
    return bound, float(np.linalg.norm(gain, ord="fro")) < bound


def contraction_certify(s: AnchoredSample, step: DescentStep) -> ContractionCertificate:
    """Apply one update, toward the map value at the anchor, at every grid
    sample and record the worst ratio. An invalid certificate (factor >= 1)
    is a normal return.
    """
    nxt = step.advance(s.points, s.dh)
    ratios = _row_norms(s.nbhd.anchor - nxt) / s.dist
    return ContractionCertificate(
        contraction_factor=float(np.max(ratios)),
        samples_checked=int(s.points.shape[0]),
    )


# anchor and radius of the neighborhood of each scalar map of `analytic.registry`
_NEIGHBORHOODS = {"linear": (0.0, 1.0), "cube": (1.0, 0.5), "exp": (0.0, 1.0), "erf": (0.0, 2.0)}


def monotone_1d_registry(grid_per_dim: int = 1001):
    """Named 1-D monotone maps with anchors used by the certificate suite."""
    fns = registry()
    return [(name, fns[name].smooth_map(), Neighborhood(np.array([a]), r, grid_per_dim))
            for name, (a, r) in _NEIGHBORHOODS.items()]


def random_operator_suite(seed: int = 0, count: int = 10):
    """Seeded random 2-D/3-D maps as (name, sample, gain), gains under the Frobenius bound.

    Alternates well-conditioned linear maps and mildly nonlinear
    perturbations of them; the gain is a positive multiple of A^T, which
    keeps the monotone-operator condition, then rescaled to 90% of the
    computed bound (positive rescaling leaves the angles unchanged).
    """
    if seed < 0:
        raise SettingError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    suite = []
    for i in range(count):
        p = 2 if i % 2 == 0 else 3
        # well-conditioned SPD factor: eigenvalues in [1, 2]
        Q, _ = np.linalg.qr(rng.normal(size=(p, p)))
        eigs = rng.uniform(1.0, 2.0, size=p)
        A = Q @ np.diag(eigs) @ Q.T
        anchor = rng.uniform(-0.5, 0.5, size=p)
        nonlinear = i % 3 == 2

        def fn(X, A=A, anchor=anchor, nonlinear=nonlinear):
            out = matvec_rows(A, X)
            if nonlinear:
                out = out + 0.05 * np.sin(X - anchor)
            return out

        m = SmoothMap(p, p, fn, name=f"random-{i}{'-nl' if nonlinear else ''}")
        sample = anchored_sample(m, Neighborhood(anchor, 0.5, grid_per_dim=41 if p == 2 else 21))
        bound, _ = frobenius_dm_bound(sample, A.T)
        gain = A.T * (0.9 * bound / np.linalg.norm(A.T, ord="fro"))
        suite.append((m.name, sample, gain))
    return suite


@dataclass(frozen=True)
class SuiteRow:
    """One map of `certificate_suite`. `bound` is K for a 1-D map and the
    Frobenius bound for a random operator; `gain` is the 1-D gain or the
    operator gain's Frobenius norm. `counts` says whether `certificate`
    counts toward the suite's verdict: a random operator's does only when
    its gain lies under its bound."""

    name: str
    bound: float
    gain: float
    certificate: ContractionCertificate
    counts: bool


def certificate_suite(seed: int, grid_per_dim: int, radius: float | None = None,
                      epsilon: float | None = None) -> list[SuiteRow]:
    """Certify every map of `monotone_1d_registry` under its `generic_dm_1d`
    gain, then every map of `random_operator_suite(seed)` under its gain.

    `radius` replaces the registry's neighborhood radii and `epsilon` the
    1-D gains' default margin. Maps are taken in order, and the first one
    that refuses them raises before any later map is sampled:
    DegenerateNeighborhoodError for a radius, SettingError (a ValueError)
    for an epsilon at or above the map's 2/K or a negative seed.
    """
    rows = []
    for name, smap, nbhd in monotone_1d_registry(grid_per_dim):
        if radius is not None:
            nbhd = Neighborhood(nbhd.anchor, radius, grid_per_dim)
        sample = anchored_sample(smap, nbhd)
        r = generic_dm_1d(sample, epsilon=epsilon)
        rows.append(SuiteRow(name, sample.K, r,
                             contraction_certify(sample, DescentStep.from_gain([[r]])), True))
    for name, sample, gain in random_operator_suite(seed=seed):
        bound, ok = frobenius_dm_bound(sample, gain)
        rows.append(SuiteRow(name, bound, float(np.linalg.norm(gain, ord="fro")),
                             contraction_certify(sample, DescentStep.from_gain(gain)), ok))
    return rows
