import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdm.core import DescentStep, SmoothMap
from sdm.errors import DegenerateNeighborhoodError, NotMonotoneError
from sdm.theory import (
    LATTICE_CAP,
    Neighborhood,
    _row_norms,
    anchored_sample,
    certificate_suite,
    contraction_certify,
    frobenius_dm_bound,
    generic_dm_1d,
    lipschitz_anchored,
    monotone_1d_registry,
    monotone_anchored_1d,
    monotone_operator_check,
    neighborhood_points,
    random_operator_suite,
)


def scalar_map(f, name=""):
    return SmoothMap(1, 1, lambda x: np.frompyfunc(f, 1, 1)(x).astype(float), name=name)


def nb(anchor, radius, grid=1001):
    return Neighborhood(np.atleast_1d(np.asarray(anchor, dtype=float)), radius, grid)


def sample(smap, anchor, radius, grid=1001):
    return anchored_sample(smap, nb(anchor, radius, grid))


class TestLipschitz:
    def test_linear_slope_exact(self):
        assert lipschitz_anchored(sample(scalar_map(lambda t: 2 * t), 0.3, 1.7)) == pytest.approx(
            2.0, abs=1e-12
        )
        assert lipschitz_anchored(sample(scalar_map(lambda t: t), -5.0, 0.25)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_cubic_anchored_at_one(self):
        # sup of |x^3-1|/|x-1| on [0.5, 1.5] is attained at 1.5: 2.375/0.5
        K = lipschitz_anchored(sample(scalar_map(lambda t: t**3), 1.0, 0.5, 1001))
        assert K == pytest.approx(4.75, abs=1e-12)

    def test_monotone_in_radius(self):
        cube = scalar_map(lambda t: t**3)
        radii = [0.1, 0.25, 0.5, 1.0]
        ks = [lipschitz_anchored(sample(cube, 1.0, r)) for r in radii]
        assert all(k1 <= k2 + 1e-12 for k1, k2 in zip(ks, ks[1:]))

    def test_degenerate_radius_rejected(self):
        with pytest.raises(DegenerateNeighborhoodError):
            nb(0.0, 0.0)
        with pytest.raises(DegenerateNeighborhoodError):
            nb(0.0, -1.0)


class TestMonotone1d:
    def test_cubic_increasing(self):
        assert monotone_anchored_1d(sample(scalar_map(lambda t: t**3), 1.0, 0.5)) == 1

    def test_exp_increasing_anywhere(self):
        assert monotone_anchored_1d(sample(scalar_map(math.exp), -3.0, 2.0)) == 1

    def test_negated_is_decreasing(self):
        assert monotone_anchored_1d(sample(scalar_map(lambda t: -t), 0.0, 1.0)) == -1

    def test_square_at_origin_is_mixed(self):
        assert monotone_anchored_1d(sample(scalar_map(lambda t: t * t), 0.0, 1.0)) is None


class TestGenericDm1d:
    def test_identity_map(self):
        r = generic_dm_1d(sample(scalar_map(lambda t: t), 0.0, 1.0), epsilon=0.1)
        assert r == pytest.approx(1.9, abs=1e-12)

    def test_slope_two(self):
        r = generic_dm_1d(sample(scalar_map(lambda t: 2 * t), 0.0, 1.0), epsilon=0.1)
        assert r == pytest.approx(0.9, abs=1e-12)

    def test_cubic_from_measured_constant(self):
        r = generic_dm_1d(sample(scalar_map(lambda t: t**3), 1.0, 0.5, 1001), epsilon=0.01)
        assert r == pytest.approx(2.0 / 4.75 - 0.01, abs=1e-12)

    def test_decreasing_map_gets_negative_gain(self):
        r = generic_dm_1d(sample(scalar_map(lambda t: -2 * t), 0.0, 1.0), epsilon=0.1)
        assert r == pytest.approx(-0.9, abs=1e-12)

    def test_non_monotone_rejected(self):
        with pytest.raises(NotMonotoneError):
            generic_dm_1d(sample(scalar_map(lambda t: t * t), 0.0, 1.0))

    # ramp is flat left of its anchor; 7 of the registry exp's 100 samples round to exp(0),
    # and linear shares its anchor
    @pytest.mark.parametrize("smap, radius, grid, match", [
        (scalar_map(lambda t: max(t, 0.0), "ramp"), 1.0, 11,
         r"^map 'ramp' is not monotone on the grid around \[0\.\]: 5 of 10 samples tie"),
        ({name: m for name, m, _ in monotone_1d_registry(101)}["exp"], 1e-15, 101,
         r"^map 'exp' .*: 7 of 100 samples tie"),
    ])
    def test_refusal_names_the_map_and_counts_its_ties(self, smap, radius, grid, match):
        with pytest.raises(NotMonotoneError, match=match):
            generic_dm_1d(sample(smap, 0.0, radius, grid))

    def test_epsilon_exceeding_budget_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            generic_dm_1d(sample(scalar_map(lambda t: t), 0.0, 1.0), epsilon=2.5)


class TestMonotoneOperator:
    def test_identity_operator(self):
        smap = SmoothMap(2, 2, lambda x: x.copy())
        assert monotone_operator_check(sample(smap, [0.0, 0.0], 1.0, 21), np.eye(2))

    def test_sign_reversed_cubic(self):
        smap = scalar_map(lambda t: t**3)
        assert not monotone_operator_check(sample(smap, 1.0, 0.5), np.array([[-1.0]]))

    def test_non_finite_gain_is_refused(self):
        with pytest.raises(ValueError, match="non-finite"):
            monotone_operator_check(sample(scalar_map(lambda t: t), 0.0, 1.0), [[np.nan]])

    def test_spd_linear_with_eigenvalue_oracle(self):
        rng = np.random.default_rng(7)
        B = rng.normal(size=(2, 2))
        A = B @ B.T + 2 * np.eye(2)
        assert np.all(np.linalg.eigvalsh(A) > 0)  # oracle: positive definite
        smap = SmoothMap(2, 2, lambda x: x @ A.T)
        assert monotone_operator_check(sample(smap, [0.2, -0.1], 0.8, 31), np.eye(2))

    # <x - x*, R(h - h*)> is about 4e-12 at radius 1e-6; its cosine is 1
    @pytest.mark.parametrize("radius", [1e-5, 1e-6, 1e-7])
    def test_linear_map_is_monotone_at_a_small_radius(self, radius):
        region = sample(scalar_map(lambda t: 2 * t), 0.0, radius, 101)
        assert monotone_operator_check(region, [[1.0]])
        assert monotone_anchored_1d(region) == 1
        plane = sample(SmoothMap(2, 2, lambda x: 2 * x), [0.0, 0.0], radius, 21)
        assert monotone_operator_check(plane, np.eye(2))

    def test_constant_map_is_an_exact_tie_and_refused(self):
        region = sample(scalar_map(lambda t: 3.0), 0.0, 1e-6, 101)
        assert not monotone_operator_check(region, [[1.0]])
        assert not monotone_operator_check(region, [[-1.0]])
        assert monotone_anchored_1d(region) is None
        plane = sample(SmoothMap(2, 2, lambda x: np.ones_like(x)), [0.0, 0.0], 1.0, 21)
        with pytest.raises(NotMonotoneError):
            frobenius_dm_bound(plane, np.eye(2))

    def test_products_do_not_overflow_at_a_large_radius(self):
        # x^3 - 1 reaches 1e300 and (x - 1)(x^3 - 1) would overflow to inf
        assert monotone_anchored_1d(sample(scalar_map(lambda t: t**3), 1.0, 1e100, 101)) == 1


class TestFrobeniusBound:
    def test_identity_map_small_gain_satisfied(self):
        smap = SmoothMap(2, 2, lambda x: x.copy())
        region = sample(smap, [0.0, 0.0], 1.0, 21)
        bound, ok = frobenius_dm_bound(region, 1.2 * np.eye(2))
        assert bound == pytest.approx(2.0, abs=1e-9)
        assert ok  # ||1.2 I||_F = 1.697 < 2

    def test_large_gain_not_satisfied(self):
        smap = SmoothMap(2, 2, lambda x: x.copy())
        bound, ok = frobenius_dm_bound(sample(smap, [0.0, 0.0], 1.0, 21), 3.0 * np.eye(2))
        assert bound == pytest.approx(2.0, abs=1e-9)
        assert not ok  # Frobenius norm grows with dimension, bound stays 2

    def test_diagonal_2d_case_certifies(self):
        A = np.diag([1.0, 2.0])
        smap = SmoothMap(2, 2, lambda x: x @ A.T)
        region = sample(smap, [0.0, 0.0], 1.0, 41)
        gain0 = A.T
        bound, _ = frobenius_dm_bound(region, gain0)
        gain = gain0 * (0.9 * bound / np.linalg.norm(gain0, "fro"))
        bound2, ok = frobenius_dm_bound(region, gain)
        assert ok
        cert = contraction_certify(region, DescentStep.from_gain(gain))
        assert cert.valid

    def test_bound_is_the_plain_cosine_formula_bit_for_bit(self):
        for name, region, gain in random_operator_suite(seed=3, count=4):
            dx = region.nbhd.anchor - region.points
            rdh = (region.anchor_value - region.values) @ gain.T
            cos = np.einsum("ij,ij->i", dx, rdh) / (region.dist * np.linalg.norm(rdh, axis=1))
            bound, _ = frobenius_dm_bound(region, gain)
            assert bound == (2.0 / lipschitz_anchored(region)) * np.min(cos), name

    def test_requires_monotone_operator(self):
        smap = scalar_map(lambda t: t**3)
        with pytest.raises(NotMonotoneError):
            frobenius_dm_bound(sample(smap, 1.0, 0.5), np.array([[-1.0]]))


class TestContractionCertify:
    def test_exact_one_step_convergence(self):
        smap = scalar_map(lambda t: t)
        cert = contraction_certify(sample(smap, 0.0, 1.0), DescentStep.from_gain([[1.0]]))
        assert cert.contraction_factor == pytest.approx(0.0, abs=1e-12)
        assert cert.valid

    def test_factor_point_nine(self):
        smap = scalar_map(lambda t: t)
        cert = contraction_certify(sample(smap, 0.0, 1.0), DescentStep.from_gain([[1.9]]))
        assert cert.contraction_factor == pytest.approx(0.9, abs=1e-12)
        assert cert.valid

    def test_erf_with_constructed_gain(self):
        smap = scalar_map(math.erf)
        region = sample(smap, 0.0, 2.0, 1001)
        r = generic_dm_1d(region, epsilon=0.01)
        cert = contraction_certify(region, DescentStep.from_gain([[r]]))
        assert cert.valid
        assert cert.samples_checked == 1000  # anchor excluded

    def test_contraction_implies_k_step_convergence_linear(self):
        smap = scalar_map(lambda t: t)
        region = sample(smap, 0.0, 1.0, 101)
        step = DescentStep.from_gain([[1.5]])
        cert = contraction_certify(region, step)
        c = cert.contraction_factor
        y = smap.evaluate(np.zeros(1))
        for x0 in (-1.0, 0.33, 0.9):
            x = np.array([x0])
            for k in range(1, 6):
                x = x - step.gain @ (smap.evaluate(x) - y)
                assert abs(x[0]) <= c**k * abs(x0) + 1e-12

    def test_contraction_implies_k_step_convergence_erf(self):
        smap = scalar_map(math.erf)
        region = sample(smap, 0.0, 2.0, 1001)
        r = generic_dm_1d(region, epsilon=0.05)
        step = DescentStep.from_gain([[r]])
        c = contraction_certify(region, step).contraction_factor
        y = smap.evaluate(np.zeros(1))
        # off-grid iterates can exceed the sampled factor by the grid gap
        slack = 1.01
        for x0 in (-1.7, 0.4, 1.9):
            x = np.array([x0])
            for k in range(1, 6):
                x = x - step.gain @ (smap.evaluate(x) - y)
                assert abs(x[0]) <= (slack * c) ** k * abs(x0) + 1e-12


class TestTheoremProperties:
    def test_theorem1_gains_below_bound_contract(self):
        rng = np.random.default_rng(11)
        for name, smap, nbhd in monotone_1d_registry(grid_per_dim=301):
            region = anchored_sample(smap, nbhd)
            sign = monotone_anchored_1d(region)
            K = lipschitz_anchored(region)
            for r in rng.uniform(0.0, 2.0 / K, size=8):
                if r == 0.0:
                    continue
                cert = contraction_certify(region, DescentStep.from_gain([[sign * r]]))
                assert cert.valid, f"{name}: r={r} K={K} factor={cert.contraction_factor}"

    def test_theorem1_gains_above_bound_violate(self):
        rng = np.random.default_rng(12)
        for name, smap, nbhd in monotone_1d_registry(grid_per_dim=301):
            region = anchored_sample(smap, nbhd)
            sign = monotone_anchored_1d(region)
            K = lipschitz_anchored(region)
            for r in rng.uniform(2.0 / K + 0.1 / K, 4.0 / K, size=4):
                cert = contraction_certify(region, DescentStep.from_gain([[sign * r]]))
                assert not cert.valid, f"{name}: r={r} should exceed the bound"

    def test_theorem2_satisfied_bound_implies_valid_certificate(self):
        for name, region, gain in random_operator_suite(seed=5, count=6):
            bound, ok = frobenius_dm_bound(region, gain)
            assert ok, f"{name}: suite should be constructed under the bound"
            cert = contraction_certify(region, DescentStep.from_gain(gain))
            assert cert.valid, f"{name}: factor {cert.contraction_factor}"


class TestNeighborhoodSampling:
    def test_non_finite_map_values_refused(self):
        with pytest.raises(DegenerateNeighborhoodError, match="not finite"):
            sample(scalar_map(lambda t: math.inf if t > 1.0 else t, "blows-up"), 0.0, 2.0, 11)
        with pytest.raises(DegenerateNeighborhoodError, match="not finite"):
            sample(scalar_map(lambda t: math.nan, "nan-everywhere"), 0.0, 1.0, 11)

    def test_registry_exp_is_inf_past_overflow_and_math_exp_below(self):
        exp = {name: smap for name, smap, _ in monotone_1d_registry(11)}["exp"]
        assert exp.evaluate([1000.0])[0] == math.inf
        for t in (-1000.0, -1.0, 0.3, 1.0, 709.0):
            assert exp.evaluate([t])[0] == math.exp(t)
        with pytest.raises(DegenerateNeighborhoodError):
            sample(exp, 0.0, 1000.0, 11)

    def test_1d_grid_includes_anchor_and_extremes(self):
        pts, _ = neighborhood_points(nb(2.0, 0.5, 11))
        assert pts.shape == (11, 1)
        assert pts[0, 0] == pytest.approx(1.5) and pts[-1, 0] == pytest.approx(2.5)
        assert np.any(pts[:, 0] == 2.0)

    def test_multi_d_restricted_to_ball(self):
        region = Neighborhood(np.zeros(2), 1.0, 21)
        pts, _ = neighborhood_points(region)
        assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-9)

    def test_cap_respected_and_deterministic(self):
        region = Neighborhood(np.zeros(3), 1.0, 101)  # 101^3 >> cap
        a, _ = neighborhood_points(region, seed=4)
        b, _ = neighborhood_points(region, seed=4)
        assert a.shape[0] <= 100_000
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("radius", [1e160, 1e-170])
    def test_ball_holds_where_the_squares_overflow_or_underflow(self, radius):
        # squared, 1e160 is inf (no draw would pass) and 1e-170 is 0 (every corner would)
        pts, _ = neighborhood_points(Neighborhood(np.zeros(3), radius, 5), seed=1)
        assert pts.shape == (125, 3)
        assert max(math.hypot(*row) for row in pts) <= radius * (1 + 1e-12)


# rows of 1 to 7 entries, each zero or a mantissa in [1, 10] of either sign, so that
# the terms of a row's sum are of one size and their order shows in the last bits
SHORT_ROWS = st.integers(1, 7).flatmap(lambda p: st.lists(
    st.lists(st.just(0.0) | st.floats(1.0, 10.0) | st.floats(-10.0, -1.0),
             min_size=p, max_size=p),
    min_size=1, max_size=20)).map(np.array)


class TestRowNorms:
    # squares of entries within [1e-150, 1e151] are normal numbers, and 7 of them sum below 1e303
    @settings(max_examples=200, deadline=None)
    @given(SHORT_ROWS, st.integers(-150, 150))
    def test_bit_for_bit_the_plain_norm_for_widths_below_eight(self, V, exponent):
        V = V * 10.0**exponent
        assert np.array_equal(_row_norms(V), np.linalg.norm(V, axis=1))

    @settings(max_examples=100, deadline=None)
    @given(SHORT_ROWS, st.sampled_from([1e200, 1e-200]))
    def test_finite_where_the_squares_overflow_or_underflow(self, V, magnitude):
        V = V * magnitude
        expected = [math.hypot(*row) for row in V]
        assert np.all(np.isfinite(_row_norms(V)))
        assert _row_norms(V) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(8, 40).flatmap(lambda p: st.lists(
        st.lists(st.floats(-1e3, 1e3), min_size=p, max_size=p), min_size=1, max_size=20)))
    def test_within_rounding_of_the_plain_norm_for_wider_rows(self, V):
        # numpy sums a row of 8 or more entries pairwise, the columns in order; the
        # reference is math.hypot, as np.linalg.norm underflows in its squares (a row
        # whose one nonzero entry is 2.4e-200 has plain norm 0)
        V = np.array(V)
        assert _row_norms(V) == pytest.approx([math.hypot(*row) for row in V], rel=1e-14, abs=0.0)


def rescaled_row_norms(V):
    """Reference for `_row_norms`, a frozen copy of it: every row scaled by a
    power of two near its largest entry, then summed down the columns."""
    A = np.abs(V.T, order="C")
    scale = np.ldexp(1.0, np.frexp(A.max(axis=0))[1])
    A /= scale
    A *= A
    return np.sqrt(A.sum(axis=0)) * scale


def row_built_points(nbhd, seed):
    """Reference for `neighborhood_points`: the lattice stacked from a mesh as
    (N, p) rows, each ball test by `rescaled_row_norms`, and the top-up grown
    by `vstack`; with the distances of the points to the anchor."""
    a, r, p = nbhd.anchor, nbhd.radius, nbhd.dim
    if p == 1:
        pts = np.linspace(a[0] - r, a[0] + r, nbhd.grid_per_dim).reshape(-1, 1)
        return pts, rescaled_row_norms(pts - a)
    g = nbhd.grid_per_dim
    if g**p > LATTICE_CAP:
        g = max(3, int(LATTICE_CAP ** (1.0 / p)))
    axes = [np.linspace(a[i] - r, a[i] + r, g) for i in range(p)]
    pts = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    pts = pts[rescaled_row_norms(pts - a) <= r * (1 + 1e-12)]
    needed = min(nbhd.grid_per_dim**p, LATTICE_CAP) - pts.shape[0]
    if needed > 0:
        rng = np.random.default_rng(seed)
        extra = np.empty((0, p))
        while extra.shape[0] < needed:
            cand = a + rng.uniform(-r, r, size=(needed, p))
            extra = np.vstack([extra, cand[rescaled_row_norms(cand - a) <= r]])
        pts = np.vstack([pts, extra[:needed]])
    return pts, rescaled_row_norms(pts - a)


class TestSamplerDistances:
    # a grid over the cap in 2, 3 and 4 dimensions takes the capped lattice and a long top-up
    @pytest.mark.parametrize("radius", [1e-170, 1e-5, 0.5, 1e160])
    @pytest.mark.parametrize("anchor, grid", [
        ([0.25], 1001), ([0.1, -0.3], 41), ([0.0, 0.0], 317), ([0.1, -0.2, 0.3], 21),
        ([0.0, 0.0, 0.0], 101), ([0.5, 0.0, -0.5, 1.0], 9), ([0.0, 0.0, 0.0, 0.0], 18),
    ])
    def test_points_and_distances_are_the_row_built_ones(self, anchor, grid, radius):
        region = Neighborhood(np.array(anchor), radius, grid)
        pts, dist = neighborhood_points(region, seed=3)
        ref_pts, ref_dist = row_built_points(region, seed=3)
        assert pts.flags.c_contiguous and pts.shape == ref_pts.shape
        assert np.array_equal(pts, ref_pts) and np.array_equal(dist, ref_dist)


def one_draw_at_a_time(nbhd, seed):
    """Reference for the top-up: one candidate per draw, kept if inside."""
    a, r, p = nbhd.anchor, nbhd.radius, nbhd.dim
    g = nbhd.grid_per_dim
    if g**p > LATTICE_CAP:
        g = max(3, int(LATTICE_CAP ** (1.0 / p)))
    axes = [np.linspace(a[i] - r, a[i] + r, g) for i in range(p)]
    pts = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    pts = pts[np.linalg.norm(pts - a, axis=1) <= r * (1 + 1e-12)]
    rng = np.random.default_rng(seed)
    extra = []
    while pts.shape[0] + len(extra) < min(nbhd.grid_per_dim**p, LATTICE_CAP):
        cand = a + rng.uniform(-r, r, size=p)
        if np.linalg.norm(cand - a) <= r:
            extra.append(cand)
    return np.vstack([pts, *extra]) if extra else pts


class TestBlockedSampler:
    # p-dimensional grids up to 24 / 12 / 7 per axis keep the reference loop short
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4).flatmap(lambda p: st.tuples(
            st.lists(st.floats(-10, 10), min_size=p, max_size=p),
            st.integers(3, {2: 24, 3: 12, 4: 7}[p]),
        )),
        st.floats(1e-3, 10),
        st.integers(0, 2**32 - 1),
    )
    @example(anchor_grid=([0.0, 0.0, 0.0], 101), radius=1.0, seed=4)  # over the cap
    def test_keeps_the_points_of_a_one_draw_loop(self, anchor_grid, radius, seed):
        anchor, grid = anchor_grid
        region = Neighborhood(np.array(anchor), radius, grid)
        assert np.array_equal(neighborhood_points(region, seed=seed)[0],
                              one_draw_at_a_time(region, seed))


class TestCertificateSuite:
    # a coarse lattice keeps each suite to a fraction of a second
    GRID = 101

    def test_rows_are_the_registry_maps_then_the_random_operators(self):
        names = [row.name for row in certificate_suite(7, self.GRID)]
        assert names == ([name for name, _, _ in monotone_1d_registry(self.GRID)]
                         + [name for name, _, _ in random_operator_suite(seed=7)])

    def test_one_d_rows_certify_the_generic_gain(self):
        rows = certificate_suite(7, self.GRID)
        for (name, smap, nbhd), row in zip(monotone_1d_registry(self.GRID), rows):
            region = anchored_sample(smap, nbhd)
            r = generic_dm_1d(region)
            cert = contraction_certify(region, DescentStep.from_gain([[r]]))
            assert (row.bound, row.gain, row.counts) == (lipschitz_anchored(region), r, True)
            assert row.certificate == cert, name

    def test_random_rows_carry_their_frobenius_bound_and_count_only_under_it(self):
        rows = certificate_suite(7, self.GRID)[-10:]
        for (name, region, gain), row in zip(random_operator_suite(seed=7), rows):
            bound, ok = frobenius_dm_bound(region, gain)
            cert = contraction_certify(region, DescentStep.from_gain(gain))
            assert (row.name, row.bound, row.counts) == (name, bound, ok)
            assert row.gain == float(np.linalg.norm(gain, ord="fro"))
            assert row.certificate == cert, name

    def test_only_the_random_rows_follow_the_seed(self):
        first, again, other = (certificate_suite(seed, self.GRID) for seed in (7, 7, 8))
        n_1d = len(monotone_1d_registry(self.GRID))
        assert first == again
        assert first[:n_1d] == other[:n_1d]
        assert all(a.bound != b.bound for a, b in zip(first[n_1d:], other[n_1d:]))

    def test_radius_replaces_every_registry_radius(self):
        rows = certificate_suite(7, self.GRID, radius=0.5)
        for (name, smap, nbhd), row in zip(monotone_1d_registry(self.GRID), rows):
            region = anchored_sample(smap, Neighborhood(nbhd.anchor, 0.5, self.GRID))
            assert row.bound == lipschitz_anchored(region), name
            assert row.gain == generic_dm_1d(region), name

    def test_epsilon_replaces_the_default_margin(self):
        rows = certificate_suite(7, self.GRID, epsilon=0.1)
        for (name, smap, nbhd), row in zip(monotone_1d_registry(self.GRID), rows):
            assert row.gain == generic_dm_1d(anchored_sample(smap, nbhd), epsilon=0.1), name
        assert rows[0].gain == pytest.approx(2.0 / rows[0].bound - 0.1, abs=1e-15)

    @pytest.mark.parametrize("radius, match", [
        (0.0, "radius must be finite and positive"),
        (5e-324, "radius must be finite and positive"),  # subnormal: the cosines underflow
        (1e-310, "radius must be finite and positive"),
        (1000.0, "map 'exp' is not finite"),  # exp overflows first; linear and cube are finite
    ])
    def test_refused_radius_raises_degenerate_neighborhood(self, radius, match):
        with pytest.raises(DegenerateNeighborhoodError, match=match):
            certificate_suite(7, self.GRID, radius=radius)

    # 2/K is 1 for linear and 2/4.75 for cube, so 0.5 passes linear and stops at cube
    @pytest.mark.parametrize("epsilon, culprit", [(1.0, "linear"), (0.5, "cube")])
    def test_epsilon_at_or_above_two_over_k_names_the_first_map_that_refuses(self, epsilon,
                                                                            culprit):
        with pytest.raises(ValueError, match=f"epsilon must be below 2/K = .* for map {culprit}, "
                                             f"got {epsilon}$"):
            certificate_suite(7, self.GRID, epsilon=epsilon)
