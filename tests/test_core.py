import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import sdm
from sdm.analytic import registry
from sdm.core import (
    DescentSequence,
    DescentStep,
    Mode,
    SmoothMap,
    apply_sequence,
    as_matrix,
    as_vector,
    central_differences,
    region_index,
    region_rows,
)
from sdm.baselines import gauss_newton_rows, newton_rows
from sdm.errors import DimensionMismatchError, DivergedError, PartitionError, SdmError
from sdm.pose import DEFAULT_BASE_POSE, Pose, builtin_models, grid_poses
from sdm.theory import (
    Neighborhood,
    anchored_sample,
    monotone_operator_check,
    random_operator_suite,
)
from sdm.trainer import TrainingSet


def linear_map(A):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return SmoothMap(A.shape[1], A.shape[0], lambda x: x @ A.T, name="linear")


def one_step(step, mode=Mode.TEMPLATE):
    return DescentSequence(steps=(step,), param_dim=step.param_dim,
                           feature_dim=step.feature_dim, mode=mode)


class TestDmUpdate:
    """The descent-map update ``DescentStep.advance``, alone and as the
    step `apply_sequence` takes."""

    def test_identity_map_one_exact_step(self):
        step = DescentStep.from_gain([[1.0]])
        out = step.advance(np.array([0.5]), np.array([-0.5]))  # y - h = 0 - 0.5
        assert out == pytest.approx([0.0], abs=0)

    def test_hand_evaluated_cubic_step(self):
        # 0.5 - 0.4 * (0.125 - 1.0) = 0.85
        step = DescentStep.from_gain([[0.4]])
        cube = SmoothMap(1, 1, lambda x: x**3)
        out = apply_sequence(one_step(step), [0.5], cube, y=[1.0])[-1]
        assert out[0] == pytest.approx(0.85, abs=1e-15)

    def test_zero_residual_is_fixed_point(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p, m = rng.integers(1, 5), rng.integers(1, 5)
            step = DescentStep.from_gain(rng.normal(size=(p, m)))
            x = rng.normal(size=p)
            assert step.advance(x, np.zeros(m)) == pytest.approx(x, abs=0)
            X = rng.normal(size=(6, p))
            assert np.array_equal(step.advance(X, np.zeros((6, m))), X)

    def test_affine_in_h_val(self):
        rng = np.random.default_rng(1)
        step = DescentStep.from_gain(rng.normal(size=(3, 2)))
        x = rng.normal(size=3)
        y = rng.normal(size=2)
        a, b = rng.normal(size=2), rng.normal(size=2)
        for alpha in (0.0, 0.3, 1.0, -0.7):
            mixed = step.advance(x, y - (alpha * a + (1 - alpha) * b))
            combo = alpha * step.advance(x, y - a) + (1 - alpha) * step.advance(x, y - b)
            assert mixed == pytest.approx(combo, rel=1e-12, abs=1e-12)

    def test_rows_advance_like_single_points(self):
        rng = np.random.default_rng(5)
        step = DescentStep(gain=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
        X, Phi = rng.normal(size=(9, 3)), rng.normal(size=(9, 4))
        want = [step.advance(x, phi) for x, phi in zip(X, Phi)]
        assert np.array_equal(step.advance(X, Phi), want)

    def test_dimension_mismatch_names_axis(self):
        step = DescentStep.from_gain([[1.0, 2.0]])  # p=1, m=2
        seq = one_step(step)
        smap = SmoothMap(1, 2, lambda x: np.array([x[0], x[0]]))
        with pytest.raises(DimensionMismatchError, match="x0"):
            apply_sequence(seq, [1.0, 2.0], smap, y=[0.0, 0.0])
        with pytest.raises(DimensionMismatchError, match="y"):
            apply_sequence(seq, [1.0], smap, y=[0.0])
        with pytest.raises(DimensionMismatchError, match="y"):  # rows, as for one point
            apply_sequence(seq, [[1.0], [2.0]], smap, y=[[0.0], [0.0]])
        for wrong in (SmoothMap(1, 1, lambda x: x), SmoothMap(2, 2, lambda x: x)):
            with pytest.raises(DimensionMismatchError, match="map"):
                apply_sequence(seq, [1.0], wrong, y=[0.0, 0.0])


class TestDmUpdateBiased:
    """The generalized-mode update: zero target, learned bias."""

    def test_zero_step_is_identity(self):
        step = DescentStep(gain=np.zeros((2, 3)), bias=np.zeros(2))
        x = np.array([1.5, -2.0])
        assert step.advance(x, -np.array([9.0, 9.0, 9.0])) == pytest.approx(x, abs=0)

    def test_bias_equals_gain_times_target_matches_dm_update(self):
        # a generalized step with bias = gain @ y is the template step for y
        rng = np.random.default_rng(2)
        for _ in range(20):
            gain = rng.normal(size=(3, 4))
            y = rng.normal(size=4)
            A = rng.normal(size=(4, 3))
            smap = SmoothMap(3, 4, lambda x, A=A: A @ x)
            biased = one_step(DescentStep(gain=gain, bias=gain @ y), Mode.GENERALIZED)
            plain = one_step(DescentStep.from_gain(gain))
            x = rng.normal(size=3)
            lhs = apply_sequence(biased, x, smap)[-1]
            rhs = apply_sequence(plain, x, smap, y=y)[-1]
            assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)

    def test_hand_evaluated_scalar(self):
        # 0.5 - 0.4 * 0.125 + 0.4 = 0.85
        step = DescentStep(gain=[[0.4]], bias=[0.4])
        cube = SmoothMap(1, 1, lambda x: x**3)
        out = apply_sequence(one_step(step, Mode.GENERALIZED), [0.5], cube)[-1]
        assert out[0] == pytest.approx(0.85, abs=1e-15)


class TestApplySequence:
    def test_linear_single_step_hits_optimum_exactly(self):
        # diagonal powers of two keep the arithmetic exact in floats
        A = np.diag([2.0, 0.5])
        smap = linear_map(A)
        x_star = np.array([0.75, -1.25])
        seq = DescentSequence(
            steps=(DescentStep.from_gain(np.linalg.inv(A)),),
            param_dim=2,
            feature_dim=2,
            mode=Mode.REVERSED,
        )
        traj = apply_sequence(seq, [0.5, 3.0], smap, y=A @ x_star)
        assert len(traj) == 2
        assert np.array_equal(traj[1], x_star)

    def test_zero_residual_start_stays_constant(self):
        A = np.diag([2.0, 4.0])
        smap = linear_map(A)
        x_star = np.array([1.0, 2.0])
        seq = DescentSequence(
            steps=(DescentStep.from_gain(np.linalg.inv(A)),) * 3,
            param_dim=2,
            feature_dim=2,
            mode=Mode.TEMPLATE,
        )
        traj = apply_sequence(seq, x_star, smap, y=A @ x_star)
        for x in traj:
            assert np.array_equal(x, x_star)

    def test_all_zero_gains_constant_trajectory(self):
        smap = linear_map(np.eye(2))
        zero = DescentStep(gain=np.zeros((2, 2)), bias=np.zeros(2))
        seq = DescentSequence(steps=(zero,) * 4, param_dim=2, feature_dim=2, mode=Mode.TEMPLATE)
        traj = apply_sequence(seq, [3.0, -1.0], smap, y=[0.0, 0.0])
        assert all(np.array_equal(x, traj[0]) for x in traj)

    def test_non_finite_eval_raises_diverged_with_partial_trajectory(self):
        calls = {"n": 0}

        def fn(x):
            calls["n"] += 1
            return np.array([np.inf]) if calls["n"] > 1 else np.array([x[0]])

        smap = SmoothMap(1, 1, fn)
        seq = DescentSequence(
            steps=(DescentStep.from_gain([[1.0]]),) * 3, param_dim=1, feature_dim=1,
            mode=Mode.TEMPLATE,
        )
        with pytest.raises(DivergedError) as err:
            apply_sequence(seq, [5.0], smap, y=[0.0])
        assert len(err.value.trajectory) == 2  # x0 plus the one good step

    @pytest.mark.parametrize("starts, first, trajectory", [([1.0, 4.0, 2.0], 0, [1, 3, 9, 27]),
                                                           ([0.0, 2.0, 4.0], 1, [2, 6, 18])])
    def test_first_diverging_row_raises_its_one_point_trajectory(self, starts, first,
                                                                  trajectory):
        # x <- 3x, and h(x) = x turns infinite past 10: a start of 1 breaks
        # down at stage 3, 2 at stage 2, 4 at stage 1 and 0 never
        smap = SmoothMap(1, 1, lambda x: np.where(x < 10.0, x, np.inf))
        seq = DescentSequence(steps=(DescentStep.from_gain([[-2.0]]),) * 4, param_dim=1,
                              feature_dim=1, mode=Mode.TEMPLATE)
        with pytest.raises(DivergedError) as alone:
            apply_sequence(seq, [starts[first]], smap, y=[0.0])
        with pytest.raises(DivergedError, match=rf"\(row {first}\)") as rows:
            apply_sequence(seq, np.array(starts)[:, None], smap, y=np.zeros((3, 1)))
        assert rows.value.trajectory.shape == alone.value.trajectory.shape == (len(trajectory), 1)
        assert np.array_equal(rows.value.trajectory, alone.value.trajectory)
        assert np.array_equal(alone.value.trajectory, np.array(trajectory)[:, None])
        assert (rows.value.row, alone.value.row) == (first, None)

    @seed(2027)
    @settings(max_examples=200, deadline=None)
    @given(starts=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20),
           blowup=st.sampled_from([np.inf, -np.inf, np.nan]),
           gain=st.one_of(st.floats(-3.0, 3.0), st.sampled_from([1e308, -1e308])),
           stages=st.integers(1, 5))
    def test_stack_raises_exactly_when_a_last_iterate_is_not_finite(self, starts, blowup, gain,
                                                                     stages):
        # h(x) = x turns `blowup` at |x| >= 10, and x <- x - g h(x); a gain
        # near the largest float overflows the update of a finite value
        smap = SmoothMap(1, 1, lambda x: np.where(np.abs(x) < 10.0, x, blowup))
        seq = DescentSequence(steps=(DescentStep.from_gain([[gain]]),) * stages, param_dim=1,
                              feature_dim=1, mode=Mode.TEMPLATE)

        def first_non_finite(x):  # index of the first iterate that is not finite, in floats
            for k in range(stages + 1):
                if not np.isfinite(x):
                    return k
                x = x - gain * (x if abs(x) < 10.0 else blowup)
            return None

        ends = [first_non_finite(x) for x in starts]
        runs = []
        for x in starts:
            try:
                runs.append(apply_sequence(seq, [x], smap, y=[0.0]))
            except DivergedError as exc:
                runs.append(exc)
        assert [isinstance(r, DivergedError) for r in runs] == [k is not None for k in ends]
        X0 = np.array(starts)[:, None]
        if any(k is not None for k in ends):
            first = next(i for i, k in enumerate(ends) if k is not None)
            with pytest.raises(DivergedError, match=rf"\(row {first}\)$") as err:
                apply_sequence(seq, X0, smap, y=np.zeros_like(X0))
            assert err.value.row == first and runs[first].row is None
            assert err.value.trajectory.shape == (ends[first], 1)
            assert np.array_equal(err.value.trajectory, runs[first].trajectory)
        else:
            traj = apply_sequence(seq, X0, smap, y=np.zeros_like(X0))
            assert np.array_equal(traj, np.stack(runs, 1))

    def test_target_requirements_by_mode(self):
        smap = linear_map([[1.0]])
        step = DescentStep.from_gain([[1.0]])
        seq = DescentSequence(steps=(step,), param_dim=1, feature_dim=1, mode=Mode.TEMPLATE)
        with pytest.raises(ValueError, match="require a target"):
            apply_sequence(seq, [1.0], smap)
        gen = DescentSequence(steps=(step,), param_dim=1, feature_dim=1, mode=Mode.GENERALIZED)
        with pytest.raises(ValueError, match="no target"):
            apply_sequence(gen, [1.0], smap, y=[0.0])


class TestPartitionedSequence:
    @staticmethod
    def two_region_sequence():
        # region 0 (x[1] <= 1) halves the residual, region 1 removes it
        half = DescentStep.from_gain([[0.5], [0.0]])
        full = DescentStep.from_gain([[1.0], [0.0]])
        return DescentSequence(steps=(half, full, half, full), param_dim=2, feature_dim=1,
                               mode=Mode.REVERSED, partition=(1,), center=[1.0])

    def test_region_bits_follow_the_partition_order(self):
        center = np.array([0.0, 0.0])
        points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, -1.0], [0.0, 0.0, 2.0],
                           [3.0, 0.0, 3.0], [-1.0, 5.0, -1.0]])
        assert [region_index(x, (0, 2), center) for x in points] == [0, 1, 2, 3, 0]
        assert [region_index(x, (2, 0), center) for x in points] == [0, 2, 1, 3, 0]

    def test_no_partition_puts_every_point_in_region_zero(self):
        points = np.random.default_rng(0).normal(size=(7, 3))
        assert [region_index(x, (), np.zeros(0)) for x in points] == [0] * 7

    def test_row_regions_take_the_narrowest_unsigned_type(self):
        X = np.random.default_rng(4).normal(size=(50, 9))
        for coords, dtype in (((), np.uint8), ((0, 4, 2), np.uint8),
                              (tuple(range(8)), np.uint8), (tuple(range(9)), np.uint16)):
            center = np.zeros(len(coords))
            got = region_index(X, coords, center)
            assert got.dtype == dtype
            assert got.tolist() == [region_index(x, coords, center) for x in X]

    @seed(2028)
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda bits: st.tuples(
        st.just(1 << bits), st.lists(st.integers(0, (1 << bits) - 1), max_size=40))))
    def test_region_rows_are_each_region_s_rows_in_row_order(self, case):
        n_regions, regions = case
        got = region_rows(np.array(regions, dtype=np.intp), n_regions)
        assert [rows.tolist() for rows in got] == [
            [i for i, r in enumerate(regions) if r == region] for region in range(n_regions)]

    def test_stage_count_and_step_per_region(self):
        # stage k applies steps[2 k + region]; x[1] never moves, so neither does the region
        gains = [DescentStep.from_gain([[g], [0.0]]) for g in (0.5, 0.75, 0.25, 0.125)]
        seq = DescentSequence(steps=tuple(gains), param_dim=2, feature_dim=1,
                              mode=Mode.REVERSED, partition=(1,), center=[1.0])
        assert (seq.n_regions, len(seq)) == (2, 2)
        smap = SmoothMap(2, 1, lambda x: x[..., :1])
        center = apply_sequence(seq, [0.0, 1.0], smap, y=[4.0])  # at the center: region 0
        assert center[:, 0].tolist() == [0.0, 2.0, 2.5]
        above = apply_sequence(seq, [0.0, 1.5], smap, y=[4.0])
        assert above[:, 0].tolist() == [0.0, 3.0, 3.125]
        rows = apply_sequence(seq, [[0.0, 1.5], [0.0, 1.0]], smap, y=[[4.0], [4.0]])
        assert np.array_equal(rows, np.stack([above, center], 1))

    def test_apply_uses_the_step_of_the_current_region(self):
        smap = SmoothMap(2, 1, lambda x: np.array([x[0]]))
        seq = self.two_region_sequence()
        low = apply_sequence(seq, [0.0, 0.0], smap, y=[4.0])
        assert [x[0] for x in low] == [0.0, 2.0, 3.0]
        high = apply_sequence(seq, [0.0, 2.0], smap, y=[4.0])
        assert [x[0] for x in high] == [0.0, 4.0, 4.0]

    def test_malformed_partition_fields_rejected(self):
        step = DescentStep.from_gain(np.zeros((2, 1)))
        cases = [
            dict(steps=(step,) * 2, partition=(2,), center=[0.0]),       # out of range
            dict(steps=(step,) * 4, partition=(0, 0), center=[0.0, 0.0]),  # repeated
            dict(steps=(step,) * 2, partition=(0,), center=[0.0, 1.0]),  # center size
            dict(steps=(step,) * 2, partition=(0,), center=[np.nan]),
            dict(steps=(step,) * 3, partition=(0,), center=[0.0]),       # 3 of 2 regions
            dict(steps=(step,), partition=(), center=[0.0]),
        ]
        for fields in cases:
            with pytest.raises(PartitionError):
                DescentSequence(param_dim=2, feature_dim=1, mode=Mode.REVERSED, **fields)


class TestSmoothMap:
    def test_central_differences_match_the_declared_jacobian(self):
        def kernel(x, order=0):
            x0, x1 = x[..., 0], x[..., 1]
            h = np.stack([np.sin(x0) * x1, x0 ** 2 + np.exp(x1)], -1)
            if not order:
                return h
            return h, np.stack([np.stack([np.cos(x0) * x1, np.sin(x0)], -1),
                                np.stack([2 * x0, np.exp(x1)], -1)], -2)

        smap = SmoothMap(2, 2, kernel, order=1)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=2)
            assert central_differences(smap.evaluate, x) == pytest.approx(
                smap.derivatives(x, 1)[1], rel=1e-6, abs=1e-8)

    def test_an_undeclared_order_is_central_differences_of_the_order_below(self):
        cube = registry()["cube"].smooth_map()  # declares h, h' and h''
        X = np.linspace(-1.0, 1.0, 7)[:, None]
        out = cube.derivatives(X, 3)
        assert [a.shape for a in out] == [(7, 1), (7, 1, 1), (7, 1, 1, 1), (7, 1, 1, 1, 1)]
        assert out[3].reshape(-1) == pytest.approx(6.0, rel=1e-6)
        assert np.array_equal(cube.derivatives(X[2], 3)[3], out[3][2])

    def test_evaluate_checks_output_length(self):
        smap = SmoothMap(1, 2, lambda x: np.array([x[0]]))
        with pytest.raises(DimensionMismatchError):
            smap.evaluate([1.0])


def _kernel_contract_cases():
    """(map, rows) for every map the package builds: the pose projections,
    the analytic scalar maps and the random operator suite."""
    rng = np.random.default_rng(11)
    spread = np.array([0.3, 0.3, 0.3, 50.0, 50.0, 50.0])
    poses = DEFAULT_BASE_POSE.vector() + rng.normal(size=(300, 6)) * spread
    cases = {f"pose-{name}": (model.feature_map, poses)
             for name, model in builtin_models().items()}
    cases |= {f"analytic-{name}": (fn.smooth_map(), fn.x0 + rng.uniform(-1.0, 1.0, (50, 1)))
              for name, fn in registry().items()}
    cases |= {name: (sample.map, sample.points[:100]) for name, sample, _ in random_operator_suite()}
    return cases


KERNEL_CONTRACT_CASES = _kernel_contract_cases()


class TestKernelContract:
    """The solvers take h from their derivative call, so at a point and at
    rows, the value of ``derivatives(X, d)`` has the bits of ``evaluate(X)``."""

    @pytest.mark.parametrize("case", KERNEL_CONTRACT_CASES)
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_derivative_value_has_the_bits_of_evaluate(self, case, d):
        smap, rows = KERNEL_CONTRACT_CASES[case]
        for X in (rows[0], rows):
            out, want = smap.derivatives(X, d), smap.evaluate(X)
            assert len(out) == d + 1
            assert out[0].shape == want.shape and out[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", KERNEL_CONTRACT_CASES)
    def test_a_non_finite_row_has_a_value_that_is_not_finite(self, case):
        smap, rows = KERNEL_CONTRACT_CASES[case]
        p = smap.param_dim  # a NaN in each coordinate, then all entries inf and all -inf
        bad = np.concatenate([np.repeat(rows[:1], p, axis=0), np.full((2, p), np.inf)])
        bad[np.arange(p), np.arange(p)] = np.nan
        bad[-1] = -np.inf
        with np.errstate(invalid="ignore", over="ignore"):  # as `apply_sequence` evaluates
            stacked = smap.evaluate(np.concatenate([bad, rows[:5]]))
            alone = [smap.evaluate(x) for x in bad]
        assert not np.isfinite(stacked[:len(bad)]).all(axis=1).any()
        assert not any(np.isfinite(h).all() for h in alone)
        assert np.isfinite(stacked[len(bad):]).all()


def _size_cases():
    """(call, argument name) pairs: each call hands one row argument of the
    wrong width or row count to an entry point, on a map with p=2, m=3."""
    smap = linear_map(np.ones((3, 2)))
    seq = one_step(DescentStep.from_gain(np.zeros((2, 3))))
    sample = anchored_sample(smap, Neighborhood(np.zeros(2), 1.0, 5))
    x, y = np.zeros((4, 2)), np.zeros((4, 3))
    return {
        "as_matrix-width": (lambda: as_matrix(y, "arg", width=2), "arg"),
        "as_matrix-rows": (lambda: as_matrix(y, "arg", rows=3), "arg rows"),
        "apply_sequence-x0": (lambda: apply_sequence(seq, y, smap, y), "x0"),
        "apply_sequence-y": (lambda: apply_sequence(seq, x, smap, x), "y"),
        "apply_sequence-y-rows": (lambda: apply_sequence(seq, x, smap, y[:3]), "y rows"),
        "apply_sequence-x0-ndim":
            (lambda: apply_sequence(seq, x[:1, None], smap, y[0]), "x0"),
        "apply_sequence-y-ndim": (lambda: apply_sequence(seq, x[0], smap, y[:1]), "y"),
        "Pose.from_vector-ndim":
            (lambda: Pose.from_vector(np.arange(6.0).reshape(2, 3)), "pose vector"),
        "TrainingSet-optima": (lambda: TrainingSet(Mode.TEMPLATE, smap, y, y, x), "optima"),
        "TrainingSet-targets": (lambda: TrainingSet(Mode.TEMPLATE, smap, x, x, x), "targets"),
        "TrainingSet-targets-rows":
            (lambda: TrainingSet(Mode.TEMPLATE, smap, x, y[:3], x), "targets rows"),
        "TrainingSet-starts": (lambda: TrainingSet(Mode.TEMPLATE, smap, x, y, y), "initial states"),
        "TrainingSet-starts-rows":
            (lambda: TrainingSet(Mode.TEMPLATE, smap, x, y, x[:3]), "initial states rows"),
        "template-starts": (lambda: TrainingSet.template(smap, x[0], y), "initial states"),
        "reversed-optima": (lambda: TrainingSet.reversed_targets(smap, x[0], y), "optima"),
        "gauss_newton_rows-targets": (lambda: gauss_newton_rows(smap, x, x), "targets"),
        "gauss_newton_rows-x0": (lambda: gauss_newton_rows(smap, y, y), "x0"),
        "gauss_newton_rows-x0-rows": (lambda: gauss_newton_rows(smap, y, x[:3]), "x0 rows"),
        "newton_rows-targets": (lambda: newton_rows(smap, x, x), "targets"),
        "newton_rows-x0": (lambda: newton_rows(smap, y, y), "x0"),
        "newton_rows-x0-rows": (lambda: newton_rows(smap, y, x[:3]), "x0 rows"),
        "grid_poses-offsets": (lambda: grid_poses(y, DEFAULT_BASE_POSE), "pose offsets"),
        "monotone_operator_check-gain":
            (lambda: monotone_operator_check(sample, np.eye(2)), "gain"),
        "monotone_operator_check-gain-rows":
            (lambda: monotone_operator_check(sample, np.eye(3)), "gain rows"),
    }


SIZE_CASES = _size_cases()


class TestSizeRule:
    @pytest.mark.parametrize("case", SIZE_CASES)
    def test_wrong_size_is_a_dimension_mismatch_naming_the_argument(self, case):
        call, name = SIZE_CASES[case]
        with pytest.raises(DimensionMismatchError, match=f"^{name} dimension mismatch") as info:
            call()
        assert isinstance(info.value, SdmError) and isinstance(info.value, ValueError)


class TestTypes:
    def test_as_vector_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_vector([1.0, np.nan])

    def test_as_vector_takes_a_scalar_or_one_axis(self):
        for values, want in ((2.5, [2.5]), (np.float64(-1.0), [-1.0]), ([1.0, 2.0], [1.0, 2.0])):
            got = as_vector(values)
            assert got.shape == (len(want),) and got.tolist() == want

    def test_sequence_needs_consistent_steps(self):
        s1 = DescentStep.from_gain(np.zeros((2, 3)))
        s2 = DescentStep.from_gain(np.zeros((2, 4)))
        with pytest.raises(DimensionMismatchError):
            DescentSequence(steps=(s1, s2), param_dim=2, feature_dim=3, mode=Mode.TEMPLATE)
        with pytest.raises(ValueError):
            DescentSequence(steps=(), param_dim=2, feature_dim=3, mode=Mode.TEMPLATE)

    def test_step_arrays_are_read_only(self):
        step = DescentStep.from_gain([[1.0]])
        with pytest.raises(ValueError):
            step.gain[0, 0] = 2.0


class TestPackage:
    def test_every_exported_name_resolves(self):
        missing = [name for name in sdm.__all__ if not hasattr(sdm, name)]
        assert missing == []
