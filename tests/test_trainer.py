import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdm import core as core_module
from sdm import pose
from sdm import trainer as trainer_module
from sdm.analytic import registry
from sdm.core import (Mode, SmoothMap, apply_sequence, central_differences, matvec_rows,
                      region_index, region_rows)
from sdm.errors import (
    DimensionMismatchError,
    PartitionError,
    RankDeficiencyError,
    SettingError,
    TrainingDivergedError,
)
from sdm.theory import random_operator_suite
from sdm.trainer import GRID_CAP, TrainerConfig, TrainingSet, grid_offsets, solve_stage, train


def linear_map(A):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return SmoothMap(A.shape[1], A.shape[0], lambda x: x @ A.T, name="linear")


def cubic_map():
    return SmoothMap(1, 1, lambda x: x**3, name="cube")


def gaussian_starts(center, stddev, count, seed):
    """`count` seeded normal draws around `center`, one per row."""
    rng = np.random.default_rng(seed)
    return center + rng.standard_normal((count, len(center))) * stddev


class TestSampling:
    def test_grid_matches_degree_schedule(self):
        out = grid_offsets([-30.0], [30.0], [10.0])
        assert [p[0] for p in out] == [-30, -20, -10, 0, 10, 20, 30]

    def test_grid_stops_at_upper_bound(self):
        out = grid_offsets([-30.0], [30.0], [7.0])
        assert [p[0] for p in out] == [-30, -23, -16, -9, -2, 5, 12, 19, 26]

    def test_grid_product_is_full_cartesian(self):
        out = grid_offsets([0.0, 0.0], [1.0, 2.0], [1.0, 1.0])
        assert out.shape == (2 * 3, 2)

    def test_grid_rejects_bad_bounds_and_steps(self):
        for lo, hi, step in (([0.0], [1.0], [0.0]), ([0.0], [1.0], [-1.0]),
                             ([1.0], [0.0], [1.0]), ([0.0], [np.inf], [1.0]),
                             ([np.nan], [1.0], [1.0]), ([0.0], [1.0], [np.nan])):
            with pytest.raises(ValueError):
                grid_offsets(lo, hi, step)

    def test_grid_of_the_cap_is_built_and_one_more_point_is_refused(self):
        assert grid_offsets([0.0], [GRID_CAP - 1.0], [1.0]).shape == (GRID_CAP, 1)
        with pytest.raises(SettingError, match=f"^grid has more than {GRID_CAP} points"):
            grid_offsets([0.0], [float(GRID_CAP)], [1.0])

    @pytest.mark.parametrize("step", [1e-300, 1e-3])
    def test_grid_past_the_cap_is_refused_with_a_short_message(self, step):
        # 1e-300 gives each axis some 1e300 points: the count stops at the cap
        with pytest.raises(SettingError) as exc:
            grid_offsets([-1.0] * 6, [1.0] * 6, [step] * 6)
        assert str(exc.value) == f"grid has more than {GRID_CAP} points; use larger steps"

    def test_grid_whose_span_over_step_overflows_is_refused(self):
        with pytest.raises(SettingError, match="too small for the span"):
            grid_offsets([-1.0], [1.0], [5e-324])


class TestSolveStage:
    def test_scalar_exact_fit(self):
        step = solve_stage([[1.0], [2.0]], [[1.0], [2.0]], ridge=0.0)
        assert step.gain == pytest.approx(np.array([[1.0]]), abs=1e-14)
        assert step.bias == pytest.approx([0.0], abs=0)

    def test_zero_residuals_give_zero_solution(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(10, 3))
        step = solve_stage(np.zeros((10, 2)), feats, with_bias=True, ridge=1e-8)
        assert step.gain == pytest.approx(np.zeros((2, 3)), abs=1e-12)
        assert step.bias == pytest.approx(np.zeros(2), abs=1e-12)

    def test_linear_recovers_inverse_matrix(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        x_star = rng.normal(size=4)
        y = A @ x_star
        starts = rng.normal(size=(40, 4))
        resid = x_star - starts
        feats = (y - starts @ A.T)
        step = solve_stage(resid, feats, ridge=0.0)
        assert step.gain == pytest.approx(np.linalg.inv(A), rel=1e-8, abs=1e-8)

    def test_rank_deficiency_instructs_ridge(self):
        with pytest.raises(RankDeficiencyError, match="ridge"):
            solve_stage([[1.0]], [[1.0, 2.0, 3.0]], ridge=0.0)
        # with ridge the same data solves fine
        solve_stage([[1.0]], [[1.0, 2.0, 3.0]], ridge=1e-6)

    # at ridge 0 a NaN used to reach LAPACK, which printed to stderr and raised numpy's
    # untyped LinAlgError; with a ridge the refusal named the gain
    @pytest.mark.parametrize("ridge", [0.0, 1e-6])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["residuals", "features"])
    def test_non_finite_input_is_refused_by_name_with_nothing_on_stderr(self, capfd, name, value,
                                                                        with_bias, ridge):
        rng = np.random.default_rng(3)
        args = {"residuals": rng.normal(size=(20, 2)), "features": rng.normal(size=(20, 3))}
        args[name][7, 1] = value
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            solve_stage(**args, with_bias=with_bias, ridge=ridge)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -1.0])
    def test_a_ridge_not_finite_and_non_negative_is_refused(self, ridge):
        rng = np.random.default_rng(3)
        match = "^ridge must be finite and >= 0"
        with pytest.raises(SettingError, match=match):
            TrainerConfig(ridge=ridge)
        with pytest.raises(SettingError, match=match):
            solve_stage(rng.normal(size=(20, 2)), rng.normal(size=(20, 3)), ridge=ridge)


class TestTrain:
    def test_template_cubic_contracts_sample_cloud(self):
        smap = cubic_map()
        x_star = np.array([1.0])
        starts = gaussian_starts(x_star, [0.3], 300, seed=5)
        tset = TrainingSet.template(smap, x_star, starts)
        seq = train(tset, TrainerConfig(stages=4, ridge=0.0))
        final = [apply_sequence(seq, x0, smap, y=tset.targets[0])[-1] for x0 in starts]
        mean_final = np.mean([abs(x[0] - 1.0) for x in final])
        mean_init = np.mean([abs(x0[0] - 1.0) for x0 in starts])
        assert mean_final < 0.01 * mean_init

    def test_reversed_linear_single_stage_exact(self):
        A = np.array([[2.0, 0.5], [-0.25, 1.0]])
        smap = linear_map(A)
        rng = np.random.default_rng(2)
        optima = [rng.normal(size=2) for _ in range(20)]
        tset = TrainingSet.reversed_targets(smap, np.zeros(2), optima)
        seq = train(tset, TrainerConfig(stages=1, ridge=0.0))
        for _ in range(10):
            x_star = rng.normal(size=2)
            traj = apply_sequence(seq, np.zeros(2), smap, y=A @ x_star)
            assert traj[-1] == pytest.approx(x_star, rel=1e-6, abs=1e-9)

    def test_generalized_constant_target_matches_template_on_linear(self):
        A = np.array([[1.5, -0.3], [0.2, 0.8]])
        smap = linear_map(A)
        rng = np.random.default_rng(3)
        x_star = np.array([0.4, -0.2])
        y = A @ x_star
        starts = [rng.normal(size=2) for _ in range(30)]
        template = train(TrainingSet.template(smap, x_star, starts),
                         TrainerConfig(stages=2, ridge=0.0))
        shared = TrainingSet.template(smap, x_star, starts)
        gset = TrainingSet(Mode.GENERALIZED, smap, shared.optima, shared.targets, starts)
        generalized = train(gset, TrainerConfig(stages=2, ridge=0.0))
        gstep = generalized.steps[0]
        assert gstep.bias == pytest.approx(gstep.gain @ y, rel=1e-8, abs=1e-10)
        for _ in range(5):
            x0 = rng.normal(size=2)
            out_t = apply_sequence(template, x0, smap, y=y)[-1]
            out_g = apply_sequence(generalized, x0, smap)[-1]
            assert out_g == pytest.approx(out_t, rel=1e-8, abs=1e-10)

    def test_stage_losses_non_increasing(self):
        smap = cubic_map()
        starts = gaussian_starts(np.array([1.0]), [0.4], 60, seed=8)
        for ridge in (0.0, None):
            seq = train(TrainingSet.template(smap, [1.0], starts),
                        TrainerConfig(stages=5, ridge=ridge))
            report = seq.training_report
            assert len(report) == 6
            for a, b in zip(report, report[1:]):
                assert b <= a + 1e-9

    def test_training_report_bitwise_deterministic(self):
        smap = cubic_map()
        starts = gaussian_starts(np.array([1.0]), [0.3], 40, seed=4)
        run = lambda: train(TrainingSet.template(smap, [1.0], starts),
                            TrainerConfig(stages=3)).training_report
        assert run() == run()

    def test_divergent_sample_aborts_with_indices(self):
        def fn(x):
            return np.where(np.abs(x) > 10, np.inf, x)

        smap = SmoothMap(1, 1, fn)
        starts = [np.array([1.0]), np.array([11.0])]
        tset = TrainingSet.template(smap, np.zeros(1), starts, target=np.zeros(1))
        with pytest.raises(TrainingDivergedError) as err:
            train(tset, TrainerConfig(stages=1, ridge=0.0))
        assert err.value.stage == 0
        assert err.value.sample == 1

    def test_reversed_mode_requires_shared_start(self):
        smap = linear_map(np.eye(1))
        with pytest.raises(ValueError, match="shared initial state"):
            shared = TrainingSet.reversed_targets(smap, [0.0], [[1.0], [2.0]])
            TrainingSet(
                mode=Mode.REVERSED,
                map=smap,
                optima=shared.optima,
                targets=shared.targets,
                starts=(np.array([0.0]), np.array([1.0])),
            )


class TestPartitionedTrain:
    @staticmethod
    def kinked_map():
        # slope 2 right of the origin, 1/2 left of it: no single gain fits both
        return SmoothMap(1, 1, lambda x: x * np.where(x > 0, 2.0, 0.5))

    def test_one_step_per_region_solves_a_kinked_map(self):
        smap = self.kinked_map()
        optima = [[v] for v in np.linspace(-2.0, 2.0, 21)]
        tset = TrainingSet.reversed_targets(smap, [0.0], optima)
        flat = train(tset, TrainerConfig(stages=2, ridge=0.0))
        split = train(tset, TrainerConfig(stages=2, ridge=0.0), partition=(0,))
        assert (len(split), split.n_regions, len(split.steps)) == (2, 2, 4)
        # every sample starts at the center, so stage 1 is one fit over all
        assert split.steps[0] is split.steps[1]
        assert np.array_equal(split.steps[0].gain, flat.steps[0].gain)
        assert split.training_report[-1] < 1e-20 < flat.training_report[-1]
        for x_star in (-1.3, 0.7):
            y = smap.evaluate([x_star])
            assert apply_sequence(split, [0.0], smap, y=y)[-1] == pytest.approx([x_star])

    def test_empty_region_takes_the_stage_fit_over_all_samples(self):
        smap = self.kinked_map()
        tset = TrainingSet.reversed_targets(smap, [0.0], [[v] for v in (0.5, 1.0, 1.5)])
        seq = train(tset, TrainerConfig(stages=2, ridge=0.0), partition=(0,))
        # after stage 1 every estimate is positive: region 0 gets no samples
        assert seq.steps[2] is seq.steps[3]

    def test_no_partition_is_the_plain_cascade(self):
        smap = cubic_map()
        tset = TrainingSet.reversed_targets(smap, [0.0], [[v] for v in np.linspace(0.2, 1.4, 30)])
        a = train(tset, TrainerConfig(stages=3))
        b = train(tset, TrainerConfig(stages=3), partition=())
        assert a.training_report == b.training_report
        assert all(np.array_equal(s.gain, t.gain) for s, t in zip(a.steps, b.steps))
        assert (b.partition, b.n_regions, len(b.steps)) == ((), 1, 3)

    def test_each_stage_groups_its_rows_by_region_once(self, monkeypatch):
        # the stage's fits and its update read one grouping of the default pose grid
        sizes = []

        def counted(regions, n_regions):
            sizes.append((len(regions), n_regions))
            return region_rows(regions, n_regions)

        monkeypatch.setattr(core_module, "region_rows", counted)
        monkeypatch.setattr(trainer_module, "region_rows", counted)
        seq = pose.train_protocol(pose.builtin_models()["cube"], seed=42)
        assert (len(seq), sizes) == (4, [(42_875, 8)] * 4)

    def test_partition_needs_reversed_mode_and_valid_coordinates(self):
        smap = cubic_map()
        template = TrainingSet.template(smap, [1.0], [[0.5], [1.5]])
        with pytest.raises(PartitionError, match="reversed"):
            train(template, TrainerConfig(stages=1), partition=(0,))
        reversed_set = TrainingSet.reversed_targets(smap, [0.0], [[0.5], [1.5]])
        with pytest.raises(PartitionError, match="distinct"):
            train(reversed_set, TrainerConfig(stages=1), partition=(1,))


def loop_train(tset, config, partition=()):
    """Reference trainer: the same cascade, one sample at a time.

    Per stage: evaluate every sample with `evaluate`, fit each region as
    `train` does, then move each sample with the single-point update.
    Returns the steps and the training report.
    """
    center = tset.starts[0][list(partition)]
    generalized = tset.mode is Mode.GENERALIZED
    states = [np.array(x) for x in tset.starts]

    def mean_sq_residual():
        errs = np.array([x_opt - x for x_opt, x in zip(tset.optima, states)])
        return float(np.mean(np.sum(errs * errs, axis=1)))

    def fit(D, Phi):
        ridge = config.ridge
        if ridge is None:
            ridge = 1e-6 * float(np.sum(Phi * Phi)) / Phi.shape[1]
        return solve_stage(D, Phi, with_bias=generalized, ridge=ridge)

    report, steps = [mean_sq_residual()], []
    for _ in range(config.stages):
        hvals = [tset.map.evaluate(x) for x in states]
        D = np.array([x_opt - x for x_opt, x in zip(tset.optima, states)])
        if generalized:
            Phi = -np.array(hvals)
        else:
            Phi = np.array([y - h for y, h in zip(tset.targets, hvals)])
        regions = [region_index(x, tuple(partition), center) for x in states]
        fit_all = fit(D, Phi)
        stage = []
        for r in range(1 << len(partition)):
            idx = [i for i, region in enumerate(regions) if region == r]
            stage.append(fit(D[idx], Phi[idx]) if 0 < len(idx) < len(states) else fit_all)
        steps.extend(stage)
        for i, h in enumerate(hvals):
            step = stage[regions[i]]
            y = np.zeros_like(h) if generalized else tset.targets[i]
            states[i] = states[i] - step.gain @ (h - y) + step.bias
        report.append(mean_sq_residual())
    return steps, report


def generic_map(gemm: bool):
    """h(x) = tanh(A x) + 0.1 (A x)^2 from one A @ x per row, or with `gemm`
    from one matrix product over all rows, which sums in another order
    than a one-point call."""
    A = np.array([[0.9, -0.4, 0.3], [0.2, 1.1, -0.5], [-0.3, 0.2, 0.8],
                  [0.5, 0.5, 0.5], [0.1, -0.7, 0.4]])

    def kernel(X):
        Z = X @ A.T if gemm else (X[..., None, :] @ A.T)[..., 0, :]
        return np.tanh(Z) + 0.1 * Z ** 2

    return SmoothMap(3, 5, kernel, name="generic")


class TestArrayTrainMatchesLoopReference:
    """The array trainer against the per-sample reference on noisy data."""

    @staticmethod
    def training_sets(smap):
        """(training set, partition, stages) per run. Template and
        generalized clouds collapse onto their optima, so their later
        fits are ill-conditioned whatever the trainer: two stages."""
        rng = np.random.default_rng(31)
        n = 240
        x_star = np.array([0.3, -0.2, 0.5])
        starts = x_star + 1.5 * rng.normal(size=(n, 3))
        optima = x_star + 0.5 * rng.normal(size=(n, 3))
        noisy = smap.evaluate(optima) + 0.01 * rng.normal(size=(n, 5))
        reversed_set = TrainingSet.reversed_targets(smap, np.zeros(3), optima, noisy)
        return {
            "template": (TrainingSet.template(smap, x_star, starts), (), 2),
            "reversed": (reversed_set, (), 4),
            "generalized": (TrainingSet(Mode.GENERALIZED, smap, optima, noisy, starts), (), 2),
            "partitioned": (reversed_set, (0, 2), 4),
        }

    @pytest.mark.parametrize("gemm", [False, True])
    @pytest.mark.parametrize("name", ["template", "reversed", "generalized", "partitioned"])
    def test_steps_and_report_match(self, name, gemm):
        tset, partition, stages = self.training_sets(generic_map(gemm))[name]
        config = TrainerConfig(stages=stages)
        seq = train(tset, config, partition=partition)
        want_steps, want_report = loop_train(tset, config, partition)
        assert len(seq.steps) == len(want_steps) == stages << len(partition)
        for got, want in zip(seq.steps, want_steps):
            for a, b in ((got.gain, want.gain), (got.bias, want.bias)):
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
        got_report = np.array(seq.training_report)
        assert np.all(np.abs(got_report - want_report) <= 1e-12 * np.abs(want_report))


class TestTrainMatchesApplySequence:
    """Training and test time move a sample by the same update: the
    iterates `train` evaluates at each stage, and its final residual,
    are those of `apply_sequence` run from every training start."""

    @pytest.mark.parametrize("name", ["template", "generalized", "partitioned"])
    def test_iterates_match(self, name):
        seen = []
        base = generic_map(True)

        def kernel(X):
            if X.ndim == 2:
                seen.append(X.copy())
            return base.kernel(X)

        smap = SmoothMap(3, 5, kernel)
        tset, partition, stages = TestArrayTrainMatchesLoopReference.training_sets(smap)[name]
        seen.clear()
        seq = train(tset, TrainerConfig(stages=stages), partition=partition)
        assert len(seen) == stages
        finals = []
        for i, (x0, target) in enumerate(zip(tset.starts, tset.targets)):
            y = None if tset.mode is Mode.GENERALIZED else target
            traj = apply_sequence(seq, x0, smap, y=y)
            for k in range(stages):
                assert np.allclose(traj[k], seen[k][i], rtol=1e-12, atol=1e-12)
            finals.append(traj[-1])
        errs = tset.optima - np.array(finals)
        assert seq.training_report[-1] == pytest.approx(
            np.mean(np.sum(errs * errs, axis=1)), rel=1e-12)


def package_map(name):
    """A map the package builds, by name, and points in its domain: past
    the overflow of exp for the analytic maps, one pose behind the camera
    for the projections."""
    rng = np.random.default_rng(17)
    if name == "generic":
        return generic_map(False), rng.uniform(-3.0, 3.0, (9, 3))
    if name in registry():
        return registry()[name].smooth_map(), np.append(
            np.linspace(-3.0, 3.0, 13), [709.0, 710.0, 1000.0])[:, None]
    if name == "demo-linear":  # the online-demo's map, x -> A x by `matvec_rows`, with m > p
        A = rng.normal(size=(6, 3))
        return SmoothMap(3, 6, lambda X: matvec_rows(A, X), name=name), rng.normal(size=(9, 3))
    if name.startswith("projection-"):
        offsets = np.column_stack([rng.uniform(-0.5, 0.5, (8, 3)), rng.uniform(-300, 300, (8, 3))])
        poses = np.vstack([pose.DEFAULT_BASE_POSE.vector() + offsets, [0, 0, 0, 0, 0, -500.0]])
        return pose.builtin_models()[name.removeprefix("projection-")].feature_map, poses
    sample = next(s for n, s, _ in random_operator_suite() if n == name)
    return sample.map, sample.points[::97]


PACKAGE_MAPS = ["generic", *registry(), *(n for n, _, _ in random_operator_suite()),
                "demo-linear", "projection-cube", "projection-body", "projection-face"]


class TestEvaluateRows:
    @pytest.mark.parametrize("name", PACKAGE_MAPS)
    def test_rows_equal_per_row_evaluate(self, name):
        """N rows get the bits of N one-point calls at every order, declared
        or from central differences; a declared derivative matches central
        differences of the one below within criterion 8's tolerance."""
        smap, X = package_map(name)
        with np.errstate(all="ignore"):  # rows past overflow or behind the camera
            for order in range(3):
                rows = smap.derivatives(X, order) if order else (smap.evaluate(X),)
                singles = [smap.derivatives(x, order) if order else (smap.evaluate(x),)
                           for x in X]
                for d, got in enumerate(rows):
                    assert np.array_equal(got, [s[d] for s in singles], equal_nan=True)
            for order in range(1, smap.order + 1):
                top = smap.derivatives(X, order)[-1]
                fd = central_differences(lambda Z: smap.derivatives(Z, order - 1)[-1], X)
                ok = (np.isfinite(top) & np.isfinite(fd)).reshape(len(X), -1).all(1)
                assert ok.sum() >= len(X) - 3  # all but the rows past overflow or behind
                rel = np.abs(top[ok] - fd[ok]).max() / max(1.0, np.abs(top[ok]).max())
                assert rel <= 1e-5

    def test_row_shapes_checked(self):
        smap = generic_map(False)
        for wrong in (np.zeros(2), np.zeros((2, 4)), np.zeros((2, 2, 3))):
            with pytest.raises(DimensionMismatchError, match="param"):
                smap.evaluate(wrong)
        bad = SmoothMap(3, 5, lambda X: np.zeros((*X.shape[:-1], 4)))
        for X in (np.zeros(3), np.zeros((2, 3))):
            with pytest.raises(DimensionMismatchError, match="feature"):
                bad.evaluate(X)


class TestGridPoints:
    def test_grid_points_are_the_grid_in_product_order(self):
        offsets = grid_offsets([-1.0, 0.0, 2.0], [1.0, 0.5, 3.0], [0.5, 0.25, 1.0])
        around = np.array([0.1, -0.2, 0.3])
        want = [around + np.array(c) for c in itertools.product(
            *[np.linspace(lo, hi, n) for lo, hi, n in ((-1, 1, 5), (0, 0.5, 3), (2, 3, 2))]
        )]
        assert np.array_equal(around + offsets, np.array(want))


class TestLinearMapsOneStage:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 3), st.sampled_from([Mode.TEMPLATE, Mode.REVERSED]),
           st.integers(0, 2**32 - 1))
    def test_full_rank_linear_map_is_solved_exactly_in_one_stage(self, p, extra, mode, seed):
        rng = np.random.default_rng(seed)
        m = p + extra
        # full column rank, singular values in [0.5, 2]
        U, _ = np.linalg.qr(rng.normal(size=(m, m)))
        V, _ = np.linalg.qr(rng.normal(size=(p, p)))
        A = U[:, :p] @ np.diag(rng.uniform(0.5, 2.0, p)) @ V
        smap = SmoothMap(p, m, lambda x: np.asarray(x) @ A.T)
        n = 2 * m + p
        if mode is Mode.TEMPLATE:
            x_opt = rng.normal(size=p)
            tset = TrainingSet.template(smap, x_opt, rng.normal(size=(n, p)))
            start, x_star, y = rng.normal(size=p), x_opt, smap.evaluate(x_opt)
        else:
            x0 = rng.normal(size=p)
            tset = TrainingSet.reversed_targets(smap, x0, rng.normal(size=(n, p)))
            start, x_star = x0, rng.normal(size=p)
            y = smap.evaluate(x_star)
        seq = train(tset, TrainerConfig(stages=1, ridge=0.0))
        assert seq.training_report[1] <= 1e-20 * max(1.0, seq.training_report[0])
        final = apply_sequence(seq, start, smap, y=y)[-1]
        assert np.allclose(final, x_star, rtol=0, atol=1e-9)
