import copy
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdm.core import DescentSequence, DescentStep, Mode, SmoothMap
from sdm.errors import NumericalBreakdownError, PartitionError, SdmError
from sdm.online import _FOLD, _MAX_SCALE, OnlineState, batch_deviation, init_online, rls_ingest
from sdm.trainer import solve_stage


def linear_map(A):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return SmoothMap(A.shape[1], A.shape[0], lambda x: A @ x, name="linear")


def empty_sequence(p, m, stages=1):
    zero = DescentStep(gain=np.zeros((p, m)), bias=np.zeros(p))
    return DescentSequence(steps=(zero,) * stages, param_dim=p, feature_dim=m,
                           mode=Mode.GENERALIZED)


def augmented(feats):
    feats = np.atleast_2d(feats)
    return np.hstack([feats, np.ones((feats.shape[0], 1))])


def two_product_recursion(state, A, samples, lam):
    """Weights and S after the (x0, x_opt) samples by the reference recursion
    over a linear map A: downdate, symmetrize, then the gain from a second
    product. `state` gives the starting point and is not changed."""
    W = [v.copy() for v in state.weights]
    S = [v.copy() for v in state.inv_cov]
    for x0, x_opt in samples:
        dx = x_opt - x0
        for k in range(len(W)):
            phi = np.append(A @ (x_opt - dx), 1.0)
            Sphi = S[k] @ phi
            S[k] = (S[k] - np.outer(Sphi, Sphi) / (lam + phi @ Sphi)) / lam
            S[k] = (S[k] + S[k].T) / 2
            W[k] = W[k] + np.outer(dx - W[k] @ phi, phi @ S[k])
            dx = dx - W[k] @ phi
    return W, S


class TestInitOnline:
    def test_fallback_requires_ridge(self):
        with pytest.raises(ValueError, match="ridge must be > 0"):
            init_online(empty_sequence(2, 3), ridge=0.0)
        state = init_online(empty_sequence(2, 3), ridge=0.5)
        assert state.inv_cov[0] == pytest.approx(2.0 * np.eye(4), abs=1e-12)

    def test_partitioned_sequence_refused(self):
        zero = DescentStep(gain=np.zeros((2, 3)), bias=np.zeros(2))
        seq = DescentSequence(steps=(zero,) * 4, param_dim=2, feature_dim=3,
                              mode=Mode.REVERSED, partition=(0,), center=[0.0])
        with pytest.raises(PartitionError, match="partitioned") as err:
            init_online(seq, ridge=1.0)
        assert isinstance(err.value, SdmError)

    # inf would start S at 0, which never learns; 1/1e-320 overflows
    @pytest.mark.parametrize("ridge", [float("nan"), -1.0, float("inf"), 1e-320])
    def test_ridge_without_a_finite_positive_inverse_refused_by_name(self, ridge):
        with pytest.raises(ValueError, match=f"^ridge must be > 0 .*, got {ridge}$"):
            init_online(empty_sequence(2, 3), ridge=ridge)

    def test_every_stage_starts_from_its_step_and_inverse_ridge_identity(self):
        rng = np.random.default_rng(5)
        p, m = 2, 3
        steps = tuple(DescentStep(gain=rng.normal(size=(p, m)), bias=rng.normal(size=p))
                      for _ in range(3))
        seq = DescentSequence(steps=steps, param_dim=p, feature_dim=m, mode=Mode.GENERALIZED)
        state = init_online(seq, ridge=0.25)
        for k, step in enumerate(steps):
            assert np.array_equal(state.inv_cov[k], 4.0 * np.eye(m + 1))
            assert np.array_equal(state.weights[k], np.hstack([-step.gain, step.bias[:, None]]))
            assert np.array_equal(state.steps[k].gain, step.gain)
            assert np.array_equal(state.steps[k].bias, step.bias)

    def test_forgetting_outside_unit_interval_refused(self):
        for lam in (0.0, 1.5):
            with pytest.raises(ValueError, match="forgetting factor must lie in"):
                init_online(empty_sequence(2, 3), ridge=1.0, forgetting=lam)


class TestRlsIngest:
    def test_sherman_morrison_identity(self):
        rng = np.random.default_rng(1)
        p, m, ridge = 2, 4, 0.5
        smap = linear_map(rng.normal(size=(m, p)))
        state = init_online(empty_sequence(p, m), ridge=ridge)
        gram_before = ridge * np.eye(m + 1)
        x0 = rng.normal(size=p)
        x_opt = rng.normal(size=p)
        phi = np.append(smap.evaluate(x0), 1.0)
        rls_ingest(state, x_opt, x0, smap)
        gram_after = gram_before + np.outer(phi, phi)
        assert state.inv_cov[0] @ gram_after == pytest.approx(np.eye(m + 1), abs=1e-8)

    @pytest.mark.parametrize("n", [10, 50, 200])
    @pytest.mark.parametrize("m", [3, 8])
    def test_sequential_ingest_matches_batch(self, n, m):
        rng = np.random.default_rng(100 + n + m)
        p = 3
        ridge = 1e-3
        smap = linear_map(rng.normal(size=(m, p)))
        state = init_online(empty_sequence(p, m), ridge=ridge)
        starts = rng.normal(size=(n, p))
        optima = rng.normal(size=(n, p))
        for x0, x_opt in zip(starts, optima):
            rls_ingest(state, x_opt, x0, smap)
        feats = augmented(np.array([smap.evaluate(x0) for x0 in starts]))
        batch = solve_stage(optima - starts, feats, with_bias=False, ridge=ridge)
        rel = np.linalg.norm(state.weights[0] - batch.gain, "fro") / np.linalg.norm(
            batch.gain, "fro"
        )
        assert rel <= 1e-6

    @pytest.mark.parametrize("n", [5, 12, 20])
    def test_forgetting_matches_weighted_batch(self, n):
        rng = np.random.default_rng(200 + n)
        assert batch_deviation(rng, n, m=4, p=2, forgetting=0.9, ridge=1e-2) <= 1e-8

    @pytest.mark.parametrize("ridge", [1e150, 1e160, 1e200, 1e300, 1e308])
    @pytest.mark.parametrize("forgetting", [1.0, 0.9])
    def test_a_large_ridge_is_measured(self, ridge, forgetting):
        # the batch weights are near 1 / ridge: unscaled, the squares of their
        # difference from the recursive weights underflow, and from about 1e170
        # the squares of the weights themselves
        dev = batch_deviation(np.random.default_rng(0), 10, m=6, p=3, forgetting=forgetting,
                              ridge=ridge)
        assert 0 < dev <= 1e-12

    def test_a_singular_batch_gram_matrix_is_a_breakdown(self):
        # at forgetting 1e-10 the sample weights run from 1 down to 1e-40
        with pytest.raises(NumericalBreakdownError,
                           match="^singular batch Gram matrix of 5 samples$"):
            batch_deviation(np.random.default_rng(0), 5, m=6, p=3, forgetting=1e-10, ridge=1e-3)

    @pytest.mark.filterwarnings("error")  # the refusal comes before the fold would warn
    def test_a_fold_that_would_overflow_leaves_state_as_a_clone(self):
        rng = np.random.default_rng(20)
        p, m = 3, 6
        smap = linear_map(rng.normal(size=(m, p)))
        state = init_online(empty_sequence(p, m, stages=2), ridge=1e-3, forgetting=1e-300)
        rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)  # S_base near 1e303
        clone = copy.deepcopy(state)
        with pytest.raises(NumericalBreakdownError, match="^folding stage 0 at scale "):
            rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)
        assert state._count == clone._count and state._scale == clone._scale
        for k in range(2):
            for got, want in ((state.weights[k], clone.weights[k]),
                              (state.inv_cov[k], clone.inv_cov[k])):
                assert np.array_equal(got, want) and np.isfinite(got).all()

    def test_zero_innovation_leaves_gain_unchanged(self):
        rng = np.random.default_rng(3)
        p, m = 2, 3
        smap = linear_map(rng.normal(size=(m, p)))
        state = init_online(empty_sequence(p, m), ridge=1e-2)
        for _ in range(15):
            rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)
        W = state.weights[0].copy()
        x0 = rng.normal(size=p)
        phi = np.append(smap.evaluate(x0), 1.0)
        x_opt = x0 + W @ phi  # sample the current model predicts exactly
        rls_ingest(state, x_opt, x0, smap)
        assert state.weights[0] == pytest.approx(W, rel=1e-8, abs=1e-10)

    def test_inv_cov_stays_symmetric(self):
        rng = np.random.default_rng(4)
        p, m = 3, 5
        smap = linear_map(rng.normal(size=(m, p)))
        state = init_online(empty_sequence(p, m, stages=2), ridge=1e-2)
        for _ in range(500):
            rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)
        for S in state.inv_cov:
            assert np.abs(S - S.T).max() <= 1e-9
            np.linalg.cholesky(S)  # still positive definite

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 30), m=st.integers(1, 6), p=st.integers(1, 3),
           lam=st.floats(0.9, 1.0), ridge=st.floats(1e-2, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_inverse_information_invariant(self, n, m, p, lam, ridge, seed):
        rng = np.random.default_rng(seed)
        smap = linear_map(rng.normal(size=(m, p)))
        state = init_online(empty_sequence(p, m, stages=2), ridge=ridge, forgetting=lam)
        starts = rng.normal(size=(n, p))
        for x0, x_opt in zip(starts, rng.normal(size=(n, p))):
            rls_ingest(state, x_opt, x0, smap)
            assert all(np.array_equal(S, S.T) for S in state.inv_cov)
        feats = augmented(np.array([smap.evaluate(x0) for x0 in starts]).reshape(n, m))
        coef = lam ** np.arange(n - 1, -1, -1)
        gram = lam**n * ridge * np.eye(m + 1) + feats.T @ (coef[:, None] * feats)
        # Each downdate rounds S with a relative error of a few eps, which the
        # recursion carries forward without growth, and the n products of the
        # sum round gram alike: S @ gram - I grows as (n + 1) eps times the
        # condition number of gram, bounded here by ||gram|| / (lam^n ridge)
        # as gram >= lam^n ridge I. The factor 16 covers the rounding of the
        # length-(m + 1) products per entry (m + 1 <= 7) and the square root.
        kappa = np.linalg.norm(gram, 2) / (lam**n * ridge)
        tol = 16 * (n + 1) * np.finfo(float).eps * kappa
        assert np.linalg.norm(state.inv_cov[0] @ gram - np.eye(m + 1), 2) <= tol

    def test_multi_stage_chaining_matches_manual_recursion(self):
        rng = np.random.default_rng(5)
        p, m = 2, 3
        A = rng.normal(size=(m, p))
        smap = linear_map(A)
        state = init_online(empty_sequence(p, m, stages=2), ridge=0.1)
        W = [w.copy() for w in state.weights]
        S = [s.copy() for s in state.inv_cov]
        x0 = rng.normal(size=p)
        x_opt = rng.normal(size=p)
        # manual reference: stage 0 then stage 1 with the updated weights
        dx = x_opt - x0
        for k in range(2):
            phi = np.append(A @ (x_opt - dx), 1.0)
            Sphi = S[k] @ phi
            S[k] = S[k] - np.outer(Sphi, Sphi) / (1.0 + phi @ Sphi)
            S[k] = (S[k] + S[k].T) / 2
            W[k] = W[k] + np.outer(dx - W[k] @ phi, phi @ S[k])
            dx = dx - W[k] @ phi
        rls_ingest(state, x_opt, x0, smap)
        for k in range(2):
            assert state.weights[k] == pytest.approx(W[k], rel=1e-12, abs=1e-12)
            assert state.inv_cov[k] == pytest.approx(S[k], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 0.9, 0.5, 0.3])
    def test_forgetting_matches_two_product_recursion(self, lam):
        rng = np.random.default_rng(10)
        # m == p, so the features excite every direction and forgetting does
        # not blow up the inverse information matrix
        p, m, stages = 3, 3, 3
        A = rng.normal(size=(m, p))
        smap = linear_map(A)
        state = init_online(empty_sequence(p, m, stages=stages), ridge=0.1, forgetting=lam)
        samples = [(rng.normal(size=p), rng.normal(size=p)) for _ in range(200)]
        W, S = two_product_recursion(state, A, samples, lam)
        for x0, x_opt in samples:
            rls_ingest(state, x_opt, x0, smap)
        for k in range(stages):
            for got, want in ((state.weights[k], W[k]), (state.inv_cov[k], S[k])):
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("bad_stage", [1, 2])
    def test_breakdown_leaves_every_stage_untouched(self, bad_stage):
        rng = np.random.default_rng(11)
        p, m = 2, 3
        smap = linear_map(rng.normal(size=(m, p)))
        warm = init_online(empty_sequence(p, m, stages=3), ridge=1e-2)
        for _ in range(5):
            rls_ingest(warm, rng.normal(size=p), rng.normal(size=p), smap)
        inv_cov = list(warm.inv_cov)
        inv_cov[bad_stage] = -np.eye(m + 1)  # symmetric, not positive definite
        state = OnlineState(weights=list(warm.weights), inv_cov=inv_cov, param_dim=p,
                            feature_dim=m)
        weights_before = [W.copy() for W in state.weights]
        inv_cov_before = [S.copy() for S in state.inv_cov]
        with pytest.raises(NumericalBreakdownError, match=f"stage {bad_stage}"):
            rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)
        for k in range(3):
            assert np.array_equal(state.weights[k], weights_before[k])
            assert np.array_equal(state.inv_cov[k], inv_cov_before[k])

    @pytest.mark.parametrize("lam", [1.0, 0.9, 0.5, 0.3])
    def test_pending_rows_across_folds_match_two_product_recursion(self, lam):
        rng = np.random.default_rng(12)
        p, m, stages = 3, 3, 3
        A = rng.normal(size=(m, p))
        smap = linear_map(A)
        state = init_online(empty_sequence(p, m, stages=stages), ridge=0.1, forgetting=lam)
        samples = [(rng.normal(size=p), rng.normal(size=p)) for _ in range(3 * _FOLD + 5)]
        W, S = two_product_recursion(state, A, samples, lam)
        for x0, x_opt in samples:
            rls_ingest(state, x_opt, x0, smap)  # S is not read in between
            assert max(state._scale) <= _MAX_SCALE
        if lam == 1.0:
            assert state._count == [5, 4, 3]  # three folds per stage made, in turn
        for k in range(stages):
            for got, want in ((state.weights[k], W[k]), (state.inv_cov[k], S[k])):
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("lam", [1.0, 0.9])
    def test_fold_over_several_row_blocks_keeps_S_exactly_symmetric(self, lam):
        rng = np.random.default_rng(13)
        p, m = 3, 200  # 201 rows of S span two fold blocks
        smap = linear_map(rng.normal(size=(m, p)))
        state = init_online(empty_sequence(p, m, stages=2), ridge=1.0, forgetting=lam)
        for _ in range(_FOLD + 3):
            rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)
        for S in state.inv_cov:
            assert np.array_equal(S, S.T)

    def test_stages_take_turns_to_fold(self):
        rng = np.random.default_rng(17)
        p, m, stages = 2, 3, 4
        smap = linear_map(rng.normal(size=(m, p)))
        state = init_online(empty_sequence(p, m, stages=stages), ridge=1.0)
        folded = []
        for _ in range(3 * _FOLD):
            before = list(state._count)
            rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)
            folded.append([k for k in range(stages) if state._count[k] <= before[k]])
        # the stages fill together, then fold one per ingest and stay staggered
        assert folded[_FOLD - 1 : _FOLD + 3] == [[0], [1], [2], [3]]
        assert folded[2 * _FOLD - 1 : 2 * _FOLD + 3] == [[0], [1], [2], [3]]
        assert all(len(f) <= 1 for f in folded)

    def test_reading_inv_cov_folds_into_the_given_arrays(self):
        rng = np.random.default_rng(14)
        p, m = 2, 3
        smap = linear_map(rng.normal(size=(m, p)))
        given = [np.eye(m + 1), 2.0 * np.eye(m + 1)]
        state = OnlineState(weights=[np.zeros((p, m + 1))] * 2, inv_cov=given, param_dim=p,
                            feature_dim=m, forgetting=0.9)
        for _ in range(3):
            rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)
        assert np.array_equal(given[0], np.eye(m + 1))  # the downdates are pending
        read = state.inv_cov
        assert all(a is b for a, b in zip(read, given))
        assert state._count == [0, 0] and state._scale == [1.0, 1.0]
        assert not np.array_equal(given[0], np.eye(m + 1))

    @pytest.mark.parametrize("cause", ["breakdown", "map"])
    @pytest.mark.parametrize("bad_stage", [1, 2])
    def test_failed_ingest_with_pending_rows_leaves_state_as_a_clone(self, bad_stage, cause):
        rng = np.random.default_rng(15)
        p, m = 2, 3
        A = 0.1 * rng.normal(size=(m, p))
        calls, fail_at = [0], [None]

        def kernel(X):
            calls[0] += 1
            if calls[0] == fail_at[0]:
                raise FloatingPointError("map failed")
            return X @ A.T

        smap = SmoothMap(p, m, kernel, name="failing")
        inv_cov = [np.eye(m + 1) for _ in range(3)]
        if cause == "breakdown":
            # denom = 0.9 + 2 - |h|^2 near the start: small features pass, large ones break down
            inv_cov[bad_stage] = np.diag([-1.0] * m + [2.0])
        state = OnlineState(weights=[np.zeros((p, m + 1)) for _ in range(3)], inv_cov=inv_cov,
                            param_dim=p, feature_dim=m, forgetting=0.9)
        for _ in range(5):
            x0 = 0.1 * rng.normal(size=p)
            rls_ingest(state, x0 + 0.01 * rng.normal(size=p), x0, smap)
        assert state._count == [5, 5, 5]
        clone = copy.deepcopy(state)
        x0 = np.full(p, 100.0)
        if cause == "breakdown":
            with pytest.raises(NumericalBreakdownError, match=f"stage {bad_stage}"):
                rls_ingest(state, x0, x0, smap)
        else:
            fail_at[0] = calls[0] + bad_stage + 1
            with pytest.raises(FloatingPointError, match="map failed"):
                rls_ingest(state, x0, x0, smap)
        assert state._count == clone._count and state._scale == clone._scale
        assert np.array_equal(state._pending[:, :5], clone._pending[:, :5])
        for k in range(3):
            assert np.array_equal(state.weights[k], clone.weights[k])
            assert np.array_equal(state.inv_cov[k], clone.inv_cov[k])

    @pytest.mark.filterwarnings("error")  # the refusal comes before any product that would warn
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bad_stage", [0, 2])
    def test_non_finite_features_raise_and_leave_state_as_a_clone(self, bad_stage, value):
        rng = np.random.default_rng(18)
        p, m = 2, 3
        A = 0.1 * rng.normal(size=(m, p))
        calls, fail_at = [0], [None]

        def kernel(X):
            calls[0] += 1
            return np.full(m, value) if calls[0] == fail_at[0] else X @ A.T

        smap = SmoothMap(p, m, kernel, name="non-finite")
        state = init_online(empty_sequence(p, m, stages=3), ridge=1.0, forgetting=0.9)
        for _ in range(5):
            rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)
        clone = copy.deepcopy(state)
        fail_at[0] = calls[0] + bad_stage + 1  # one evaluation per stage
        with pytest.raises(NumericalBreakdownError,
                           match=f"^non-finite map value at stage {bad_stage}$"):
            rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)
        assert state._count == clone._count == [5, 5, 5] and state._scale == clone._scale
        assert np.array_equal(state._pending[:, :5], clone._pending[:, :5])
        for k in range(3):
            assert np.array_equal(state.weights[k], clone.weights[k])
            assert np.array_equal(state.inv_cov[k], clone.inv_cov[k])

    def test_a_start_behind_the_camera_raises_and_keeps_every_entry_finite(self):
        from sdm.pose import DEFAULT_BASE_POSE, builtin_models

        cube = builtin_models()["cube"]
        state = init_online(empty_sequence(6, 16, stages=2), ridge=1e-3)
        rng = np.random.default_rng(19)
        base = DEFAULT_BASE_POSE.vector()
        for _ in range(3):
            start = base + rng.normal(size=6) * [0.05, 0.05, 0.05, 20.0, 20.0, 20.0]
            rls_ingest(state, base, start, cube.feature_map)
        clone = copy.deepcopy(state)
        # the first stage evaluates the projection at the start, behind the camera: NaN
        with pytest.raises(NumericalBreakdownError, match="at stage 0$"):
            rls_ingest(state, base, [0.0, 0.0, 0.0, 0.0, 0.0, -500.0], cube.feature_map)
        assert all(np.isfinite(W).all() for W in state.weights)
        for k in range(2):
            assert np.array_equal(state.weights[k], clone.weights[k])
            assert np.array_equal(state.inv_cov[k], clone.inv_cov[k])

    def test_ingests_through_a_fold_allocate_less_than_one_S(self):
        rng = np.random.default_rng(16)
        p, m = 2, 800
        smap = linear_map(rng.normal(size=(m, p)) / m)
        state = init_online(empty_sequence(p, m, stages=4), ridge=1.0)
        rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)  # warm-up
        samples = [(rng.normal(size=p), rng.normal(size=p)) for _ in range(_FOLD + 2)]
        tracemalloc.start()
        try:
            for x0, x_opt in samples:
                rls_ingest(state, x_opt, x0, smap)
            state.inv_cov
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state._count == [0] * 4  # the run made folds and the read made the rest
        assert peak < (m + 1) ** 2 * 8

    def test_steps_expose_subtractive_convention(self):
        rng = np.random.default_rng(7)
        p, m = 2, 3
        smap = linear_map(rng.normal(size=(m, p)))
        state = init_online(empty_sequence(p, m), ridge=1e-2)
        for _ in range(10):
            rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)
        step = state.steps[0]
        W = state.weights[0]
        assert step.gain == pytest.approx(-W[:, :m], abs=0)
        assert step.bias == pytest.approx(W[:, m], abs=0)

    def test_update_cost_scales_quadratically_not_cubically(self):
        rng = np.random.default_rng(8)
        p = 2

        def median_ingest_time(m, repeats=9):
            smap = linear_map(rng.normal(size=(m, p)))
            state = init_online(empty_sequence(p, m), ridge=1e-2)
            rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)  # warm-up
            times = []
            for _ in range(repeats):
                x0, x_opt = rng.normal(size=p), rng.normal(size=p)
                t0 = time.perf_counter()
                rls_ingest(state, x_opt, x0, smap)
                times.append(time.perf_counter() - t0)
            return float(np.median(times))

        t_small = median_ingest_time(200)
        t_large = median_ingest_time(800)
        # quadratic predicts 16x, cubic 64x; generous slack for timer noise
        assert t_large / t_small < 40


class TestStateValidation:
    def test_forgetting_range_enforced(self):
        with pytest.raises(ValueError):
            OnlineState(
                weights=[np.zeros((1, 2))], inv_cov=[np.eye(2)], param_dim=1,
                feature_dim=1, forgetting=1.5,
            )

    @pytest.mark.parametrize("lam", [0.0, -0.5, np.nan])
    def test_forgetting_at_or_below_zero_or_nan_is_refused(self, lam):
        match = f"forgetting factor must lie in \\(0, 1\\], got {lam}"
        with pytest.raises(ValueError, match=match):
            OnlineState(weights=[np.zeros((1, 2))], inv_cov=[np.eye(2)], param_dim=1,
                        feature_dim=1, forgetting=lam)

    def test_inv_cov_must_be_exactly_symmetric(self):
        S = np.eye(3)
        S[0, 1] = np.nextafter(0.0, 1.0)
        with pytest.raises(ValueError, match="inv_cov\\[1\\] is not exactly symmetric"):
            OnlineState(weights=[np.zeros((1, 3))] * 2, inv_cov=[np.eye(3), S], param_dim=1,
                        feature_dim=2)

    @pytest.mark.parametrize("field,value", [("weights", np.nan), ("inv_cov", np.inf),
                                             ("inv_cov", np.nan)])
    def test_non_finite_entry_is_refused_by_name(self, field, value):
        arrays = {"weights": [np.zeros((1, 3)), np.zeros((1, 3))],
                  "inv_cov": [np.eye(3), np.eye(3)]}
        arrays[field][1][0, 0] = value
        with pytest.raises(ValueError, match=f"{field}\\[1\\] contains non-finite entries"):
            OnlineState(**arrays, param_dim=1, feature_dim=2)

    def test_inv_cov_arrays_must_not_share_memory(self):
        S = np.eye(3)
        with pytest.raises(ValueError, match="must not share memory"):
            OnlineState(weights=[np.zeros((1, 3))] * 2, inv_cov=[S, S], param_dim=1,
                        feature_dim=2)

    def test_to_sequence_round_trips_steps(self):
        rng = np.random.default_rng(9)
        p, m = 2, 3
        smap = linear_map(rng.normal(size=(m, p)))
        state = init_online(empty_sequence(p, m, stages=3), ridge=1e-2)
        for _ in range(5):
            rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)
        seq = state.to_sequence()
        assert seq.mode is Mode.GENERALIZED
        assert len(seq) == 3
        for a, b in zip(seq.steps, state.steps):
            assert np.array_equal(a.gain, b.gain)
            assert np.array_equal(a.bias, b.bias)
