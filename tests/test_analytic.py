import math
import warnings

import numpy as np
import pytest

from sdm.analytic import (
    RESIDUAL_CAP,
    AnalyticFunction,
    build_training_set,
    check_registry_invariants,
    registry,
    run_comparison,
)
from sdm.baselines import RunStatus, newton_minimize
from sdm.core import Mode, NlsProblem, apply_sequence


class TestRegistry:
    def test_four_functions(self):
        assert sorted(registry()) == ["cube", "erf", "exp", "linear"]

    def test_inverse_round_trip(self):
        for fn in registry().values():
            for y in fn.train_targets():
                assert abs(fn.h(fn.h_inverse(y)) - y) <= 1e-10, fn.name

    def test_strictly_monotone_on_preimage_of_range(self):
        for fn in registry().values():
            xs = np.sort([fn.h_inverse(y) for y in fn.train_targets()])
            hs = [fn.h(x) for x in xs]
            assert all(a < b for a, b in zip(hs, hs[1:])), fn.name

    def test_no_target_has_zero_optimum(self):
        # the convergence metric divides by |x*|
        for fn in registry().values():
            for y in np.concatenate([fn.train_targets(), fn.test_targets()]):
                assert abs(fn.h_inverse(y)) > 1e-6, fn.name

    def test_test_resolution_must_be_finer(self):
        with pytest.raises(ValueError, match="finer"):
            AnalyticFunction(
                name="bad", h=lambda t: t, h_prime=lambda t: 1.0,
                h_double_prime=lambda t: 0.0, h_inverse=lambda y: y,
                y_lo=0.0, y_hi=1.0, train_step=0.1, test_step=0.1, x0=0.0,
            )

    def test_targets_stop_at_the_end_of_the_range(self):
        # one grid rule with trainer.grid_offsets: the last target is the largest not above y_hi
        fn = AnalyticFunction(
            name="short", h=lambda t: t, h_prime=lambda t: 1.0,
            h_double_prime=lambda t: 0.0, h_inverse=lambda y: y,
            y_lo=0.0, y_hi=1.0, train_step=0.6, test_step=0.3, x0=0.0,
        )
        assert fn.train_targets().tolist() == [0.0, 0.6]
        np.testing.assert_allclose(fn.test_targets(), [0.0, 0.3, 0.6, 0.9])
        assert "y_range=[0.0:0.6:1.0]" in fn.constants_header()



def frompyfunc_kernel(fn, X, order):
    """Reference for the scalar kernels: each oracle applied to float64
    scalars through `np.frompyfunc`, overflow warnings silenced."""
    oracles = [np.frompyfunc(lambda t, f=f: f(np.float64(t)), 1, 1)
               for f in (fn.h, fn.h_prime, fn.h_double_prime)]
    with np.errstate(over="ignore"):
        return tuple(f(X.reshape(*X.shape, *(1,) * d)).astype(float)
                     for d, f in enumerate(oracles[:order + 1]))


# ordinary points and signed zeros; where t**3, 3 t**2 and exp overflow to +-inf (t**3 raises
# OverflowError on a Python float); where erf's derivatives underflow to zero, and where
# exp(-t*t) meets t*t = inf
ORACLE_POINTS = np.array([-2.0, -0.3, -0.0, 0.0, 1e-310, 0.7, 3.0, 27.0, -27.0, 40.0, -40.0,
                          709.0, 710.0, -1000.0, 1e103, -1e103, 1e155, -1e155, 1e200, -1e200])


class TestScalarMapKernel:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("name", ["linear", "cube", "exp", "erf"])
    def test_python_float_oracles_keep_the_float64_bits(self, name, order):
        fn = registry()[name]
        for X in (ORACLE_POINTS.reshape(-1, 1), ORACLE_POINTS[14:15]):  # rows, and one point
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = fn.smooth_map().kernel(X, order)
            for value, expected in zip(got if order else (got,), frompyfunc_kernel(fn, X, order)):
                assert value.shape == expected.shape and value.dtype == expected.dtype
                # as integers, so that signed zeros and NaN payloads count
                assert np.array_equal(value.view(np.int64), expected.view(np.int64)), name

    def test_the_points_overflow_and_underflow(self):
        reg = registry()
        X = ORACLE_POINTS.reshape(-1, 1)
        cube_h, cube_j, _ = reg["cube"].smooth_map().kernel(X, 2)
        assert np.isposinf(cube_h).any() and np.isneginf(cube_h).any() and np.isposinf(cube_j).any()
        assert np.isposinf(reg["exp"].smooth_map().kernel(X)).any()
        _, erf_j, erf_jj = reg["erf"].smooth_map().kernel(X, 2)
        assert erf_j[X[:, 0] == 40.0].item() == 0.0 and erf_jj[X[:, 0] == -40.0].item() == 0.0

    def test_an_entry_that_fails_on_a_float_is_computed_on_a_float64(self):
        # 1/t raises ZeroDivisionError at a float zero, and (-t)**0.5 is complex on a positive
        # float; on float64 scalars they are inf and nan, as the kernel gives them
        fn = AnalyticFunction(name="poles", h=lambda t: 1 / t, h_prime=lambda t: (-t)**0.5,
                              h_double_prime=lambda t: t**3, h_inverse=lambda y: 1 / y,
                              y_lo=0.5, y_hi=1.0, train_step=0.1, test_step=0.05, x0=1.0)
        X = np.array([[-4.0], [-0.0], [0.0], [2.0], [1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got, expected = fn.smooth_map().kernel(X, 2), frompyfunc_kernel(fn, X, 2)
        for value, ref in zip(got, expected):
            assert np.array_equal(value.view(np.int64), ref.view(np.int64))
        assert np.isneginf(got[0][1]) and np.isposinf(got[0][2]) and np.isnan(got[1][3])


class TestBuildTrainingSet:
    def test_linear_pairs_enumerated(self):
        fn = AnalyticFunction(
            name="lin2", h=lambda t: 2 * t, h_prime=lambda t: 2.0,
            h_double_prime=lambda t: 0.0, h_inverse=lambda y: y / 2.0,
            y_lo=0.0, y_hi=2.0, train_step=1.0, test_step=0.5, x0=0.0,
        )
        tset = build_training_set(fn)
        assert tset.mode is Mode.REVERSED
        pairs = [(x_opt[0], target[0]) for x_opt, target in zip(tset.optima, tset.targets)]
        assert pairs == [(0.0, 0.0), (0.5, 1.0), (1.0, 2.0)]

    def test_cube_optima_match_cbrt_oracle(self):
        tset = build_training_set(registry()["cube"])
        for x_opt, target in zip(tset.optima, tset.targets):
            assert x_opt[0] == pytest.approx(np.cbrt(target[0]), abs=1e-12)

    def test_erf_bisection_inverse_is_oracle_grade(self):
        fn = registry()["erf"]
        for y in (-0.85, -0.2, 0.43, 0.89):
            x = fn.h_inverse(y)
            assert math.erf(x) == pytest.approx(y, abs=1e-11)


def padded_errors(iterates, x_star, length):
    """Normalized |x_k - x*| / |x*| of one run, its last value repeated out to
    `length`, capped at RESIDUAL_CAP (a value that is not finite too)."""
    errs = [abs(float(x[0]) - x_star) / abs(x_star) for x in iterates]
    while len(errs) < length:
        errs.append(errs[-1])
    errs = np.array(errs[:length])
    errs[~np.isfinite(errs)] = RESIDUAL_CAP
    return np.minimum(errs, RESIDUAL_CAP)


@pytest.fixture(scope="module")
def results():
    return {name: run_comparison(fn) for name, fn in registry().items()}


class TestRunComparison:
    def test_linear_cascade_is_exact_after_one_step(self, results):
        assert results["linear"].sdm_mean[1] <= 1e-12

    def test_cube_newton_stays_at_one_sdm_descends(self, results):
        res = results["cube"]
        assert set(res.newton_statuses) == {RunStatus.SADDLE_STALL.value}
        assert all(v == pytest.approx(1.0) for v in res.newton_mean)
        assert res.sdm_final_mean < 1e-2

    def test_exp_newton_diverges_sdm_converges(self, results):
        res = results["exp"]
        assert set(res.newton_statuses) == {RunStatus.DIVERGED.value}
        assert res.newton_mean[-1] > res.newton_mean[0]
        assert res.sdm_final_mean < 1e-2

    def test_erf_newton_converges_and_beats_cascade(self, results):
        res = results["erf"]
        assert set(res.newton_statuses) == {RunStatus.CONVERGED.value}
        assert res.newton_final_mean < res.sdm_final_mean

    def test_sdm_mean_curve_monotone(self, results):
        for name, res in results.items():
            diffs = np.diff(res.sdm_mean)
            assert np.all(diffs <= 1e-9), name

    def test_all_registry_invariants_hold(self, results):
        for name, fn in registry().items():
            assert check_registry_invariants(fn, results[name]) == [], name

    def test_rows_shape(self, results):
        rows = results["cube"].rows()
        assert len(rows) == 2 * 11
        assert rows[0][0] == "sdm" and rows[11][0] == "newton"

    @pytest.mark.parametrize("name, newton_ended_early", [
        ("linear", True), ("cube", True), ("exp", False), ("erf", True)])
    def test_means_equal_the_per_target_reference(self, results, name, newton_ended_early):
        """Each mean, bit for bit, from one-target runs padded one by one.
        Newton converges early on linear and erf and stalls at cube's saddle
        at once; on exp it walks away for every stage and is called diverged."""
        fn, res = registry()[name], results[name]
        smap, stages = fn.smooth_map(), len(res.sequence)
        sdm, newton, lengths = [], [], set()
        for y in fn.test_targets():
            x_star = fn.h_inverse(y)
            traj = apply_sequence(res.sequence, [fn.x0], smap, [y])
            run = newton_minimize(NlsProblem(smap, [y]), [fn.x0], max_iters=stages)
            sdm.append(padded_errors(traj, x_star, stages + 1))
            newton.append(padded_errors(run.iterates, x_star, stages + 1))
            lengths.add(len(run.iterates))
        assert (min(lengths) < stages + 1) is newton_ended_early
        assert np.array_equal(res.sdm_mean, np.array(sdm).mean(axis=0))
        assert np.array_equal(res.newton_mean, np.array(newton).mean(axis=0))
