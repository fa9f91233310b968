from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from sdm.analytic import registry, scalar_map
from sdm.baselines import (
    DIVERGENCE_THRESHOLD,
    GRAD_TOL,
    RESIDUAL_TOL,
    STALL_STEP_TOL,
    STEP_REL_TOL,
    DescentRun,
    RunStatus,
    gauss_newton_minimize,
    gauss_newton_rows,
    newton_minimize,
    newton_rows,
)
from sdm.core import NlsProblem, SmoothMap
from sdm.errors import DimensionMismatchError


def problem_for(fn_name, y):
    fn = registry()[fn_name]
    return NlsProblem(map=fn.smooth_map(), target=np.array([y]))


def scalar_problem(h, hp, hpp, y):
    return NlsProblem(map=scalar_map(h, hp, hpp), target=np.array([y]))


class TestNewton:
    def test_quadratic_objective_one_step(self):
        prob = scalar_problem(lambda t: 2 * t, lambda t: 2.0, lambda t: 0.0, y=4.0)
        run = newton_minimize(prob, [17.0], max_iters=10)
        assert run.status is RunStatus.CONVERGED
        assert len(run.iterates) == 2
        assert run.final[0] == pytest.approx(2.0, abs=0)

    def test_cubic_saddle_start_stalls(self):
        prob = problem_for("cube", 1.0)
        run = newton_minimize(prob, [0.0], max_iters=10)
        assert run.status is RunStatus.SADDLE_STALL
        assert run.final[0] == 0.0
        assert run.residuals[-1] == pytest.approx(1.0)

    def test_exp_bench_configuration_diverges(self):
        fn = registry()["exp"]
        for y in (1.1, 2.0, 4.0):
            run = newton_minimize(problem_for("exp", y), [fn.x0], max_iters=10)
            assert run.status is RunStatus.DIVERGED
            assert run.residuals[-1] > run.residuals[0]

    def test_quadratic_local_convergence_rate(self):
        prob = problem_for("cube", 1.0)
        run = newton_minimize(prob, [1.3], max_iters=30)
        assert run.status is RunStatus.CONVERGED
        errs = np.array([abs(x[0] - 1.0) for x in run.iterates])
        tail = errs[(errs < 0.1) & (errs > 1e-13)]
        assert len(tail) >= 3
        slopes = np.diff(np.log(tail))
        order = np.polyfit(np.log(tail[:-1]), np.log(tail[1:]), 1)[0]
        assert order >= 1.8

    def test_fd_hessian_close_to_analytic_step(self):
        fn = registry()["erf"]
        analytic_map = fn.smooth_map()
        fd_map = SmoothMap(1, 1, analytic_map.kernel, order=1)  # no second derivatives
        x = np.array([0.4])
        d2a = analytic_map.derivatives(x, 2)[2]
        d2f = fd_map.derivatives(x, 2)[2]
        assert d2f.shape == d2a.shape == (1, 1, 1)
        assert d2f == pytest.approx(d2a, rel=1e-4)

    def test_deterministic(self):
        prob = problem_for("erf", 0.5)
        r1 = newton_minimize(prob, [0.0], max_iters=10)
        r2 = newton_minimize(prob, [0.0], max_iters=10)
        assert all(np.array_equal(a, b) for a, b in zip(r1.iterates, r2.iterates))
        assert np.array_equal(r1.residuals, r2.residuals)


class TestGaussNewton:
    def test_linear_one_step_any_start(self):
        A = np.array([[2.0, 1.0], [0.0, 1.5], [1.0, -1.0]])
        smap = SmoothMap(2, 3, lambda x, order=0: (A @ x, A) if order else A @ x, order=1)
        x_star = np.array([0.3, -0.6])
        prob = NlsProblem(map=smap, target=A @ x_star)
        for x0 in ([5.0, 5.0], [-2.0, 0.1], [0.0, 0.0]):
            run = gauss_newton_minimize(prob, x0, max_iters=5)
            assert run.status is RunStatus.CONVERGED
            assert run.final == pytest.approx(x_star, abs=1e-9)

    def test_cubic_converges_quadratically(self):
        prob = problem_for("cube", 1.0)
        run = gauss_newton_minimize(prob, [0.5], max_iters=30)
        assert run.status is RunStatus.CONVERGED
        errs = np.array([abs(x[0] - 1.0) for x in run.iterates])
        tail = errs[(errs < 0.1) & (errs > 1e-13)]
        ratios = tail[1:] / tail[:-1] ** 2
        assert np.all(ratios < 10)  # bounded constant => quadratic tail

    def test_rank_deficient_jacobian_reports_singular(self):
        prob = problem_for("cube", 1.0)
        run = gauss_newton_minimize(prob, [0.0], max_iters=5)
        assert run.status is RunStatus.SINGULAR_HESSIAN


def cubic_map(calls=None, fused=False):
    """h(x) = (x0^3 + x1, x1^3 - x0, x0 x1), with its Jacobian in the kernel
    (order 1) when `fused`, else without declared derivatives. Counts the
    kernel's calls in `calls`: "evaluate" for the value alone, "fused" for
    the value and Jacobian together."""
    calls = Counter() if calls is None else calls

    def kernel(x, order=0):
        calls["fused" if order else "evaluate"] += 1
        x0, x1 = np.moveaxis(x, -1, 0)
        h = np.stack([x0 * x0 * x0 + x1, x1 * x1 * x1 - x0, x0 * x1], axis=-1)
        if not order:
            return h
        one = np.ones_like(x0)
        return h, np.stack([np.stack([3 * x0 * x0, one], -1), np.stack([-one, 3 * x1 * x1], -1),
                            np.stack([x1, x0], -1)], -2)

    return SmoothMap(2, 3, kernel, order=int(fused))


class TestOneEvaluationPerIterate:
    """One kernel call per iterate: of full order where a row may step from
    it, of the value alone where none can (every row met the step-size
    test, or the iterate is the last one allowed)."""

    def test_gauss_newton_calls_the_fused_hook_once_per_iterate(self):
        calls = Counter()
        smap = cubic_map(calls, fused=True)
        run = gauss_newton_minimize(NlsProblem(smap, smap.evaluate([1.0, 2.0])), [1.3, 1.6])
        calls["evaluate"] -= 1  # the target
        assert run.status is RunStatus.CONVERGED and len(run.iterates) > 3
        # the run ends on the step-size test: its last iterate is evaluated for the value
        assert calls == {"fused": len(run.iterates) - 1, "evaluate": 1}

    def test_without_the_hook_one_evaluate_and_one_jacobian_per_iterate(self):
        calls = Counter()
        smap = cubic_map(calls)
        run = gauss_newton_minimize(NlsProblem(smap, smap.evaluate([1.0, 2.0])), [1.3, 1.6])
        calls["evaluate"] -= 1
        # per stepping iterate, the value and one call for central differences on
        # all shifted points; the last iterate, the value alone
        assert calls == {"evaluate": 2 * (len(run.iterates) - 1) + 1}

    @pytest.mark.parametrize("max_iters", [30, 3])
    def test_newton_calls_the_order_two_kernel_once_per_iterate(self, max_iters):
        calls = Counter()
        smap = cube_1d(calls)
        run = newton_minimize(NlsProblem(smap, [1.0]), [1.3], max_iters=max_iters)
        assert len(run.iterates) > 3
        if max_iters == 3:  # out of iterations: the last iterate gets its value alone
            assert run.status is RunStatus.MAX_ITERS
            assert calls == {"hess": len(run.iterates) - 1, "fn": 1}
        else:  # ends on the residual test, which needs the last iterate's value only
            assert run.status is RunStatus.CONVERGED and run.residuals[-1] <= RESIDUAL_TOL
            assert calls == {"hess": len(run.iterates)}

    def test_rows_call_the_fused_hook_once_per_iterate_for_all_rows(self):
        calls = Counter()
        smap = cubic_map(calls, fused=True)
        X0 = np.array([[1.3, 1.6], [0.9, 2.2], [1.0, 2.0]])
        runs = gauss_newton_rows(smap, np.tile([9.0, 6.0, 2.0], (3, 1)), X0)
        # the rows still going at the last iterate all met the step-size test there
        assert calls == {"fused": max(runs.iterations), "evaluate": 1}


class TestGaussNewtonRows:
    """`gauss_newton_rows` against single runs, bit for bit, in every status."""

    def test_rows_equal_single_runs_in_every_status(self):
        cube = SmoothMap(1, 1, lambda x, order=0: (x**3, 3.0 * x[..., None]**2) if order else x**3,
                         order=1)
        steep = SmoothMap(1, 1, lambda x, order=0: (1e6 * x, np.full((*x.shape, 1), 1e6))
                          if order else 1e6 * x, order=1)
        cases = [
            # converged, singular (zero Jacobian), diverged (residual above the threshold)
            (cube, [[1.0], [1.0], [1.0]], [[0.5], [0.0], [1e3]], 30),
            (cube, [[1.0], [8.0]], [[0.5], [3.0]], 2),  # both out of iterations
            (steep, [[1e6 * 0.5 + 1e-9]], [[0.5]], 30),  # step below the stall tolerance
            (cubic_map(fused=True), [[9.0, 6.0, 2.0]] * 2, [[1.3, 1.6], [0.0, 0.0]], 30),
        ]
        seen = set()
        for smap, targets, starts, max_iters in cases:
            runs = gauss_newton_rows(smap, np.array(targets), np.array(starts), max_iters)
            for i, (y, x0) in enumerate(zip(targets, starts)):
                run = runs.row(i)
                want = gauss_newton_minimize(NlsProblem(smap, y), x0, max_iters)
                assert run.status is want.status
                assert np.array_equal(run.iterates, want.iterates)
                assert np.array_equal(run.residuals, want.residuals)
                seen.add(run.status)
        assert seen == set(RunStatus)


def cube_1d(calls=None, points=None):
    """h(x) = x^3 with both derivatives; counts in `calls` the points each
    kernel call takes, by the highest derivative asked for ("fn", "jac" or
    "hess"), and records the points where the second derivative is taken
    in `points`."""
    calls = Counter() if calls is None else calls

    def kernel(x, order=0):
        calls[("fn", "jac", "hess")[order]] += x.size
        if order == 2 and points is not None:
            points.extend(x.ravel().tolist())
        out = (x**3, 3.0 * x[..., None] ** 2, 6.0 * x[..., None, None])
        return out[:order + 1] if order else out[0]

    return SmoothMap(1, 1, kernel, order=2)


def logged(smap, log):
    """`smap` with every kernel call recorded in `log` as (order, shape of X)."""
    def kernel(X, order=0):
        log.append((order, X.shape))
        return smap.kernel(X, order)

    return SmoothMap(smap.param_dim, smap.feature_dim, kernel, order=smap.order)


def reference_run(problem, x0, max_iters, newton):
    """One Newton (`newton`) or Gauss-Newton run written out on plain
    vectors, one problem at a time: the semantics every entry point keeps
    bit for bit. Gauss-Newton evaluates with `derivatives(x, 1)`, Newton
    with `evaluate` and, where it steps, `derivatives(x, 2)`."""
    smap, y = problem.map, problem.target
    x = np.array(x0, dtype=float)
    h, J = smap.derivatives(x, 1) if not newton else (smap.evaluate(x), None)
    r = h - y
    iterates, residuals = [x], [float(np.linalg.norm(r))]

    def run(status):
        return DescentRun(iterates=tuple(iterates), residuals=tuple(residuals), status=status,
                          iterations=len(iterates) - 1)

    for _ in range(max_iters):
        rn = residuals[-1]
        if not np.isfinite(rn) or rn > DIVERGENCE_THRESHOLD:
            return run(RunStatus.DIVERGED)
        if rn <= RESIDUAL_TOL:
            return run(RunStatus.CONVERGED)
        if newton:
            _, J, second = smap.derivatives(x, 2)
            curvature = np.einsum("i,ijk->jk", r, second)
            A, g = 2.0 * (J.T @ J + curvature), 2.0 * J.T @ r
        else:
            A, g = J.T @ J, J.T @ r
        try:
            step = np.linalg.solve(A, g)
        except np.linalg.LinAlgError:
            saddle = newton and np.linalg.norm(g) <= GRAD_TOL
            return run(RunStatus.SADDLE_STALL if saddle else RunStatus.SINGULAR_HESSIAN)
        if not np.all(np.isfinite(step)):
            return run(RunStatus.DIVERGED)
        if np.linalg.norm(step) < STALL_STEP_TOL:
            return run(RunStatus.SADDLE_STALL)
        x_next = x - step
        h, J = smap.derivatives(x_next, 1) if not newton else (smap.evaluate(x_next), None)
        r = h - y
        iterates.append(x_next)
        residuals.append(float(np.linalg.norm(r)))
        if np.linalg.norm(x_next - x) <= STEP_REL_TOL * max(1.0, np.linalg.norm(x_next)):
            return run(RunStatus.CONVERGED)
        x = x_next
    if residuals[-1] > residuals[0] and residuals[-1] > RESIDUAL_TOL:
        return run(RunStatus.DIVERGED)
    return run(RunStatus.MAX_ITERS)


def assert_same_run(got, want):
    assert got.status is want.status
    k, p = len(want.iterates), len(want.iterates[0])
    assert got.iterates.shape == (k, p) and got.residuals.shape == (k,)
    assert got.iterations == k - 1
    assert all(np.array_equal(a, b) for a, b in zip(got.iterates, want.iterates))
    assert np.array_equal(got.residuals, want.residuals)


def assert_same_row(runs, i, want):
    """Row i of a rows record is `want` up to its last iterate, and held at
    that iterate and its residual through the record's last iterate."""
    k = len(want.iterates)
    assert runs.status[i] is want.status and runs.iterations[i] == k - 1
    assert_same_run(runs.row(i), want)
    assert (runs.iterates[k:, i] == runs.iterates[k - 1, i]).all()
    assert (runs.residuals[k:, i] == runs.residuals[k - 1, i]).all()


def fold_map():
    """h(x) = x0 + x1: a rank-one Jacobian, singular for both methods."""
    def kernel(x, order=0):
        out = (x[..., :1] + x[..., 1:], np.ones((*x.shape[:-1], 1, 2)),
               np.zeros((*x.shape[:-1], 1, 2, 2)))
        return out[:order + 1] if order else out[0]

    return SmoothMap(2, 1, kernel, order=2)


STEEP = scalar_map(lambda t: 1e6 * t, lambda t: 1e6, lambda t: 0.0)

# (map, targets, starts, max_iters), one map per case, several rows each
STATUS_CASES = [
    # converged, singular (Gauss-Newton) or saddle through the singular
    # branch (Newton) at the zero Jacobian of 0, diverged at the start
    # (residual above the threshold), converged from a far start
    (cube_1d(), [[1.0], [1.0], [1.0], [8.0]], [[0.5], [0.0], [1e3], [3.0]], 30),
    (cube_1d(), [[1.0], [8.0]], [[0.5], [3.0]], 2),  # both out of iterations
    (STEEP, [[1e6 * 0.5 + 1e-9]], [[0.5]], 30),  # step below the stall tolerance
    (fold_map(), [[1.0]], [[0.0, 0.0]], 5),  # singular with a nonzero gradient
    (registry()["exp"].smooth_map(), [[1.1], [2.0], [4.0]], [[-2.0]] * 3, 10),  # the exp bench
    (registry()["erf"].smooth_map(), [[0.5], [0.89], [-0.3]], [[0.0], [1.5], [0.0]], 10),
]


class TestScalarReference:
    """Every entry point against `reference_run`, bit for bit, in every status."""

    @pytest.mark.parametrize("newton", [False, True], ids=["gauss-newton", "newton"])
    def test_single_and_row_calls_equal_the_reference(self, newton):
        single, rows = ((newton_minimize, newton_rows) if newton
                        else (gauss_newton_minimize, gauss_newton_rows))
        cases = STATUS_CASES + ([] if newton else [
            (cubic_map(fused=True), [[9.0, 6.0, 2.0]] * 2, [[1.3, 1.6], [0.0, 0.0]], 30)])
        seen = Counter()
        for smap, targets, starts, max_iters in cases:
            got = rows(smap, np.array(targets), np.array(starts), max_iters)
            assert got.iterates.shape == (max_iters + 1, *np.shape(starts))
            assert got.status.shape == got.iterations.shape == (len(targets),)
            for i, (y, x0) in enumerate(zip(targets, starts)):
                want = reference_run(NlsProblem(smap, y), x0, max_iters, newton)
                assert_same_row(got, i, want)
                assert_same_run(single(NlsProblem(smap, y), x0, max_iters), want)
                seen[want.status] += 1
        assert set(seen) == set(RunStatus)

    @pytest.mark.parametrize("max_iters, long_status", [(40, RunStatus.CONVERGED),
                                                        (6, RunStatus.MAX_ITERS)])
    def test_no_hessian_at_a_row_that_has_ended(self, max_iters, long_status):
        calls, points = Counter(), []
        smap = cube_1d(calls, points)
        # the first row converges in a few steps, the second takes many more
        runs = newton_rows(smap, [[1.0], [1.0]], [[1.001], [4.0]], max_iters=max_iters)
        assert list(runs.status) == [RunStatus.CONVERGED, long_status]
        short, long = (runs.iterations + 1).tolist()
        assert 1 < short < long
        # out of iterations, the second run's last iterate gets its value alone
        last = int(long_status is RunStatus.MAX_ITERS)
        assert calls == {"hess": short + long - last, **({"fn": 1} if last else {})}
        # one call at every iterate a run can step from, none once a run has ended
        stepped = [*runs.iterates[:short, 0], *runs.iterates[:long - last, 1]]
        assert sorted(points) == sorted(float(x[0]) for x in stepped)

    def test_a_step_onto_the_last_iterate_takes_its_value_alone(self):
        # on x^3 = 8 from 3 both methods step in every round, so the last
        # iterate is reached by a step at max_iters and evaluated at order 0
        for newton, top in ((False, "jac"), (True, "hess")):
            calls = Counter()
            problem = NlsProblem(cube_1d(calls), [8.0])
            single = newton_minimize if newton else gauss_newton_minimize
            run = single(problem, [3.0], max_iters=3)
            assert run.status is RunStatus.MAX_ITERS and len(run.iterates) == 4
            assert calls == {top: 3, "fn": 1}
            assert_same_run(run, reference_run(problem, [3.0], 3, newton))

    @pytest.mark.parametrize("newton", [False, True], ids=["gauss-newton", "newton"])
    def test_a_round_where_one_row_has_moved_stays_at_full_order(self, newton):
        log = []
        smap = logged(cube_1d(), log)
        # the first row's first step meets the step-size test; the second row,
        # far from its solution, steps on from the same round
        targets, starts = np.array([[1.0], [8.0]]), np.array([[1.0 + 1e-11], [3.0]])
        runs = (newton_rows if newton else gauss_newton_rows)(smap, targets, starts, 30)
        first, second = runs.row(0), runs.row(1)
        assert first.status is RunStatus.CONVERGED and len(first.iterates) == 2
        assert first.residuals[0] > RESIDUAL_TOL  # it stepped
        assert abs(first.iterates[1, 0] - first.iterates[0, 0]) <= STEP_REL_TOL
        assert len(second.iterates) > 3
        top = 2 if newton else 1
        # iterates 0 and 1 of both rows, each in one call of full order
        assert log[:2] == [(top, (2, 1)), (top, (2, 1))]
        assert all(shape == (1,) for _, shape in log[2:])
        for i, (y, x0) in enumerate(zip(targets, starts)):
            assert_same_row(runs, i, reference_run(NlsProblem(smap, y), x0, 30, newton))

    @pytest.mark.parametrize("max_iters", [0, 1])
    @pytest.mark.parametrize("newton", [False, True], ids=["gauss-newton", "newton"])
    def test_no_or_one_iteration(self, newton, max_iters):
        single, rows = ((newton_minimize, newton_rows) if newton
                        else (gauss_newton_minimize, gauss_newton_rows))
        for smap, targets, starts, _ in STATUS_CASES:
            log = []
            got = rows(logged(smap, log), np.array(targets), np.array(starts), max_iters)
            # one call per iterate, and the iterate max_iters, where rows reach it,
            # for its value alone
            assert len(log) == max(got.iterations) + 1 <= max_iters + 1
            assert (log[-1][0] == 0) == any(got.iterations == max_iters)
            for i, (y, x0) in enumerate(zip(targets, starts)):
                want = reference_run(NlsProblem(smap, y), x0, max_iters, newton)
                assert_same_row(got, i, want)
                assert_same_run(single(NlsProblem(smap, y), x0, max_iters), want)


def linear_map_with_zero_curvature(A, b):
    """h(x) = A x + b of order 2, row by row in plain products, declaring
    second derivatives that are all zero."""
    m, p = A.shape

    def kernel(X, order=0):
        rows = X.shape[:-1]
        out = ((X[..., None, :] * A).sum(-1) + b, np.broadcast_to(A, (*rows, m, p)),
               np.zeros((*rows, m, p, p)))
        return out[:order + 1] if order else out[0]

    return SmoothMap(p, m, kernel, order=2)


class TestNewtonOnALinearMap:
    """With zero curvature, Newton solves ``2 J^T J s = 2 J^T r``: scaling by
    two is exact, so its runs are Gauss-Newton's, bit for bit."""

    @seed(2014)
    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(1, 4), extra=st.integers(0, 3), n=st.integers(1, 5),
           max_iters=st.integers(0, 6), scale=st.integers(-3, 3),
           draw=st.integers(0, 2**32 - 1))
    def test_newton_rows_equal_gauss_newton_rows(self, p, extra, n, max_iters, scale, draw):
        rng = np.random.default_rng(draw)
        A = rng.normal(size=(p + extra, p)) * 10.0 ** scale
        assume(np.linalg.matrix_rank(A) == p)
        smap = linear_map_with_zero_curvature(A, rng.normal(size=p + extra))
        targets, X0 = rng.normal(size=(n, p + extra)), rng.normal(size=(n, p)) * 10.0
        newton = newton_rows(smap, targets, X0, max_iters)
        gauss = gauss_newton_rows(smap, targets, X0, max_iters)
        assert all(a is b for a, b in zip(newton.status, gauss.status, strict=True))
        assert np.array_equal(newton.iterations, gauss.iterations)
        assert np.array_equal(newton.iterates, gauss.iterates)
        assert np.array_equal(newton.residuals, gauss.residuals)


class TestRowArguments:
    @pytest.mark.parametrize("rows", [gauss_newton_rows, newton_rows])
    def test_row_count_and_width_mismatches_are_refused(self, rows):
        smap = cube_1d()
        with pytest.raises(DimensionMismatchError):
            rows(smap, np.ones((3, 1)), np.ones((5, 1)))
        with pytest.raises(DimensionMismatchError):
            rows(smap, np.ones((3, 2)), np.ones((3, 1)))
        with pytest.raises(DimensionMismatchError):
            rows(smap, np.ones((3, 1)), np.ones((3, 2)))

    @pytest.mark.parametrize("rows", [gauss_newton_rows, newton_rows])
    def test_negative_max_iters_is_refused(self, rows):
        for n in (2, 0):
            with pytest.raises(ValueError, match="max_iters"):
                rows(cube_1d(), np.ones((n, 1)), np.ones((n, 1)), max_iters=-3)
        empty = rows(cube_1d(), np.ones((0, 1)), np.ones((0, 1)), max_iters=3)
        assert empty.iterates.shape == (4, 0, 1) and empty.residuals.shape == (4, 0)
        assert empty.status.shape == empty.iterations.shape == (0,)
        assert empty.final.shape == (0, 1)
        with pytest.raises(ValueError, match="max_iters"):
            gauss_newton_minimize(NlsProblem(cube_1d(), [1.0]), [0.5], max_iters=-1)


class TestDescentRun:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            DescentRun(iterates=(np.zeros(1),), residuals=(), status=RunStatus.CONVERGED,
                       iterations=0)
        status, iterations = np.array([RunStatus.CONVERGED] * 2, dtype=object), np.ones(2, int)
        DescentRun(np.zeros((3, 2, 1)), np.zeros((3, 2)), status, iterations)  # aligned rows
        for iterates, residuals, s, i in [
                (np.zeros((3, 2, 1)), np.zeros((3, 3)), status, iterations),  # a third row
                (np.zeros((4, 2, 1)), np.zeros((3, 2)), status, iterations),  # an iterate more
                (np.zeros((3, 2, 1)), np.zeros((3, 2)), status[:1], iterations),
                (np.zeros((3, 2, 1)), np.zeros((3, 2)), status, None)]:
            with pytest.raises(ValueError):
                DescentRun(iterates, residuals, s, i)
