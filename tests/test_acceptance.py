"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Heavy artifacts (the
full pose protocol, the analytic comparisons) are built once per session
and shared across criteria.
"""
import time

import numpy as np
import pytest

from sdm.analytic import ACCURACY_FLOOR, registry, run_comparison
from sdm.baselines import RunStatus
from sdm.cli import main
from sdm.core import DescentSequence, DescentStep, Mode, SmoothMap, apply_sequence
from sdm.online import batch_deviation, init_online, rls_ingest
from sdm.seeds import stream
from sdm.theory import (
    anchored_sample,
    certificate_suite,
    contraction_certify,
    lipschitz_anchored,
    monotone_1d_registry,
    monotone_anchored_1d,
)
from sdm.trainer import TrainerConfig, TrainingSet, solve_stage, train
from sdm import pose

SEED = 42


def report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def linear_smooth_map(A):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return SmoothMap(A.shape[1], A.shape[0], lambda x: x @ A.T)


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def linear_one_step_runs():
    """Criterion 3 training runs; reports reused by criterion 7."""
    rng = np.random.default_rng(stream(SEED, "acceptance-linear").integers(2**32))
    runs = []
    for p in (1, 3, 6):
        # well conditioned: eigenvalues in [1, 2]
        Q, _ = np.linalg.qr(rng.normal(size=(p, p)))
        A = Q @ np.diag(rng.uniform(1.0, 2.0, p)) @ Q.T
        smap = linear_smooth_map(A)

        x_star = rng.normal(size=p)
        starts = [rng.normal(size=p) for _ in range(4 * p + 8)]
        template_set = TrainingSet.template(smap, x_star, starts)
        template_seq = train(template_set, TrainerConfig(stages=1, ridge=0.0))

        optima = [rng.normal(size=p) for _ in range(4 * p + 8)]
        reversed_set = TrainingSet.reversed_targets(smap, np.zeros(p), optima)
        reversed_seq = train(reversed_set, TrainerConfig(stages=1, ridge=0.0))

        test_points = [rng.normal(size=p) for _ in range(20)]
        runs.append(
            dict(p=p, A=A, smap=smap, x_star=x_star,
                 template=(template_set, template_seq),
                 reversed=(reversed_set, reversed_seq),
                 test_points=test_points)
        )
    return runs


@pytest.fixture(scope="session")
def analytic_comparisons():
    """Criterion 4 comparisons at 10 stages; reports reused by criterion 7."""
    t0 = time.perf_counter()
    results = {name: run_comparison(fn, stages=10) for name, fn in registry().items()}
    return results, time.perf_counter() - t0


@pytest.fixture(scope="session")
def pose_protocol():
    """Criterion 5 protocol: cube, full training grid, 4 stages, 2000 noisy
    test poses, Gauss-Newton initialized at the truth as the reference."""
    t0 = time.perf_counter()
    seq, records = pose.run_protocol(pose.builtin_models()["cube"], SEED)
    return dict(seq=seq, records=records, elapsed=time.perf_counter() - t0,
                n_train=len(pose.grid_poses(pose.pose_grid_spec(), pose.DEFAULT_BASE_POSE)))


# ---------------------------------------------------------------- criteria

def test_criterion_1_theorem1_certificates():
    t0 = time.perf_counter()
    rng = stream(SEED, "acceptance-theorem1")
    ok = True
    details = []
    for name, smap, nbhd in monotone_1d_registry(grid_per_dim=1001):
        sample = anchored_sample(smap, nbhd)
        sign = monotone_anchored_1d(sample)
        K = lipschitz_anchored(sample)
        worst = 0.0
        for r in rng.uniform(0.0, 2.0 / K, size=20):
            if r == 0.0:
                continue
            cert = contraction_certify(sample, DescentStep.from_gain([[sign * r]]))
            ok &= cert.valid
            worst = max(worst, cert.contraction_factor)
        details.append(f"{name}: worst factor {worst:.4f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    assert report(1, "theorem-1 certificates", ok,
                  f"({'; '.join(details)}; {elapsed:.2f}s)")


def test_criterion_2_theorem2_certificates():
    rows = [row for row in certificate_suite(SEED, 1001) if row.name.startswith("random-")]
    ok = len(rows) == 10
    worst = 0.0
    for row in rows:
        if row.counts:
            ok &= row.certificate.contraction_factor < 1.0
            worst = max(worst, row.certificate.contraction_factor)
    assert report(2, "theorem-2 certificates", ok, f"(10 maps; worst factor {worst:.4f})")


def test_criterion_3_linear_one_step(linear_one_step_runs):
    ok = True
    worst = 0.0
    for run in linear_one_step_runs:
        A, smap, p = run["A"], run["smap"], run["p"]
        tset, seq = run["template"]
        y = tset.targets[0]
        x_star = run["x_star"]
        for x0 in run["test_points"]:
            out = apply_sequence(seq, x0, smap, y=y)[-1]
            rel = np.linalg.norm(out - x_star) / max(np.linalg.norm(x_star), 1e-12)
            worst = max(worst, rel)
        _, rseq = run["reversed"]
        for x_t in run["test_points"]:
            out = apply_sequence(rseq, np.zeros(p), smap, y=A @ x_t)[-1]
            rel = np.linalg.norm(out - x_t) / max(np.linalg.norm(x_t), 1e-12)
            worst = max(worst, rel)
    ok &= worst <= 1e-6
    assert report(3, "linear one-step convergence", ok, f"(worst relative error {worst:.2e})")


def test_criterion_4_analytic_reproduction(analytic_comparisons):
    results, elapsed = analytic_comparisons
    parts = []

    final = {n: r.sdm_final_mean for n, r in results.items()}
    a_ok = all(v < 1e-2 for v in final.values())
    parts.append("a: " + " ".join(f"{n}={v:.1e}" for n, v in final.items()))

    b_ok = set(results["cube"].newton_statuses) == {RunStatus.SADDLE_STALL.value} and set(
        results["exp"].newton_statuses
    ) == {RunStatus.DIVERGED.value}
    parts.append(f"b: cube={set(results['cube'].newton_statuses)} "
                 f"exp={set(results['exp'].newton_statuses)}")

    c_ok = True
    for name, res in results.items():
        if set(res.newton_statuses) == {RunStatus.CONVERGED.value}:
            wins = res.newton_final_mean < res.sdm_final_mean
            tie = (res.newton_final_mean < ACCURACY_FLOOR
                   and res.sdm_final_mean < ACCURACY_FLOOR)
            c_ok &= wins or tie
    parts.append(f"c: {'ok' if c_ok else 'violated'}")

    runtime_ok = elapsed < 30.0
    parts.append(f"{elapsed:.1f}s")
    ok = a_ok and b_ok and c_ok and runtime_ok
    assert report(4, "analytic-function reproduction", ok, "(" + "; ".join(parts) + ")")


def test_criterion_5_pose_reproduction(pose_protocol):
    records = pose_protocol["records"]
    rot = float(np.mean([r.rot_err_deg for r in records]))
    trans = float(np.mean([r.trans_err_mm for r in records]))
    gn_trans = float(np.mean([r.gn_trans_err_mm for r in records]))
    elapsed = pose_protocol["elapsed"]

    grid_ok = pose_protocol["n_train"] == 42875 and len(records) == 2000
    rot_ok = rot <= 2.0
    trans_ok = trans <= 40.0
    ratio = trans / gn_trans
    ratio_ok = ratio <= 1.5
    runtime_ok = elapsed < 600.0

    detail = (
        f"(rot {rot:.3f} deg [<=2]; trans {trans:.2f} mm [<=40]; "
        f"GN-true-init {gn_trans:.2f} mm, ratio {ratio:.2f} [<=1.5]; {elapsed:.0f}s)"
    )
    ok = grid_ok and rot_ok and trans_ok and ratio_ok and runtime_ok
    assert report(5, "pose-estimation reproduction", ok, detail)


def test_criterion_6_online_batch_equivalence():
    rng = stream(SEED, "acceptance-online")
    worst_plain = 0.0
    for n in (10, 50, 200):
        for m in (3, 8):
            p, ridge = 3, 1e-3
            A = rng.normal(size=(m, p))
            smap = linear_smooth_map(A)
            zero = DescentStep(gain=np.zeros((p, m)), bias=np.zeros(p))
            seq = DescentSequence(steps=(zero,), param_dim=p, feature_dim=m,
                                  mode=Mode.GENERALIZED)
            state = init_online(seq, ridge=ridge)
            starts = rng.normal(size=(n, p))
            optima = rng.normal(size=(n, p))
            for x0, x_opt in zip(starts, optima):
                rls_ingest(state, x_opt, x0, smap)
            feats = np.array([np.append(smap.evaluate(x0), 1.0) for x0 in starts])
            batch = solve_stage(optima - starts, feats, with_bias=False, ridge=ridge)
            rel = np.linalg.norm(state.weights[0] - batch.gain, "fro") / np.linalg.norm(
                batch.gain, "fro"
            )
            worst_plain = max(worst_plain, rel)

    # against batch_deviation's exponentially weighted ridge solve, on the same stream
    worst_forget = max(batch_deviation(rng, n, m=4, p=2, forgetting=0.9, ridge=1e-2)
                       for n in (5, 12, 20))

    ok = worst_plain <= 1e-6 and worst_forget <= 1e-8
    assert report(6, "online/batch equivalence", ok,
                  f"(plain {worst_plain:.2e} [<=1e-6]; forgetting {worst_forget:.2e} [<=1e-8])")


def test_criterion_7_stage_loss_monotonicity(
    linear_one_step_runs, analytic_comparisons, pose_protocol
):
    reports = []
    for run in linear_one_step_runs:
        reports.append(("linear-template", run["template"][1].training_report))
        reports.append(("linear-reversed", run["reversed"][1].training_report))
    for name, res in analytic_comparisons[0].items():
        reports.append((f"analytic-{name}", res.sequence.training_report))
    reports.append(("pose-cube", pose_protocol["seq"].training_report))

    ok = True
    worst = -np.inf
    for name, rep in reports:
        diffs = np.diff(rep)
        worst = max(worst, float(diffs.max()) if len(diffs) else -np.inf)
        if np.any(diffs > 1e-9):
            ok = False
    assert report(7, "stage-loss monotonicity", ok,
                  f"({len(reports)} runs; worst increase {worst:.2e} [<=1e-9])")


def test_criterion_8_numerical_hygiene():
    rng = stream(SEED, "acceptance-hygiene")
    worst_jac = 0.0
    maps = []
    for name, fn in registry().items():
        smap = fn.smooth_map()
        lo = min(fn.h_inverse(fn.y_lo), fn.h_inverse(fn.y_hi))
        hi = max(fn.h_inverse(fn.y_lo), fn.h_inverse(fn.y_hi))
        maps.append((name, smap, lambda r, lo=lo, hi=hi: np.array([r.uniform(lo, hi)])))
    for model_name, model in pose.builtin_models().items():
        fmap = pose.projection_feature_map(model)

        def draw(r):
            return np.concatenate(
                [r.uniform(-0.5, 0.5, 3), [0.0, 0.0, 2000.0] + r.uniform(-300, 300, 3)]
            )

        maps.append((f"pose-{model_name}", fmap, draw))

    for name, smap, draw in maps:
        for _ in range(100):
            x = draw(rng)
            Ja = smap.jacobian(x)
            Jf = smap.fd_jacobian(x)
            rel = float(np.abs(Ja - Jf).max() / max(1.0, np.abs(Ja).max()))
            worst_jac = max(worst_jac, rel)
    jac_ok = worst_jac <= 1e-5

    p, m = 3, 5
    A = rng.normal(size=(m, p))
    smap = linear_smooth_map(A)
    zero = DescentStep(gain=np.zeros((p, m)), bias=np.zeros(p))
    seq = DescentSequence(steps=(zero, zero), param_dim=p, feature_dim=m,
                          mode=Mode.GENERALIZED)
    state = init_online(seq, ridge=1e-2)
    worst_asym = 0.0
    for _ in range(1000):
        rls_ingest(state, rng.normal(size=p), rng.normal(size=p), smap)
        for S in state.inv_cov:
            worst_asym = max(worst_asym, float(np.abs(S - S.T).max()))
    sym_ok = worst_asym <= 1e-9

    ok = jac_ok and sym_ok
    assert report(8, "numerical hygiene", ok,
                  f"(jacobian {worst_jac:.2e} [<=1e-5]; inv-cov asymmetry "
                  f"{worst_asym:.2e} [<=1e-9] over 1000 ingests)")


def test_criterion_9_cli_determinism(tmp_path):
    cases = [
        ("analytic", ["analytic", "--function", "linear", "--seed", "7"]),
        ("verify", ["verify", "--seed", "7", "--grid", "301"]),
        ("pose", [
            "pose", "--seed", "7",
            "--train-rot-step", "15", "--train-trans-step", "400",
            "--test-rot-step", "11", "--test-trans-step", "270",
            "--subsample", "25",
        ]),
    ]
    ok = True
    checked = 0
    for name, argv in cases:
        payloads = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            code = main(argv + ["--output-dir", str(out)])
            ok &= code == 0
            found = {}
            for f in sorted(out.glob("*.csv")):
                if "timings" in f.name:
                    continue  # wall-clock sidecar, deliberately not reproducible
                found[f.name] = f.read_bytes()
            payloads.append(found)
        ok &= payloads[0].keys() == payloads[1].keys()
        for key in payloads[0]:
            checked += 1
            ok &= payloads[0][key] == payloads[1][key]
    assert report(9, "CLI determinism", ok, f"({checked} CSV payloads byte-compared)")
