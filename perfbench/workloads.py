"""The three benchmark workloads: inputs from a seed, timed rounds, checks.

Every workload is a closed loop with one caller: each call into the
package returns before the next one starts. A round is one fixed unit of
work; `run.py` repeats rounds until the run's time is used up. Per-call
latencies are kept in windows (one pass over a workload's inputs). A tail
percentile is reported as the median over windows of each window's
percentile, so one burst of outside interference moves one window, not
the result. Central values are means, not medians: on a shared 2-vCPU host
the per-call latency is bimodal (two host speeds for the same call), and
the median of a mix of two modes jumps between them from run to run while
the mean moves with the mix.

Calls go through module attributes (``pose.estimate_pose``, not a name
imported once) so that the traced run sees them. Checks that call into
the package are deferred until tracing has stopped, so they add nothing
to the per-layer numbers.
"""
from __future__ import annotations

import csv
import io
import math
import shutil
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# End-to-end metrics, the same for every workload: name -> unit.
# `wall_s` is the mean duration of one round, `call_ms.mean` the mean
# latency of one call in the workload's request loop (the ``call_ms``
# series: one `estimate_pose`, one CLI command, one `rls_ingest`).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "call_ms.mean": "ms",
}

# Figures of one workload only: name -> unit. For a per-call series,
# ``.mean`` is the mean over every call and ``.p<q>`` the median over
# windows of each window's q-th percentile; any other value is the mean
# over the run's rounds. An untraced run lists them beside its end-to-end
# metrics; a traced run reports them as per-layer metrics, 0 on the
# workloads they do not belong to.
DETAIL = {
    "train_s": "s",
    "estimate_ms.mean": "ms",
    "estimate_ms.p99": "ms",
    "gn_ms.mean": "ms",
    "gn_ms.p99": "ms",
    "rot_err_deg": "deg",
    "trans_err_mm": "mm",
    "analytic_s": "s",
    "ingest_m200_ms.mean": "ms",
    "ingest_m200_ms.p99": "ms",
    "ingest_m800_ms.mean": "ms",
    "ingest_m800_ms.p95": "ms",
    "serve_m200_ms.mean": "ms",
}

# Pose protocol of acceptance criterion 5.
POSE_STAGES = 4
POSE_NOISE = 4.0
POSE_TRAIN_COUNT = 42_875
POSE_TEST_COUNT = 2_000
POSE_GN_ITERS = 25

# Dense online refresh: landmarks (m = 2 x landmarks) and events per size.
ONLINE_SIZES = ((100, 1_000), (400, 200))
ONLINE_STAGES = 4
ONLINE_RIDGE = 1e-3
ONLINE_BATCH_TOL = 1e-6
ONLINE_SYMMETRY_TOL = 1e-9
WARM_UP_EVENTS = 20
BASE_POSE = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 2000.0])


@dataclass
class Round:
    """Outcome of one round: counts, per-round scalars, per-call samples."""

    attempted: int = 0
    failed: int = 0
    scalars: dict[str, float] = field(default_factory=dict)
    # per-call series -> windows of samples, each long enough for its percentiles
    samples: dict[str, list[list[float]]] = field(default_factory=dict)
    checks: dict[str, dict] = field(default_factory=dict)
    # per-layer metrics measured outside any span (traced run only)
    extra: dict[str, float] = field(default_factory=dict)
    # checks that call into the package; run once tracing has stopped
    deferred: list = field(default_factory=list)

    def check(self, name: str, ok: bool, value=None) -> None:
        """Record a named check; a failed one counts as a failed operation."""
        self.checks[name] = {"ok": bool(ok), "value": value}
        self.attempted += 1
        self.failed += not ok

    def run_deferred(self) -> None:
        while self.deferred:
            self.deferred.pop(0)()


class Workload:
    """Shared lifetime: a private work directory inside the checkout."""

    name = ""
    details: tuple[str, ...] = ()
    # rounds a run makes even when they outlast its time
    min_rounds = 1

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        base = root / ".perfbench" / "tmp"
        base.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=base))

    def warm_up(self) -> None:
        """Untimed work before the first round, for costs paid once per process."""

    def run_round(self, traced: bool = False) -> Round:
        """One fixed unit of timed work; `traced` adds measurements that
        only the traced run reports."""
        raise NotImplementedError

    def final_checks(self, out: Round) -> None:
        """Checks made once per run, after every round."""

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ------------------------------------------------------------------ pose-cube


def pose_streams(seed: int) -> dict:
    """The named random streams of the acceptance fixture."""
    from sdm.seeds import stream

    return {
        "train": stream(seed, "pose-train-noise-cube"),
        "subsample": stream(seed, "pose-subsample-cube"),
        "test": stream(seed, "pose-test-noise-cube"),
    }


class PoseCube(Workload):
    """Criterion-5 pose protocol, then per-call estimate and Gauss-Newton."""

    name = "pose-cube"
    details = ("train_s", "estimate_ms.mean", "estimate_ms.p99", "gn_ms.mean", "gn_ms.p99",
               "rot_err_deg", "trans_err_mm")
    # Host speed drifts over tens of seconds; two rounds sample two stretches
    # of it instead of one.
    min_rounds = 2

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        from sdm import pose

        self.cube = pose.builtin_models()["cube"]
        self.cam = pose.DEFAULT_CAMERA
        self.base = pose.DEFAULT_BASE_POSE

    def run_round(self, traced: bool = False) -> Round:
        from sdm import baselines, model_io, pose
        from sdm.core import NlsProblem
        from sdm.trainer import TrainerConfig

        out = Round()
        rngs = pose_streams(self.seed)
        t0 = time.perf_counter()
        seq = pose.train_pose_sdm(
            self.cube, self.cam, pose.pose_grid_spec(), base_pose=self.base,
            noise_variance=POSE_NOISE, config=TrainerConfig(stages=POSE_STAGES),
            rng=rngs["train"],
        )
        t_train = time.perf_counter()
        test = pose.grid_poses(pose.pose_grid_spec(30.0, 7.0, 400.0, 170.0), self.base)
        subset = pose.subsample_poses(test, POSE_TEST_COUNT, rngs["subsample"])
        del test
        records = pose.evaluate_test_poses(
            seq, self.cube, self.cam, subset, base_pose=self.base,
            noise_variance=POSE_NOISE, rng=rngs["test"], with_gauss_newton=True,
        )
        path = self.work / "model.sdm"
        model_io.save_sequence(seq, path)
        loaded = model_io.load_sequence(path)

        # Latency phase, on the evaluation's own noisy observations: one
        # estimate and one Gauss-Newton solve per test pose.
        obs_rng = pose_streams(self.seed)["test"]
        fmap = pose.projection_feature_map(self.cube)
        observed = [
            pose.observe(p, self.cube, self.cam, rng=obs_rng, noise_variance=POSE_NOISE)
            for p in subset
        ]
        problems = [NlsProblem(map=fmap, target=o.feature()) for o in observed]
        est_ms, gn_ms, estimates, gn_runs = [], [], [], []
        for truth, obs, problem in zip(subset, observed, problems):
            a = time.perf_counter()
            est, _ = pose.estimate_pose(loaded, obs, self.cube, self.cam, self.base)
            b = time.perf_counter()
            run = baselines.gauss_newton_minimize(problem, truth.vector(),
                                                  max_iters=POSE_GN_ITERS)
            c = time.perf_counter()
            est_ms.append((b - a) * 1e3)
            gn_ms.append((c - b) * 1e3)
            estimates.append(est)
            gn_runs.append(run)
        t_end = time.perf_counter()

        out.scalars["wall_s"] = t_end - t0
        out.scalars["train_s"] = t_train - t0
        # one window per round
        out.samples["estimate_ms"] = [est_ms]
        out.samples["call_ms"] = [est_ms]
        out.samples["gn_ms"] = [gn_ms]
        out.scalars["rot_err_deg"] = float(np.mean([r.rot_err_deg for r in records]))
        out.scalars["trans_err_mm"] = float(np.mean([r.trans_err_mm for r in records]))
        # train, test grid, evaluation, save + load, then one estimate and one GN
        # per pose
        out.attempted += 4 + 2 * len(subset)

        def check():
            out.check("test_records", len(records) == POSE_TEST_COUNT, len(records))
            for r, est, run in zip(records, estimates, gn_runs):
                gn_err = pose.pose_error(pose.Pose.from_vector(run.final), r.truth)
                errors = (r.rot_err_deg, r.trans_err_mm, r.gn_rot_err_deg, r.gn_trans_err_mm)
                ok = (
                    None not in errors
                    and all(math.isfinite(v) for v in errors)
                    # the latency phase recomputes what the evaluation recorded
                    and np.allclose(est.vector(), r.estimate.vector(), rtol=0, atol=1e-9)
                    and np.allclose(gn_err, errors[2:], rtol=0, atol=1e-9)
                )
                out.attempted += 1
                out.failed += not ok
            again = self.work / "again.sdm"
            model_io.save_sequence(loaded, again)
            same = (
                path.read_bytes() == again.read_bytes()
                and len(loaded) == len(seq)
                and all(np.array_equal(a.gain, b.gain) and np.array_equal(a.bias, b.bias)
                        for a, b in zip(seq.steps, loaded.steps))
            )
            out.check("model_roundtrip_exact", same, path.stat().st_size)

        out.deferred.append(check)
        return out

    def final_checks(self, out: Round) -> None:
        from sdm import pose

        n_train = len(pose.grid_poses(pose.pose_grid_spec(), self.base))
        out.check("train_poses", n_train == POSE_TRAIN_COUNT, n_train)


# ------------------------------------------------------------ verify-analytic


def read_certificates(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


class VerifyAnalytic(Workload):
    """``sdm-bench verify`` and ``sdm-bench analytic --function all``."""

    name = "verify-analytic"
    details = ("analytic_s",)
    analytic_files = ("analytic_linear.csv", "analytic_cube.csv",
                      "analytic_exp.csv", "analytic_erf.csv")

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        import sdm.cli  # noqa: F401  (its import is part of set-up)

    def run_round(self, traced: bool = False) -> Round:
        from sdm import cli

        out = Round()
        console = io.StringIO()
        with redirect_stdout(console):
            t0 = time.perf_counter()
            code_verify = cli.main(["verify", "--seed", str(self.seed),
                                    "--output-dir", str(self.work)])
            t1 = time.perf_counter()
            code_analytic = cli.main(["analytic", "--function", "all",
                                      "--output-dir", str(self.work)])
            t2 = time.perf_counter()
        out.scalars["wall_s"] = t2 - t0
        out.scalars["analytic_s"] = t2 - t1
        out.samples["call_ms"] = [[(t1 - t0) * 1e3, (t2 - t1) * 1e3]]
        out.check("verify_exit_0", code_verify == 0, code_verify)
        out.check("analytic_exit_0", code_analytic == 0, code_analytic)
        rows = read_certificates(self.work / "certificates.csv")
        out.check("certificate_rows", len(rows) > 0, len(rows))
        invalid = [row["map"] for row in rows if row["valid"] != "True"]
        out.attempted += len(rows)
        out.failed += len(invalid)
        out.checks["invalid_certificates"] = {"ok": not invalid, "value": invalid}
        missing = [f for f in self.analytic_files if not (self.work / f).is_file()]
        out.check("analytic_csvs", not missing, missing)
        return out


# --------------------------------------------------------------- online-dense


def online_inputs(seed: int, landmarks: int, events: int) -> dict[str, np.ndarray]:
    """Synthetic object and (start, optimum, query) poses for one size.

    Poses lie within 0.2 rad and 150 mm of a base 2 m in front of the
    camera, so every landmark keeps positive depth.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, landmarks, events]))
    points = rng.uniform(-100.0, 100.0, size=(3, landmarks))
    spread = np.array([0.2, 0.2, 0.2, 150.0, 150.0, 150.0])

    def poses():
        return BASE_POSE + rng.uniform(-1.0, 1.0, size=(events, 6)) * spread

    return {"points": points, "starts": poses(), "optima": poses(), "queries": poses()}


def zero_online_state(param_dim: int, feature_dim: int):
    """RLS state over a zero cascade, as `init_online` builds it from a ridge."""
    from sdm import online
    from sdm.core import DescentSequence, DescentStep, Mode

    zero = DescentStep(gain=np.zeros((param_dim, feature_dim)), bias=np.zeros(param_dim))
    seq = DescentSequence(steps=(zero,) * ONLINE_STAGES, param_dim=param_dim,
                          feature_dim=feature_dim, mode=Mode.GENERALIZED)
    return online.init_online(seq, ridge=ONLINE_RIDGE)


def kernel_ms(S: np.ndarray, repeats: int = 25) -> dict[str, float]:
    """Median ms of the O(m^2) kernel shapes of one RLS stage update.

    `matvec` is ``S @ phi``, `vecmat` is ``phi @ S`` and `downdate` the
    symmetrized rank-one downdate. All run on the given matrix under this
    process's BLAS threading, outside any package call.
    """
    phi = np.random.default_rng(0).uniform(-1.0, 1.0, S.shape[0])
    times = {"matvec": [], "vecmat": [], "downdate": []}
    for _ in range(repeats):
        a = time.perf_counter()
        Sphi = S @ phi
        b = time.perf_counter()
        phi @ S
        c = time.perf_counter()
        S_new = S - np.outer(Sphi, Sphi) / (1.0 + float(phi @ Sphi))
        S_new = (S_new + S_new.T) / 2.0
        d = time.perf_counter()
        times["matvec"].append((b - a) * 1e3)
        times["vecmat"].append((c - b) * 1e3)
        times["downdate"].append((d - c) * 1e3)
    return {kernel: float(np.median(t)) for kernel, t in times.items()}


class OnlineDense(Workload):
    """RLS ingest then serve, at m=200 and m=800 features."""

    name = "online-dense"
    details = ("ingest_m200_ms.mean", "ingest_m200_ms.p99", "ingest_m800_ms.mean",
               "ingest_m800_ms.p95", "serve_m200_ms.mean")

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        from sdm import pose

        self.cases = []
        for landmarks, events in ONLINE_SIZES:
            data = online_inputs(seed, landmarks, events)
            model = pose.ObjectModel(points=data["points"], name=f"synthetic-{landmarks}")
            self.cases.append((data, pose.projection_feature_map(model)))
        # the first round's states are built here, as part of set-up
        self.fresh = [zero_online_state(6, fmap.feature_dim) for _, fmap in self.cases]

    def warm_up(self) -> None:
        """Ingest a few events into throw-away states.

        The first ingests of a process run slower while the allocator
        settles on reusing the large matrix buffers; a long-lived service
        pays that once.
        """
        from sdm import online

        for data, fmap in self.cases:
            state = zero_online_state(6, fmap.feature_dim)
            for x0, x_opt in zip(data["starts"][:WARM_UP_EVENTS],
                                 data["optima"][:WARM_UP_EVENTS]):
                online.rls_ingest(state, x_opt, x0, fmap)

    def run_round(self, traced: bool = False) -> Round:
        from sdm import core, online

        out = Round()
        states = self.fresh or [zero_online_state(6, fmap.feature_dim) for _, fmap in self.cases]
        self.fresh = []
        # Events of both sizes interleave evenly, so each size's samples
        # span the whole round rather than one stretch of it.
        schedule = sorted(((i + 0.5) / len(data["starts"]), c, i)
                          for c, (data, _) in enumerate(self.cases)
                          for i in range(len(data["starts"])))
        ingest = [[] for _ in self.cases]
        serve = [[] for _ in self.cases]
        calls = []
        t0 = time.perf_counter()
        for _, c, i in schedule:
            (data, fmap), state = self.cases[c], states[c]
            a = time.perf_counter()
            online.rls_ingest(state, data["optima"][i], data["starts"][i], fmap)
            b = time.perf_counter()
            served = core.apply_sequence(state.to_sequence(), data["queries"][i], fmap)
            d = time.perf_counter()
            ingest[c].append((b - a) * 1e3)
            serve[c].append((d - b) * 1e3)
            calls.append((b - a) * 1e3)
            out.attempted += 2
            out.failed += not np.all(np.isfinite(served[-1]))
        wall = time.perf_counter() - t0
        for (data, fmap), state, ing, srv in zip(self.cases, states, ingest, serve):
            m = fmap.feature_dim
            out.samples[f"ingest_m{m}_ms"] = [ing]
            out.samples[f"serve_m{m}_ms"] = [srv]
            if traced:
                for kernel, value in kernel_ms(state.inv_cov[0]).items():
                    out.extra[f"online.kernel.{kernel}.m{m}.ms"] = value
            out.deferred.append(lambda s=state, d=data, f=fmap: self._check(out, s, d, f))
        out.samples["call_ms"] = [calls]
        out.scalars["wall_s"] = wall
        return out

    @staticmethod
    def _check(out: Round, state, data, fmap) -> None:
        from sdm.trainer import solve_stage

        m = fmap.feature_dim
        feats = np.array([np.append(fmap.evaluate(x0), 1.0) for x0 in data["starts"]])
        batch = solve_stage(data["optima"] - data["starts"], feats, ridge=ONLINE_RIDGE).gain
        rel = float(np.linalg.norm(state.weights[0] - batch) / np.linalg.norm(batch))
        out.check(f"stage0_matches_batch_m{m}", rel <= ONLINE_BATCH_TOL, rel)
        asym = max(float(np.max(np.abs(S - S.T))) for S in state.inv_cov)
        out.check(f"inv_cov_symmetric_m{m}", asym <= ONLINE_SYMMETRY_TOL, asym)


WORKLOADS = {w.name: w for w in (PoseCube, VerifyAnalytic, OnlineDense)}
