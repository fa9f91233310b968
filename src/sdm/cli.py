"""Benchmark harness CLI.

Subcommands drive the analytic-function comparison, the synthetic pose
experiment, the contraction-certificate suite, the online/batch
equivalence demo, and model train/apply round-trips. All randomness
flows from a single --seed through named streams, and every output CSV
is byte-identical across reruns with the same configuration; wall-clock
numbers go to sidecar files only.

Exit codes: 0 success, 1 a checked property failed, 2 bad configuration.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from . import analytic, model_io, pose
from .core import DescentSequence, DescentStep, Mode, SmoothMap, apply_sequence
from .errors import ConfigError, DegenerateNeighborhoodError, SdmError
from .online import init_online, rls_ingest
from .seeds import stream
from .theory import (
    Neighborhood,
    anchored_sample,
    contraction_certify,
    frobenius_dm_bound,
    generic_dm_1d,
    lipschitz_anchored,
    monotone_1d_registry,
    random_operator_suite,
)
from .trainer import TrainerConfig, solve_stage, train


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows, comments=()):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        for line in comments:
            f.write(f"# {line}\n")
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _read_config_file(path) -> dict:
    out = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _to_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


class Settings:
    """Flag values merged over config-file values over defaults."""

    def __init__(self, args: argparse.Namespace, schema: dict):
        file_cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}
        for key, (default, conv) in schema.items():
            value = getattr(args, key, None)
            if value is None and key in file_cfg:
                raw = file_cfg[key]
                value = _to_bool(raw) if conv is bool else conv(raw)
            if value is None:
                value = default
            setattr(self, key, value)


_COMMON = {
    "seed": (42, int),
    "output_dir": ("out", str),
}


def _out_path(cfg, name: str) -> Path:
    return Path(cfg.output_dir) / name


def _check_ranges(cfg, positive=(), non_negative=()) -> None:
    """Refuse settings out of range: each `positive` key must be > 0 and
    each `non_negative` key >= 0 (NaN fails both); unset keys pass."""
    for key in (*positive, *non_negative):
        value = getattr(cfg, key)
        if value is None:
            continue
        strict = key in positive
        if not (value > 0 if strict else value >= 0):
            rule = "> 0" if strict else ">= 0"
            raise ConfigError(f"{key.replace('_', '-')} must be {rule}, got {value}")


def cmd_analytic(args) -> int:
    cfg = Settings(args, {**_COMMON, "function": ("all", str), "stages": (10, int)})
    _check_ranges(cfg, positive=("stages",))
    names = list(analytic.registry()) if cfg.function == "all" else [cfg.function]
    reg = analytic.registry()
    unknown = [n for n in names if n not in reg]
    if unknown:
        raise ConfigError(f"unknown function(s) {unknown}; choose from {sorted(reg)}")

    failures = []
    for name in names:
        fn = reg[name]
        result = analytic.run_comparison(fn, stages=cfg.stages)
        comments = [result.constants_header]
        if name == "linear":
            comments.append("linear control slot: isolates one-step cascade behavior")
        write_csv(
            _out_path(cfg, f"analytic_{name}.csv"),
            ("method", "iteration", "mean_normalized_residual", "num_test_points"),
            result.rows(),
            comments=comments,
        )
        for violation in analytic.check_registry_invariants(fn, result):
            failures.append(f"{name}: {violation}")
        print(
            f"{name:8s} sdm_final={result.sdm_final_mean:10.3e} "
            f"newton_final={result.newton_final_mean:10.3e} "
            f"newton_statuses={sorted(set(result.newton_statuses))}"
        )
    if failures:
        for item in failures:
            print(f"FAILED {item}")
        return 1
    return 0


_POSE_SCHEMA = {
    **_COMMON,
    "model": ("cube", str),
    "stages": (4, int),
    "ridge": (None, float),
    "noise": (4.0, float),
    "subsample": (2000, int),
    "train_rot_step": (10.0, float),
    "train_trans_step": (200.0, float),
    "test_rot_step": (7.0, float),
    "test_trans_step": (170.0, float),
    "train_noise": (True, bool),
    "test_noise": (True, bool),
    "gauss_newton": (True, bool),
}


def run_pose_experiment(cfg, model_name: str):
    """Train, evaluate, and summarize one object; returns (records, seq)."""
    models = pose.builtin_models()
    if model_name not in models:
        raise ConfigError(f"unknown model {model_name!r}; choose from {sorted(models)}")
    model = models[model_name]
    cam = pose.DEFAULT_CAMERA
    base = pose.DEFAULT_BASE_POSE

    grid = pose.pose_grid_spec(rot_step_deg=cfg.train_rot_step, trans_step_mm=cfg.train_trans_step)
    seq = pose.train_pose_sdm(
        model,
        cam,
        grid,
        base_pose=base,
        noise_variance=cfg.noise if cfg.train_noise else 0.0,
        config=TrainerConfig(stages=cfg.stages, ridge=cfg.ridge),
        rng=stream(cfg.seed, f"pose-train-noise-{model_name}"),
    )
    test_grid = pose.pose_grid_spec(rot_step_deg=cfg.test_rot_step, trans_step_mm=cfg.test_trans_step)
    test_poses = pose.grid_poses(test_grid, base)
    test_poses = pose.subsample_poses(
        test_poses, cfg.subsample, stream(cfg.seed, f"pose-subsample-{model_name}")
    )
    records = pose.evaluate_test_poses(
        seq,
        model,
        cam,
        test_poses,
        base_pose=base,
        noise_variance=cfg.noise if cfg.test_noise else 0.0,
        rng=stream(cfg.seed, f"pose-test-noise-{model_name}"),
        with_gauss_newton=cfg.gauss_newton,
    )
    return records, seq


def _pose_rows(records):
    for r in records:
        yield (
            r.model,
            *r.truth.euler,
            *r.truth.translation,
            *r.estimate.euler,
            *r.estimate.translation,
            r.rot_err_deg,
            r.trans_err_mm,
            "" if r.gn_rot_err_deg is None else r.gn_rot_err_deg,
            "" if r.gn_trans_err_mm is None else r.gn_trans_err_mm,
        )


_POSE_HEADER = (
    "model",
    "truth_yaw", "truth_pitch", "truth_roll", "truth_tx", "truth_ty", "truth_tz",
    "est_yaw", "est_pitch", "est_roll", "est_tx", "est_ty", "est_tz",
    "rot_err_deg", "trans_err_mm", "gn_rot_err_deg", "gn_trans_err_mm",
)


def cmd_pose(args) -> int:
    cfg = Settings(args, _POSE_SCHEMA)
    _check_ranges(
        cfg,
        positive=("stages", "train_rot_step", "train_trans_step", "test_rot_step",
                  "test_trans_step"),
        non_negative=("ridge", "noise", "subsample"),
    )
    names = ["cube", "body", "face"] if cfg.model == "all" else [cfg.model]
    print(f"{'model':8s} {'rot_err_deg':>22s} {'trans_err_mm':>22s} {'est_ms':>8s}")
    for name in names:
        records, seq = run_pose_experiment(cfg, name)
        write_csv(_out_path(cfg, f"pose_results_{name}.csv"), _POSE_HEADER, _pose_rows(records))
        # timings are wall-clock and deliberately kept out of the results file
        write_csv(
            _out_path(cfg, f"pose_timings_{name}.csv"),
            ("index", "wall_ms"),
            [(i, r.wall_ms) for i, r in enumerate(records)],
        )
        rot = np.array([r.rot_err_deg for r in records])
        tr = np.array([r.trans_err_mm for r in records])
        ms = np.array([r.wall_ms for r in records])
        print(
            f"{name:8s} {rot.mean():10.3f} +- {rot.std():7.3f} "
            f"{tr.mean():11.3f} +- {tr.std():7.3f} {ms.mean():8.3f}"
        )
        if cfg.gauss_newton:
            gn_rot = np.array([r.gn_rot_err_deg for r in records])
            gn_tr = np.array([r.gn_trans_err_mm for r in records])
            print(
                f"{name + '/gn':8s} {gn_rot.mean():10.3f} +- {gn_rot.std():7.3f} "
                f"{gn_tr.mean():11.3f} +- {gn_tr.std():7.3f} {'':8s}"
            )
    return 0


def cmd_verify(args) -> int:
    cfg = Settings(
        args,
        {
            **_COMMON,
            "epsilon": (None, float),
            "radius": (None, float),
            "grid": (1001, int),
        },
    )
    _check_ranges(cfg, positive=("epsilon", "radius"))
    if cfg.grid < 3:
        raise ConfigError(f"grid must be >= 3, got {cfg.grid}")
    all_valid = True
    rows = []
    print(f"{'map':12s} {'K':>10s} {'gain':>10s} {'factor':>10s}  valid")
    for name, smap, nbhd in monotone_1d_registry(grid_per_dim=cfg.grid):
        try:
            if cfg.radius is not None:
                nbhd = Neighborhood(nbhd.anchor, cfg.radius, cfg.grid)
            sample = anchored_sample(smap, nbhd)
        except DegenerateNeighborhoodError as exc:
            raise ConfigError(str(exc)) from exc
        K = lipschitz_anchored(sample)
        if cfg.epsilon is not None and not cfg.epsilon < 2.0 / K:
            raise ConfigError(
                f"epsilon must be below 2/K = {2.0 / K:.6g} for map {name}, got {cfg.epsilon}"
            )
        r = generic_dm_1d(sample, epsilon=cfg.epsilon)
        cert = contraction_certify(sample, DescentStep.from_gain([[r]]))
        all_valid &= cert.valid
        rows.append((name, K, r, cert.contraction_factor, cert.samples_checked, cert.valid))
        print(f"{name:12s} {K:10.5f} {r:10.5f} {cert.contraction_factor:10.6f}  {cert.valid}")
    for name, sample, gain in random_operator_suite(seed=cfg.seed):
        bound, ok = frobenius_dm_bound(sample, gain)
        cert = contraction_certify(sample, DescentStep.from_gain(gain))
        if ok:
            all_valid &= cert.valid
        fro = float(np.linalg.norm(gain, ord="fro"))
        rows.append((name, bound, fro, cert.contraction_factor, cert.samples_checked, cert.valid))
        print(
            f"{name:12s} {bound:10.5f} {fro:10.5f} {cert.contraction_factor:10.6f}  {cert.valid}"
        )
    write_csv(
        _out_path(cfg, "certificates.csv"),
        ("map", "bound_or_K", "gain_norm", "contraction_factor", "samples", "valid"),
        rows,
    )
    return 0 if all_valid else 1


def _online_case(rng, n: int, m: int, p: int, lam: float, ridge: float):
    """One single-stage equivalence check; returns relative deviation."""
    A = rng.normal(size=(m, p))
    smap = SmoothMap(p, m, lambda x, A=A: A @ x, name="demo-linear")
    zero = DescentStep(gain=np.zeros((p, m)), bias=np.zeros(p))
    seq_stub = DescentSequence(steps=(zero,), param_dim=p, feature_dim=m, mode=Mode.GENERALIZED)
    state = init_online(seq_stub, ridge=ridge, forgetting=lam)
    starts = rng.normal(size=(n, p))
    optima = rng.normal(size=(n, p))
    for x0, x_opt in zip(starts, optima):
        rls_ingest(state, x_opt, x0, smap)
    W_online = state.weights[0]

    feats = np.array([np.append(smap.evaluate(x0), 1.0) for x0 in starts])
    resid = optima - starts
    if lam == 1.0:
        # matching batch problem: ridge over all augmented coefficients
        batch = solve_stage(resid, feats, with_bias=False, ridge=ridge)
        W_batch = batch.gain  # regression coefficients in the additive convention
    else:
        weights = lam ** np.arange(n - 1, -1, -1)
        gram = feats.T @ (weights[:, None] * feats) + (lam**n) * ridge * np.eye(m + 1)
        rhs = feats.T @ (weights[:, None] * resid)
        W_batch = np.linalg.solve(gram, rhs).T
    return float(
        np.linalg.norm(W_online - W_batch, "fro") / np.linalg.norm(W_batch, "fro")
    )


def cmd_online_demo(args) -> int:
    cfg = Settings(args, {**_COMMON, "forgetting": (1.0, float), "ridge": (1e-3, float)})
    if not 0 < cfg.forgetting <= 1:
        raise ConfigError(f"forgetting factor must lie in (0, 1], got {cfg.forgetting}")
    rng = stream(cfg.seed, "online-demo")
    sizes = (10, 50, 200) if cfg.forgetting == 1.0 else (5, 10, 20)
    tol = 1e-6 if cfg.forgetting == 1.0 else 1e-8
    worst = 0.0
    for n in sizes:
        dev = _online_case(rng, n=n, m=6, p=3, lam=cfg.forgetting, ridge=cfg.ridge)
        worst = max(worst, dev)
        print(f"n={n:4d}  relative deviation from batch solve: {dev:.3e}")
    print(f"max deviation {worst:.3e} (tolerance {tol:.0e})")
    return 0 if worst <= tol else 1


_TRAIN_SCHEMA = {
    **_COMMON,
    "problem": ("pose", str),
    "model": ("cube", str),
    "function": ("cube", str),
    "stages": (None, int),
    "ridge": (None, float),
    "noise": (4.0, float),
    "train_rot_step": (10.0, float),
    "train_trans_step": (200.0, float),
    "out": (None, str),
}


def cmd_train(args) -> int:
    cfg = Settings(args, _TRAIN_SCHEMA)
    if cfg.out is None:
        raise ConfigError("train requires --out <model-file>")
    _check_ranges(cfg, positive=("stages", "train_rot_step", "train_trans_step"),
                  non_negative=("ridge", "noise"))
    if cfg.problem == "pose":
        stages = 4 if cfg.stages is None else cfg.stages
        models = pose.builtin_models()
        if cfg.model not in models:
            raise ConfigError(f"unknown model {cfg.model!r}")
        seq = pose.train_pose_sdm(
            models[cfg.model],
            pose.DEFAULT_CAMERA,
            pose.pose_grid_spec(rot_step_deg=cfg.train_rot_step,
                                trans_step_mm=cfg.train_trans_step),
            noise_variance=cfg.noise,
            config=TrainerConfig(stages=stages, ridge=cfg.ridge),
            rng=stream(cfg.seed, f"pose-train-noise-{cfg.model}"),
        )
    elif cfg.problem == "analytic":
        stages = 10 if cfg.stages is None else cfg.stages
        reg = analytic.registry()
        if cfg.function not in reg:
            raise ConfigError(f"unknown function {cfg.function!r}")
        seq = train(
            analytic.build_training_set(reg[cfg.function]),
            TrainerConfig(stages=stages, ridge=0.0 if cfg.ridge is None else cfg.ridge),
        )
    else:
        raise ConfigError(f"unknown problem {cfg.problem!r}; use pose or analytic")
    Path(cfg.out).parent.mkdir(parents=True, exist_ok=True)
    model_io.save_sequence(seq, cfg.out)
    print(f"wrote {cfg.out}: {len(seq)} stages, p={seq.param_dim}, m={seq.feature_dim}")
    return 0


_APPLY_SCHEMA = {
    **_COMMON,
    "problem": ("pose", str),
    "model": ("cube", str),
    "function": ("cube", str),
    "model_file": (None, str),
    "inputs": (None, str),
    "out": (None, str),
}


def _read_csv_rows(path):
    with open(path) as f:
        rows = [row for row in csv.reader(f) if row and not row[0].startswith("#")]
    return rows[0], rows[1:]


def cmd_apply(args) -> int:
    cfg = Settings(args, _APPLY_SCHEMA)
    for key in ("model_file", "inputs", "out"):
        if getattr(cfg, key) is None:
            raise ConfigError(f"apply requires --{key.replace('_', '-')}")
    seq = model_io.load_sequence(cfg.model_file)
    _, rows = _read_csv_rows(cfg.inputs)
    out_rows = []
    if cfg.problem == "pose":
        models = pose.builtin_models()
        if cfg.model not in models:
            raise ConfigError(f"unknown model {cfg.model!r}")
        model = models[cfg.model]
        cam = pose.DEFAULT_CAMERA
        if seq.feature_dim != 2 * model.n_points:
            raise ConfigError(
                f"model file expects {seq.feature_dim} features, object gives "
                f"{2 * model.n_points}"
            )
        for row in rows:
            px = np.array([float(v) for v in row], dtype=float).reshape(-1, 2).T
            proj = pose.Projection(points2d=px, normalized=pose.normalize_pixels(px, cam))
            est, _ = pose.estimate_pose(seq, proj, model, cam)
            out_rows.append((*est.euler, *est.translation))
        header = ("yaw", "pitch", "roll", "tx", "ty", "tz")
    elif cfg.problem == "analytic":
        reg = analytic.registry()
        if cfg.function not in reg:
            raise ConfigError(f"unknown function {cfg.function!r}")
        fn = reg[cfg.function]
        smap = fn.smooth_map()
        for row in rows:
            y = float(row[0])
            traj = apply_sequence(seq, np.array([fn.x0]), smap, y=np.array([y]))
            out_rows.append((y, float(traj[-1][0])))
        header = ("target", "estimate")
    else:
        raise ConfigError(f"unknown problem {cfg.problem!r}; use pose or analytic")
    write_csv(cfg.out, header, out_rows)
    print(f"wrote {cfg.out}: {len(out_rows)} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdm-bench",
        description="Benchmarks for learned descent maps on nonlinear least squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int)
        p.add_argument("--output-dir", dest="output_dir")
        p.add_argument("--config", help="flat 'key = value' config file; flags win")

    p = sub.add_parser("analytic", help="scalar-function convergence comparison")
    common(p)
    p.add_argument("--function", help="registry name or 'all'")
    p.add_argument("--stages", type=int)
    p.set_defaults(handler=cmd_analytic)

    p = sub.add_parser("pose", help="synthetic pose-estimation experiment")
    common(p)
    p.add_argument("--model", help="cube, body, face, or 'all'")
    p.add_argument("--stages", type=int)
    p.add_argument("--ridge", type=float)
    p.add_argument("--noise", type=float, help="pixel noise variance")
    p.add_argument("--subsample", type=int, help="test poses to draw; 0 = full grid")
    p.add_argument("--train-rot-step", dest="train_rot_step", type=float)
    p.add_argument("--train-trans-step", dest="train_trans_step", type=float)
    p.add_argument("--test-rot-step", dest="test_rot_step", type=float)
    p.add_argument("--test-trans-step", dest="test_trans_step", type=float)
    p.add_argument("--no-train-noise", dest="train_noise", action="store_false", default=None)
    p.add_argument("--no-test-noise", dest="test_noise", action="store_false", default=None)
    p.add_argument("--no-gauss-newton", dest="gauss_newton", action="store_false", default=None)
    p.set_defaults(handler=cmd_pose)

    p = sub.add_parser("verify", help="contraction certificate suite")
    common(p)
    p.add_argument("--epsilon", type=float, help="gain margin below 2/K (absolute)")
    p.add_argument("--radius", type=float, help="override registry neighborhood radii")
    p.add_argument("--grid", type=int, help="grid points per dimension")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("online-demo", help="recursive vs batch least-squares equivalence")
    common(p)
    p.add_argument("--forgetting", type=float, help="exponential discount in (0, 1]")
    p.add_argument("--ridge", type=float)
    p.set_defaults(handler=cmd_online_demo)

    p = sub.add_parser("train", help="train a model and save it")
    common(p)
    p.add_argument("--problem", choices=("pose", "analytic"))
    p.add_argument("--model")
    p.add_argument("--function")
    p.add_argument("--stages", type=int)
    p.add_argument("--ridge", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--train-rot-step", dest="train_rot_step", type=float)
    p.add_argument("--train-trans-step", dest="train_trans_step", type=float)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("apply", help="apply a saved model to inputs from a CSV")
    common(p)
    p.add_argument("--problem", choices=("pose", "analytic"))
    p.add_argument("--model")
    p.add_argument("--function")
    p.add_argument("--model-file", dest="model_file")
    p.add_argument("--inputs")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_apply)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SdmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    # wall time goes to a sidecar log so the data files stay reproducible
    out_dir = Path(getattr(args, "output_dir", None) or "out")
    if out_dir.exists():
        with open(out_dir / "run.log", "a") as f:
            f.write(f"{args.command} exit={code} elapsed_s={elapsed:.3f}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
