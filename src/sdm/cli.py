"""Benchmark harness CLI.

Subcommands drive the analytic-function comparison, the synthetic pose
experiment, the contraction-certificate suite, the online/batch
equivalence demo, and model train/apply round-trips. The experiments
live in their modules (`analytic.run_comparison`, `pose.run_protocol`,
`theory.certificate_suite`, `online.batch_deviation`); a handler calls
one, prints and writes its results, and picks the exit code. All
randomness flows from one --seed through named streams; every output
CSV is byte-identical across reruns of one configuration, and timings
go to sidecar files only. Each setting is declared once, in `COMMANDS`.

Exit codes: 0 success, 1 a checked property failed, 2 bad configuration.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import analytic, model_io, pose
from .core import apply_sequence
from .errors import DivergedError, SdmError, SettingError
from .online import batch_deviation
from .seeds import stream
from .theory import LATTICE_CAP, certificate_suite
from .trainer import TrainerConfig, train


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows, comments=()):
    path = Path(path)
    with _accessing("output file", path, "write"):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as f:
            for line in comments:
                f.write(f"# {line}\n")
            writer = csv.writer(f)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])


@contextmanager
def _accessing(what: str, path, verb: str = "read"):
    """Turn a failure to open, decode or write `path` into a SettingError."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise SettingError(f"cannot {verb} {what} {path}: {exc}") from exc


def _check_output_dir(path: Path) -> None:
    """Before any command runs, refuse an output directory that cannot be
    created or written: its nearest existing ancestor must be a writable directory."""
    there = next(p for p in (path, *path.parents) if p.exists())
    if not (there.is_dir() and os.access(there, os.W_OK | os.X_OK)):
        raise SettingError(f"cannot write output directory {path}: {there} is not a writable "
                           "directory")


def _read_config_file(path) -> dict:
    """Map each key (with `-` read as `_`), given once, to its (line number, raw value)."""
    out = {}
    with _accessing("config file", path), open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SettingError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key in out:
                raise SettingError(f"{path}:{lineno}: {key.replace('_', '-')} was already "
                                   f"given on line {out[key][0]}")
            out[key] = (lineno, value.strip())
    return out


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}

# range rules by the text that error messages show; NaN and the infinities pass none of them
_RULES = {
    "> 0": lambda v: 0 < v < np.inf,
    # a subnormal value is > 0, but its reciprocal overflows to inf
    "> 0 with a finite reciprocal": lambda v: 0 < v < np.inf and 1.0 / v < np.inf,
    ">= 0": lambda v: 0 <= v < np.inf,
    f"in [3, {LATTICE_CAP}]": lambda v: 3 <= v <= LATTICE_CAP,
    "in (0, 1]": lambda v: 0 < v <= 1,
}

REQUIRED = object()  # the default of a setting that must be given


@dataclass(frozen=True)
class Setting:
    """A command setting `name`: flag ``--name`` (``--no-name`` for a bool,
    which defaults to true) and config key ``name``, with `-` or `_`.
    `rule` is a `_RULES` key; a None value skips it."""

    default: object = None
    type: type = str
    rule: str | None = None
    help: str | None = None
    choices: tuple = ()


def _resolve(args: argparse.Namespace, table: dict[str, Setting]) -> SimpleNamespace:
    """Flag values over config-file values over defaults, each converted
    from its text by one rule and range-checked."""
    entries = _read_config_file(args.config) if args.config else {}
    unknown = sorted(set(entries) - set(table))
    if unknown:
        raise SettingError(f"{args.config}: {args.command} takes no key {unknown[0]!r}; "
                           f"it takes {', '.join(table)}")
    cfg = SimpleNamespace()
    for name, setting in table.items():
        flag = name.replace("_", "-")
        value, where = getattr(args, name), ""  # a flag's text, or False from a --no- switch
        if value is None and name in entries:
            lineno, value = entries[name]
            where = f"{args.config}:{lineno}: "
        if isinstance(value, str):  # text, which stays `value` if it does not convert
            try:
                value = _BOOLS[value.lower()] if setting.type is bool else setting.type(value)
                if setting.choices and value not in setting.choices:
                    raise ValueError(value)
            except (KeyError, ValueError):
                kind = " or ".join(setting.choices) or setting.type.__name__
                raise SettingError(f"{where}{flag} must be {kind}, got {value!r}") from None
        if value is None:
            value = setting.default
        if value is REQUIRED:
            raise SettingError(f"{args.command} requires --{flag}")
        if setting.rule and value is not None and not _RULES[setting.rule](value):
            raise SettingError(f"{flag} must be {setting.rule}, got {value}")
        setattr(cfg, name, value)
    return cfg


def cmd_analytic(cfg) -> int:
    reg = analytic.registry()
    failures = []
    for name in reg if cfg.function == "all" else [cfg.function]:
        fn = reg[name]
        result = analytic.run_comparison(fn, stages=cfg.stages)
        comments = [fn.constants_header()]
        if name == "linear":
            comments.append("linear control slot: isolates one-step cascade behavior")
        write_csv(
            cfg.output_dir / f"analytic_{name}.csv",
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


def _pose_training(cfg, stages: int, noise_variance: float) -> dict:
    """The `pose.train_protocol` settings of a `pose` or `train` command."""
    return dict(config=TrainerConfig(stages=stages, ridge=cfg.ridge),
                noise_variance=noise_variance, rot_step_deg=cfg.train_rot_step,
                trans_step_mm=cfg.train_trans_step)


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


def cmd_pose(cfg) -> int:
    table = pose.builtin_models()
    lines = [f"{'model':8s} {'rot_err_deg':>22s} {'trans_err_mm':>22s} {'est_ms':>8s}"]
    for name in pose.MODELS if cfg.model == "all" else [cfg.model]:
        _, records = pose.run_protocol(
            table[name], cfg.seed,
            test_noise_variance=cfg.noise if cfg.test_noise else 0.0,
            test_rot_step_deg=cfg.test_rot_step, test_trans_step_mm=cfg.test_trans_step,
            subsample=cfg.subsample, with_gauss_newton=cfg.gauss_newton,
            **_pose_training(cfg, cfg.stages, cfg.noise if cfg.train_noise else 0.0),
        )
        write_csv(cfg.output_dir / f"pose_results_{name}.csv", _POSE_HEADER, _pose_rows(records))
        # timings are wall-clock and deliberately kept out of the results file
        write_csv(
            cfg.output_dir / f"pose_timings_{name}.csv",
            ("index", "wall_ms"),
            [(i, r.wall_ms) for i, r in enumerate(records)],
        )
        summary = [(name, [r.rot_err_deg for r in records], [r.trans_err_mm for r in records],
                    f"{np.mean([r.wall_ms for r in records]):8.3f}")]
        if cfg.gauss_newton:
            summary.append((name + "/gn", [r.gn_rot_err_deg for r in records],
                            [r.gn_trans_err_mm for r in records], ""))
        for label, rot, tr, ms in summary:
            lines.append(f"{label:8s} {np.mean(rot):10.3f} +- {np.std(rot):7.3f} "
                         f"{np.mean(tr):11.3f} +- {np.std(tr):7.3f} {ms:8s}")
    print(*lines, sep="\n")  # once every model has run, so a failing run prints nothing
    return 0


def cmd_verify(cfg) -> int:
    suite = certificate_suite(cfg.seed, cfg.grid, radius=cfg.radius, epsilon=cfg.epsilon)
    rows = [(row.name, row.bound, row.gain, row.certificate.contraction_factor,
             row.certificate.samples_checked, row.certificate.valid) for row in suite]
    print(f"{'map':12s} {'K':>10s} {'gain':>10s} {'factor':>10s}  valid")
    for name, bound, gain, factor, _, valid in rows:
        print(f"{name:12s} {bound:10.5f} {gain:10.5f} {factor:10.6f}  {valid}")
    write_csv(
        cfg.output_dir / "certificates.csv",
        ("map", "bound_or_K", "gain_norm", "contraction_factor", "samples", "valid"),
        rows,
    )
    return 0 if all(row.certificate.valid for row in suite if row.counts) else 1


def cmd_online_demo(cfg) -> int:
    rng = stream(cfg.seed, "online-demo")
    sizes = (10, 50, 200) if cfg.forgetting == 1.0 else (5, 10, 20)
    tol = 1e-6 if cfg.forgetting == 1.0 else 1e-8
    # every size runs before anything is printed, so a run that fails prints nothing
    devs = [batch_deviation(rng, n, m=6, p=3, forgetting=cfg.forgetting, ridge=cfg.ridge)
            for n in sizes]
    for n, dev in zip(sizes, devs):
        print(f"n={n:4d}  relative deviation from batch solve: {dev:.3e}")
    worst = np.max(devs)  # NaN if any deviation is NaN, which fails the tolerance
    print(f"max deviation {worst:.3e} (tolerance {tol:.0e})")
    return 0 if worst <= tol else 1


def cmd_train(cfg) -> int:
    # by default, as many stages as the `pose` or `analytic` command trains
    stages = COMMANDS[cfg.problem][2]["stages"].default if cfg.stages is None else cfg.stages
    if cfg.problem == "pose":
        seq = pose.train_protocol(pose.builtin_models()[cfg.model], cfg.seed,
                                  **_pose_training(cfg, stages, cfg.noise))
    else:
        fn = analytic.registry()[cfg.function]
        seq = train(analytic.build_training_set(fn),
                    TrainerConfig(stages=stages, ridge=0.0 if cfg.ridge is None else cfg.ridge))
    with _accessing("model file", cfg.out, "write"):
        Path(cfg.out).parent.mkdir(parents=True, exist_ok=True)
        model_io.save_sequence(seq, cfg.out)
    print(f"wrote {cfg.out}: {len(seq)} stages, p={seq.param_dim}, m={seq.feature_dim}")
    return 0


def _read_inputs(path, width: int) -> tuple[list[np.ndarray], list[int]]:
    """Data rows after the header as finite floats, `width` values each.
    Blank rows and '#' rows are skipped. Returns the rows and the line
    number of each."""
    with _accessing("inputs file", path), open(path, newline="") as f:
        reader = csv.reader(f)
        rows = [(reader.line_num, row) for row in reader if row and not row[0].startswith("#")]
    if not rows:
        raise SettingError(f"inputs file {path} has no header row")
    values = []
    for lineno, row in rows[1:]:
        if len(row) != width:
            raise SettingError(f"{path}:{lineno}: expected {width} values, got {len(row)}")
        try:
            values.append(np.array([float(v) for v in row]))
        except ValueError:
            raise SettingError(f"{path}:{lineno}: expected numbers, got {row}") from None
        if not np.isfinite(values[-1]).all():
            raise SettingError(f"{path}:{lineno}: expected finite numbers, got {row}")
    return values, [lineno for lineno, _ in rows[1:]]


def cmd_apply(cfg) -> int:
    with _accessing("model file", cfg.model_file):
        seq = model_io.load_sequence(cfg.model_file)
    if cfg.problem == "pose":
        model = pose.builtin_models()[cfg.model]
        smap = model.feature_map
    else:
        fn = analytic.registry()[cfg.function]
        smap = fn.smooth_map()
    if (seq.param_dim, seq.feature_dim) != (smap.param_dim, smap.feature_dim):
        raise SettingError(f"model file maps {seq.param_dim} parameters to {seq.feature_dim} "
                          f"features, {smap.name} maps {smap.param_dim} to {smap.feature_dim}")
    # all input rows in one cascade run, each from the problem's start point
    rows, lines = _read_inputs(cfg.inputs, seq.feature_dim)
    if cfg.problem == "pose":
        px = np.array(rows).reshape(-1, model.n_points, 2).swapaxes(1, 2)  # (u, v) per point
        Y, x0 = pose.pixel_features(px, pose.DEFAULT_CAMERA), pose.DEFAULT_BASE_POSE.vector()
    else:
        Y, x0 = np.array(rows).reshape(-1, 1), [fn.x0]
    try:
        final = apply_sequence(seq, np.tile(x0, (len(Y), 1)), smap, Y)[-1]
    except DivergedError as exc:  # name the input line, as every other input error does
        raise DivergedError(f"{cfg.inputs}:{lines[exc.row]}: {exc.args[0]}",
                            exc.trajectory) from None
    if cfg.problem == "pose":
        out_rows = pose._wrap_poses(final)
        header = ("yaw", "pitch", "roll", "tx", "ty", "tz")
    else:
        out_rows = [(y, float(x)) for (y,), (x,) in zip(Y, final)]
        header = ("target", "estimate")
    write_csv(cfg.out, header, out_rows)
    print(f"wrote {cfg.out}: {len(out_rows)} rows")
    return 0


_SHARED = {
    "seed": Setting(42, int, help="root seed of every named random stream"),
    "output_dir": Setting(Path("out"), Path, help="directory for result CSVs and run.log"),
}

# the pose-training settings that `pose` and `train` share
_POSE_TRAINING = {
    "ridge": Setting(None, float, ">= 0", "least-squares ridge of every stage"),
    "noise": Setting(4.0, float, ">= 0", "pixel noise variance"),
    "train_rot_step": Setting(10.0, float, "> 0", "training grid rotation step (deg)"),
    "train_trans_step": Setting(200.0, float, "> 0", "training grid translation step (mm)"),
}

_PROBLEM = {
    "problem": Setting("pose", help="pose or analytic", choices=("pose", "analytic")),
    "model": Setting("cube", help="built-in pose object: cube, body or face", choices=pose.MODELS),
    "function": Setting("cube", help="analytic registry name", choices=tuple(analytic.registry())),
}

# command -> (handler, help, settings table)
COMMANDS = {
    "analytic": (cmd_analytic, "scalar-function convergence comparison", {
        **_SHARED,
        "function": Setting("all", help="registry name or 'all'",
                            choices=(*analytic.registry(), "all")),
        "stages": Setting(10, int, "> 0"),
    }),
    "pose": (cmd_pose, "synthetic pose-estimation experiment", {
        **_SHARED,
        "model": Setting("cube", help="cube, body, face, or 'all'", choices=(*pose.MODELS, "all")),
        "stages": Setting(4, int, "> 0"),
        **_POSE_TRAINING,
        "subsample": Setting(2000, int, ">= 0", "test poses to draw; 0 = full grid"),
        "test_rot_step": Setting(7.0, float, "> 0", "test grid rotation step (deg)"),
        "test_trans_step": Setting(170.0, float, "> 0", "test grid translation step (mm)"),
        "train_noise": Setting(True, bool, help="train without pixel noise"),
        "test_noise": Setting(True, bool, help="test without pixel noise"),
        "gauss_newton": Setting(True, bool, help="skip the Gauss-Newton reference"),
    }),
    "verify": (cmd_verify, "contraction certificate suite", {
        **_SHARED,
        "epsilon": Setting(None, float, "> 0", "gain margin below 2/K (absolute)"),
        "radius": Setting(None, float, "> 0", "override registry neighborhood radii"),
        "grid": Setting(1001, int, f"in [3, {LATTICE_CAP}]", "grid points per dimension"),
    }),
    "online-demo": (cmd_online_demo, "recursive vs batch least-squares equivalence", {
        **_SHARED,
        "forgetting": Setting(1.0, float, "in (0, 1]", "exponential discount"),
        "ridge": Setting(1e-3, float, "> 0 with a finite reciprocal",
                         "initial ridge of the recursive state, which starts at (1/ridge) I"),
    }),
    "train": (cmd_train, "train a model and save it", {
        **_SHARED,
        **_PROBLEM,
        "stages": Setting(None, int, "> 0", "default: the pose or analytic command's"),
        **_POSE_TRAINING,
        "out": Setting(REQUIRED, help="model file to write"),
    }),
    "apply": (cmd_apply, "apply a saved model to inputs from a CSV", {
        **_SHARED,
        **_PROBLEM,
        "model_file": Setting(REQUIRED, help="model file written by train"),
        "inputs": Setting(REQUIRED, help="CSV of pixel rows (pose) or targets (analytic)"),
        "out": Setting(REQUIRED, help="CSV to write"),
    }),
}


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as a SettingError, for `main` to report."""

    def error(self, message):
        raise SettingError(message)


@cache  # built once per process; parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sdm-bench",
        description="Benchmarks for learned descent maps on nonlinear least squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, table) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="flat 'key = value' config file; flags win")
        for name, s in table.items():
            flag = name.replace("_", "-")
            if s.type is bool:
                p.add_argument(f"--no-{flag}", dest=name, action="store_false", default=None,
                               help=s.help)
            else:
                p.add_argument(f"--{flag}", dest=name, help=s.help)  # text, for `_resolve`
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        handler, _, table = COMMANDS[args.command]
        cfg = _resolve(args, table)
        _check_output_dir(cfg.output_dir)
        code = handler(cfg)
        elapsed = time.perf_counter() - started
        # wall time goes to a sidecar log so the data files stay reproducible
        if cfg.output_dir.exists():
            log = cfg.output_dir / "run.log"
            with _accessing("run log", log, "write"), open(log, "a") as f:
                f.write(f"{args.command} exit={code} elapsed_s={elapsed:.3f}\n")
    except SettingError as exc:  # a refused setting, wherever it is detected
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SdmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
