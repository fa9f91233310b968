"""Which package functions the traced run wraps, and the per-layer metrics.

Each entry names a public function of an ``sdm`` module. A function that
no longer exists is skipped, and the metrics built on it are left out
of the result instead of failing the run.
"""
from __future__ import annotations

import importlib
import os

import numpy as np

from .tracing import Tracer, totals, under
from .workloads import DETAIL

# Per-layer metrics: name -> (unit, better). `.s` is inclusive seconds,
# `.self_s` seconds minus traced children, `.calls` a call count and
# `.ms` the median milliseconds of one call.
PER_LAYER = {
    "pose.grid_poses.s": ("s", "lower"),
    "pose.grid_poses.kept_ratio": ("ratio", "higher"),
    "pose.observe.calls": ("count", "lower"),
    "pose.observe.s": ("s", "lower"),
    "pose.train_pose_sdm.self_s": ("s", "lower"),
    "pose.estimate_pose.s": ("s", "lower"),
    "pose.estimate_pose.self_s": ("s", "lower"),
    "pose.evaluate_test_poses.self_s": ("s", "lower"),
    "trainer.train.s": ("s", "lower"),
    "trainer.train.self_s": ("s", "lower"),
    "trainer.TrainingSet.reversed_targets.s": ("s", "lower"),
    "trainer.solve_stage.calls": ("count", "lower"),
    "trainer.solve_stage.s": ("s", "lower"),
    "trainer.samples_per_s": ("1/s", "higher"),
    "core.SmoothMap.evaluate.calls": ("count", "lower"),
    "core.SmoothMap.evaluate.s": ("s", "lower"),
    "core.SmoothMap.jacobian.calls": ("count", "lower"),
    "core.SmoothMap.jacobian.s": ("s", "lower"),
    "core.as_vector.calls": ("count", "lower"),
    "core.apply_sequence.s": ("s", "lower"),
    "core.apply_sequence.self_s": ("s", "lower"),
    "baselines.gauss_newton_minimize.s": ("s", "lower"),
    "baselines.gauss_newton_minimize.self_s": ("s", "lower"),
    "baselines.gauss_newton_minimize.iterations": ("count", "lower"),
    "baselines.gauss_newton_minimize.status.converged": ("count", "higher"),
    "baselines.gauss_newton_minimize.status.max_iters": ("count", "lower"),
    "baselines.gauss_newton_minimize.status.diverged": ("count", "lower"),
    "baselines.gauss_newton_minimize.status.singular_hessian": ("count", "lower"),
    "baselines.gauss_newton_minimize.status.saddle_stall": ("count", "lower"),
    "baselines.newton_minimize.s": ("s", "lower"),
    "baselines.newton_minimize.iterations": ("count", "lower"),
    "theory.neighborhood_points.calls": ("count", "lower"),
    "theory.neighborhood_points.s": ("s", "lower"),
    "theory.random_operator_suite.s": ("s", "lower"),
    "theory.lipschitz_anchored.s": ("s", "lower"),
    "theory.generic_dm_1d.s": ("s", "lower"),
    "theory.frobenius_dm_bound.s": ("s", "lower"),
    "theory.contraction_certify.s": ("s", "lower"),
    "theory.evals_per_sample": ("ratio", "lower"),
    "online.rls_ingest.m200.ms": ("ms", "lower"),
    "online.rls_ingest.m800.ms": ("ms", "lower"),
    "online.to_sequence.ms": ("ms", "lower"),
    "online.kernel.matvec.m200.ms": ("ms", "lower"),
    "online.kernel.matvec.m800.ms": ("ms", "lower"),
    "online.kernel.vecmat.m200.ms": ("ms", "lower"),
    "online.kernel.vecmat.m800.ms": ("ms", "lower"),
    "online.kernel.downdate.m200.ms": ("ms", "lower"),
    "online.kernel.downdate.m800.ms": ("ms", "lower"),
    "online.rls_ingest.m200.t1.ms": ("ms", "lower"),
    "online.rls_ingest.m800.t1.ms": ("ms", "lower"),
    "online.to_sequence.t1.ms": ("ms", "lower"),
    "online.kernel.matvec.m200.t1.ms": ("ms", "lower"),
    "online.kernel.matvec.m800.t1.ms": ("ms", "lower"),
    "online.kernel.vecmat.m200.t1.ms": ("ms", "lower"),
    "online.kernel.vecmat.m800.t1.ms": ("ms", "lower"),
    "online.kernel.downdate.m200.t1.ms": ("ms", "lower"),
    "online.kernel.downdate.m800.t1.ms": ("ms", "lower"),
    "model_io.save_sequence.s": ("s", "lower"),
    "model_io.load_sequence.s": ("s", "lower"),
    "model_io.bytes": ("B", "lower"),
    "cli.write_csv.s": ("s", "lower"),
    "cli.write_csv.bytes": ("B", "lower"),
    "analytic.run_comparison.s": ("s", "lower"),
    "analytic.run_comparison.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    # the untraced round's own figures (see workloads.DETAIL)
    **{name: (unit, "lower") for name, unit in DETAIL.items()},
}

# Metrics named after something other than the function they are built on.
BUILT_ON = {
    "pose.grid_poses.kept_ratio": "pose.subsample_poses",
    "trainer.samples_per_s": "trainer.train",
    "theory.evals_per_sample": "theory.contraction_certify",
}

# Metrics repeated in a child process with OPENBLAS_NUM_THREADS=1.
SINGLE_THREAD = tuple(
    name for name in PER_LAYER if name.startswith("online.") and ".t1." not in name
)


def t1_name(name: str) -> str:
    """``online.rls_ingest.m800.ms`` -> ``online.rls_ingest.m800.t1.ms``."""
    stem, unit = name.rsplit(".", 1)
    return f"{stem}.t1.{unit}"


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _count_subsample(counts, args, kwargs, result):
    counts["pose.subsample.offered"] += len(_arg(args, kwargs, 0, "poses"))
    counts["pose.subsample.kept"] += len(result)


def _count_train(counts, args, kwargs, result):
    counts["trainer.sample_stages"] += len(_arg(args, kwargs, 0, "tset")) * len(result)


def _count_run(prefix):
    def on_result(counts, args, kwargs, result):
        counts[f"{prefix}.iterations"] += len(result.iterates) - 1
        counts[f"{prefix}.status.{result.status.value}"] += 1

    return on_result


def _count_certificate(counts, args, kwargs, result):
    counts["theory.samples_checked"] += result.samples_checked


def _count_file(key, index, arg):
    def on_result(counts, args, kwargs, result):
        counts[key] += os.path.getsize(_arg(args, kwargs, index, arg))

    return on_result


def _by_features(prefix):
    def name(args, kwargs):
        return f"{prefix}.m{args[0].feature_dim}"

    return name


# (module, attribute path, span name or namer, on_result, span)
WRAPPED = (
    ("sdm.core", "as_vector", "core.as_vector", None, False),
    ("sdm.core", "SmoothMap.evaluate", "core.SmoothMap.evaluate", None, True),
    ("sdm.core", "SmoothMap.jacobian", "core.SmoothMap.jacobian", None, True),
    ("sdm.core", "apply_sequence", "core.apply_sequence", None, True),
    ("sdm.pose", "grid_poses", "pose.grid_poses", None, True),
    ("sdm.pose", "subsample_poses", "pose.subsample_poses", _count_subsample, True),
    ("sdm.pose", "observe", "pose.observe", None, True),
    ("sdm.pose", "train_pose_sdm", "pose.train_pose_sdm", None, True),
    ("sdm.pose", "estimate_pose", "pose.estimate_pose", None, True),
    ("sdm.pose", "evaluate_test_poses", "pose.evaluate_test_poses", None, True),
    ("sdm.trainer", "train", "trainer.train", _count_train, True),
    ("sdm.trainer", "solve_stage", "trainer.solve_stage", None, True),
    ("sdm.trainer", "TrainingSet.reversed_targets", "trainer.TrainingSet.reversed_targets",
     None, True),
    ("sdm.baselines", "gauss_newton_minimize", "baselines.gauss_newton_minimize",
     _count_run("baselines.gauss_newton_minimize"), True),
    ("sdm.baselines", "newton_minimize", "baselines.newton_minimize",
     _count_run("baselines.newton_minimize"), True),
    ("sdm.theory", "neighborhood_points", "theory.neighborhood_points", None, True),
    ("sdm.theory", "random_operator_suite", "theory.random_operator_suite", None, True),
    ("sdm.theory", "lipschitz_anchored", "theory.lipschitz_anchored", None, True),
    ("sdm.theory", "generic_dm_1d", "theory.generic_dm_1d", None, True),
    ("sdm.theory", "frobenius_dm_bound", "theory.frobenius_dm_bound", None, True),
    ("sdm.theory", "contraction_certify", "theory.contraction_certify", _count_certificate,
     True),
    ("sdm.online", "rls_ingest", _by_features("online.rls_ingest"), None, True),
    ("sdm.online", "OnlineState.to_sequence", _by_features("online.to_sequence"), None, True),
    ("sdm.model_io", "save_sequence", "model_io.save_sequence",
     _count_file("model_io.bytes", 1, "path"), True),
    ("sdm.model_io", "load_sequence", "model_io.load_sequence", None, True),
    ("sdm.cli", "write_csv", "cli.write_csv", _count_file("cli.write_csv.bytes", 0, "path"),
     True),
    ("sdm.cli", "main", "cli.main", None, True),
    ("sdm.analytic", "run_comparison", "analytic.run_comparison", None, True),
)

THEORY_SPANS = tuple(name for _, _, name, _, _ in WRAPPED
                     if isinstance(name, str) and name.startswith("theory."))


def install(tracer: Tracer) -> None:
    """Wrap every listed function that exists in this version of the package."""
    for module_name, path, name, on_result, span in WRAPPED:
        label = name if isinstance(name, str) else f"{module_name}.{path}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            tracer.missing.add(label)
            continue
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                break
        if owner is None or not tracer.wrap(owner, attr, name, on_result, span):
            tracer.missing.add(label)


def absent(tracer: Tracer) -> set[str]:
    """Per-layer metrics built on a function this package no longer has."""
    gone = {label.removeprefix("sdm.") for label in tracer.missing}
    return {
        metric for metric in PER_LAYER
        if any(BUILT_ON.get(metric, metric).startswith(layer + ".") or
               BUILT_ON.get(metric) == layer for layer in gone)
    }


def derive(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced round.

    Totals and counts of a wrapped function that never ran here are 0;
    ratios and medians without data, and metrics of missing functions,
    are absent here (the run reports the former as 0, see `absent`).
    Counters are keyed by the metric they feed.
    """
    spans = totals(tracer)
    counts = tracer.counts
    present = {name for _, _, name, _, _ in WRAPPED if isinstance(name, str)} - tracer.missing
    out: dict[str, float] = {}
    for metric, (unit, _) in PER_LAYER.items():
        if unit in ("ratio", "1/s", "ms") or metric.startswith("trace.") or metric in DETAIL:
            continue  # derived below, or by the caller
        layer = next((name for name in present if metric.startswith(name + ".")), None)
        field = metric.rsplit(".", 1)[1]
        if layer in spans and field in ("s", "self_s", "calls"):
            out[metric] = spans[layer][field]
        elif layer is not None or metric in counts:
            out[metric] = counts[metric]

    offered = counts["pose.subsample.offered"]
    if offered:
        out["pose.grid_poses.kept_ratio"] = counts["pose.subsample.kept"] / offered
    train_s = spans.get("trainer.train", {}).get("s", 0.0)
    if train_s > 0:
        out["trainer.samples_per_s"] = counts["trainer.sample_stages"] / train_s
    samples = counts["theory.samples_checked"]
    if samples and "core.SmoothMap.evaluate" in spans:
        name_id, _, _, parent = tracer.span_arrays()
        roots = {i for i, name in enumerate(tracer.names) if name in THEORY_SPANS}
        evaluate = tracer.names.index("core.SmoothMap.evaluate")
        inside = under(name_id, parent, roots) & (name_id == evaluate)
        out["theory.evals_per_sample"] = float(inside.sum() / samples)
    for span_name, metric in (("online.rls_ingest.m200", "online.rls_ingest.m200.ms"),
                              ("online.rls_ingest.m800", "online.rls_ingest.m800.ms"),
                              ("online.to_sequence.m200", "online.to_sequence.ms")):
        if span_name in spans:
            out[metric] = float(np.median(spans[span_name]["durations"]) * 1e3)
    out["trace.spans"] = len(tracer.start)
    return out
