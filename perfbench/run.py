"""Benchmark of the sdm package, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload pose-cube --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 20 --trace 0

Workloads are ``pose-cube``, ``verify-analytic`` and ``online-dense``
(see ``workloads.py``); ``all`` runs each in its own process and prints
one table. The package is imported from ``src/`` of this checkout.

With ``--trace 0`` a run repeats whole rounds of its workload until
``--seconds`` have passed (pose-cube makes at least two), then reports
the end-to-end metrics every workload shares (``workloads.END_TO_END``):
set-up time as the median over fresh interpreters started only to set
up, the mean round time, peak memory and the mean latency of one call.
The workload's own figures (``workloads.DETAIL``) are listed beside them
and kept in the record (see ``workloads.py`` for why central values are
means).

With ``--trace 1`` it first runs one untraced round in a child process,
then one round with every layer function wrapped in spans, and reports
the per-layer metrics, the tracing overhead, the untraced round's own
figures and, for ``online-dense``, the RLS timings again from a child
with ``OPENBLAS_NUM_THREADS=1``. Every workload reports every per-layer
metric: a layer the workload does not reach reports 0. A metric built on
a function the package no longer has is left out.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
with the environment and sample counts, goes to ``.perfbench/results/``
and the spans of a traced run to ``.perfbench/traces/``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import layers, measure  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import DETAIL, END_TO_END, WORKLOADS  # noqa: E402

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pose-cube", "verify-analytic", "online-dense", "all"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: what a child process started by this script should do
    parser.add_argument("--role", default="main", choices=("main", "setup", "plain", "t1"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child(args, role: str, trace: int, env=None, workload=None) -> str:
    """Run this script in a fresh interpreter and return its stdout."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload or args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--role", role]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {role} for {workload or args.workload} "
                           f"exited {proc.returncode}")
    return proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def setup_times(args) -> list[float]:
    """Process start to ready-for-the-first-timed-call, in fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        line = child(args, "setup", 0).strip().splitlines()[-1]
        out.append(float(line.split()[1]) - started)
    return out


def end_to_end(workload, rounds, setup: list[float]) -> tuple[dict, dict]:
    """(metric values, sample summaries) for the shared and the workload's
    own metrics."""
    values, summaries = {}, {}
    for name in (*END_TO_END, *workload.details):
        if name == "setup_s":
            if setup:
                values[name] = statistics.median(setup)
                summaries[name] = {"n": len(setup), "samples": setup}
        elif name == "peak_rss_mb":
            values[name] = measure.peak_rss_mb()
        elif name.endswith(".mean"):
            series = name[: -len(".mean")]
            windows = [w for r in rounds for w in r.samples[series]]
            values[name] = statistics.fmean(v for w in windows for v in w)
            summaries[series] = [measure.summarize(w) for w in windows]
        elif ".p" in name:
            series, q = name.rsplit(".p", 1)
            windows = [w for r in rounds for w in r.samples[series]]
            per_window = [measure.percentile(w, float(q)) for w in windows]
            values[name] = statistics.median(per_window)
            summaries[name] = per_window
        else:
            per_round = [r.scalars[name] for r in rounds]
            values[name] = statistics.fmean(per_round)
            summaries[name] = {"n": len(per_round), "per_round": per_round}
    return values, summaries


def untraced(args, cls) -> dict:
    setup = setup_times(args) if args.role == "main" else []
    workload = cls(args.seed, ROOT)
    rounds = []
    try:
        workload.warm_up()
        started = time.perf_counter()
        while True:
            result = workload.run_round()
            result.run_deferred()
            rounds.append(result)
            if args.role != "main":
                break
            if len(rounds) >= cls.min_rounds and time.perf_counter() - started >= args.seconds:
                break
        workload.final_checks(rounds[-1])
    finally:
        workload.close()
    values, summaries = end_to_end(workload, rounds, setup)
    return {
        "correct": all(r.failed == 0 for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": values[k], "unit": unit}
                    for k, unit in END_TO_END.items() if k in values},
        "detail": {k: {"value": values[k], "unit": DETAIL[k]} for k in workload.details},
        "rounds": len(rounds),
        "samples": summaries,
        "checks": [r.checks for r in rounds],
    }


def traced(args, cls) -> dict:
    reference, detail = None, {}
    if args.role == "main":
        plain = last_json(child(args, "plain", 0))
        reference = plain["metrics"]["wall_s"]["value"]
        detail = {k: v["value"] for k, v in plain["detail"].items()}
    workload = cls(args.seed, ROOT)
    tracer = Tracer()
    try:
        workload.warm_up()
        layers.install(tracer)
        try:
            result = workload.run_round(traced=True)
        finally:
            tracer.unwrap_all()
        result.run_deferred()
        workload.final_checks(result)
    finally:
        workload.close()
    per = layers.derive(tracer)
    per.update(result.extra)
    per.update(detail)
    per["trace.wall_s"] = result.scalars["wall_s"]
    if reference is not None:
        per["trace.untraced_wall_s"] = reference
        per["trace.overhead_s"] = result.scalars["wall_s"] - reference
    if args.role == "main" and args.workload == "online-dense":
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        single = last_json(child(args, "t1", 1, env=env))["metrics"]
        for name in layers.SINGLE_THREAD:
            if name in single:
                per[layers.t1_name(name)] = single[name]["value"]
    absent = layers.absent(tracer)
    if args.role == "main":
        tracer.save(ROOT / ".perfbench" / "traces" / f"{args.workload}.npz")
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": float(per.get(k, 0.0)), "unit": unit}
                    for k, (unit, _) in layers.PER_LAYER.items() if k not in absent},
        "missing_layers": sorted(tracer.missing),
        "checks": [result.checks],
    }


def table(title: str, metrics: dict) -> str:
    lines = [title]
    for name, m in metrics.items():
        lines.append(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    return "\n".join(lines)


def contract_line(record: dict) -> str:
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        *shown, last = child(args, "main", args.trace, workload=name).strip().splitlines()
        record = json.loads(last)
        print("\n".join(shown))
        merged["correct"] &= record["correct"]
        merged["attempted"] += record["attempted"]
        merged["failed"] += record["failed"]
        for metric, value in record["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(contract_line(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its work directory and its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "sdm" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'sdm'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    cls = WORKLOADS[args.workload]
    if args.role == "setup":
        cls(args.seed, ROOT).close()
        print(f"READY {time.monotonic()!r}")
        return 0
    record = traced(args, cls) if args.trace else untraced(args, cls)
    record["environment"] = measure.environment(ROOT, args.workload, args.seed)
    record["environment"].update(seconds=args.seconds, trace=args.trace, role=args.role)
    if args.role == "main":
        out = ROOT / ".perfbench" / "results" / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1, default=str))
        print(table(f"{args.workload} seed {args.seed} trace {args.trace}: "
                    f"failed {record['failed']} of {record['attempted']}", record["metrics"]))
        if record.get("detail"):
            print(table("  of this workload only", record["detail"]))
        print(f"record: {out.relative_to(ROOT)}")
        print(contract_line(record))
    else:
        print(json.dumps(record, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
