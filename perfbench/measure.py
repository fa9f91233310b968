"""Summary statistics and the environment record of a benchmark run."""
from __future__ import annotations

import os
import platform
import resource
from pathlib import Path

import numpy as np

# Percentiles a latency series may be summarized by, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def tail_count(n: int, q: float) -> int:
    """Number of samples strictly above the q-th percentile of n samples."""
    return int(n - np.ceil(n * q / 100.0 - 1e-9))


def highest_percentile(n: int) -> float | None:
    """The highest of PERCENTILES with at least MIN_TAIL_SAMPLES beyond it."""
    best = None
    for q in PERCENTILES:
        if tail_count(n, q) >= MIN_TAIL_SAMPLES:
            best = q
    return best


def percentile(samples, q: float) -> float:
    """The q-th percentile; refuses one with too few samples beyond it."""
    n = len(samples)
    if q > 50.0 and tail_count(n, q) < MIN_TAIL_SAMPLES:
        raise ValueError(f"p{q:g} of {n} samples has fewer than {MIN_TAIL_SAMPLES} beyond it")
    if n == 0:
        raise ValueError("no samples")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def summarize(samples) -> dict:
    """Sample count, the highest supported percentile and its tail count."""
    n = len(samples)
    top = highest_percentile(n)
    arr = np.asarray(samples, dtype=float)
    return {
        "n": n,
        "mean": float(arr.mean()),
        "p50": float(np.median(arr)),
        "highest_percentile": top,
        "beyond_highest": None if top is None else tail_count(n, top),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha(root: Path) -> str | None:
    """HEAD commit read from the .git directory, or None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        return {"name": None, "version": None}


def environment(root: Path, workload: str, seed: int) -> dict:
    """What a result depends on besides the code: versions, BLAS, threads."""
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "num_threads_env": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
        },
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
    }
