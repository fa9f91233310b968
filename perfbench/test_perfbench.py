"""Tests of the benchmark's own helpers (not of the package it measures)."""
from __future__ import annotations

import json
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, measure, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------ percentile rule


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (2000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert measure.highest_percentile(n) == expected
    if expected is not None:
        assert measure.tail_count(n, expected) >= measure.MIN_TAIL_SAMPLES


def test_percentile_refuses_a_tail_without_ten_samples_beyond():
    samples = list(range(200))
    assert measure.percentile(samples, 95.0) == pytest.approx(np.percentile(samples, 95.0))
    with pytest.raises(ValueError):
        measure.percentile(samples, 99.0)


def test_summary_reports_the_sample_count_behind_the_percentile():
    summary = measure.summarize([1.0] * 2000)
    assert summary["n"] == 2000
    assert summary["highest_percentile"] == 99.0
    assert summary["beyond_highest"] == 20


# ------------------------------------------------------------------ self time


def test_self_time_subtracts_direct_children_only():
    #  a [0, 10] -> b [1, 4] -> c [2, 3];  a -> d [5, 9];  e [11, 12]
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    parent = [-1, 0, 1, 0, -1]
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_under_marks_descendants_of_root_spans():
    name_id = [0, 1, 2, 1, 3]
    parent = [-1, 0, 1, -1, 3]
    assert tracing.under(name_id, parent, {0}).tolist() == [True, True, True, False, False]


def test_wrapped_calls_nest_and_unwrap_restores():
    fake = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return fake.inner(x) * fake.inner(x)

    fake.inner, fake.outer = inner, outer
    tracer = tracing.Tracer()
    assert tracer.wrap(fake, "inner", "fake.inner", None, True)
    assert tracer.wrap(fake, "outer", "fake.outer", None, True)
    assert not tracer.wrap(fake, "gone", "fake.gone", None, True)
    assert fake.outer(1) == 4
    tracer.unwrap_all()
    assert fake.inner is inner and fake.outer is outer
    assert tracer.missing == {"fake.gone"}

    name_id, start, end, parent = tracer.span_arrays()
    names = [tracer.names[i] for i in name_id]
    assert names == ["fake.outer", "fake.inner", "fake.inner"]
    assert parent.tolist() == [-1, 0, 0]
    spans = tracing.totals(tracer)
    outer_total = spans["fake.outer"]["s"]
    assert spans["fake.outer"]["self_s"] == pytest.approx(outer_total - spans["fake.inner"]["s"])


def test_layer_wrappers_cover_the_package_and_count_calls():
    import sdm
    import sdm.core as core

    apply_sequence = sdm.apply_sequence  # a re-export, bound at import time

    original = core.SmoothMap.evaluate
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        assert not tracer.missing
        smap = core.SmoothMap(1, 1, lambda x: 2.0 * x)
        seq = core.DescentSequence(
            steps=(core.DescentStep.from_gain([[0.5]]),) * 3, param_dim=1, feature_dim=1,
            mode=core.Mode.TEMPLATE,
        )
        sdm.apply_sequence(seq, [0.0], smap, y=[1.0])
    finally:
        tracer.unwrap_all()
    assert core.SmoothMap.evaluate is original
    assert sdm.apply_sequence is apply_sequence
    derived = layers.derive(tracer)
    assert derived["core.apply_sequence.s"] > 0
    assert derived["core.SmoothMap.evaluate.calls"] == 3
    assert derived["core.as_vector.calls"] >= 2
    assert derived["core.SmoothMap.jacobian.calls"] == 0
    assert "theory.evals_per_sample" not in derived


def test_metrics_of_a_missing_function_are_absent():
    tracer = tracing.Tracer()
    tracer.missing |= {"sdm.online.rls_ingest", "trainer.train"}
    gone = layers.absent(tracer)
    assert {"online.rls_ingest.m200.ms", "online.rls_ingest.m800.t1.ms", "trainer.train.s",
            "trainer.train.self_s", "trainer.samples_per_s"} <= gone
    assert not gone & {"online.to_sequence.ms", "trainer.solve_stage.s", "train_s"}


# ---------------------------------------------------------- seeded inputs


def test_online_inputs_follow_the_seed():
    a = workloads.online_inputs(7, 100, 50)
    b = workloads.online_inputs(7, 100, 50)
    c = workloads.online_inputs(8, 100, 50)
    for key in a:
        assert np.array_equal(a[key], b[key])
        assert not np.array_equal(a[key], c[key])


def test_pose_streams_follow_the_seed():
    a, b, c = (workloads.pose_streams(s) for s in (7, 7, 8))
    for key in a:
        first = a[key].normal(size=4)
        assert np.array_equal(first, b[key].normal(size=4))
        assert not np.array_equal(first, c[key].normal(size=4))


# ------------------------------------------------------------ BENCHMARK.json


def test_benchmark_file_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    assert {m for cls in workloads.WORKLOADS.values() for m in cls.details} == set(
        workloads.DETAIL)
    assert not set(workloads.DETAIL) & set(workloads.END_TO_END)
