"""Smoke-sized checks of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import speed
import spans
import worker
import workloads
from annulus_lab.errors import NotSquare

from conftest import ROOT

# A few instances per workload, covering each code path cheaply.
SMOKE = {
    "certify-corpus": (0, 1, 4, 19),
    "spectral-routes": (0, 2, 8),
    "dilation-model": (0, 1, 9),
    "cli-session": (0, 2),
}

PERTURB = {
    "certify-corpus": lambda kind, res: dict(res, verdict="PassedNecessary"),
    "spectral-routes": lambda kind, res: (
        dict(res, contour=res["contour"] * (1 + 1e-6)) if kind == "routes" else dict(res, p1=res["p1"] + 1e-6)
    ),
    "dilation-model": lambda kind, res: dict(res, residuals=res["bounds"] + 1e-6),
    "cli-session": lambda kind, res: dict(res, exit=1),
}


def _declared(key: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def _outcomes(name, tmp_path, tracer=None, perturb=None):
    w = workloads.WORKLOADS[name](7, str(tmp_path / "work"))
    try:
        return [workloads.run_instance(w, i, tracer, perturb) for i in SMOKE[name]]
    finally:
        w.close()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_emitted_metrics_are_declared(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outcomes_match(name, tmp_path):
    import annulus_lab

    tracer = spans.Tracer()
    tracer.install(annulus_lab)
    try:
        traced = _outcomes(name, tmp_path, tracer)
    finally:
        tracer.uninstall()
    untraced = _outcomes(name, tmp_path)
    assert [o.status for o in traced] == [o.status for o in untraced] == ["ok"] * len(SMOKE[name])
    assert tracer.spans, "the traced instances recorded no spans"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_perturbed_result_is_counted_as_failed(name, tmp_path):
    outcomes = _outcomes(name, tmp_path, perturb=PERTURB[name])
    counts = worker.failure_counts(outcomes)
    assert counts["check_failed"] == len(outcomes)


def test_failure_classes_are_counted_separately(tmp_path):
    class Faulty(workloads.Workload):
        name = "faulty"
        ROUND = ("typed", "untyped", "nan", "wrong", "right")

        def make(self, i):
            return None

        def call(self, kind, inputs):
            if kind == "typed":
                raise NotSquare("typed failure")
            if kind == "untyped":
                raise AssertionError("bare failure")
            return {"value": np.nan if kind == "nan" else 1.0}

        def check(self, kind, inputs, result):
            return kind == "right"

    w = Faulty(0, str(tmp_path))
    outcomes = [workloads.run_instance(w, i, log=open(os.devnull, "w")) for i in range(5)]
    assert [o.status for o in outcomes] == ["typed_error", "untyped_error", "nonfinite", "check_failed", "ok"]
    assert worker.failure_counts(outcomes) == {
        "typed_error": 1,
        "untyped_error": 1,
        "nonfinite": 1,
        "check_failed": 1,
    }


def test_tail_is_highest_percentile_with_ten_beyond():
    summary = worker.latency_summary([i / 1e3 for i in range(1, 101)])
    assert summary["tail_ms"] == pytest.approx(90.0)
    assert summary["tail_beyond"] == 10 and summary["samples"] == 100
    assert summary["p50_ms"] == pytest.approx(50.0)
    short = worker.latency_summary([i / 1e3 for i in range(1, 17)])
    assert short["tail_ms"] == pytest.approx(16.0) and short["tail_beyond"] == 0


def test_reference_clock_samples_during_the_call(tmp_path):
    class Sleeper(workloads.Workload):
        name = "sleeper"
        ROUND = ("nap",)

        def make(self, i):
            return None

        def call(self, kind, inputs):
            time.sleep(0.6)
            return {"slept": True}

        def check(self, kind, inputs, result):
            return result["slept"]

    clock = speed.ReferenceClock()
    outcome = workloads.run_instance(Sleeper(0, str(tmp_path)), 0, reference=clock)
    assert outcome.status == "ok"
    # before, two ticks at least, after
    assert len(outcome.references) >= 4
    # The ticks run inside the sleep, which still lasts 0.6 s of wall time;
    # their own time is taken off the latency.
    spent = sum(s for _, s in clock._ticks)
    assert spent > 0
    assert 0.6 - spent <= outcome.latency_s < 0.6 - spent / 2
    scaled = speed.at_reference(outcome.latency_s, [speed.REFERENCE_S] * 2)
    assert scaled == pytest.approx(outcome.latency_s)


def test_self_time_subtracts_children():
    # parent 0..10 with children 1..3 and 4..8 (ids open in order: 0, 1, 2)
    recorded = [
        ("linalg.solve", 1.0, 3.0, 1, 0, 0, False, None),
        ("linalg.spectrum", 4.0, 8.0, 2, 0, 0, False, None),
        ("calculus.eval_direct", 0.0, 10.0, 0, -1, 0, False, None),
    ]
    metrics = spans.layer_metrics(recorded, {0: "x"}, frozenset())
    assert metrics["calculus.eval_direct.busy_s"] == 10.0
    assert metrics["calculus.eval_direct.self_s"] == 4.0
    assert metrics["linalg.solve.self_s"] == 2.0
    assert set(metrics) | {"cli.import.ms", *(k for k in _declared("per_layer") if k.startswith("trace."))} == set(
        _declared("per_layer")
    )


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    (tmp_path / "BENCHMARK.json").write_text(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-session", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
