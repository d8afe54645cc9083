"""One benchmark process: set up a workload, then measure it.

Started by ``run.py`` with the environment it prepares (``PYTHONPATH`` on the
checkout's ``src``, BLAS pinned to one thread).  The worker prints ``ready``
when set-up (imports, input generators, warm-up instances that fill
first-call caches such as the stress battery) is done; ``run.py`` times
set-up from process start to that line.  From just after numpy is imported
the worker samples host speed with the reference kernel (see ``speed.py``);
the ready line carries the kernel's own time and the factor that scales
set-up time to reference speed, for ``run.py`` to apply.  With ``--setup-only``
the worker then exits; otherwise it prints one JSON line with its
measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

import speed

if __name__ == "__main__":
    SETUP_CLOCK = speed.SetupClock()
    SETUP_CLOCK.start()

# Imported after the set-up clock starts.
import annulus_lab  # noqa: E402

import context  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def latency_summary(latencies: list[float]) -> dict:
    """Median and tail latency in ms.  The median is the lower median, an
    actual sample: with an even count, the mean of the two middle samples
    would sit in the gap between light and heavy instances and swing with
    both.  The tail is the highest percentile with at least ten samples
    beyond it; below 21 samples no percentile above the median has ten
    beyond it, and the tail is the maximum."""
    ordered = sorted(1e3 * x for x in latencies)
    n = len(ordered)
    idx = n - 11 if n >= 21 else n - 1
    return {
        "p50_ms": statistics.median_low(ordered),
        "tail_ms": ordered[idx],
        "tail_percentile": 100.0 * (idx + 1) / n,
        "tail_beyond": n - 1 - idx,
        "samples": n,
    }


def failure_counts(outcomes) -> dict:
    counts = {name: 0 for name in workloads.FAILURE_CLASSES}
    for outcome in outcomes:
        if outcome.status != "ok":
            counts[outcome.status] += 1
    return counts


def rounds_for(w, seconds: float) -> int:
    """Whole rounds that take about ``seconds`` at the workload's nominal
    speed.  The count depends only on ``seconds``, so every run of one seed
    measures the same instances, however fast the host is at the time."""
    return max(1, round(seconds / w.NOMINAL_ROUND_S))


def run_rounds(w, rounds: int, tracer=None, reference=None):
    """Run ``rounds`` whole rounds, closed loop, one instance at a time.
    Returns the outcomes and the wall time of each round."""
    outcomes, walls = [], []
    i = 0
    for _ in range(rounds):
        start = perf_counter()
        for _ in range(len(w.ROUND)):
            outcomes.append(workloads.run_instance(w, i, tracer, reference=reference))
            i += 1
        walls.append(perf_counter() - start)
    return outcomes, walls


def measure(w, seconds: float) -> dict:
    """End-to-end metrics.  Times are scaled to reference host speed (see
    ``speed.at_reference``); the wall-clock figures go in the report."""
    calibration = [context.calibration_ms()]
    outcomes, rounds = run_rounds(w, rounds_for(w, seconds), reference=speed.ReferenceClock())
    calibration.append(context.calibration_ms())
    scaled = [speed.at_reference(o.latency_s, o.references) for o in outcomes]
    lat = latency_summary(scaled)
    wall = latency_summary([o.latency_s for o in outcomes])
    failures = failure_counts(outcomes)
    failed = sum(failures.values())
    n = len(outcomes)
    metrics = {
        "instances_per_s_at_ref": n / sum(scaled),
        "instance_ms_p50_at_ref": lat["p50_ms"],
        "instance_ms_tail_at_ref": lat["tail_ms"],
        "passed_frac": (n - failed) / n,
        "peak_rss_mb": _peak_rss_mb(),
    }
    references = [r for o in outcomes for r in o.references]
    return {
        "metrics": metrics,
        "attempted": n,
        "failed": failed,
        "failures": failures,
        "failed_frac": failed / n,
        "latency_at_ref": lat,
        "wall": {
            "instances_per_s": n / sum(o.latency_s for o in outcomes),
            "instance_ms_p50": wall["p50_ms"],
            "instance_ms_tail": wall["tail_ms"],
        },
        "reference_ms": {
            "nominal": 1e3 * speed.REFERENCE_S,
            "min": 1e3 * min(references),
            "p50": 1e3 * statistics.median(references),
            "max": 1e3 * max(references),
        },
        "timed_wall_s": sum(rounds),
        "calibration_ms": calibration,
        "rounds_s": rounds,
        # kind, wall, at reference speed, reference samples (all ms)
        "latencies_ms": [
            [o.kind, 1e3 * o.latency_s, 1e3 * x, [1e3 * r for r in o.references]] for o, x in zip(outcomes, scaled)
        ],
    }


def measure_traced(w, tracer, seconds: float, spans_path: str) -> dict:
    rounds = rounds_for(w, seconds)
    traced, traced_walls = run_rounds(w, rounds, tracer)
    tracer.uninstall()
    untraced, untraced_walls = run_rounds(w, rounds)
    traced_wall, untraced_wall = sum(traced_walls), sum(untraced_walls)
    kind_of = {o.index: o.kind for o in traced}
    metrics = spans.layer_metrics(tracer.spans, kind_of, w.NORMAL_KINDS)
    metrics["cli.import.ms"] = w.import_ms() if isinstance(w, workloads.CliSession) else 0.0
    n = len(traced)
    metrics["trace.instances"] = n
    metrics["trace.traced_instances_per_s"] = n / traced_wall
    metrics["trace.untraced_instances_per_s"] = n / untraced_wall
    metrics["trace.overhead_frac"] = 1.0 - untraced_wall / traced_wall
    tracer.write(spans_path)
    same = [o.status for o in traced] == [o.status for o in untraced]
    failures = failure_counts(traced)
    return {
        "metrics": metrics,
        "attempted": n,
        "failed": sum(failures.values()),
        "failures": failures,
        "failures_untraced": failure_counts(untraced),
        "outcomes_match": same,
        "rounds": rounds,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    expected = os.path.join(ROOT, "src", "annulus_lab")
    if os.path.dirname(os.path.abspath(annulus_lab.__file__)) != expected:
        print(f"annulus_lab imported from {annulus_lab.__file__}, not {expected}", file=sys.stderr)
        return 1

    outdir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(outdir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    w = workloads.WORKLOADS[args.workload](args.seed, os.path.join(outdir, f"{tag}-{os.getpid()}"))
    try:
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(annulus_lab)
        for i in w.WARMUP_INDICES:
            workloads.run_instance(w, i, tracer, warmup=True)
        spent = SETUP_CLOCK.stop()
        print(f"ready {spent!r} {speed.at_reference(1.0, SETUP_CLOCK.samples)!r}", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            report = measure_traced(w, tracer, args.seconds, os.path.join(outdir, f"spans-{tag}.jsonl.gz"))
        else:
            report = measure(w, args.seconds)
        report["context"] = context.run_context(ROOT)
    finally:
        w.close()
    print(json.dumps(report, default=lambda o: o.item() if isinstance(o, np.generic) else str(o)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
