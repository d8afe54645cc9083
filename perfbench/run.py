"""annulus-lab benchmark: four seeded closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-corpus --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``certify-corpus``, ``spectral-routes``,
``dilation-model`` and ``cli-session``.  Each is a single caller in a single
process with BLAS pinned to one thread, running whole rounds of instances,
closed loop: as many rounds as take ``--seconds`` on an idle host.  The
round count depends only on ``--seconds``, so every run of a seed measures
the same instances.  Every instance's output is checked.

``--trace 0`` prints the end-to-end metrics declared in ``BENCHMARK.json``:
throughput, median and tail latency, the share of instances that passed,
set-up time (median of three fresh processes, timed from process start to
the end of warm-up) and peak resident memory.  Throughput, latencies and
set-up time are at reference host speed (``_at_ref``; ``setup_s`` too): a
fixed kernel (a Python loop and small numpy solves) is timed just before,
every quarter second during and just after every timed call, and through
set-up from just after the worker imports numpy; each wall time, less the kernel's own time, is scaled by the
kernel's nominal time over its mean measured time.  On a shared host whose
speed drifts by up to 1.7x within seconds this cancels most of the drift
(see ``speed.py``).  The wall-clock figures are printed
beside them in the report line.  ``--trace 1`` instead runs a fixed number
of rounds with every public function of the library's layers wrapped, then
the same rounds untraced, and prints the per-layer metrics.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run context, failure classes, tail percentile, wall-clock figures,
reference kernel times and calibration time.  A
full report (and, when tracing, the spans) is written under
``perfbench/out/``.  Seed 1009 is held out: it is not used while tuning, so
a later performance claim can be confirmed on it.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify-corpus", "spectral-routes", "dilation-model", "cli-session")
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ANNULUS_LAB_THREADS")

# Whole run, set-up included, must end well within 180 s.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _declared() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def _environment() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def _run_worker(args: list[str], deadline: float) -> tuple[float, float, float, dict | None]:
    """Start a worker; return its set-up time, the time its reference
    kernel took during set-up, the factor that scales set-up to reference
    speed, and its final JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = perf_counter()
    # A session of its own, so that the worker and any command it runs can be
    # stopped together.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=_environment(), cwd=ROOT, start_new_session=True
    )

    def stop():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), stop)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            stop()
            proc.wait()
        proc.stdout.close()
    fields = ready.split()
    if code != 0 or len(fields) != 3 or fields[0] != "ready":
        raise BenchError(f"worker {' '.join(args)} failed with exit code {code}")
    lines = rest.strip().splitlines()
    return setup_s, float(fields[1]), float(fields[2]), json.loads(lines[-1]) if lines else None


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(ROOT, "src", "annulus_lab", "__init__.py")):
        raise BenchError(f"no program to measure: {ROOT}/src/annulus_lab is missing")
    e2e_units, layer_units = _declared()
    deadline = perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    repeats = 1 if trace else SETUP_REPEATS
    setups, setups_at_ref = [], []
    for k in range(repeats):
        setup_s, spent_s, scale, report = _run_worker(base + (["--setup-only"] if k < repeats - 1 else []), deadline)
        setups.append(setup_s)
        setups_at_ref.append((setup_s - spent_s) * scale)
    metrics = report.pop("metrics")
    units = layer_units if trace else e2e_units
    if not trace:
        metrics["setup_s"] = statistics.median(setups_at_ref)
    if set(metrics) != set(units):
        raise BenchError(f"emitted metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    correct = report["failed"] == 0 and report.get("outcomes_match", True)
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report.update(
        workload=workload, seed=seed, seconds=seconds, trace=trace, setup_wall_s=setups, setup_at_ref_s=setups_at_ref
    )
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="annulus-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Turn a termination request into an exit that stops the worker first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result, report = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"result": result, "report": report}, fh, indent=1)
    summary = {k: v for k, v in report.items() if k not in ("rounds_s", "latencies_ms")}
    print(json.dumps({"report": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
