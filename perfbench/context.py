"""Run context recorded beside every result, and a calibration kernel.

The calibration kernel is a fixed numpy workload that does not use the
program; its time is reported (not gated) so that host speed drift between
runs is visible next to the metrics.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import statistics
import subprocess
from time import perf_counter

import numpy as np
import scipy


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> list[dict]:
    """Version string and thread count of each OpenBLAS loaded by numpy/scipy."""
    found = []
    for package in (np, scipy):
        libdir = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            entry = {"library": os.path.basename(path)}
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    if config is not None and threads is not None:
                        config.restype = ctypes.c_char_p
                        threads.restype = ctypes.c_int
                        entry["config"] = config().decode()
                        entry["threads"] = int(threads())
                        break
                if "threads" in entry:
                    break
            found.append(entry)
    return found


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _src_stats(root: str) -> tuple[int, str]:
    """Line count and content hash of the Python files under ``src/``."""
    lines = 0
    digest = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True))
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        digest.update(os.path.relpath(path, root).encode() + b"\0" + data)
    return lines, digest.hexdigest()


def run_context(root: str) -> dict:
    lines, digest = _src_stats(root)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "ANNULUS_LAB_THREADS": os.environ.get("ANNULUS_LAB_THREADS"),
        "git_commit": _git_commit(root),
        "src_sha256": digest,
        "src_lines": lines,
    }


def calibration_ms(calls: int = 5000, repeats: int = 3) -> float:
    """Median wall time of ``calls`` 5x5 numpy solves, in milliseconds."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    b = np.eye(5, dtype=complex)
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            np.linalg.solve(a, b)
        times.append(1e3 * (perf_counter() - t0))
    return statistics.median(times)
