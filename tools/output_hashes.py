"""Print one sha256 per benchmark workload over what its instances return,
and one over the CI smoke reports, so two commits can be compared by their
outputs.

    python tools/output_hashes.py

The program hashed is the one under this checkout's ``src/``.  Digests:

- ``certify-corpus``: the ``call`` results of instances 0-159 at seeds 3
  and 1009;
- ``spectral-routes``, ``dilation-model``, ``cli-session``: instances 0-44,
  0-59 and 0-35 at seed 3;
- ``smoke``: ``SMOKE_COMMANDS``, the commands of the CLI smoke step in
  ``.github/workflows/tier1.yml``, each command's arguments, exit code and
  JSON report with ``timestamp`` removed (its stderr where it prints no
  report).

Each workload is ``perfbench/workloads.py``'s, loaded by path; its instances
run in index order on emptied caches, as in a fresh benchmark process, and
``cli-session`` empties them before each command, as the workload does.  A
call that raises contributes its error's type and message.  Floats are
hashed by ``float.hex``, arrays by dtype, shape and bytes, a witness by
``rational_to_json``.  Input files go to a fresh directory per run, and
its path is hashed as ``WORKDIR``, a fixed name, because ``model-verify``
reports embed their ``--f`` paths: so runs at once, of one checkout or of
two, print the same digests.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

if __name__ == "__main__":
    # BLAS rounds by its thread split: one thread, as the benchmark and CI run it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from annulus_lab import ar_unitary, certify, cli, linalg, rational  # noqa: E402

# The name every run's working directory is hashed as, whatever the host's
# temporary directory: a name only, no run writes there.
WORKDIR = "/tmp/annulus-lab-output-hashes"
# (workload, seeds, instances per seed)
RUNS = (
    ("certify-corpus", (3, 1009), 160),
    ("spectral-routes", (3,), 45),
    ("dilation-model", (3,), 60),
    ("cli-session", (3,), 36),
)


def _load(name: str):
    """``perfbench/<name>.py`` as the module ``name``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_load("spans")  # workloads.py imports it by name
workloads = _load("workloads")


def _feed(h, value, workdir: str = WORKDIR) -> None:
    """Update ``h`` with a tagged encoding of ``value`` that no other value
    shares, with ``workdir`` read as ``WORKDIR`` in its strings."""
    if isinstance(value, rational.AnnulusRational):
        h.update(b"R")
        _feed(h, rational.rational_to_json(value), workdir)
    elif isinstance(value, np.ndarray):
        h.update(f"A{value.dtype.str}{value.shape}:".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif value is None or isinstance(value, bool):
        h.update(f"B{value};".encode())
    elif isinstance(value, float):  # np.float64 too
        h.update(f"F{value.hex()};".encode())
    elif isinstance(value, int):
        h.update(f"I{value};".encode())
    elif isinstance(value, str):
        data = value.replace(workdir, WORKDIR).encode()
        h.update(f"S{len(data)}:".encode() + data)
    elif isinstance(value, dict):
        h.update(f"D{len(value)}:".encode())
        for key in sorted(value):
            _feed(h, key, workdir)
            _feed(h, value[key], workdir)
    elif isinstance(value, (list, tuple)):
        h.update(f"L{len(value)}:".encode())
        for item in value:
            _feed(h, item, workdir)
    else:
        raise TypeError(f"cannot hash a {type(value).__name__}")


def _calls(name: str, seeds, count: int, workdir: str):
    """The result of each call of workload ``name``, or its error."""
    for seed in seeds:
        workloads._clear_caches()
        w = workloads.WORKLOADS[name](seed, os.path.join(workdir, name))
        try:
            for i in range(count):
                kind = w.kind(i)
                inputs = w.make(i)
                try:
                    yield kind, w.call(kind, inputs)
                except Exception as exc:  # an error is an output too
                    yield kind, ("error", type(exc).__name__, str(exc))
        finally:
            w.close()


# The commands of the CI smoke step, ``.github/workflows/tier1.yml``'s
# ``annulus-lab`` lines in order, without ``--help``, redirections and
# ``--out``; a ``.json`` argument names an input file by its basename.
SMOKE_COMMANDS = [
    ["selftest"],
    ["certify", "--r", "0.5", "--trials", "2000", "--matrix", "smoke_T.json"],
    ["certify", "--matrix", "smoke_T.json", "--bogus", "1"],
    ["certify", "--r", "0.5", "--trials", "2000", "--matrix", "smoke_W.json"],
    ["certify", "--r", "0.5", "--trials", "2000", "--matrix", "smoke_S.json"],
    ["certify", "--r", "0.5", "--trials", "50", "--verify-tol", "nan", "--matrix", "smoke_W.json"],
    ["dilate", "--r", "0.5", "--matrix", "smoke_W.json"],
    ["dilate", "--r", "0.3", "--matrix", "smoke_R.json"],
    ["model-verify", "--r", "0.5", "--matrix", "smoke_W.json", "--f", "smoke_f.json"],
    ["decompose", "--r", "0.5", "--matrix", "smoke_N.json"],
    ["laurent", "--f", "smoke_f.json"],
    ["demo-example", "--r", "0.25"],
    ["certify", "--r", "0.5", "--trials", "2000", "--matrix", "smoke_tiny.json"],
]


def _smoke_reports(workdir: str):
    """``(args, exit code, report or stderr)`` of each of
    ``SMOKE_COMMANDS``, its input files in ``workdir``, on emptied caches,
    as in a fresh process."""
    os.makedirs(workdir, exist_ok=True)
    q = linalg.random_unitary(5, 3)
    n = ar_unitary.make_ar_unitary(linalg.random_unitary(3, 1), linalg.random_unitary(2, 2), 0.5)
    f = rational.AnnulusRational(r=0.5, p_coeffs=(0.3, 1.0), q1_roots=(2.5,), q2_roots=(0.1,))
    inputs = {
        "smoke_T.json": linalg.matrix_to_json(certify.normal_annulus_matrix(4, 0.5, 3)),
        "smoke_W.json": linalg.matrix_to_json(certify.windowed_matrix(4, 0.5, 3)),
        "smoke_S.json": linalg.matrix_to_json(certify.example_matrix(0.5)),
        "smoke_R.json": linalg.matrix_to_json(0.3 * linalg.random_unitary(4, 6)),
        "smoke_f.json": rational.rational_to_json(f),
        "smoke_N.json": linalg.matrix_to_json(q @ n @ q.conj().T),
        "smoke_tiny.json": linalg.matrix_to_json(1e-310 * np.eye(2)),
    }
    for name, obj in inputs.items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(obj, fh)
    for command in SMOKE_COMMANDS:
        args = [os.path.join(workdir, a) if a.endswith(".json") else a for a in command]
        workloads._clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(args)
        if out.getvalue():
            report = json.loads(out.getvalue())
            del report["timestamp"]
        else:
            report = err.getvalue()
        yield args, code, report


def digests(count: int | None = None, workdir: str | None = None) -> dict:
    """``{name: sha256}`` for each workload, over its first ``count``
    instances per seed (all of ``RUNS``' if ``None``), and for ``smoke``.
    The input files go to ``workdir``, a fresh directory if ``None``, which
    is emptied and removed afterwards."""
    workdir = os.path.normpath(workdir or tempfile.mkdtemp(prefix="annulus-lab-output-hashes-"))
    out = {}
    try:
        for name, seeds, total in RUNS:
            h = hashlib.sha256()
            for item in _calls(name, seeds, total if count is None else count, workdir):
                _feed(h, item, workdir)
            out[name] = h.hexdigest()
        h = hashlib.sha256()
        for item in _smoke_reports(os.path.join(workdir, "smoke")):
            _feed(h, item, workdir)
        out["smoke"] = h.hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def main() -> None:
    for name, digest in digests().items():
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
