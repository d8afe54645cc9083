"""Seeded workloads: inputs, the program calls an instance makes, and its check.

An instance is one certified answer.  Each workload runs its instances in
rounds of a fixed composition, so the mix of instance kinds (and hence the
cost of a round) does not depend on the seed; the seed only draws the
matrices and functions.  Instance ``i`` draws its inputs from the stream
``(seed, stream, i)``, so the same seed gives the same inputs.

Inputs are built with the library's public generators and with numpy.  The
program sees only the generated inputs.  Only ``call`` is timed and traced;
input generation and the check run with the tracer paused.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import annulus_lab
from annulus_lab import ar_unitary, calculus, certify, cli, dilation, linalg, rational
from annulus_lab.errors import AnnulusLabError

from spans import CLI_COMMANDS, WARMUP

# Failure classes counted separately; every one of them fails the instance.
FAILURE_CLASSES = ("typed_error", "untyped_error", "nonfinite", "check_failed")


def _norm(a) -> float:
    return float(np.linalg.norm(a, 2))


def _sub_seed(seed: int, stream: int, i: int) -> int:
    return int(linalg.seeded_rng(seed, stream, i).integers(2**31))


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(np.log(lo) + (np.log(hi) - np.log(lo)) * rng.random()))


# (outer roots, inner roots, numerator degree) of the generated functions.
# Fixed shapes keep the cost of an instance independent of the seed.
SHAPES = ((1, 1, 1), (2, 1, 2), (1, 2, 0), (2, 2, 3), (3, 1, 1), (1, 3, 2))


def random_function(r: float, rng, shape: tuple[int, int, int]) -> rational.AnnulusRational:
    """Rational of the given shape with pole clearances that keep the
    certified tails reachable: outer roots of modulus in [1.5, 4], inner
    roots in [r/4, r/1.67]."""
    k1, k2, deg = shape
    q1 = [_log_uniform(rng, 1.5, 4.0) * np.exp(2j * np.pi * rng.random()) for _ in range(k1)]
    q2 = [_log_uniform(rng, r / 4.0, r / 1.67) * np.exp(2j * np.pi * rng.random()) for _ in range(k2)]
    p = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) / np.sqrt(2.0)
    f = rational.AnnulusRational(r=r, p_coeffs=tuple(p), q1_roots=tuple(q1), q2_roots=tuple(q2))
    rational.validate(f)
    return f


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if isinstance(value, (float, complex, np.floating, np.complexfloating)):
        return bool(np.isfinite(value))
    return True


class CommandFailed(Exception):
    """A CLI command exited with a usage/error code.  ``typed`` is true when
    the command reported a toolkit error rather than crashing."""

    def __init__(self, message: str, typed: bool):
        super().__init__(message)
        self.typed = typed


@dataclass(frozen=True)
class Outcome:
    index: int
    kind: str
    latency_s: float
    status: str  # "ok" or one of FAILURE_CLASSES
    # Reference kernel times around and during the call, if taken.
    references: tuple = ()


class Workload:
    """One seeded workload.  Subclasses define ``ROUND`` (the instance kinds
    of one round, in order), ``make``, ``call`` and ``check``."""

    name = ""
    ROUND: tuple = ()
    WARMUP_INDICES: tuple = (0,)
    NORMAL_KINDS: frozenset = frozenset()
    SPAN_PREFIX = "instance."
    # Nominal seconds per round: it sets how many rounds a run of --seconds
    # makes (see worker.rounds_for).  Rounds take longer on a busy host and
    # with the reference kernel's samples (see speed.py).
    NOMINAL_ROUND_S = 1.0

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir

    def kind(self, i: int) -> str:
        return self.ROUND[i % len(self.ROUND)]

    def make(self, i: int):
        raise NotImplementedError

    def call(self, kind: str, inputs):
        raise NotImplementedError

    def check(self, kind: str, inputs, result) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _clear_caches() -> None:
    """Empty the library's function caches (the stress battery's, for one)."""
    for module in (linalg, rational, calculus, certify, ar_unitary, dilation):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _failure_class(exc: BaseException) -> str:
    if isinstance(exc, AnnulusLabError) or getattr(exc, "typed", False):
        return "typed_error"
    return "untyped_error"


def _check(w: Workload, kind: str, inputs, result) -> tuple[str, str]:
    if not _finite(result):
        return "nonfinite", ""
    try:
        return ("ok" if w.check(kind, inputs, result) else "check_failed"), ""
    except Exception as exc:  # a check that cannot be evaluated fails the instance
        return _failure_class(exc), f"in check: {type(exc).__name__}: {exc}"


def run_instance(
    w: Workload, i: int, tracer=None, perturb=None, warmup: bool = False, reference=None, log=sys.stderr
) -> Outcome:
    """Make, call (timed, traced) and check instance ``i`` of workload ``w``.

    ``perturb(kind, result)`` may replace the result before the check; the
    benchmark's tests use it to show that a wrong answer is counted.  A
    ``speed.ReferenceClock`` samples host speed around and during the call
    and its own time is taken off the latency.
    """
    kind = w.kind(i)
    inputs = w.make(i)
    span = tracer.span(w.SPAN_PREFIX + kind, WARMUP if warmup else i) if tracer else nullcontext()
    if reference:
        reference.start()
    t0 = perf_counter()
    try:
        with span:
            result = w.call(kind, inputs)
    except Exception as exc:  # every failure of the program is counted, not raised
        end = perf_counter()
        result, status, detail = None, _failure_class(exc), f"{type(exc).__name__}: {exc}"
    else:
        end = perf_counter()
        status = None
    latency = end - t0 - (reference.stop(end) if reference else 0.0)
    references = tuple(reference.samples) if reference else ()
    if status is None:
        status, detail = _check(w, kind, inputs, result if perturb is None else perturb(kind, result))
    if status != "ok":
        print(f"[perfbench] {w.name} #{i} {kind}: {status} {detail}", file=log)
    return Outcome(index=i, kind=kind, latency_s=latency, status=status, references=references)


# ---------------------------------------------------------------------------
# certify-corpus
# ---------------------------------------------------------------------------


class CertifyCorpus(Workload):
    """``full_certification`` at r = 0.5 with 2000 trials.

    80 % certified-normal matrices and their involutions (known answer
    ``PassedStress``, ratio <= 1 + 1e-10), 20 % non-normal: windowed matrices
    (finite ratio, witnesses replay) and the shear example (refuted).
    """

    name = "certify-corpus"
    R = 0.5
    TRIALS = 2000
    ROUND = tuple(
        "shear" if j == 19 else "windowed" if j % 5 == 4 else ("normal", "involution")[j % 2]
        for j in range(20)
    )
    NORMAL_KINDS = frozenset({"normal", "involution"})
    # Four rounds at 15 s: the tail (ten samples beyond it) then falls inside
    # the 16 non-normal instances rather than at their low end.
    NOMINAL_ROUND_S = 3.75

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.battery_seed = _sub_seed(seed, 30, 0)

    def make(self, i: int):
        kind = self.kind(i)
        s = _sub_seed(self.seed, 31, i)
        if kind == "shear":
            return certify.example_matrix(self.R)
        if kind == "windowed":
            return certify.windowed_matrix(2 + (i % len(self.ROUND)) // 5, self.R, s)
        t = certify.normal_annulus_matrix(2 + i % 5, self.R, s)
        return self.R * np.linalg.inv(t) if kind == "involution" else t

    def call(self, kind, t):
        report, details = certify.full_certification(t, self.R, self.TRIALS, self.battery_seed)
        return {
            "verdict": report.verdict.value,
            "max_ratio": report.max_ratio,
            "norm_t": report.norm_t,
            "norm_rtinv": report.norm_rtinv,
            "witness": report.witness,
            "williams": details["williams"],
        }

    def check(self, kind, t, result) -> bool:
        verdict = result["verdict"]
        tol = linalg.DEFAULT_TOLS.verify_tol
        if abs(result["norm_t"] - _norm(t)) > 1e-12:
            return False
        if kind in self.NORMAL_KINDS:
            return verdict == certify.Verdict.PASSED_STRESS.value and result["max_ratio"] <= 1.0 + 1e-10
        if kind == "shear":
            return verdict in (certify.Verdict.REFUTED.value, certify.Verdict.WILLIAMS_REFUTED.value)
        if verdict == certify.Verdict.PASSED_STRESS.value:
            return result["max_ratio"] <= 1.0 + tol
        if verdict == certify.Verdict.REFUTED.value:
            return self._witness_replays(t, result["witness"], tol)
        return verdict == certify.Verdict.WILLIAMS_REFUTED.value

    @staticmethod
    def _witness_replays(t, f, tol: float) -> bool:
        if f is None:
            return False
        return _norm(calculus.eval_direct(f, t)) / _boundary_sup(f) > 1.0 + tol


def _boundary_sup(f, nodes: int = 1 << 16, chunk: int = 2048) -> float:
    """``rational.boundary_sup_norm(f, nodes)``, evaluated a chunk of nodes
    at a time.  The whole-ring version allocates several MB, and only for
    the refuted instances, which made the check, not the program, set
    ``peak_rss_mb`` for some seeds."""
    ring = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    return max(
        float(np.abs(rational.evaluate(f, scale * ring[k : k + chunk])).max())
        for scale in (1.0, f.r)
        for k in range(0, nodes, chunk)
    )


# ---------------------------------------------------------------------------
# spectral-routes
# ---------------------------------------------------------------------------


class SpectralRoutes(Workload):
    """Three calculus routes on normal T, and two-circle splits, 2 : 1.

    ``routes``: direct, series (order certifying 1e-10) and contour (512
    nodes per circle) on a normal T with moduli in [0.55, 0.95]; they must
    agree to 1e-8 relative and the series remainder must sit within its
    certified bound.  ``split-r``: ``decompose`` and ``membership_subspaces``
    on a conjugated ``diag(U1, r U2)``; the node count ``decompose`` picks
    grows as r approaches 1.
    """

    name = "spectral-routes"
    R = 0.5
    SPLIT_R = {"split-0.5": 0.5, "split-0.8": 0.8, "split-0.9": 0.9}
    ROUND = tuple(k for split in SPLIT_R for k in ("routes", "routes", split))
    WARMUP_INDICES = (0, 2)
    NOMINAL_ROUND_S = 1.25

    def make(self, i: int):
        kind = self.kind(i)
        rng = linalg.seeded_rng(self.seed, 41, i)
        if kind == "routes":
            n = 3 + i % 4
            mods = 0.55 + 0.4 * rng.random(n)
            lams = mods * np.exp(2j * np.pi * rng.random(n))
            q = linalg.random_unitary(n, _sub_seed(self.seed, 42, i))
            j = i % len(self.ROUND)
            shape = SHAPES[2 * (j // 3) + j % 3]
            return (q * lams) @ q.conj().T, random_function(self.R, rng, shape)
        r = self.SPLIT_R[kind]
        rnd = i // len(self.ROUND)
        k1, k2 = 2 + rnd % 2, 1 + rnd % 3
        u1 = linalg.random_unitary(k1, _sub_seed(self.seed, 43, i))
        u2 = linalg.random_unitary(k2, _sub_seed(self.seed, 44, i))
        q = linalg.random_unitary(k1 + k2, _sub_seed(self.seed, 45, i))
        n = ar_unitary.make_ar_unitary(u1, u2, r)
        return q @ n @ q.conj().T, q[:, :k1], q[:, k1:]

    def call(self, kind, inputs):
        if kind == "routes":
            t, f = inputs
            order = rational.laurent_order_for(f, 1e-10)
            return {
                "direct": calculus.eval_direct(f, t),
                "series": calculus.eval_laurent(f, t, order),
                "bound": calculus.laurent_remainder_bound(f, t, order),
                "contour": calculus.eval_contour(f, t, calculus.default_contour(f, t, self.R, nodes=512)),
            }
        m = inputs[0]
        r = self.SPLIT_R[kind]
        dec = ar_unitary.decompose(m, r)
        m1, m2 = ar_unitary.membership_subspaces(m, r)
        return {"p1": dec.p1, "p2": dec.p2, "m1": m1, "m2": m2, "residual": dec.residual}

    def check(self, kind, inputs, res) -> bool:
        if kind == "routes":
            direct, series, contour = res["direct"], res["series"], res["contour"]
            scale = max(_norm(direct), np.finfo(float).tiny)
            agree = max(_norm(direct - series), _norm(direct - contour), _norm(series - contour))
            # direct carries roundoff of its own; allow it on top of the bound
            within_bound = _norm(series - direct) <= res["bound"] + 1e-12 * max(1.0, scale)
            return agree <= 1e-8 * scale and within_bound
        _, b1, b2 = inputs
        recovery = max(_norm(res["p1"] - b1 @ b1.conj().T), _norm(res["p2"] - b2 @ b2.conj().T))
        routes = max(_norm(res["p1"] - res["m1"]), _norm(res["p2"] - res["m2"]))
        return recovery <= 1e-10 and routes <= 1e-9 and res["residual"] <= 1e-8


# ---------------------------------------------------------------------------
# dilation-model
# ---------------------------------------------------------------------------


class DilationModel(Workload):
    """The ``model-verify`` path at r = 0.7 with four functions per T.

    A third of the T are unitary or r * unitary (the exact regime), the rest
    windowed non-normal; h is 2-6, and every tenth instance has h = 16.  The
    budget is the largest ``default_budget`` of the four (capped at 24).
    """

    name = "dilation-model"
    R = 0.7
    ROUND = tuple("exact" if j % 3 == 0 else "windowed" for j in range(30))
    NOMINAL_ROUND_S = 3.0

    @staticmethod
    def dim(i: int) -> int:
        return 16 if i % 10 == 9 else 2 + i % 5

    def make(self, i: int):
        kind = self.kind(i)
        h = self.dim(i)
        s = _sub_seed(self.seed, 51, i)
        if kind == "windowed":
            t = certify.windowed_matrix(h, self.R, s)
        else:
            t = linalg.random_unitary(h, s) * (1.0 if (i // 3) % 2 == 0 else self.R)
        rng = linalg.seeded_rng(self.seed, 52, i)
        return t, tuple(random_function(self.R, rng, shape) for shape in SHAPES[:4])

    def call(self, kind, inputs):
        t, fs = inputs
        d = max(dilation.default_budget(f) for f in fs)
        model = dilation.build_model(t, self.R, d)
        bounds, residuals = [], []
        for f in fs:
            bounds.append(model.tail_report(f)["bound"])
            residuals.append(dilation.verify_model(model, t, f))
        return {
            "d": d,
            "bounds": np.array(bounds),
            "residuals": np.array(residuals),
            "moments": dilation.verify_moments(model, t, d),
        }

    def check(self, kind, inputs, res) -> bool:
        return (
            1 <= res["d"] <= 24
            and bool(np.all(res["residuals"] <= res["bounds"] + 1e-8))
            and res["moments"] <= 1e-10
        )


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


class CliSession(Workload):
    """The ``annulus-lab`` commands, one at a time, on seeded input files;
    ``certify`` and ``model-verify`` run on a normal (unitary) and on a
    non-normal T.

    Each command goes through the CLI's entry point (argument parsing, JSON
    input and report) in this process, with the library's caches emptied
    before it as in a fresh process, so each ``certify`` builds its stress
    battery.  Interpreter, numpy and scipy start-up is not in the instances:
    it lands in ``setup_s`` and in the traced run's ``cli.import.ms``.  The
    commands do not run as fresh processes because process start-up swings
    with the host in a way no in-run reference tracks, and eight commands a
    run are too few to average it out.  The check reads the exit code and
    the key fields of the JSON report.
    """

    name = "cli-session"
    ROUND = CLI_COMMANDS
    SPAN_PREFIX = "cli."
    NOMINAL_ROUND_S = 7.5
    R = 0.5
    SPLIT_R = 0.8

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        os.makedirs(workdir, exist_ok=True)

    def _write(self, i: int, name: str, obj) -> str:
        path = os.path.join(self.workdir, f"{i}-{name}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def make(self, i: int):
        _clear_caches()
        kind = self.kind(i)
        s = _sub_seed(self.seed, 61, i)
        rng = linalg.seeded_rng(self.seed, 62, i)
        r = str(self.R)
        if kind == "demo-example":
            return {"args": ["demo-example", "--r", "0.25"]}
        if kind in ("certify", "certify_nonnormal"):
            t = (
                certify.normal_annulus_matrix(4, self.R, s)
                if kind == "certify"
                else certify.windowed_matrix(3, self.R, s)
            )
            path = self._write(i, "T", linalg.matrix_to_json(t))
            args = ["certify", "--r", r, "--matrix", path, "--trials", "2000", "--seed", str(s)]
            return {"args": args, "t": t}
        if kind == "laurent":
            f = random_function(self.R, rng, SHAPES[3])
            path = self._write(i, "f", rational.rational_to_json(f))
            return {"args": ["laurent", "--f", path, "--order", "32"], "f": f}
        if kind == "decompose":
            u1 = linalg.random_unitary(3, _sub_seed(self.seed, 63, i))
            u2 = linalg.random_unitary(2, _sub_seed(self.seed, 64, i))
            q = linalg.random_unitary(5, s)
            n = q @ ar_unitary.make_ar_unitary(u1, u2, self.SPLIT_R) @ q.conj().T
            path = self._write(i, "N", linalg.matrix_to_json(n))
            return {"args": ["decompose", "--r", str(self.SPLIT_R), "--matrix", path], "b1": q[:, :3]}
        # model-verify_exact: a unitary T, for which the model is exact
        t = linalg.random_unitary(3, s) if kind == "model-verify_exact" else certify.windowed_matrix(3, self.R, s)
        path = self._write(i, "T", linalg.matrix_to_json(t))
        if kind == "dilate":
            return {"args": ["dilate", "--r", r, "--matrix", path, "--d", "16"]}
        if kind.startswith("model-verify"):
            args = ["model-verify", "--r", r, "--matrix", path]
            for k in range(2):
                f = random_function(self.R, rng, SHAPES[k])
                args += ["--f", self._write(i, f"f{k}", rational.rational_to_json(f))]
            return {"args": args}
        # At its default seed, as the README runs it.  Some other seeds fail
        # calculus_route_agreement: the 512-node contour loses accuracy when
        # an eigenvalue sits within ~0.01 of a circle (e.g. --seed 244).
        return {"args": ["selftest"]}

    def call(self, kind, inputs):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(inputs["args"])
        if code not in (0, 2):
            # The CLI reports its own errors as "error: ..." with exit code 1.
            lines = err.getvalue().strip().splitlines()
            last = lines[-1] if lines else f"exit code {code}"
            raise CommandFailed(last, typed=code == 1 and last.startswith("error: "))
        return {"exit": code, "report": json.loads(out.getvalue())["result"]}

    def check(self, kind, inputs, res) -> bool:
        rep, code = res["report"], res["exit"]
        if kind == "certify":
            return code == 0 and rep["verdict"] == "PassedStress" and rep["max_ratio"] <= 1.0 + 1e-10
        if kind == "certify_nonnormal":
            refuted = rep["verdict"] in ("Refuted", "WilliamsRefuted")
            witnessed = rep["verdict"] != "Refuted" or rep["witness"] is not None
            return code == (2 if refuted else 0) and witnessed and rep["max_ratio"] < np.inf
        if kind == "laurent":
            expected = rational.laurent_expand(inputs["f"], 32).coeffs
            got = np.array([c["re"] + 1j * c["im"] for c in rep["coefficients"]])
            scale = max(1.0, float(np.abs(expected).max()))
            return code == 0 and got.shape == expected.shape and float(np.abs(got - expected).max()) <= 1e-12 * scale
        if kind == "decompose":
            p1 = linalg.matrix_from_json(rep["P1"])
            b1 = inputs["b1"]
            return (
                code == 0
                and rep["residual"] <= 1e-8
                and (rep["dim_outer"], rep["dim_inner"]) == (3, 2)
                and _norm(p1 - b1 @ b1.conj().T) <= 1e-10
            )
        if kind == "dilate":
            return code == 0 and rep["d"] == 16 and rep["moment_residual"] <= 1e-8
        if kind.startswith("model-verify"):
            rows = rep["functions"]
            return (
                code == 0
                and 1 <= rep["d"] <= 24
                and len(rows) == 2
                and all(row["passed"] and row["residual"] <= row["bound"] + 1e-8 for row in rows)
            )
        return code == 0 and rep["all_ok"] is True

    def import_ms(self, repeats: int = 5) -> float:
        """Median wall time of a fresh process that only imports the CLI."""
        # The fresh process imports the same copy of the program as this one.
        src = os.path.dirname(os.path.dirname(os.path.abspath(annulus_lab.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "import annulus_lab.cli"], check=True, timeout=60, env=env)
            times.append(1e3 * (perf_counter() - t0))
        return float(np.median(times))

    def close(self) -> None:
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)


WORKLOADS = {w.name: w for w in (CertifyCorpus, SpectralRoutes, DilationModel, CliSession)}
