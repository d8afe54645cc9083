"""Batch front door: certify, decompose, dilate, verify and self-test.

Every command reads JSON inputs, writes a JSON report (stdout or ``--out``)
and communicates through exit codes: 0 for success/pass, 2 for a refutation
or failed verification, 1 for usage or I/O errors.  All diagnostics go to
stderr.  Reports are deterministic for fixed inputs apart from the
``timestamp`` field; randomness flows from the single ``--seed`` flag through
documented sub-stream splitting.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import ar_unitary, calculus, certify, dilation, linalg, rational
from ._version import __version__
from .errors import AnnulusLabError
from .linalg import Tolerances

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2


@dataclass(frozen=True)
class JobConfig:
    command: str
    r: float = 0.5
    matrix_path: str | None = None
    function_paths: tuple = ()
    trials: int = 2000
    seed: int = 1
    budget: int | None = 16
    order: int = 32
    out_path: str | None = None
    tols: Tolerances = Tolerances()

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise ValueError("--r must lie strictly between 0 and 1")
        if self.trials < 1:
            raise ValueError("--trials must be >= 1")
        if self.budget is not None and self.budget < 1:
            raise ValueError("--d must be >= 1")
        if self.order < 1:
            raise ValueError("--order must be >= 1")


def _load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        return linalg.matrix_from_json(json.load(fh))


def _load_function(path: str) -> rational.AnnulusRational:
    with open(path) as fh:
        return rational.rational_from_json(json.load(fh))


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(report: dict, config: JobConfig) -> None:
    envelope = {
        "command": config.command,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "result": report,
    }
    text = json.dumps(envelope, sort_keys=True, indent=2, default=_json_default) + "\n"
    if config.out_path:
        with open(config.out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_certify(config: JobConfig) -> int:
    t = _load_matrix(config.matrix_path)
    report, details = certify.full_certification(
        t, config.r, config.trials, config.seed, config.tols
    )
    payload = report.to_json()
    payload["checks"] = details
    _emit(payload, config)
    refuted = report.verdict in (certify.Verdict.REFUTED, certify.Verdict.WILLIAMS_REFUTED)
    return EXIT_REFUTED if refuted else EXIT_OK


def _cmd_decompose(config: JobConfig) -> int:
    t = _load_matrix(config.matrix_path)
    dec = ar_unitary.decompose(t, config.r, config.tols)
    payload = {
        "P1": linalg.matrix_to_json(dec.p1),
        "P2": linalg.matrix_to_json(dec.p2),
        "U1": linalg.matrix_to_json(dec.u1),
        "U2": linalg.matrix_to_json(dec.u2),
        "residual": dec.residual,
        "dim_outer": int(dec.basis1.shape[1]),
        "dim_inner": int(dec.basis2.shape[1]),
        "contour_nodes": dec.contour_nodes,
    }
    _emit(payload, config)
    return EXIT_OK if dec.residual <= config.tols.verify_tol else EXIT_REFUTED


def _cmd_dilate(config: JobConfig) -> int:
    t = _load_matrix(config.matrix_path)
    model = dilation.build_model(t, config.r, config.budget, config.tols)
    pair = model.pair
    table = dilation.moment_table(model, t, config.budget, config.tols)
    moment_residual = max(max(row["forward_residual"], row["inverse_residual"]) for row in table)
    payload = {
        "dim_H": pair.dim_h,
        "dim_K0": pair.dim,
        "M": pair.m,
        "d": pair.d,
        "moment_residual": moment_residual,
        "moments": table,
        "embed_isometry_defect": float(
            linalg.operator_norm(pair.embed.conj().T @ pair.embed - np.eye(pair.dim_h))
        ),
        "fixup_unitarity_defect": float(
            linalg.operator_norm(pair.g.conj().T @ pair.g - np.eye(pair.g.shape[0]))
        ),
    }
    _emit(payload, config)
    return EXIT_OK if moment_residual <= config.tols.verify_tol else EXIT_REFUTED


def _cmd_model_verify(config: JobConfig) -> int:
    t = _load_matrix(config.matrix_path)
    functions = [_load_function(path) for path in config.function_paths]
    budget = config.budget
    budget_capped = False
    if budget is None:
        # default rule: twice the order certifying 1e-10 for the hardest
        # requested function, capped at 24
        budget = max(dilation.default_budget(f) for f in functions)
        budget_capped = budget >= dilation.BUDGET_CAP
    model = dilation.build_model(t, config.r, budget, config.tols)
    rows = []
    ok = True
    for path, f in zip(config.function_paths, functions):
        report = model.tail_report(f)
        residual = dilation.verify_model(model, t, f, config.tols)
        passed = residual <= report["bound"] + config.tols.verify_tol
        ok = ok and passed
        rows.append(
            {
                "function": path,
                "residual": residual,
                "q1_tail": report["q1_tail"],
                "q2_tail": report["q2_tail"],
                "bound": report["bound"],
                "passed": passed,
            }
        )
    payload = {"d": budget, "budget_capped": budget_capped, "functions": rows}
    _emit(payload, config)
    return EXIT_OK if ok else EXIT_REFUTED


def _cmd_laurent(config: JobConfig) -> int:
    f = _load_function(config.function_paths[0])
    series = rational.laurent_expand(f, config.order)
    js = np.arange(-series.order, series.order + 1)
    payload = {
        "r": series.r,
        "order": series.order,
        "coefficients": [
            {"j": int(j), "re": float(c.real), "im": float(c.imag)}
            for j, c in zip(js, series.coeffs)
        ],
        "factor_pos": [[float(c.real), float(c.imag)] for c in series.factor_pos],
        "factor_neg": [[float(c.real), float(c.imag)] for c in series.factor_neg],
        "rho1": series.rho1,
        "rho2": series.rho2,
        "tail_bound": series.tail_bound,
    }
    _emit(payload, config)
    return EXIT_OK


def _cmd_demo_example(config: JobConfig) -> int:
    payload = demo_example(config.r, config.tols)
    _emit(payload, config)
    return EXIT_OK if payload["all_ok"] else EXIT_REFUTED


def demo_example(r: float, tols: Tolerances = linalg.DEFAULT_TOLS) -> dict:
    """End-to-end reproduction of the norm-one shear example at radius ``r``.

    Measures ``||T||``, the spectra of ``T`` and ``T*T``, the completely-
    non-normal split and the minimal-disk refutation, each against its
    expected value.
    """
    t = certify.example_matrix(r)
    norm_t = linalg.operator_norm(t)
    spec_t = linalg.spectrum(t)
    gram = t.conj().T @ t
    gram_eigs = np.sort(np.abs(linalg.eig_normal(gram, tols).lambdas))[::-1]
    _, p_cnn = certify.cnn_split(t, tols)
    williams = certify.williams_verdict(t, r, tols)
    sqrt_r = float(np.sqrt(r))
    checks = {
        "norm": {
            "measured": float(norm_t),
            "expected": 1.0,
            "ok": bool(abs(norm_t - 1.0) <= 1e-12),
        },
        "gram_spectrum": {
            "measured": [float(v) for v in gram_eigs],
            "expected": [1.0, float(r**2)],
            "ok": bool(
                len(gram_eigs) == 2
                and abs(gram_eigs[0] - 1.0) <= 1e-10
                and abs(gram_eigs[1] - r**2) <= 1e-10
            ),
        },
        "spectrum": {
            "measured": [[float(z.real), float(z.imag)] for z in spec_t],
            "expected": [[sqrt_r, 0.0], [sqrt_r, 0.0]],
            "ok": bool(np.all(np.abs(spec_t - sqrt_r) <= 1e-10)),
        },
        "completely_non_normal": {
            "measured": float(linalg.operator_norm(p_cnn - np.eye(2))),
            "expected": 0.0,
            "ok": bool(linalg.operator_norm(p_cnn - np.eye(2)) <= 1e-10),
        },
        "minimal_disk_refutation": {
            "measured": williams.value,
            "expected": certify.WilliamsVerdict.MINIMAL_DISK_REFUTATION.value,
            "ok": williams is certify.WilliamsVerdict.MINIMAL_DISK_REFUTATION,
        },
    }
    return {
        "r": float(r),
        "checks": checks,
        "all_ok": bool(all(c["ok"] for c in checks.values())),
    }


def _selftest_cases(seed: int, tols: Tolerances):
    def linalg_roundtrip():
        q = linalg.random_unitary(3, seed)
        lams = np.exp(1j * np.array([0.3, 1.1, -2.0]))
        a = (q * lams) @ q.conj().T
        eig = linalg.eig_normal(a, tols)
        rec = (eig.q * eig.lambdas) @ eig.q.conj().T
        return linalg.operator_norm(a - rec), 1e-10

    def laurent_tail():
        worst = 0.0
        for k in range(10):
            rng = linalg.seeded_rng(seed, 3, k)
            f = certify.sample_test_function(0.5, rng)
            series = rational.laurent_expand(f, 40)
            theta = 2 * np.pi * np.arange(256) / 256
            worst_f = 0.0
            for radius in (1.0, 0.5):
                z = radius * np.exp(1j * theta)
                approx = sum(
                    series.coefficient(j) * z**j for j in range(-series.order, series.order + 1)
                )
                worst_f = max(worst_f, float(np.max(np.abs(rational.evaluate(f, z) - approx))))
            worst = max(worst, worst_f - series.tail_bound)
        return worst, 0.0 + 1e-12

    def route_agreement():
        worst = 0.0
        for k in range(5):
            t = certify.normal_annulus_matrix(4, 0.5, seed + k)
            f = rational.AnnulusRational(
                r=0.5, p_coeffs=(1.0, 0.5), q1_roots=(2.0 + 0.3j,), q2_roots=(0.2,)
            )
            direct = calculus.eval_direct(f, t, tols)
            order = rational.laurent_order_for(f, 1e-10)
            series_val = calculus.eval_laurent(f, t, order, tols)
            contour = calculus.eval_contour(f, t, calculus.default_contour(f, t, 0.5), tols)
            worst = max(
                worst,
                linalg.operator_norm(direct - series_val),
                linalg.operator_norm(direct - contour),
            )
        return worst, 1e-8

    def ar_roundtrip():
        u1 = linalg.random_unitary(3, seed + 11)
        u2 = linalg.random_unitary(2, seed + 12)
        n = ar_unitary.make_ar_unitary(u1, u2, 0.5, tols)
        q = linalg.random_unitary(5, seed + 13)
        dec = ar_unitary.decompose(q @ n @ q.conj().T, 0.5, tols)
        p1_ref = q[:, :3] @ q[:, :3].conj().T
        m1, m2 = ar_unitary.membership_subspaces(q @ n @ q.conj().T, 0.5, 2, tols)
        return max(
            linalg.operator_norm(dec.p1 - p1_ref),
            linalg.operator_norm(dec.p1 - m1),
            linalg.operator_norm(dec.p2 - m2),
        ), 1e-9

    def ando_moments():
        t = certify.windowed_matrix(3, 0.5, seed + 21)
        t2 = 0.5 * linalg.inverse(t, tols)
        pair = dilation.ando_pair(t, t2, 6, tols)
        worst = 0.0
        x = pair.embed
        for word in ((0, 1), (1, 0), (0, 0, 1), (1, 1, 0)):
            cur = x
            ref = np.eye(3, dtype=complex)
            for letter in word:
                cur = pair.apply_v1(cur) if letter == 0 else pair.apply_v2(cur)
                ref = (t if letter == 0 else t2) @ ref
            worst = max(worst, linalg.operator_norm(pair.embed.conj().T @ cur - ref))
        return worst, 1e-10

    def model_exact():
        t = linalg.random_unitary(3, seed + 31)
        model = dilation.build_model(t, 0.5, 24, tols)
        f = rational.AnnulusRational(
            r=0.5, p_coeffs=(0.3, 1.0), q1_roots=(2.5,), q2_roots=(0.1,)
        )
        return dilation.verify_model(model, t, f, tols), 1e-10

    def single_carrier():
        t = certify.windowed_matrix(3, 0.5, seed + 41)
        g_outer = rational.AnnulusRational(r=0.5, p_coeffs=(1.0, 0.2), q1_roots=(3.0,))
        f_inner = rational.AnnulusRational(r=0.5, p_coeffs=(1.0,), q2_roots=(0.1, -0.05))
        return max(
            dilation.single_carrier_residual(t, 0.5, g_outer, 24, tols),
            dilation.single_carrier_residual(t, 0.5, f_inner, 24, tols),
        ), 1e-10

    def example_reproduction():
        payload = demo_example(0.25, tols)
        return 0.0 if payload["all_ok"] else 1.0, 0.5

    return [
        ("linalg_eig_roundtrip", linalg_roundtrip),
        ("laurent_tail_certified", laurent_tail),
        ("calculus_route_agreement", route_agreement),
        ("ar_unitary_roundtrip", ar_roundtrip),
        ("ando_moment_identities", ando_moments),
        ("model_exact_unitary", model_exact),
        ("single_carrier_cases", single_carrier),
        ("example_reproduction", example_reproduction),
    ]


def _cmd_selftest(config: JobConfig) -> int:
    results = []
    all_ok = True
    for name, case in _selftest_cases(config.seed, config.tols):
        try:
            measure, limit = case()
            ok = bool(measure <= limit)
        except AnnulusLabError as exc:
            measure, limit, ok = float("nan"), float("nan"), False
            print(f"[selftest] {name}: error {exc}", file=sys.stderr)
        all_ok = all_ok and ok
        status = "pass" if ok else "FAIL"
        print(f"[selftest] {name}: {status} (measure={measure:.3e})", file=sys.stderr)
        results.append({"name": name, "measure": measure, "limit": limit, "ok": ok})
    _emit({"cases": results, "all_ok": all_ok}, config)
    return EXIT_OK if all_ok else EXIT_REFUTED


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annulus-lab",
        description="Certify, decompose, dilate and verify operators on the annulus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, matrix=False, functions=False, r=True):
        if r:
            p.add_argument("--r", type=float, default=0.5, help="inner radius in (0,1)")
        if matrix:
            p.add_argument("--matrix", required=True, help="matrix JSON path")
        if functions:
            p.add_argument(
                "--f", action="append", default=[], help="rational function JSON path"
            )
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.add_argument("--seed", type=int, default=1)
        for name in ("eig-tol", "rank-tol", "verify-tol"):
            p.add_argument(f"--{name}", type=float, default=None)

    p = sub.add_parser("certify", help="run the certification battery")
    common(p, matrix=True)
    p.add_argument("--trials", type=int, default=2000)

    p = sub.add_parser("decompose", help="two-circle split of a boundary normal")
    common(p, matrix=True)

    p = sub.add_parser("dilate", help="build the commuting dilation pair for (T, rT^-1)")
    common(p, matrix=True)
    p.add_argument("--d", type=int, default=16, help="degree budget")

    p = sub.add_parser("model-verify", help="verify the two-carrier model on functions")
    common(p, matrix=True, functions=True)
    p.add_argument(
        "--d",
        type=int,
        default=None,
        help="degree budget (default: twice the certified series order, capped at 24)",
    )

    p = sub.add_parser("laurent", help="dump a certified Laurent expansion")
    common(p, functions=True, r=False)
    p.add_argument("--order", type=int, default=32)

    p = sub.add_parser("demo-example", help="reproduce the norm-one shear example")
    common(p)

    p = sub.add_parser("selftest", help="run the invariant suite")
    common(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> JobConfig:
    tols = Tolerances(
        **{
            name: value
            for name in ("eig_tol", "rank_tol", "verify_tol")
            if (value := getattr(args, name, None)) is not None
        }
    )
    return JobConfig(
        command=args.command,
        r=getattr(args, "r", 0.5),
        matrix_path=getattr(args, "matrix", None),
        function_paths=tuple(getattr(args, "f", []) or []),
        trials=getattr(args, "trials", 2000),
        seed=getattr(args, "seed", 1),
        budget=getattr(args, "d", 16),
        order=getattr(args, "order", 32),
        out_path=getattr(args, "out", None),
        tols=tols,
    )


_DISPATCH = {
    "certify": _cmd_certify,
    "decompose": _cmd_decompose,
    "dilate": _cmd_dilate,
    "model-verify": _cmd_model_verify,
    "laurent": _cmd_laurent,
    "demo-example": _cmd_demo_example,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        config = _config_from_args(args)
        if config.command == "laurent" and not config.function_paths:
            print("laurent requires at least one --f", file=sys.stderr)
            return EXIT_USAGE
        if config.command == "model-verify" and not config.function_paths:
            print("model-verify requires at least one --f", file=sys.stderr)
            return EXIT_USAGE
        return _DISPATCH[config.command](config)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AnnulusLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
