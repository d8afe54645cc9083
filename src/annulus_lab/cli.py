"""Batch front door: certify, decompose, dilate, verify and self-test.

Every command reads JSON inputs, writes a JSON report (stdout or ``--out``)
and communicates through exit codes: 0 for success/pass, 2 for a refutation
or failed verification, 1 for usage or I/O errors.  All diagnostics go to
stderr.  Reports are deterministic for fixed inputs apart from the
``timestamp`` field.  Only ``certify`` and ``selftest`` draw random numbers,
from their ``--seed`` through documented sub-stream splitting.  Each
subcommand registers exactly the flags its handler reads.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import ar_unitary, calculus, certify, dilation, linalg, rational
from ._version import __version__
from .errors import AnnulusLabError, SeriesDivergent
from .linalg import Tolerances

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2


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


def _emit(report: dict, args: argparse.Namespace) -> None:
    envelope = {
        "command": args.command,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "result": report,
    }
    text = json.dumps(envelope, sort_keys=True, indent=2, default=_json_default) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_certify(args: argparse.Namespace, tols: Tolerances) -> int:
    t = _load_matrix(args.matrix)
    report, details = certify.full_certification(t, args.r, args.trials, args.seed, tols)
    payload = report.to_json()
    payload["checks"] = details
    _emit(payload, args)
    refuted = report.verdict in (certify.Verdict.REFUTED, certify.Verdict.WILLIAMS_REFUTED)
    return EXIT_REFUTED if refuted else EXIT_OK


def _cmd_decompose(args: argparse.Namespace, tols: Tolerances) -> int:
    t = _load_matrix(args.matrix)
    dec = ar_unitary.decompose(t, args.r, tols)
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
    _emit(payload, args)
    return EXIT_OK if dec.residual <= tols.verify_tol else EXIT_REFUTED


def _cmd_dilate(args: argparse.Namespace, tols: Tolerances) -> int:
    t = _load_matrix(args.matrix)
    model = dilation.build_model(t, args.r, args.d, tols)
    pair = model.pair
    table = dilation.moment_table(model, t, args.d, tols)
    moment_residual = max(max(row["forward_residual"], row["inverse_residual"]) for row in table)
    payload = {
        "dim_H": pair.dim_h,
        "dim_K0": pair.dim,
        "M": pair.m,
        "d": pair.d,
        "moment_residual": moment_residual,
        "moments": table,
        "fixup_unitarity_defect": pair.generator_defects["unitarity"],
    }
    _emit(payload, args)
    return EXIT_OK if moment_residual <= tols.verify_tol else EXIT_REFUTED


def _cmd_model_verify(args: argparse.Namespace, tols: Tolerances) -> int:
    t = _load_matrix(args.matrix)
    functions = [_load_function(path) for path in args.f]
    budget = args.d
    budget_capped = False
    if budget is None:
        # default rule: twice the order certifying 1e-10 for the hardest
        # requested function, capped at 24
        budget = max(dilation.default_budget(f) for f in functions)
        budget_capped = budget >= dilation.BUDGET_CAP
    model = dilation.build_model(t, args.r, budget, tols)
    rows = []
    ok = True
    for path, f in zip(args.f, functions):
        report = model.tail_report(f)
        if not np.isfinite(report["bound"]):
            raise SeriesDivergent(f"{path}: a factor's tail has no certified bound")
        residual = dilation.verify_model(model, t, f, tols)
        passed = residual <= report["bound"] + tols.verify_tol
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
    _emit(payload, args)
    return EXIT_OK if ok else EXIT_REFUTED


def _cmd_laurent(args: argparse.Namespace, tols: Tolerances) -> int:
    f = _load_function(args.f)
    series = rational.laurent_expand(f, args.order)
    if not np.isfinite(series.tail_bound):
        raise SeriesDivergent(f"{args.f}: a factor's tail has no certified bound")
    js = np.arange(-series.order, series.order + 1)
    payload = {
        "r": series.r,
        "order": series.order,
        "coefficients": [
            {"j": int(j), "re": float(c.real), "im": float(c.imag)}
            for j, c in zip(js, series.coeffs)
        ],
        "factor_pos": [linalg.complex_to_pair(c) for c in series.factor_pos],
        "factor_neg": [linalg.complex_to_pair(c) for c in series.factor_neg],
        "rho1": series.rho1,
        "rho2": series.rho2,
        "tail_bound": series.tail_bound,
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_demo_example(args: argparse.Namespace, tols: Tolerances) -> int:
    payload = demo_example(args.r, tols)
    _emit(payload, args)
    return EXIT_OK if payload["all_ok"] else EXIT_REFUTED


def demo_example(r: float, tols: Tolerances = linalg.DEFAULT_TOLS) -> dict:
    """End-to-end reproduction of the norm-one shear example at radius ``r``.

    Measures ``||T||``, the spectra of ``T`` and ``T*T``, the completely-
    non-normal split and the minimal-disk refutation, each against its
    expected value.
    """
    t = certify.example_matrix(r)
    facts = linalg.analysis(t)
    norm_t, spec_t = facts.norm, facts.spectrum
    gram = t.conj().T @ t
    gram_eigs = np.sort(np.abs(linalg.eig_normal(gram, tols).lambdas))[::-1]
    _, p_cnn = certify.cnn_split(t, tols)
    williams = certify.williams_verdict(t, r, tols)
    cnn_defect = linalg.operator_norm(p_cnn - np.eye(2))
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
            "measured": [linalg.complex_to_pair(z) for z in spec_t],
            "expected": [[sqrt_r, 0.0], [sqrt_r, 0.0]],
            "ok": bool(np.all(np.abs(spec_t - sqrt_r) <= 1e-10)),
        },
        "completely_non_normal": {
            "measured": float(cnn_defect),
            "expected": 0.0,
            "ok": bool(cnn_defect <= 1e-10),
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
                # Horner in z for the powers j >= 0 and in 1/z for j < 0
                approx = np.polyval(series.coeffs[series.order :][::-1], z) + np.polyval(
                    np.r_[0.0, series.coeffs[: series.order][::-1]][::-1], 1.0 / z
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


def _cmd_selftest(args: argparse.Namespace, tols: Tolerances) -> int:
    results = []
    all_ok = True
    for name, case in _selftest_cases(args.seed, tols):
        try:
            measure, limit = case()
            ok = bool(measure <= limit)
        except AnnulusLabError as exc:
            # an errored case has no measure; the report says null, not NaN
            measure, limit, ok = None, None, False
            print(f"[selftest] {name}: error {exc}", file=sys.stderr)
        all_ok = all_ok and ok
        status = "pass" if ok else "FAIL"
        shown = "nan" if measure is None else f"{measure:.3e}"
        print(f"[selftest] {name}: {status} (measure={shown})", file=sys.stderr)
        results.append({"name": name, "measure": measure, "limit": limit, "ok": ok})
    _emit({"cases": results, "all_ok": all_ok}, args)
    return EXIT_OK if all_ok else EXIT_REFUTED


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _radius(text: str) -> float:
    r = float(text)
    if not (0.0 < r < 1.0):
        raise argparse.ArgumentTypeError("must lie strictly between 0 and 1")
    return r


def _integer_at_least(least: int):
    """An argparse type: an integer of at least ``least``."""

    def integer(text: str) -> int:
        k = int(text)
        if k < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}")
        return k

    return integer


class _Once(argparse.Action):
    """Store the value, refusing a second occurrence of the flag."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "expected once")
        setattr(namespace, self.dest, values)


_TOLERANCES = ("eig_tol", "rank_tol", "verify_tol")

# The flags that several commands share: (option string, add_argument keywords).
_R = ("--r", dict(type=_radius, default=0.5, help="inner radius in (0,1)"))
_MATRIX = ("--matrix", dict(required=True, help="matrix JSON path"))
_OUT = ("--out", dict(default=None, help="report path (default stdout)"))
_SEED = ("--seed", dict(type=_integer_at_least(0), default=1))
_TOLS = tuple(("--" + tol.replace("_", "-"), dict(type=float, default=None)) for tol in _TOLERANCES)
_F_HELP = "rational function JSON path"


class _Command(NamedTuple):
    summary: str
    handler: Callable[[argparse.Namespace, Tolerances], int]
    flags: tuple


# Every command, its handler and its flags in the order of its usage line:
# the one description that the full parser and a one-command parser read.
_COMMANDS = {
    "certify": _Command(
        "run the certification battery",
        _cmd_certify,
        (_R, _MATRIX, _OUT, _SEED, *_TOLS, ("--trials", dict(type=_integer_at_least(1), default=2000))),
    ),
    "decompose": _Command("two-circle split of a boundary normal", _cmd_decompose, (_R, _MATRIX, _OUT, *_TOLS)),
    "dilate": _Command(
        "build the commuting dilation pair for (T, rT^-1)",
        _cmd_dilate,
        (_R, _MATRIX, _OUT, *_TOLS, ("--d", dict(type=_integer_at_least(1), default=16, help="degree budget"))),
    ),
    "model-verify": _Command(
        "verify the two-carrier model on functions",
        _cmd_model_verify,
        (
            _R,
            _MATRIX,
            _OUT,
            *_TOLS,
            ("--f", dict(action="append", required=True, help=_F_HELP)),
            (
                "--d",
                dict(
                    type=_integer_at_least(1),
                    default=None,
                    help="degree budget (default: twice the certified series order, capped at 24)",
                ),
            ),
        ),
    ),
    "laurent": _Command(
        "dump a certified Laurent expansion",
        _cmd_laurent,
        (
            _OUT,
            ("--f", dict(action=_Once, required=True, help=_F_HELP)),
            ("--order", dict(type=_integer_at_least(1), default=32)),
        ),
    ),
    "demo-example": _Command("reproduce the norm-one shear example", _cmd_demo_example, (_R, _OUT, *_TOLS)),
    "selftest": _Command("run the invariant suite", _cmd_selftest, (_OUT, _SEED, *_TOLS)),
}


def _command_parser(name: str, new=argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The parser of command ``name``, made by ``new``: alone by default,
    or as a subparser of the full tree."""
    # no abbreviations, so a flag a command lacks is never read as a longer one
    parser = new(prog=f"annulus-lab {name}", allow_abbrev=False)
    for option, keywords in _COMMANDS[name].flags:
        parser.add_argument(option, **keywords)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annulus-lab",
        description="Certify, decompose, dilate and verify operators on the annulus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        _command_parser(name, functools.partial(sub.add_parser, name, help=command.summary))
    return parser


def _parse(argv: list) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, building only the named
    command's parser when that is enough.

    The full tree hands a command's parser the strings after the command's
    name, so that parser alone prints the same help and raises the same
    errors.  Only the strings it leaves over are reported by the top-level
    parser, with the top-level usage line; those, and a call that names no
    command first, go to the full tree.
    """
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # only the tolerance flags that were given; Tolerances rejects a 0
        given = {name: value for name in _TOLERANCES if (value := vars(args).get(name)) is not None}
        return _COMMANDS[args.command].handler(args, Tolerances(**given))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AnnulusLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
