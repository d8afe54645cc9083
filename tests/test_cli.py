import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from annulus_lab import certify, cli, rational
from annulus_lab.calculus import default_contour
from annulus_lab.certify import example_matrix, windowed_matrix
from annulus_lab.errors import Singular
from annulus_lab.linalg import matrix_to_json, random_unitary
from annulus_lab.rational import AnnulusRational, rational_to_json


def write_matrix(path, mat):
    path.write_text(json.dumps(matrix_to_json(mat)))
    return str(path)


def write_function(path, f):
    path.write_text(json.dumps(rational_to_json(f)))
    return str(path)


def read_report(path):
    return json.loads(path.read_text())


class TestCertifyCommand:
    def test_shear_example_exits_refuted(self, tmp_path):
        mat = write_matrix(tmp_path / "t.json", example_matrix(0.25))
        out = tmp_path / "report.json"
        code = cli.main(
            ["certify", "--r", "0.25", "--matrix", mat, "--trials", "2000", "--seed", "1", "--out", str(out)]
        )
        assert code == cli.EXIT_REFUTED
        result = read_report(out)["result"]
        assert result["verdict"] in ("Refuted", "WilliamsRefuted")
        assert result["checks"]["williams"] == "MinimalDiskRefutation"
        assert result["checks"]["norm_window"] is True
        assert result["stress_route"] == "factored"

    def test_unitary_passes(self, tmp_path):
        mat = write_matrix(tmp_path / "u.json", random_unitary(3, 4))
        out = tmp_path / "report.json"
        code = cli.main(
            ["certify", "--r", "0.5", "--matrix", mat, "--trials", "200", "--seed", "2", "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        result = read_report(out)["result"]
        assert result["verdict"] == "PassedStress"
        assert result["stress_route"] == "spectral"


class TestDecomposeCommand:
    def test_identity_input(self, tmp_path):
        mat = write_matrix(tmp_path / "id4.json", np.eye(4))
        out = tmp_path / "report.json"
        code = cli.main(["decompose", "--r", "0.5", "--matrix", mat, "--out", str(out)])
        assert code == cli.EXIT_OK
        result = read_report(out)["result"]
        assert result["dim_outer"] == 4 and result["dim_inner"] == 0
        assert result["contour_nodes"] == 512


class TestModelVerifyCommand:
    def test_windowed_instance_passes(self, tmp_path):
        mat = write_matrix(tmp_path / "t.json", windowed_matrix(3, 0.5, 7))
        fn = write_function(
            tmp_path / "f.json",
            AnnulusRational(r=0.5, p_coeffs=(1.0, 0.2), q1_roots=(3.0,), q2_roots=(0.1,)),
        )
        out = tmp_path / "report.json"
        code = cli.main(
            ["model-verify", "--r", "0.5", "--matrix", mat, "--f", fn, "--d", "16", "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        result = read_report(out)["result"]
        row = result["functions"][0]
        assert row["passed"] and row["residual"] <= row["bound"] + 1e-8
        assert result["budget_capped"] is False

    def test_reports_clustered_roots_and_a_capped_budget(self, tmp_path):
        mat = write_matrix(tmp_path / "t.json", windowed_matrix(2, 0.5, 8))
        clustered = write_function(
            tmp_path / "clustered.json",
            AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(3.0, 3.0), q2_roots=(0.1,)),
        )
        slow = write_function(
            tmp_path / "slow.json", AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(1.05,))
        )
        out = tmp_path / "report.json"
        args = ["model-verify", "--r", "0.5", "--matrix", mat, "--f", clustered, "--f", slow]
        cli.main(args + ["--out", str(out)])
        result = read_report(out)["result"]
        assert result["d"] == 24 and result["budget_capped"] is True
        assert [row["passed"] for row in result["functions"]] == [True, True]


class TestDilateCommand:
    def test_moment_table(self, tmp_path):
        mat = write_matrix(tmp_path / "t.json", windowed_matrix(3, 0.5, 9))
        out = tmp_path / "report.json"
        code = cli.main(["dilate", "--r", "0.5", "--matrix", mat, "--d", "8", "--out", str(out)])
        assert code == cli.EXIT_OK
        result = read_report(out)["result"]
        assert result["moment_residual"] <= 1e-10
        assert result["M"] == 9
        assert "embed_isometry_defect" not in result
        assert result["fixup_unitarity_defect"] <= 1e-10


class TestLaurentCommand:
    def test_dump(self, tmp_path):
        fn = write_function(
            tmp_path / "f.json", AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,))
        )
        out = tmp_path / "report.json"
        code = cli.main(["laurent", "--f", fn, "--order", "8", "--out", str(out)])
        assert code == cli.EXIT_OK
        result = read_report(out)["result"]
        assert result["factor_pos"][0] == [-0.5, 0.0]
        assert result["tail_bound"] > 0


class TestUnboundedTail:
    """A function whose factor tail has no certified bound is refused with
    exit 1, not reported with a NaN or infinite bound."""

    F = AnnulusRational(r=0.5, q1_roots=(1 + 1e-12,) * 6)

    def test_laurent(self, tmp_path, capsys):
        fn = write_function(tmp_path / "f.json", self.F)
        out = tmp_path / "report.json"
        assert cli.main(["laurent", "--f", fn, "--order", "10", "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: SeriesDivergent: {fn}: a factor's tail has no certified bound\n" and not out.exists()

    @pytest.mark.parametrize(
        "f", [F, AnnulusRational(r=0.5, p_coeffs=(1e308, 1e308))], ids=["tail", "numerator-overflow"]
    )
    def test_model_verify(self, f, tmp_path, capsys):
        mat = write_matrix(tmp_path / "t.json", windowed_matrix(3, 0.5, 7))
        fn = write_function(tmp_path / "f.json", f)
        out = tmp_path / "report.json"
        assert cli.main(["model-verify", "--r", "0.5", "--matrix", mat, "--f", fn, "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: SeriesDivergent: {fn}: a factor's tail has no certified bound\n" and not out.exists()


class TestDemoExampleCommand:
    def test_reproduction(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["demo-example", "--r", "0.25", "--out", str(out)])
        assert code == cli.EXIT_OK
        result = read_report(out)["result"]
        assert result["all_ok"]
        assert result["checks"]["norm"]["measured"] == pytest.approx(1.0, abs=1e-12)
        assert result["checks"]["gram_spectrum"]["measured"] == pytest.approx([1.0, 0.0625], abs=1e-10)


class TestExitCodes:
    def test_missing_file_is_usage_error(self, tmp_path):
        code = cli.main(["certify", "--r", "0.5", "--matrix", str(tmp_path / "nope.json")])
        assert code == cli.EXIT_USAGE

    def test_bad_radius_is_usage_error(self, tmp_path):
        mat = write_matrix(tmp_path / "t.json", np.eye(2))
        assert cli.main(["certify", "--r", "1.5", "--matrix", mat]) == cli.EXIT_USAGE

    def test_malformed_matrix_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]}))
        assert cli.main(["certify", "--r", "0.5", "--matrix", str(bad)]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("data", [[[1]], [[None, 0]], 5, [5]], ids=["short", "null", "scalar", "bare-number"])
    def test_malformed_matrix_entry_is_usage_error(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": 1, "cols": 1, "data": data}))
        assert cli.main(["dilate", "--r", "0.5", "--matrix", str(bad)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: malformed matrix object")

    @pytest.mark.parametrize("rows", [2.5, "2", True], ids=["float", "string", "bool"])
    def test_non_integer_matrix_dimension_is_usage_error(self, tmp_path, capsys, rows):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": rows, "cols": 1, "data": [[1.0, 0.0]] * 2}))
        assert cli.main(["dilate", "--r", "0.5", "--matrix", str(bad)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: malformed matrix object")

    def test_malformed_function_pair_is_usage_error(self, tmp_path, capsys):
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"r": 0.5, "p": [[1, 0, 99]], "scale": [1, 0]}))
        assert cli.main(["laurent", "--f", str(fn), "--order", "1"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: malformed rational object")

    @pytest.mark.parametrize(
        "key, value",
        [("q1_roots", [[float("nan"), 0]]), ("p", [[float("nan"), 0]]), ("q2_roots", [[float("nan"), 0]]),
         ("q1_roots", [[float("inf"), 0]])],
        ids=["nan-q1", "nan-p", "nan-q2", "inf-q1"],
    )
    def test_non_finite_function_is_usage_error(self, tmp_path, capsys, key, value):
        obj = {"r": 0.5, "p": [[1, 0]], "scale": [1, 0], key: value}
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps(obj))  # writes the NaN and Infinity tokens
        assert cli.main(["laurent", "--f", str(fn), "--order", "1"]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert err.startswith("error: InvalidRational")
        assert "NaN" not in out

    def test_function_on_another_radius_is_usage_error(self, tmp_path, capsys):
        mat = write_matrix(tmp_path / "t.json", windowed_matrix(3, 0.5, 7))
        fn = write_function(
            tmp_path / "f.json", AnnulusRational(r=0.3, p_coeffs=(1.0, 0.2), q1_roots=(3.0,), q2_roots=(0.1,))
        )
        args = ["model-verify", "--r", "0.5", "--matrix", mat, "--f", fn, "--out", str(tmp_path / "r.json")]
        assert cli.main(args) == cli.EXIT_USAGE
        assert "InvalidRational: mismatched radii 0.3 and 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "nan", "inf"])
    @pytest.mark.parametrize("flag", ["--eig-tol", "--rank-tol", "--verify-tol"])
    def test_zero_tolerance_is_usage_error(self, flag, value):
        assert cli.main(["demo-example", flag, value]) == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("decompose", "--seed", "1"),
            ("dilate", "--seed", "1"),
            ("model-verify", "--seed", "1"),
            ("laurent", "--seed", "1"),
            ("demo-example", "--seed", "1"),
            ("laurent", "--eig-tol", "1e-10"),
            ("laurent", "--rank-tol", "1e-9"),
            ("laurent", "--verify-tol", "1e-8"),
            ("selftest", "--r", "0.5"),
        ],
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, tmp_path, command, flag, value):
        # each command would otherwise run and exit 0 on these inputs
        mat = write_matrix(tmp_path / "t.json", np.eye(2))
        fn = write_function(tmp_path / "f.json", AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,)))
        inputs = {
            "decompose": ["--matrix", mat],
            "dilate": ["--matrix", mat, "--d", "2"],
            "model-verify": ["--matrix", mat, "--f", fn, "--d", "2"],
            "laurent": ["--f", fn, "--order", "4"],
            "demo-example": ["--r", "0.25"],
            "selftest": [],
        }[command]
        args = [command, *inputs, "--out", str(tmp_path / "r.json")]
        if command != "selftest":
            assert cli.main(args) == cli.EXIT_OK
        assert cli.main(args + [flag, value]) == cli.EXIT_USAGE

    def test_laurent_takes_one_function(self, tmp_path):
        fn = write_function(tmp_path / "f.json", AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,)))
        out = str(tmp_path / "r.json")
        assert cli.main(["laurent", "--f", fn, "--out", out]) == cli.EXIT_OK
        assert cli.main(["laurent", "--f", fn, "--f", fn, "--out", out]) == cli.EXIT_USAGE

    def test_missing_function_is_usage_error(self, tmp_path):
        mat = write_matrix(tmp_path / "t.json", np.eye(2))
        assert cli.main(["laurent", "--order", "4"]) == cli.EXIT_USAGE
        assert cli.main(["model-verify", "--matrix", mat]) == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "args",
        [
            ["demo-example", "--r", "0"],
            ["demo-example", "--r", "nan"],
            ["dilate", "--d", "0"],
            ["certify", "--trials", "0"],
            ["laurent", "--order", "0"],
        ],
    )
    def test_out_of_range_value_is_usage_error(self, tmp_path, args):
        mat = write_matrix(tmp_path / "t.json", np.eye(2))
        fn = write_function(tmp_path / "f.json", AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,)))
        inputs = {"demo-example": [], "laurent": ["--f", fn]}.get(args[0], ["--matrix", mat])
        assert cli.main(args + inputs) == cli.EXIT_USAGE

    @pytest.mark.parametrize("command", ["certify", "selftest"])
    def test_negative_seed_is_a_usage_error_naming_the_flag(self, tmp_path, capsys, command):
        inputs = ["--matrix", write_matrix(tmp_path / "t.json", np.eye(2))] if command == "certify" else []
        assert cli.main([command, "--seed", "-1"] + inputs) == cli.EXIT_USAGE
        assert "argument --seed: must be >= 0" in capsys.readouterr().err

    def test_verify_tol_sets_the_decompose_verdict(self, tmp_path):
        # the identity decomposes with a residual near 1e-15: within the
        # default verify_tol, not within 1e-30
        mat = write_matrix(tmp_path / "t.json", np.eye(4))
        args = ["decompose", "--r", "0.5", "--matrix", mat, "--out", str(tmp_path / "r.json")]
        assert cli.main(args) == cli.EXIT_OK
        assert cli.main(args + ["--verify-tol", "1e-30"]) == cli.EXIT_REFUTED


# A fresh process that imports the CLI and runs the commands given as JSON in
# argv[2], one report each; with argv[1] == "hidden" the package's own
# lookup of scipy's LAPACK extension finds nothing.  It prints, after the
# import and after each command, whether scipy.linalg's package is loaded,
# and the name of the LAPACK module the package calls.
_FRESH_SESSION = """
import importlib.machinery, json, sys

if sys.argv[1] == "hidden":
    find_spec = importlib.machinery.PathFinder.find_spec

    def hiding(name, path=None, target=None):
        if sys._getframe(1).f_globals.get("__name__") == "annulus_lab.linalg":
            return None
        return find_spec(name, path, target)

    importlib.machinery.PathFinder.find_spec = hiding

from annulus_lab import cli, linalg

loaded = {"import": "scipy.linalg" in sys.modules, "numpy.polynomial": "numpy.polynomial" in sys.modules}
for args in json.loads(sys.argv[2]):
    if cli.main(args) != cli.EXIT_OK:
        sys.exit(f"{args[0]} failed")
    loaded[args[0]] = "scipy.linalg" in sys.modules
print(json.dumps({"loaded": loaded, "lapack": linalg.lapack.__name__}))
"""


class TestLeanStart:
    """The CLI loads scipy's LAPACK wrappers without ``scipy.linalg``'s
    package, and ``scipy.linalg.lapack`` where the extension is not found,
    with the same reports."""

    @pytest.fixture(scope="class")
    def sessions(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("lean")
        mat = write_matrix(tmp / "t.json", certify.normal_annulus_matrix(4, 0.5, 3))
        f = AnnulusRational(r=0.5, p_coeffs=(0.3, 1.0j), q1_roots=(1.1, -2.5j), q2_roots=(0.2, 0.2))
        fn = write_function(tmp / "f.json", f)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        strip = lambda text: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)
        runs = {}
        for mode in ("lean", "hidden"):
            commands = [
                ["certify", "--r", "0.5", "--matrix", mat, "--trials", "2000", "--seed", "3"],
                ["laurent", "--f", fn, "--order", "24"],
                ["selftest"],
            ]
            outs = [tmp / f"{mode}-{args[0]}.json" for args in commands]
            commands = [args + ["--out", str(out)] for args, out in zip(commands, outs)]
            argv = [sys.executable, "-c", _FRESH_SESSION, mode, json.dumps(commands)]
            run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            runs[mode] = json.loads(run.stdout), [strip(out.read_text()) for out in outs]
        return runs

    def test_a_fresh_session_never_loads_scipy_linalg(self, sessions):
        state, _ = sessions["lean"]
        assert state["lapack"] == "scipy.linalg._flapack"
        assert state["loaded"] == {
            "import": False,
            "numpy.polynomial": False,
            "certify": False,
            "laurent": False,
            "selftest": False,
        }

    def test_without_the_extension_scipy_linalg_lapack_gives_the_same_reports(self, sessions):
        state, reports = sessions["hidden"]
        assert state["lapack"] == "scipy.linalg.lapack" and state["loaded"]["import"]
        assert reports == sessions["lean"][1]


class TestDeterminism:
    def test_reports_identical_modulo_timestamp(self, tmp_path):
        mat = write_matrix(tmp_path / "t.json", example_matrix(0.25))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["certify", "--r", "0.25", "--matrix", mat, "--trials", "500", "--seed", "3"]
        assert cli.main(args + ["--out", str(out1)]) == cli.main(args + ["--out", str(out2)])
        strip = lambda text: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)
        assert strip(out1.read_text()) == strip(out2.read_text())

    @pytest.mark.parametrize("kind", ["unitary", "windowed", "laurent", "model-verify"])
    def test_cold_warm_and_fresh_process_reports_identical(self, tmp_path, kind):
        # the battery's memo of exact sups fills as certifications need it,
        # the series memo as expansions do; what they already hold must
        # never change a report
        f = AnnulusRational(r=0.5, p_coeffs=(0.3, 1.0j), q1_roots=(1.1, -2.5j), q2_roots=(0.2, 0.2))
        if kind == "laurent":
            args = ["laurent", "--f", write_function(tmp_path / "f.json", f), "--order", "24"]
        else:
            t = random_unitary(4, 8) if kind == "unitary" else windowed_matrix(3, 0.5, 8)
            mat = write_matrix(tmp_path / "t.json", t)
            if kind == "model-verify":
                args = ["model-verify", "--r", "0.5", "--matrix", mat, "--f", write_function(tmp_path / "f.json", f)]
            else:
                args = ["certify", "--r", "0.5", "--matrix", mat, "--trials", "2000", "--seed", "4"]
        outs = [tmp_path / f"r{k}.json" for k in range(3)]
        certify._stress_battery.cache_clear()
        rational._series_memo.cache_clear()
        codes = [cli.main(args + ["--out", str(outs[0])])]
        # the warm run reads prefixes of builds longer than it needs
        for g in (f, dataclasses.replace(f, p_coeffs=(1.0,))):
            rational.laurent_expand(g, 400)
        codes.append(cli.main(args + ["--out", str(outs[1])]))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        fresh = subprocess.run(
            [sys.executable, "-m", "annulus_lab.cli", *args, "--out", str(outs[2])], env=env, timeout=300
        )
        assert codes == [fresh.returncode] * 2
        strip = lambda text: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)
        texts = [strip(out.read_text()) for out in outs]
        assert texts[0] == texts[1] == texts[2]


class TestSelftestCommand:
    def test_invariant_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["selftest", "--seed", "5", "--out", str(out)]) == cli.EXIT_OK
        result = read_report(out)["result"]
        assert result["all_ok"] and len(result["cases"]) >= 8

    @pytest.mark.parametrize("seed", ["244", "285"])
    def test_seeds_with_eigenvalues_near_a_circle(self, tmp_path, seed):
        # an eigenvalue within ~0.01 of a circle needs more than 512 nodes
        out = tmp_path / "report.json"
        assert cli.main(["selftest", "--seed", seed, "--out", str(out)]) == cli.EXIT_OK
        assert read_report(out)["result"]["all_ok"]

    def test_an_errored_case_writes_null_not_nan(self, tmp_path, capsys, monkeypatch):
        cases = cli._selftest_cases

        def singular():
            raise Singular("forced")

        monkeypatch.setattr(cli, "_selftest_cases", lambda seed, tols: [("forced", singular), *cases(seed, tols)[:1]])
        out = tmp_path / "report.json"
        assert cli.main(["selftest", "--out", str(out)]) == cli.EXIT_REFUTED
        assert capsys.readouterr().err.startswith(
            "[selftest] forced: error forced\n[selftest] forced: FAIL (measure=nan)\n"
        )

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        result = json.loads(out.read_text(), parse_constant=refuse)["result"]
        assert result["cases"][0] == {"name": "forced", "measure": None, "limit": None, "ok": False}
        assert result["cases"][1]["ok"] and result["all_ok"] is False


# A call of each command that gives every flag it takes, its required flags,
# and the bad values of its typed flags.
_EVERY_FLAG = {
    "certify": ["--r", "0.4", "--matrix", "t.json", "--out", "o.json", "--seed", "7", "--eig-tol", "1e-11",
                "--rank-tol", "1e-8", "--verify-tol", "1e-7", "--trials", "9"],
    "decompose": ["--r", "0.4", "--matrix", "t.json", "--out", "o.json", "--eig-tol", "1e-11", "--rank-tol", "1e-8",
                  "--verify-tol", "1e-7"],
    "dilate": ["--r", "0.4", "--matrix", "t.json", "--out", "o.json", "--eig-tol", "1e-11", "--rank-tol", "1e-8",
               "--verify-tol", "1e-7", "--d", "3"],
    "model-verify": ["--r", "0.4", "--matrix", "t.json", "--out", "o.json", "--eig-tol", "1e-11", "--rank-tol", "1e-8",
                     "--verify-tol", "1e-7", "--f", "a.json", "--f", "b.json", "--d", "3"],
    "laurent": ["--out", "o.json", "--f", "a.json", "--order", "5"],
    "demo-example": ["--r", "0.4", "--out", "o.json", "--eig-tol", "1e-11", "--rank-tol", "1e-8", "--verify-tol", "1e-7"],
    "selftest": ["--out", "o.json", "--seed", "7", "--eig-tol", "1e-11", "--rank-tol", "1e-8", "--verify-tol", "1e-7"],
}
_REQUIRED = {"certify": ["--matrix"], "decompose": ["--matrix"], "dilate": ["--matrix"],
             "model-verify": ["--matrix", "--f"], "laurent": ["--f"]}
_BAD_VALUES = {"--r": ["2", "x"], "--seed": ["-1", "1.5"], "--trials": ["0"], "--d": ["0"], "--order": ["0"],
               "--verify-tol": ["nan", "x"], "--eig-tol": ["0"]}


def _without(args, flag):
    """``args``, a list of flag-value pairs, without the pairs of ``flag``."""
    return [s for pair in zip(args[::2], args[1::2]) if pair[0] != flag for s in pair]


def _replaced(args, flag, value):
    """``args`` with ``value`` as the value of every pair of ``flag``."""
    return [s for f, v in zip(args[::2], args[1::2]) for s in (f, value if f == flag else v)]


def _stub_handlers(monkeypatch, seen):
    """Every command's handler appends its Namespace to ``seen`` and exits 0."""
    handler = lambda args, tols: seen.append(args) or cli.EXIT_OK
    monkeypatch.setattr(cli, "_COMMANDS", {k: c._replace(handler=handler) for k, c in cli._COMMANDS.items()})


def _parser_corpus():
    cases = {"top-none": [], "top-help": ["-h"], "top-unknown-command": ["bogus"], "top-flag-first": ["--r", "0.5", "certify"]}
    for name, args in _EVERY_FLAG.items():
        cases[f"{name}-every-flag"] = [name, *args]
        cases[f"{name}-help"] = [name, "-h"]
        cases[f"{name}-help-after-flags"] = [name, *args, "--help"]
        cases[f"{name}-unknown-flag"] = [name, *args, "--bogus", "1"]
        cases[f"{name}-abbreviated-trials"] = [name, *args, "--tri", "5"]
        cases[f"{name}-abbreviated-out"] = [name, *_without(args, "--out"), "--ou", "o.json"]
        cases[f"{name}-stray-positional"] = [name, *args, "stray"]
        cases[f"{name}-stray-and-missing"] = [name, "stray"]
        for flag in _REQUIRED.get(name, []):
            cases[f"{name}-without{flag}"] = [name, *_without(args, flag)]
        for flag, values in _BAD_VALUES.items():
            for value in values if flag in args else []:
                cases[f"{name}{flag}={value}"] = [name, *_replaced(args, flag, value)]
    cases["laurent-two-functions"] = ["laurent", "--f", "a.json", "--f", "b.json"]
    return cases


class TestOneParserPerCall:
    """``main`` parses a call with its command's parser alone where the full
    tree would answer the same, and falls back to the full tree elsewhere."""

    CORPUS = _parser_corpus()

    @pytest.mark.oldest_pins
    @pytest.mark.parametrize("argv", CORPUS.values(), ids=CORPUS.keys())
    def test_main_answers_as_the_full_parser(self, argv, monkeypatch, capsys):
        """Byte for byte, also on Python 3.10, whose argparse formats help and usage errors itself."""
        seen = []
        _stub_handlers(monkeypatch, seen)
        fast = (cli.main(argv), *capsys.readouterr())
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
            full = (cli.main(argv), *capsys.readouterr())
        assert fast == full
        # a call reaches its handler when it exits 0 and prints no help
        assert len(seen) == 2 * (fast == (cli.EXIT_OK, "", "")) and seen[:1] == seen[1:]

    def test_the_corpus_reaches_every_outcome(self, monkeypatch, capsys):
        _stub_handlers(monkeypatch, [])
        codes = [cli.main(argv) for argv in self.CORPUS.values()]
        err = capsys.readouterr().err
        assert set(codes) == {cli.EXIT_OK, cli.EXIT_USAGE}
        assert "annulus-lab: error: unrecognized arguments: --bogus 1" in err
        assert "annulus-lab laurent: error: argument --f: expected once" in err
        assert "annulus-lab certify: error: the following arguments are required: --matrix" in err
        assert "error: verify_tol must be finite" in err

    @staticmethod
    def _built(monkeypatch):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        _stub_handlers(monkeypatch, [])
        return progs

    @pytest.mark.parametrize("name", list(_EVERY_FLAG))
    def test_a_valid_call_builds_one_parser(self, name, monkeypatch):
        assert set(_EVERY_FLAG[name][::2]) == {option for option, _ in cli._COMMANDS[name].flags}
        progs = self._built(monkeypatch)
        assert cli.main([name, *_EVERY_FLAG[name]]) == cli.EXIT_OK
        assert progs == [f"annulus-lab {name}"]

    @pytest.mark.parametrize(
        "argv, first",
        [(["-h"], []), (["bogus"], []), (["certify", "--matrix", "t.json", "--bogus", "1"], ["annulus-lab certify"])],
        ids=["top-help", "unknown-command", "unrecognized-flag"],
    )
    def test_a_call_the_command_parser_cannot_answer_builds_the_full_tree(self, argv, first, monkeypatch, capsys):
        progs = self._built(monkeypatch)
        cli.main(argv)
        assert progs == [*first, "annulus-lab", *(f"annulus-lab {name}" for name in _EVERY_FLAG)]


class TestDefaultContourNodes:
    F = AnnulusRational(r=0.5, p_coeffs=(1.0, 0.5), q1_roots=(2.0 + 0.3j,), q2_roots=(0.2,))

    def test_nodes_grow_as_an_eigenvalue_nears_a_circle(self):
        nodes = [
            default_contour(self.F, np.diag([0.7, 1.0 - gap]), 0.5).nodes
            for gap in (0.2, 0.01, 0.002)
        ]
        assert nodes[0] == 512 < nodes[1] < nodes[2]

    def test_well_separated_spectrum_keeps_512(self):
        t = np.diag([0.7, 0.75j, -0.8])
        assert default_contour(self.F, t, 0.5).nodes == 512
        assert default_contour(None, t, 0.5).nodes == 512

    def test_explicit_nodes_kept(self):
        assert default_contour(self.F, np.diag([0.7, 0.999]), 0.5, nodes=512).nodes == 512


class TestDefaultBudget:
    def test_model_verify_chooses_budget(self, tmp_path):
        mat = write_matrix(tmp_path / "t.json", windowed_matrix(3, 0.5, 7))
        fn = write_function(
            tmp_path / "f.json",
            AnnulusRational(r=0.5, p_coeffs=(1.0, 0.2), q1_roots=(3.0,), q2_roots=(0.1,)),
        )
        out = tmp_path / "report.json"
        code = cli.main(["model-verify", "--r", "0.5", "--matrix", mat, "--f", fn, "--out", str(out)])
        assert code == cli.EXIT_OK
        result = read_report(out)["result"]
        assert 1 <= result["d"] <= 24
        assert result["functions"][0]["passed"]


