import json
import re

import numpy as np
import pytest

from annulus_lab import cli
from annulus_lab.calculus import default_contour
from annulus_lab.certify import example_matrix, windowed_matrix
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

    def test_unitary_passes(self, tmp_path):
        mat = write_matrix(tmp_path / "u.json", random_unitary(3, 4))
        out = tmp_path / "report.json"
        code = cli.main(
            ["certify", "--r", "0.5", "--matrix", mat, "--trials", "200", "--seed", "2", "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        assert read_report(out)["result"]["verdict"] == "PassedStress"


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
        row = read_report(out)["result"]["functions"][0]
        assert row["passed"] and row["residual"] <= row["bound"] + 1e-8


class TestDilateCommand:
    def test_moment_table(self, tmp_path):
        mat = write_matrix(tmp_path / "t.json", windowed_matrix(3, 0.5, 9))
        out = tmp_path / "report.json"
        code = cli.main(["dilate", "--r", "0.5", "--matrix", mat, "--d", "8", "--out", str(out)])
        assert code == cli.EXIT_OK
        result = read_report(out)["result"]
        assert result["moment_residual"] <= 1e-10
        assert result["M"] == 9


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


class TestDeterminism:
    def test_reports_identical_modulo_timestamp(self, tmp_path):
        mat = write_matrix(tmp_path / "t.json", example_matrix(0.25))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["certify", "--r", "0.25", "--matrix", mat, "--trials", "500", "--seed", "3"]
        assert cli.main(args + ["--out", str(out1)]) == cli.main(args + ["--out", str(out2)])
        strip = lambda text: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)
        assert strip(out1.read_text()) == strip(out2.read_text())


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


class TestThreadsEnv:
    def test_invalid_env_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ANNULUS_LAB_THREADS", "zero")
        mat = write_matrix(tmp_path / "t.json", np.eye(2))
        assert cli.main(["decompose", "--r", "0.5", "--matrix", mat]) == cli.EXIT_USAGE

    def test_cap_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ANNULUS_LAB_THREADS", "4")
        out = tmp_path / "report.json"
        assert cli.main(["demo-example", "--r", "0.5", "--out", str(out)]) == cli.EXIT_OK
        assert read_report(out)["threads"] == 4
