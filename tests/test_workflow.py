"""The CI job that runs under the oldest pins selects its tests by marker."""

import re
import subprocess
import sys
from pathlib import Path

import test_linalg
import test_rational

ROOT = Path(__file__).resolve().parents[1]


def test_the_oldest_pins_job_selects_by_marker_alone():
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    job = re.search(r"^  oldest-pins:\n(.*?)(?=^  \S|\Z)", text, re.M | re.S).group(1)
    assert "python -m pytest -q -m oldest_pins\n" in job
    assert not re.search(r"\btests/[\w/]+\.py::", job)


def test_the_memo_tests_carry_the_marker():
    memo = test_rational.TestSeriesMemo
    for obj in (
        memo.test_warm_reads_equal_cold_builds_bit_for_bit,
        memo.test_a_function_and_its_denominator_equal_cold_builds_in_either_order,
        test_linalg.TestAnalysisMemo,
    ):
        assert "oldest_pins" in {mark.name for mark in obj.pytestmark}


def test_a_misspelled_marker_fails_collection(tmp_path):
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    for name, status in (("oldest_pins", 0), ("oldest_pin", 2)):
        (tmp_path / "test_mark.py").write_text(f"import pytest\n\n\n@pytest.mark.{name}\ndef test_mark():\n    pass\n")
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_mark.py"]
        run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True)
        assert run.returncode == status, run.stdout
