"""The CI job that runs under the oldest pins selects its tests by marker,
and the output hash tool runs the commands of the CI smoke step."""

import importlib.util
import re
import shlex
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
        test_linalg.TestLapackModule,
    ):
        assert "oldest_pins" in {mark.name for mark in obj.pytestmark}


def test_a_misspelled_marker_fails_collection(tmp_path):
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    for name, status in (("oldest_pins", 0), ("oldest_pin", 2)):
        (tmp_path / "test_mark.py").write_text(f"import pytest\n\n\n@pytest.mark.{name}\ndef test_mark():\n    pass\n")
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_mark.py"]
        run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True)
        assert run.returncode == status, run.stdout


def _smoke_commands(text):
    """The ``annulus-lab`` commands of the smoke step in the workflow
    ``text``, in order: ``--help`` skipped, redirections and ``--out``
    dropped, a ``$RUNNER_TEMP`` path read as its basename."""
    step = re.search(r"- name: CLI smoke test.*?\n(.*?)(?=^      - |^  \S|\Z)", text, re.M | re.S).group(1)
    commands = []
    for line in step.splitlines():
        words = shlex.split(line)
        if not words or words[0] != "annulus-lab" or "--help" in words:
            continue
        args, rest = [], iter(words[1:])
        for word in rest:
            if word in ("||", "&&", "|", ";"):
                break
            if word in ("--out", ">", "2>"):
                next(rest)
            else:
                args.append(word.replace("$RUNNER_TEMP/", ""))
        commands.append(args)
    return commands


def test_the_hash_tool_runs_the_smoke_step_commands():
    path = ROOT / "tools" / "output_hashes.py"
    spec = importlib.util.spec_from_file_location("output_hashes", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    commands = _smoke_commands(text)
    assert commands == tool.SMOKE_COMMANDS
    # the comparison sees a command gained, lost or moved in the workflow
    lines = text.splitlines(keepends=True)
    first, second = [i for i, line in enumerate(lines) if line.lstrip().startswith("annulus-lab certify")][:2]
    swapped = lines.copy()
    swapped[first], swapped[second] = lines[second], lines[first]
    assert _smoke_commands("".join(swapped)) == [commands[0], commands[2], commands[1]] + commands[3:]
    lost = "".join(lines[:first] + lines[first + 1 :])
    assert _smoke_commands(lost) == commands[:1] + commands[2:]
    gained = "".join(lines[:first] + [lines[first]] + lines[first:])
    assert len(_smoke_commands(gained)) == len(commands) + 1
