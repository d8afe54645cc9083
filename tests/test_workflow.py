"""The CI workflow names tests by node id; check that each one still exists."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _job(name):
    """The text of job ``name`` in the workflow: from its key to the next
    job key at the same indent."""
    text = WORKFLOW.read_text()
    match = re.search(rf"^  {re.escape(name)}:\n(.*?)(?=^  \S|\Z)", text, re.M | re.S)
    assert match, f"no job {name} in {WORKFLOW.name}"
    return match.group(1)


def _node_ids(job):
    return re.findall(r"\btests/[\w/]+\.py(?:::[\w\[\].-]+)+", job)


def _resolve(node_id):
    """The test class or function that ``node_id`` names, or ``None``."""
    path, *names = node_id.split("::")
    if not (ROOT / path).is_file():
        return None
    obj = importlib.import_module(Path(path).stem)
    for name in names:
        obj = getattr(obj, name.split("[")[0], None)
        if obj is None:
            return None
    return obj


def test_the_oldest_pins_job_names_tests():
    ids = _node_ids(_job("oldest-pins"))
    assert len(ids) >= 10
    assert "tests/test_rational.py::TestSeriesMemo::test_warm_reads_equal_cold_builds_bit_for_bit" in ids
    assert "tests/test_rational.py::TestSeriesMemo::test_a_function_and_its_denominator_equal_cold_builds_in_either_order" in ids
    assert "tests/test_linalg.py::TestAnalysisMemo" in ids


@pytest.mark.parametrize("node_id", _node_ids(_job("oldest-pins")))
def test_each_node_id_of_the_oldest_pins_job_resolves(node_id):
    assert _resolve(node_id) is not None, f"{node_id} names no test"


def test_a_renamed_test_does_not_resolve():
    assert _resolve("tests/test_rational.py::TestSeriesMemo::test_no_such_test") is None
    assert _resolve("tests/test_no_such_file.py::TestSeriesMemo") is None
    assert _resolve("tests/test_rational.py::TestNoSuchClass") is None
