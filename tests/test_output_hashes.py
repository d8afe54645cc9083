"""``tools/output_hashes.py`` digests what the benchmark's workloads and the
CI smoke commands output, so two commits can be compared by their outputs;
these tests check that its digests repeat and that they see a change of one
result."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture(scope="module")
def tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"
    spec = importlib.util.spec_from_file_location("output_hashes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_repeat_and_see_a_perturbed_result(tool, tmp_path, monkeypatch):
    workdir = str(tmp_path / "work")
    first = tool.digests(count=2, workdir=workdir)
    assert set(first) == {name for name, _, _ in tool.RUNS} | {"smoke"}
    assert tool.digests(count=2, workdir=workdir) == first
    call = tool.workloads.CertifyCorpus.call

    def perturbed(self, kind, t):
        result = call(self, kind, t)
        result["max_ratio"] = np.nextafter(result["max_ratio"], np.inf)
        return result

    monkeypatch.setattr(tool.workloads.CertifyCorpus, "call", perturbed)
    second = tool.digests(count=2, workdir=workdir)
    assert second["certify-corpus"] != first["certify-corpus"]
    assert {k: v for k, v in second.items() if k != "certify-corpus"} == {
        k: v for k, v in first.items() if k != "certify-corpus"
    }


def test_digests_do_not_depend_on_the_working_directory(tool, tmp_path):
    # model-verify reports embed their input paths; each run's directory
    # is hashed under one fixed name, so runs in two directories (two at
    # once, say) agree
    first = tool.digests(count=2, workdir=str(tmp_path / "a"))
    assert tool.digests(count=2, workdir=str(tmp_path / "second-directory")) == first
    assert not (tmp_path / "a").exists() and not (tmp_path / "second-directory").exists()


def test_the_encoding_tells_values_apart(tool):
    import hashlib

    def digest(value):
        h = hashlib.sha256()
        tool._feed(h, value)
        return h.hexdigest()

    values = [
        1.0,
        np.nextafter(1.0, 2.0),
        1,
        True,
        None,
        "1.0",
        [1.0],
        (1.0, 1.0),
        {"a": 1.0},
        np.array([1.0]),
        np.array([1.0], dtype=complex),
        np.array([[1.0]]),
        np.zeros(0),
    ]
    digests = [digest(v) for v in values]
    assert len(set(digests)) == len(values)
    # a dict by its keys, not by their insertion order
    assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})
