"""The benchmark's trace recorder (``perfbench/spans.py``) wraps library
functions by name and reads attributes of their results; these tests fail
when the library drops or renames something the recorder relies on, instead
of ``perfbench/run.py --trace 1`` failing later."""

import importlib.util
from pathlib import Path

import pytest

import annulus_lab
from annulus_lab.dilation import ando_pair
from conftest import commuting_contraction_pair


@pytest.fixture(scope="module")
def spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves(spans):
    for layer, names in spans.LAYERS.items():
        module = getattr(annulus_lab, layer)
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def _resolve(name):
    layer, attr = name.split(".")
    return getattr(getattr(annulus_lab, layer), attr)


def test_tracer_installs_and_restores(spans):
    originals = {name: _resolve(name) for name in spans.WRAPPED}
    tracer = spans.Tracer()
    try:
        tracer.install(annulus_lab)
    finally:
        tracer.uninstall()
    assert all(_resolve(name) is fn for name, fn in originals.items())


def test_carrier_bytes_reads_the_pair(spans):
    t1, t2 = commuting_contraction_pair(2, 3)
    pair = ando_pair(t1, t2, m_depth=3)
    assert (pair.dim_h, pair.m) == (2, 3)
    assert spans._carrier_bytes((t1, t2), {"m_depth": 3}, pair) == 3 * (2 * 13) ** 2 * 16
