"""In-memory span recorder for the traced run.

The recorder replaces public functions of the ``annulus_lab`` modules by
wrappers, set as module attributes.  Calls the library resolves through
module globals (``calculus`` -> ``linalg.solve``, ``laurent_order_for`` ->
``laurent_expand``, ``certify`` -> ``calculus.eval_direct``) therefore pass
through the wrappers too.  Private helpers are not wrapped; their time shows
in their caller's self time.  Nothing in the library changes.

Each span is a tuple with the fields of ``SPAN_FIELDS``: ``id`` numbers
spans in the order they open, ``parent`` is the id of the enclosing span
(``-1`` at the top), ``instance`` the benchmark instance id (``WARMUP``
during set-up), ``note`` a number read from the call's arguments or result
by an observer (nodes per circle, order, bytes, capped).
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import json
import statistics
from time import perf_counter

WARMUP = -1
SPAN_FIELDS = ("name", "start", "end", "id", "parent", "instance", "failed", "note")

# Layer -> public functions wrapped by module attribute.
LAYERS = {
    "linalg": ("solve", "operator_norm", "spectrum"),
    "rational": ("evaluate", "boundary_sup_norm", "laurent_expand", "laurent_order_for"),
    "calculus": (
        "eval_direct",
        "eval_laurent",
        "laurent_remainder_bound",
        "eval_contour",
        "riesz_projection",
    ),
    "certify": ("full_certification", "vonneumann_stress", "cnn_split"),
    "ar_unitary": ("decompose", "membership_subspaces"),
    "dilation": ("ando_pair", "build_model", "verify_model", "verify_moments", "default_budget"),
}

WRAPPED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# The commands of one cli-session round, in the order it runs them (heavy and
# light commands alternate).  ``model-verify`` runs twice, on a non-normal and
# on a unitary T; with nine commands the median latency falls among the four
# model-verify runs of two rounds, not on the boundary between two commands.
CLI_COMMANDS = (
    "demo-example",
    "certify",
    "laurent",
    "model-verify_exact",
    "decompose",
    "certify_nonnormal",
    "dilate",
    "selftest",
    "model-verify",
)

_COMPLEX_BYTES = 16


def _nodes_per_circle(args, kwargs, result):
    return kwargs["spec"].nodes if "spec" in kwargs else args[2].nodes


def _order(args, kwargs, result):
    return result


def _carrier_bytes(args, kwargs, result):
    # v1, v2 and the block-diagonal Ghat are each dense (h(4M+1))^2 complex.
    h = result.dim_h
    return 3 * (h * (4 * result.m + 1)) ** 2 * _COMPLEX_BYTES


def _make_capped(fn):
    signature = inspect.signature(fn)

    def capped(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(result >= bound.arguments["cap"])

    return capped


_OBSERVERS = {
    "calculus.eval_contour": lambda fn: _nodes_per_circle,
    "calculus.riesz_projection": lambda fn: _nodes_per_circle,
    "rational.laurent_order_for": lambda fn: _order,
    "dilation.ando_pair": lambda fn: _carrier_bytes,
    "dilation.default_budget": _make_capped,
}


class Tracer:
    """Collects spans from the wrapped functions while installed and active."""

    def __init__(self):
        # Finished spans, appended as they close (children before parents).
        # Tuples of plain values keep the cyclic collector from rescanning
        # them, which would slow the traced run as the list grows.
        self.spans: list[tuple] = []
        self.instance = WARMUP
        self.active = False  # true only inside span(), around the program's calls
        self._next = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, package) -> None:
        """Replace every function in ``LAYERS`` by a recording wrapper."""
        for layer, names in LAYERS.items():
            module = getattr(package, layer)
            for name in names:
                fn = getattr(module, name)
                key = f"{layer}.{name}"
                make = _OBSERVERS.get(key)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(key, fn, make(fn) if make else None))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _open(self) -> tuple[int, int]:
        ident = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(ident)
        return ident, parent

    def _close(self, name, start, end, ident, parent, failed, note) -> None:
        self._stack.pop()
        self.spans.append((name, start, end, ident, parent, self.instance, failed, note))

    def _wrap(self, key, fn, observe):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            ident, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(key, start, perf_counter(), ident, parent, True, None)
                raise
            end = perf_counter()
            note = observe(args, kwargs, result) if observe is not None else None
            self._close(key, start, end, ident, parent, False, note)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, instance: int):
        """Record a benchmark-side span around the calls of one instance;
        the wrappers record only inside it."""
        self.instance = instance
        self.active = True
        ident, parent = self._open()
        start = perf_counter()
        try:
            yield
        except BaseException:
            self._close(name, start, perf_counter(), ident, parent, True, None)
            raise
        finally:
            self.active = False
        self._close(name, start, perf_counter(), ident, parent, False, None)

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[tuple], kind_of: dict[int, str], normal_kinds) -> dict:
    """Per-layer metrics from the recorded spans.

    ``kind_of`` maps instance id to instance kind; ``normal_kinds`` names the
    kinds whose matrix is normal (the stress battery's spectral path).
    Warm-up spans only feed ``certify.stress.cold_s``.
    """
    name_of = [""] * len(spans)
    child_time = [0.0] * len(spans)
    for name, start, end, ident, parent, *_ in spans:
        name_of[ident] = name
        if parent >= 0:
            # Children of one span run one after another in one thread, so
            # the part of the parent they cover is the sum of their lengths.
            child_time[parent] += end - start

    per_fn = {key: [0, 0.0, 0.0, 0] for key in WRAPPED}
    cli_ms = {command: [] for command in CLI_COMMANDS}
    orders, expands, contour_nodes, decompose_nodes = [], 0, 0, [0]
    stress_ms = {True: [], False: []}
    carrier_bytes, capped, cold_s = 0, 0, 0.0
    for name, start, end, ident, parent, instance, failed, note in spans:
        duration = end - start
        if instance == WARMUP:
            if name == "certify.vonneumann_stress" and not cold_s:
                cold_s = duration
            continue
        if name.startswith("cli."):
            cli_ms[name[4:]].append(1e3 * duration)
        stats = per_fn.get(name)
        if stats is None:
            continue
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - child_time[ident]
        stats[3] += int(failed)
        parent_name = name_of[parent] if parent >= 0 else None
        if name == "rational.laurent_order_for":
            orders.append(note)
        elif name == "rational.laurent_expand" and parent_name == "rational.laurent_order_for":
            expands += 1
        elif name in ("calculus.eval_contour", "calculus.riesz_projection") and note is not None:
            contour_nodes += 2 * note
            if parent_name == "ar_unitary.decompose":
                decompose_nodes.append(note)
        elif name == "certify.vonneumann_stress":
            stress_ms[kind_of.get(instance) in normal_kinds].append(1e3 * duration)
        elif name == "dilation.ando_pair" and note is not None:
            carrier_bytes += note
        elif name == "dilation.default_budget" and note is not None:
            capped += note

    out = {}
    for key, (calls, busy, self_s, failed) in per_fn.items():
        out[f"{key}.calls"] = calls
        out[f"{key}.busy_s"] = busy
        out[f"{key}.self_s"] = self_s
        out[f"{key}.failed"] = failed
    out["rational.laurent_order_for.expands_per_call"] = expands / len(orders) if orders else 0.0
    out["rational.laurent_order_for.order_p50"] = _median([o for o in orders if o is not None])
    out["calculus.contour.nodes"] = contour_nodes
    out["certify.vonneumann_stress.normal_ms_p50"] = _median(stress_ms[True])
    out["certify.vonneumann_stress.nonnormal_ms_p50"] = _median(stress_ms[False])
    out["certify.stress.cold_s"] = cold_s
    out["ar_unitary.decompose.nodes_max"] = max(decompose_nodes)
    out["dilation.carrier_bytes_computed"] = carrier_bytes
    out["dilation.default_budget.capped"] = capped
    for command, values in cli_ms.items():
        out[f"cli.{command}.ms"] = _median(values)
    return out
