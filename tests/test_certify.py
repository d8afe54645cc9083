import dataclasses
import re
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from annulus_lab import calculus, certify, linalg, rational
from annulus_lab.certify import (
    Verdict,
    WilliamsVerdict,
    cnn_split,
    double_contraction_check,
    example_matrix,
    full_certification,
    involution,
    norm_window,
    normal_annulus_matrix,
    spectrum_in_annulus,
    vonneumann_stress,
    williams_verdict,
    windowed_matrix,
    sample_test_function,
    _clamp_to_annulus,
    _critical_sups,
    _stress_battery,
    _stress_ratios,
)
from annulus_lab.errors import (
    AnnulusLabError,
    BadRadius,
    NoConvergence,
    NotContraction,
    NotInvertible,
    NotNormal,
    NotSquare,
    PoleHit,
    RootInClosedDisk,
    RootOutsideInnerDisk,
    Singular,
)
from annulus_lab.linalg import operator_norm, random_unitary, seeded_rng
from annulus_lab.rational import AnnulusRational, evaluate, rational_from_json
from conftest import random_function


class TestSpectrumInAnnulus:
    def test_unitary(self):
        assert spectrum_in_annulus(random_unitary(3, 1), 0.5)

    def test_inside_inner_disk(self):
        assert not spectrum_in_annulus(0.1 * np.eye(2), 0.25)

    def test_shear_example(self):
        assert spectrum_in_annulus(example_matrix(0.25), 0.25)


class TestNormWindow:
    def test_shear_example(self):
        passes, norm = norm_window(example_matrix(0.25), 0.25)
        assert passes and norm == pytest.approx(1.0, abs=1e-12)

    def test_too_large(self):
        passes, norm = norm_window(2.0 * np.eye(2), 0.25)
        assert not passes and norm == pytest.approx(2.0)

    def test_boundary(self):
        passes, norm = norm_window(0.25 * np.eye(2), 0.25)
        assert passes and norm == pytest.approx(0.25)

    def test_a_non_square_matrix_is_refused_as_by_the_other_predicates(self):
        # the norm is that of T's analysis, which needs a square T
        wide = np.ones((2, 3))
        for predicate in (norm_window, spectrum_in_annulus, involution, double_contraction_check, williams_verdict,
                          lambda t, r: cnn_split(t)):
            with pytest.raises(NotSquare, match="matrix is 2x3"):
                predicate(wide, 0.25)


class TestInvolution:
    def test_scalar(self):
        assert_allclose(involution(0.5 * np.eye(2), 0.5), np.eye(2))

    def test_unitary(self):
        u = random_unitary(3, 9)
        assert_allclose(involution(u, 0.5), 0.5 * u.conj().T, atol=1e-12)

    def test_applied_twice_is_identity(self):
        for seed in range(10):
            t = windowed_matrix(4, 0.5, seed)
            tt = involution(involution(t, 0.5), 0.5)
            assert operator_norm(tt - t) <= 1e-12

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            involution(np.zeros((2, 2)), 0.5)


class TestDoubleContraction:
    def test_windowed_singular_values(self):
        for seed in range(10):
            assert double_contraction_check(windowed_matrix(4, 0.5, seed), 0.5)

    def test_shear_example_passes_necessary(self):
        assert double_contraction_check(example_matrix(0.25), 0.25)

    def test_small_scalar_fails(self):
        assert not double_contraction_check(0.1 * np.eye(2), 0.25)

    def test_symmetric_under_involution(self):
        for seed in range(10):
            t = windowed_matrix(3, 0.5, 50 + seed)
            assert double_contraction_check(t, 0.5) == double_contraction_check(
                involution(t, 0.5), 0.5
            )


class TestPredicateRadius:
    """Every predicate raises :class:`BadRadius` for a radius outside (0, 1)
    before it analyses ``T``."""

    _PREDICATES = {
        "spectrum_in_annulus": spectrum_in_annulus,
        "norm_window": norm_window,
        "involution": involution,
        "double_contraction_check": double_contraction_check,
        "williams_verdict": williams_verdict,
        "vonneumann_stress": lambda t, r: vonneumann_stress(t, r, 20, 1),
        "full_certification": lambda t, r: full_certification(t, r, 20, 1),
    }

    @pytest.mark.parametrize("r", [float("nan"), 0.0, 1.0, -0.5, 1.5, float("inf")])
    @pytest.mark.parametrize("name", sorted(_PREDICATES))
    def test_a_radius_outside_the_unit_interval_is_rejected_first(self, name, r, monkeypatch):
        t = windowed_matrix(3, 0.5, 1)
        monkeypatch.setattr(linalg, "analysis", lambda *args: pytest.fail("T analysed"))
        with pytest.raises(BadRadius):
            self._PREDICATES[name](t, r)


class TestVonNeumannStress:
    def test_normal_instances_pass(self):
        for seed in range(10):
            t = normal_annulus_matrix(5, 0.5, seed)
            rep = vonneumann_stress(t, 0.5, 500, 1)
            assert rep.verdict is Verdict.PASSED_STRESS
            assert rep.max_ratio <= 1.0 + 1e-10
            assert rep.spectrum_ok

    def test_normal_route_makes_one_pass_over_the_battery(self, monkeypatch):
        t = normal_annulus_matrix(4, 0.5, 3)
        battery = _stress_battery(0.5, 2000, 1)
        lams = linalg.spectrum(t)
        probes = _clamp_to_annulus(lams, 0.5)
        joined = battery.stack.abs_at(np.concatenate([probes, lams]))
        # columns are independent: each half is bit for bit a separate pass
        assert np.array_equal(joined[:, :4], battery.stack.abs_at(probes))
        assert np.array_equal(joined[:, 4:], battery.stack.abs_at(lams))
        passes = []
        original = rational.FactoredStack.abs_at
        monkeypatch.setattr(rational.FactoredStack, "abs_at", lambda s, z: passes.append(s) or original(s, z))
        rep = vonneumann_stress(t, 0.5, 2000, 1)
        # sup refinement evaluates stacks of a few functions; the two-sided
        # functions are evaluated once
        assert rep.stress_route == "spectral"
        assert sum(s is battery.two_sided[1] for s in passes) == 1

    @staticmethod
    def _normal_inputs():
        q = random_unitary(5, 11)
        edges = np.array([1.0, -1.0, 1j, 0.5, -0.5j])  # on both circles of r = 0.5
        outside = np.array([1.25, 0.3j, -0.1, 0.7 + 0.2j, 1.1 * np.exp(0.4j)])
        yield "corpus", normal_annulus_matrix(4, 0.5, 3)
        yield "involution", 0.5 * np.linalg.inv(normal_annulus_matrix(3, 0.5, 5))
        yield "edges", np.diag(edges)
        yield "outside", np.diag(outside)
        yield "rotated", (q * outside) @ q.conj().T
        yield "mixed", (q * np.concatenate([edges[:3], outside[:2]])) @ q.conj().T

    @staticmethod
    def _moved(t):
        lams = linalg.spectrum(t)
        probes = _clamp_to_annulus(lams, 0.5)
        return lams, probes, np.array([p.tobytes() != lam.tobytes() for p, lam in zip(probes, lams)])

    def test_normal_route_evaluates_each_distinct_point_once(self, monkeypatch):
        battery = _stress_battery(0.5, 2000, 1)
        sizes = []
        original = rational.FactoredStack.abs_at

        def counting(s, z):
            if s is battery.stack or s is battery.two_sided[1]:
                sizes.append(z.size)
            return original(s, z)

        monkeypatch.setattr(rational.FactoredStack, "abs_at", counting)
        moved_counts = []
        for name, t in self._normal_inputs():
            sizes.clear()
            rep = vonneumann_stress(t, 0.5, 2000, 1)
            lams, _, moved = self._moved(t)
            assert rep.stress_route == "spectral", name
            assert sizes == [lams.size + moved.sum()], name
            moved_counts.append((moved.sum(), lams.size))
        # some eigenvalues stay put and some move
        assert any(k == 0 for k, _ in moved_counts) and any(0 < k < n for k, n in moved_counts)

    def test_normal_route_reads_the_values_of_separate_passes(self, monkeypatch):
        # |f| at the projections and at the eigenvalues, bit for bit what a
        # pass over each gives: the rest of the report is computed from them
        battery = _stress_battery(0.5, 2000, 1)
        seen = []
        ratios = certify._stress_ratios

        def recording(nums, norms, lower, probe, *rest):
            assert norms is None  # the values are the norms
            seen.append((nums, probe))
            return ratios(nums, norms, lower, probe, *rest)

        monkeypatch.setattr(certify, "_stress_ratios", recording)
        for name, t in self._normal_inputs():
            seen.clear()
            rep = vonneumann_stress(t, 0.5, 2000, 1)
            lams, probes, _ = self._moved(t)
            stack = battery.two_sided[1] if rep.screened else battery.stack
            (nums, at_probes), = seen
            assert np.array_equal(nums, stack.abs_at(lams).max(axis=1)), name
            assert np.array_equal(at_probes, stack.abs_at(probes).max(axis=1)), name

    def test_unitary_passes(self):
        rep = vonneumann_stress(random_unitary(4, 3), 0.5, 500, 2)
        assert rep.verdict is Verdict.PASSED_STRESS

    def test_shear_example_refuted(self):
        rep = vonneumann_stress(example_matrix(0.25), 0.25, 2000, 1)
        assert rep.verdict is Verdict.REFUTED
        assert rep.witness is not None
        assert rep.max_ratio > 1.0 + 1e-8

    def test_witness_replays(self):
        rep = vonneumann_stress(example_matrix(0.25), 0.25, 2000, 1)
        f = rep.witness
        t = example_matrix(0.25)
        num = operator_norm(calculus.eval_direct(f, t))
        # a sampled sup is a lower bound on the sup, so replaying with one
        # still certifies a violation
        denom = _reference_sup(f, 1 << 15, 4096)
        assert num / denom > 1.0 + 1e-8

    def test_deterministic_per_seed(self):
        t = example_matrix(0.25)
        a = vonneumann_stress(t, 0.25, 800, 5)
        b = vonneumann_stress(t, 0.25, 800, 5)
        assert a.max_ratio == b.max_ratio and a.verdict == b.verdict

    def test_zero_trials_reports_necessary_only(self):
        rep = vonneumann_stress(random_unitary(3, 1), 0.5, 0, 1)
        assert rep.verdict is Verdict.PASSED_NECESSARY

    def test_spectral_fast_path_matches_direct_evaluation(self):
        t = normal_annulus_matrix(4, 0.5, 12)
        lams = linalg.spectrum(t)
        battery = _stress_battery(0.5, 50, 3)
        for f in _functions(battery)[:20]:
            spectral = np.abs(evaluate(f, lams)).max()
            direct = operator_norm(calculus.eval_direct(f, t))
            assert abs(spectral - direct) <= 1e-10 * max(1.0, direct)

    def test_canonical_probes_catch_norm_violations(self):
        rep = vonneumann_stress(np.diag([1.5, 0.9]), 0.5, 2, 1)
        assert rep.verdict is Verdict.REFUTED  # f(z) = z witnesses ||T|| > 1
        rep = vonneumann_stress(np.diag([0.9, 0.2]), 0.5, 2, 1)
        assert rep.verdict is Verdict.REFUTED  # f(z) = r/z witnesses ||rT^-1|| > 1

    def test_involution_symmetry_on_normal_instances(self):
        for seed in range(10):
            t = normal_annulus_matrix(4, 0.5, 700 + seed)
            rep = vonneumann_stress(involution(t, 0.5), 0.5, 500, 1)
            assert rep.max_ratio <= 1.0 + 2e-8

    def test_report_json_embeds_witness(self):
        rep = vonneumann_stress(example_matrix(0.25), 0.25, 2000, 1)
        payload = rep.to_json()
        assert payload["verdict"] == "Refuted"
        g = rational_from_json(payload["witness"])
        assert g.r == 0.25

    def test_stress_route_records_the_normality_decision(self):
        assert vonneumann_stress(random_unitary(3, 1), 0.5, 20, 1).stress_route == "spectral"
        rep = vonneumann_stress(example_matrix(0.25), 0.25, 20, 1)
        assert rep.stress_route == "factored"
        assert rep.to_json()["stress_route"] == "factored"

    @staticmethod
    def _reference_lower(f):
        """The max of ``|evaluate(f, z)|`` over the nodes that
        ``certify._lower_bounds`` documents: every 128th of the 4096
        equispaced nodes of each circle, and for each root the node of its
        own circle nearest its argument."""
        ring = np.exp(1j * (2.0 * np.pi * np.arange(4096) / 4096))
        inner = f.r * ring
        nodes = [ring[::128], inner[::128]]
        for roots, circle in ((f.q1_roots, ring), (f.q2_roots, inner)):
            for root in roots:
                nodes.append(circle[[int(np.rint(np.angle(root) * 4096 / (2.0 * np.pi))) % 4096]])
        return float(np.abs(evaluate(f, np.concatenate(nodes))).max())

    @pytest.mark.oldest_pins
    def test_battery_lower_bounds_are_the_max_over_the_documented_nodes(self):
        """The per-row node table goes through one abs_at call per chunk, which must give evaluate's bits."""
        battery = _stress_battery.__wrapped__(0.5, 500, 4)
        assert battery.lower_bounds(np.arange(500)).tolist() == [
            self._reference_lower(f) for f in _functions(battery)
        ]

    @pytest.mark.oldest_pins
    def test_the_aimed_node_index_wraps_at_pi_and_below_zero(self):
        # each pole sits 1e-3 from its circle, so the node nearest it gives
        # its row's largest |f|: an argument of +-pi takes node 2048, one
        # just below 0 node 0 or, past half a spacing, node 4095; the last
        # pole lies between two of the 32 coarse nodes
        step = 2.0 * np.pi / 4096
        args = [-1e-9, -0.4 * step, -0.6 * step, 0.5 * step, 64.3 * step]
        outer = [complex(-1.001, 0.0), complex(-1.001, -0.0)] + [1.001 * np.exp(1j * a) for a in args]
        inner = [complex(-0.4995, 0.0), complex(-0.4995, -0.0)] + [0.4995 * np.exp(1j * a) for a in args]
        functions = [AnnulusRational(r=0.5, q1_roots=(a,)) for a in outer]
        functions += [AnnulusRational(r=0.5, p_coeffs=(0.0, 0.0, 1.0), q2_roots=(b,)) for b in inner]
        # rows with both kinds of root, and with fewer roots than the widest
        functions += [
            AnnulusRational(r=0.5, p_coeffs=(1.0, 0.5), q1_roots=(outer[4], 3.0), q2_roots=(inner[1], 0.1j)),
            AnnulusRational(r=0.5, p_coeffs=(0.3, 1.0)),
        ]
        got = certify._lower_bounds(rational.factored_stack(functions))
        assert got.tolist() == [self._reference_lower(f) for f in functions]
        ring = np.exp(1j * (2.0 * np.pi * np.arange(0, 4096, 128) / 4096))
        coarse = np.array([np.abs(evaluate(f, np.concatenate([ring, 0.5 * ring]))).max() for f in functions])
        assert np.all(got >= coarse) and np.all(got[[4, 6, 11, 13]] > coarse[[4, 6, 11, 13]])
        assert np.all(got[[6, 13]] > 10 * coarse[[6, 13]])

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.81])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_battery_lower_bounds_stay_below_the_sups(self, r, seed):
        battery = _stress_battery.__wrapped__(r, 2000, seed)
        assert np.all(battery.lower_bounds(np.arange(2000)) <= _sups_of(_functions(battery)))

    @pytest.mark.parametrize("r", [float("nan"), 0.0, 1.0, -0.5])
    def test_radius_outside_the_unit_interval_is_rejected(self, r, monkeypatch):
        monkeypatch.setattr(linalg, "operator_norm", lambda *args: pytest.fail("norm taken"))
        with pytest.raises(BadRadius):
            vonneumann_stress(normal_annulus_matrix(3, 0.5, 1), r, 20, 1)
        with pytest.raises(BadRadius):
            full_certification(normal_annulus_matrix(3, 0.5, 1), r, 20, 1)
        with pytest.raises(BadRadius):
            example_matrix(r)

    @pytest.mark.parametrize("r", [float("nan"), 0.0, 1.0, 1.5, 2.0, -0.5])
    def test_instance_generators_reject_a_radius_outside_the_unit_interval(self, r):
        with pytest.raises(BadRadius):
            sample_test_function(r, seeded_rng(1, 17, 2))
        with pytest.raises(BadRadius):
            windowed_matrix(3, r, 1)
        with pytest.raises(BadRadius):
            normal_annulus_matrix(3, r, 1)

    def test_negative_trials_are_rejected(self, monkeypatch):
        monkeypatch.setattr(linalg, "operator_norm", lambda *args: pytest.fail("norm taken"))
        with pytest.raises(ValueError, match="trials"):
            full_certification(normal_annulus_matrix(3, 0.5, 1), 0.5, -5, 1)

    @pytest.mark.parametrize(
        "trials, seed, name",
        [(2.5, 1, "trials"), (True, 1, "trials"), (np.float64(20.0), 1, "trials"), ("20", 1, "trials"),
         (20, -1, "seed"), (20, 1.5, "seed"), (20, True, "seed"), (20, None, "seed")],
    )
    def test_count_and_seed_that_are_not_nonnegative_integers_are_rejected(self, trials, seed, name, monkeypatch):
        monkeypatch.setattr(linalg, "singular_values", lambda *args: pytest.fail("norm taken"))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            vonneumann_stress(normal_annulus_matrix(3, 0.5, 1), 0.5, trials, seed)

    def test_numpy_integer_count_and_seed_give_the_int_report(self):
        t = windowed_matrix(3, 0.5, 2)
        rep = vonneumann_stress(t, 0.5, np.int64(40), np.int32(3))
        assert type(rep.trials) is int and type(rep.seed) is int
        assert rep.to_json() == vonneumann_stress(t, 0.5, 40, 3).to_json()

    def test_huge_finite_input_ends_in_a_typed_error_or_a_finite_report(self):
        try:
            with np.errstate(all="ignore"):
                rep = vonneumann_stress(1e300 * np.eye(2), 0.5, 10, 1)
        except AnnulusLabError:
            return
        assert np.isfinite([rep.norm_t, rep.norm_rtinv, rep.max_ratio]).all()

    @pytest.mark.parametrize(
        "t",
        [1e300 * np.eye(2), 1e300 * example_matrix(0.5), 1e300 * windowed_matrix(3, 0.5, 3)],
        ids=["spectral", "factored", "screened"],
    )
    def test_overflow_raises_a_typed_error_naming_it(self, t, monkeypatch):
        # the screened input has kappa about 1.07, so |f| at the triangle's
        # diagonal is taken, and overflows; no sup is sampled before the raise
        sampled = []
        sups = certify._critical_sups
        monkeypatch.setattr(certify, "_critical_sups", lambda *args: sampled.append(1) or sups(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotContraction, match="^overflow: "):
                vonneumann_stress(t, 0.5, 10, 1)
        assert sampled == []


    @pytest.mark.parametrize("base", [np.eye(2), np.diag([1.0, 1.0j])], ids=["I2", "diag"])
    @pytest.mark.parametrize("s", [1e20, 1e38, 1e45, 1e50, 1e300])
    def test_full_certification_keeps_its_outcome_through_overflow(self, base, s):
        # |f| at the spectrum overflows from about 1e45 for this battery
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if s < 1e45:
                report, _ = full_certification(s * base, 0.5, 2000, 1)
                assert report.verdict is Verdict.REFUTED and np.isfinite(report.max_ratio)
            else:
                with pytest.raises(NotContraction, match="^overflow: "):
                    full_certification(s * base, 0.5, 2000, 1)


def _sups_of(functions):
    """:func:`_critical_sups` of ``functions`` on one annulus, packed by
    :func:`rational.factored_stack`, which validates every function first,
    after the pole check the battery makes when it is built."""
    stack = rational.factored_stack(functions)
    certify._check_poles(stack)
    return _critical_sups(stack)


def _functions(battery):
    """Every row of a battery as an :class:`AnnulusRational`, in battery order."""
    return tuple(battery.stack.function(i) for i in range(battery.stack.counts.shape[0]))


def _reference_sup(f, base_nodes=4096, local_nodes=512):
    """Per-function sampled sup: every equispaced node, then the pole windows."""
    sup = rational.boundary_sup_norm(f, base_nodes)
    windows = []
    for a in f.q1_roots:
        dist = abs(a) - 1.0
        if dist < 0.2:
            windows.append((1.0, np.angle(a), min(32.0 * dist, np.pi / 4)))
    for b in f.q2_roots:
        dist = f.r - abs(b)
        if 0 < dist < 0.2 * f.r:
            windows.append((f.r, np.angle(b), min(32.0 * dist / f.r, np.pi / 4)))
    for radius, theta0, half_width in windows:
        theta = theta0 + np.linspace(-half_width, half_width, local_nodes)
        vals = np.abs(evaluate(f, radius * np.exp(1j * theta)))
        sup = max(sup, float(vals.max()))
    return sup


def _reference_rows(r, count, rngs):
    """The battery's distribution drawn one row, and within a row one root,
    at a time from the three streams ``rngs``, as an independent reference
    for the array draw: the integers of every row in one call, each row's
    (modulus, argument) uniforms, outer roots first, and its real, then
    imaginary, parts, drawn again while all are zero."""
    ints, uniforms, normals = rngs
    ln4 = np.log(4.0)
    rows = []
    for k1, k2, deg in ints.integers(0, 5, size=(count, 3)).tolist():
        q1 = []
        for _ in range(k1):
            mod = float(np.exp((1.0 - uniforms.random()) * ln4))
            q1.append(mod * np.exp(2j * np.pi * uniforms.random()))
        q2 = []
        for _ in range(k2):
            mod = float(r * np.exp(-(1.0 - uniforms.random()) * ln4))
            q2.append(mod * np.exp(2j * np.pi * uniforms.random()))
        while True:
            p = (normals.standard_normal(deg + 1) + 1j * normals.standard_normal(deg + 1)) / np.sqrt(2.0)
            if np.any(p != 0):
                break
        rows.append(AnnulusRational(r=r, p_coeffs=tuple(p), q1_roots=tuple(q1), q2_roots=tuple(q2)))
    return rows


def _streams(seed):
    return tuple(seeded_rng(seed, 17, k) for k in range(3))


def _reference_battery(r, count, rngs):
    """The canonical probes, then ``count - 2`` reference rows from ``rngs``."""
    probes = [AnnulusRational(r=r, p_coeffs=(0.0, 1.0)), AnnulusRational(r=r, p_coeffs=(r,), q2_roots=(0.0,))]
    return probes[:count] + _reference_rows(r, max(count - 2, 0), rngs)


class _Stream:
    """A generator's draws in order, with the values at some positions of
    the stream replaced: ``random`` or ``standard_normal`` (whichever the
    stream is read by) gives ``at[k]`` as its ``k``-th value, and
    ``integers`` replaces whole rows, ``rows[i]`` for row ``i``.  ``pin``
    adds entries before or between reads."""

    def __init__(self, rng):
        self._rng = rng
        self._read = 0
        self.at, self.rows = {}, {}

    def _replaced(self, draws):
        for k in range(draws.size):
            draws[k] = self.at.get(self._read + k, draws[k])
        self._read += draws.size
        return draws

    def integers(self, low, high, size):
        draws = self._rng.integers(low, high, size=size)
        for i, row in self.rows.items():
            draws[i] = row
        return draws

    def random(self, size=None):
        return self._replaced(np.atleast_1d(self._rng.random(size)))[0 if size is None else slice(None)]

    def standard_normal(self, size):
        return self._replaced(self._rng.standard_normal(size))


def _pinned_streams(seed, count, pins):
    """The battery's three streams of ``seed`` for ``count`` rows, with row
    ``i`` of the draw (trial ``i + 2``) given the integers ``(k1, k2,
    deg)`` and the uniforms of its one root ``pins[i]``."""
    ints, uniforms, normals = (_Stream(rng) for rng in _streams(seed))
    counts = seeded_rng(seed, 17, 0).integers(0, 5, size=(count, 3))
    for i, (row, _) in pins.items():
        counts[i] = ints.rows[i] = row
    starts = 2 * (np.cumsum(counts[:, :2].sum(axis=1)) - counts[:, :2].sum(axis=1))
    for i, (_, pair) in pins.items():
        uniforms.at.update(zip(range(starts[i], starts[i] + 2), pair))
    return ints, uniforms, normals


def _patched_streams(monkeypatch, make):
    """Make the battery's ``linalg.seeded_rng(seed, 17, k)`` the ``k``-th
    of the streams ``make(seed)``."""
    made = {}

    def patched(seed, *stream):
        if stream[:1] != (17,):
            return seeded_rng(seed, *stream)
        if stream[1] == 0:
            made[seed] = make(seed)
        return made[seed][stream[1]]

    monkeypatch.setattr(linalg, "seeded_rng", patched)


# (k1, k2, degree) and (modulus, argument) uniforms of one pinned root:
# modulus exactly 1, exactly r, and 1 + 1.2e-15 (valid, but on a node)
_ON_ONE = ((1, 0, 0), (1.0, 0.0))
_ON_R = ((0, 1, 0), (1.0, 0.0))
_NEAR_ONE = ((1, 0, 0), (1.0 - 2.0**-50, 0.0))
# modulus 1 and r at phases where np.abs of the root gives 1 + 2^-52 and
# r (1 - 2^-53), but the abs validate takes gives 1 and r: invalid roots
_ROUNDED_ONE = ((1, 0, 0), (1.0, 0.9350724237877682))
_ROUNDED_R = ((0, 1, 0), (1.0, 0.5118216247002567))


@pytest.mark.oldest_pins
class TestBatteryDraw:
    """The array draw gives the functions of the scalar one, bit for bit."""

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.81])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 2**130], ids=["0", "1", "2", "3", "2^130"])
    def test_rows_are_the_scalar_draws(self, r, seed):
        battery = _stress_battery.__wrapped__(r, 2000, seed)
        ref = _reference_battery(r, 2000, _streams(seed))
        assert _functions(battery) == tuple(ref)
        stack = rational.factored_stack(ref)
        for name in ("p", "roots", "mask", "scale"):
            got, want = getattr(battery.stack, name), getattr(stack, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("trials", [0, 1, 2, 3, 100])
    def test_short_batteries(self, trials):
        # a short battery is a prefix of a long one
        for seed in (1, 3):
            battery = _stress_battery.__wrapped__(0.5, trials, seed)
            assert _functions(battery) == _functions(_stress_battery(0.5, 2000, seed))[:trials]
            assert battery.lower_bounds(np.arange(trials)).shape == (trials,)

    def test_cold_build_makes_no_seed_sequence_per_row(self, monkeypatch):
        built = []
        seed_sequence = np.random.SeedSequence

        def counting(*args, **kwargs):
            built.append(kwargs)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        _stress_battery.__wrapped__(0.5, 2000, 1)
        assert [b["spawn_key"] for b in built] == [(17, 0), (17, 1), (17, 2)]

    @pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.PCG64, np.random.SFC64, np.random.MT19937])
    def test_a_sample_is_the_one_row_draw_of_one_generator(self, bit_generator):
        for seed in range(50):
            rng = np.random.Generator(bit_generator(seed))
            want = _reference_rows(0.5, 1, (rng, rng, rng))[0]
            assert sample_test_function(0.5, np.random.Generator(bit_generator(seed))) == want, seed

    @pytest.mark.parametrize("rows, blocks", [([0], 1), ([5], 1), ([5], 2), ([5, 6, 97], 1)], ids=["first", "one", "twice", "three"])
    def test_an_all_zero_numerator_is_drawn_again(self, rows, blocks, monkeypatch):
        counts = seeded_rng(1, 17, 0).integers(0, 5, size=(98, 3))
        lengths = 2 * (counts[:, 2] + 1)
        starts = np.cumsum(lengths) - lengths

        def zeroed(seed):
            ints, uniforms, normals = (_Stream(rng) for rng in _streams(seed))
            # the stream of a row after zeroed rows starts later by their blocks
            shift = 0
            for i in rows:
                normals.at.update(dict.fromkeys(range(starts[i] + shift, starts[i] + shift + blocks * lengths[i]), 0.0))
                shift += blocks * lengths[i]
            return ints, uniforms, normals

        ref = _reference_battery(0.5, 100, zeroed(1))
        _patched_streams(monkeypatch, zeroed)
        got = _functions(_stress_battery.__wrapped__(0.5, 100, 1))
        assert got == tuple(ref)
        assert all(np.any(np.array(f.p_coeffs) != 0) for f in got)
        # the redrawn rows differ from the seed's own, the rows before them do not
        plain = _functions(_stress_battery(0.5, 2000, 1))
        assert got[: rows[0] + 2] == plain[: rows[0] + 2] and got[rows[0] + 2] != plain[rows[0] + 2]

    @pytest.mark.parametrize(
        "pins, error",
        [
            ({10: _ON_ONE}, RootInClosedDisk),
            ({5: _ON_R}, RootOutsideInnerDisk),
            ({5: _ON_R, 10: _ON_ONE}, RootOutsideInnerDisk),
            ({7: _NEAR_ONE}, PoleHit),
            ({7: _NEAR_ONE, 10: _ON_ONE}, RootInClosedDisk),
            ({10: _ROUNDED_ONE}, RootInClosedDisk),
            ({5: _ROUNDED_R}, RootOutsideInnerDisk),
        ],
    )
    def test_injected_roots_raise_what_validation_raises(self, pins, error, monkeypatch):
        # factored_stack validates every function before any pole check
        with pytest.raises(error) as expected:
            _sups_of(_reference_battery(0.5, 20, _pinned_streams(1, 18, pins)))
        _patched_streams(monkeypatch, lambda seed: _pinned_streams(seed, 18, pins))
        with pytest.raises(error, match=re.escape(str(expected.value))):
            _stress_battery.__wrapped__(0.5, 20, 1)


def _sampled_functions(r, count, seed):
    """``count`` functions of the battery's distribution, each from its own
    generator ``seeded_rng(seed, 17, i)``."""
    return [sample_test_function(r, seeded_rng(seed, 17, i)) for i in range(count)]


def _adversarial_functions(r, count, seed):
    """Roots at ``1 + 10^-k`` and ``r (1 - 10^-k)`` for k <= 6, a root at 0
    in every seventh function, numerator degrees up to 8."""
    rng = seeded_rng(seed, 5)
    out = []
    for i in range(count):
        q1 = [(1 + 10.0 ** -rng.integers(1, 7)) * np.exp(2j * np.pi * rng.random()) for _ in range(rng.integers(0, 4))]
        q2 = [r * (1 - 10.0 ** -rng.integers(1, 7)) * np.exp(2j * np.pi * rng.random()) for _ in range(rng.integers(0, 4))]
        if i % 7 == 0:
            q2.append(0j)
        deg = 8 if i % 5 == 0 else int(rng.integers(0, 9))
        p = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        out.append(AnnulusRational(r=r, p_coeffs=tuple(p), q1_roots=tuple(q1), q2_roots=tuple(q2)))
    return out


def _dense_sups(stack):
    """A sampled reference for the sups of the rows of ``stack``: the max
    of ``|f|`` over ``1 << 15`` equispaced nodes per circle, taken 4096 at
    a time, and over 4096 equispaced nodes across a window around each pole
    near a circle, about 32 times its clearance wide (capped at ``pi / 4``
    each side), as :func:`_reference_sup` takes them; the windows go 64 at
    a time."""
    nodes = 1 << 15
    ring = np.exp(1j * (2.0 * np.pi * np.arange(nodes) / nodes))
    sups = np.full(stack.p.shape[0], -np.inf)
    for lo in range(0, nodes, 4096):
        z = ring[lo : lo + 4096]
        np.maximum(sups, stack.max_abs_at(np.concatenate([z, stack.r * z])), out=sups)
    r, mods, outer = stack.r, stack.moduli, stack.outer
    dist = np.where(outer, mods - 1.0, r - mods)
    row, col = np.nonzero(stack.mask & np.where(outer, dist < 0.2, (0 < dist) & (dist < 0.2 * r)))
    dist, outer = dist[row, col], outer[row, col]
    half = np.minimum(np.where(outer, 32.0 * dist, 32.0 * dist / r), np.pi / 4)
    theta = np.angle(stack.roots[row, col])[:, np.newaxis] + np.linspace(-half, half, 4096, axis=-1)
    windows = np.where(outer, 1.0, r)[:, np.newaxis] * np.exp(1j * theta)
    for lo in range(0, row.size, 64):
        sl = slice(lo, lo + 64)
        np.maximum.at(sups, row[sl], stack.take(row[sl]).max_abs_at(windows[sl]))
    return sups


class TestCriticalSups:
    """One sup per row, from the critical points of ``|f|``: the memo's
    bits, a known answer and the pole check."""

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.81])
    def test_battery_memo_matches_one_pass(self, r):
        battery = _stress_battery.__wrapped__(r, 2000, 1)
        ref = _critical_sups(battery.stack)
        rows = np.arange(2000)
        # half the memo first, then the rest around it
        assert np.array_equal(battery.exact_sups(rows[::2]), ref[::2])
        assert np.array_equal(battery.exact_sups(rows), ref)
        assert np.array_equal(battery.memo, ref)
        # a row's sup does not depend on the rows beside it
        assert [_critical_sups(battery.stack.take(rows[i : i + 1]))[0] for i in rows[::97]] == ref[::97].tolist()

    @pytest.mark.oldest_pins
    def test_sups_reach_the_dense_sampling_on_three_batteries(self):
        """Rests on LAPACK's zgeev, through numpy's eigvals, for the critical points."""
        eps = np.finfo(float).eps
        for r in (0.25, 0.5, 0.81):
            battery = _stress_battery.__wrapped__(r, 2000, 1)
            sups, ref = _critical_sups(battery.stack), _dense_sups(battery.stack)
            excess = (sups - ref) / ref
            assert excess.min() >= -4 * eps, r
            # the sampling's shortfall, recovered
            assert excess.max() >= 2.5e-5, r

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.81])
    def test_adversarial_sups_reach_the_dense_sampling(self, r):
        # poles within 10^-k of a circle, k <= 6, where a pole's own
        # direction gives the peak that the roots of G place less accurately
        functions = _adversarial_functions(r, 300, 3)
        ref = np.array([_reference_sup(f, 1 << 15, 4096) for f in functions])
        assert np.all(_sups_of(functions) >= ref * (1.0 - 4 * np.finfo(float).eps))

    def test_a_failed_eigensolve_keeps_the_lower_bound(self, monkeypatch):
        # the critical points of a failed eigensolve drop out, the lower
        # bound's nodes and the poles' directions stay, with their bits
        battery = _stress_battery.__wrapped__(0.5, 200, 1)
        solved = _critical_sups(battery.stack)

        def failing(*args):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np, "roots", failing)
        sups = _critical_sups(battery.stack)
        assert np.all(battery.lower_bounds(np.arange(200)) <= sups) and np.all(sups <= solved)
        assert np.any(sups < solved)

    def test_the_ring_is_read_only(self):
        assert not certify._RING.flags.writeable
        assert np.array_equal(certify._RING, np.exp(1j * (2.0 * np.pi * np.arange(4096) / 4096)))

    def test_pole_hit_is_raised(self):
        f = AnnulusRational(r=0.5, q1_roots=(1.0 + 1e-15,))
        with pytest.raises(PoleHit):
            _sups_of((f,))

    def test_pole_hit_names_the_first_function(self):
        functions = _sampled_functions(0.5, 6, 1)
        second = AnnulusRational(r=0.5, p_coeffs=(1.0, 2.0), q1_roots=(3.0, -(1.0 + 1e-15)))
        fifth = AnnulusRational(r=0.5, q2_roots=(0.5 * (1.0 - 1e-15),))
        functions[1], functions[4] = second, fifth
        with pytest.raises(PoleHit, match=re.escape(str(second.q1_roots[1]))):
            _sups_of(functions)
        with pytest.raises(PoleHit, match=re.escape(str(fifth.q2_roots[0]))):
            _sups_of(functions[2:])

    @pytest.mark.parametrize("circle", ["outer", "inner"])
    @pytest.mark.parametrize("angle", [0.0, 1.0, -2.5, np.pi])
    def test_a_root_within_1e_15_of_a_circle_names_the_first_row(self, circle, angle):
        # on its allowed side: outside the unit circle, inside the r circle
        r = 0.5
        root = (1.0 + 1e-15 if circle == "outer" else r * (1.0 - 1e-15)) * np.exp(1j * angle)
        clear = (1.0 + 1e-13 if circle == "outer" else r * (1.0 - 1e-13)) * np.exp(1j * angle)
        make = (lambda a: AnnulusRational(r=r, p_coeffs=(1.0, 0.5), q1_roots=(2.0, a))) if circle == "outer" else (
            lambda a: AnnulusRational(r=r, p_coeffs=(1.0, 0.5), q1_roots=(2.0,), q2_roots=(0.1, a))
        )
        functions = _sampled_functions(r, 5, 2) + [make(clear), make(root), make(-root)]
        assert np.isfinite(_sups_of(functions[:6])).all()
        with pytest.raises(PoleHit, match=re.escape(str(complex(root)))):
            _sups_of(functions)
        with pytest.raises(PoleHit, match=re.escape(str(complex(-root)))):
            _sups_of(functions[:6] + functions[7:])


def _full_sup_ratios(nums, norms, lower, probe, memo, sups, tol):
    """Reference for :func:`_stress_ratios`: every norm (those of
    ``norms``, or ``nums`` without it) and every sup computed; the witness
    is the first row above ``1 + tol``."""
    nums = norms(np.arange(nums.size)) if norms is not None else nums
    ratios = nums / np.maximum(sups(np.arange(nums.size)), probe)
    flagged = np.flatnonzero(ratios > 1.0 + tol)
    return (float(ratios.max()) if ratios.size else 0.0), (int(flagged[0]) if flagged.size else None)


@pytest.mark.oldest_pins
class TestStressRatios:
    """Lazy refinement gives the ratios of every norm and every sup computed."""

    @staticmethod
    def _lazy(nums, lower, probe, memo, exact, tol, norms=None):
        """:func:`_stress_ratios` on upper bounds ``nums`` of the norms
        ``norms`` (none: ``nums`` are the norms); returns the result, the
        rows whose sups were asked for and the rows that got their norms."""
        asked, normed = [], []

        def exact_norms(rows):
            rows = np.arange(nums.size)[rows]  # an index array or slice(None)
            assert rows.size  # no empty call
            normed.extend(rows.tolist())
            return norms[rows]

        def sups(rows):
            assert rows.size and np.all(np.isnan(memo[rows]))
            if norms is not None:
                assert set(rows.tolist()) <= set(normed)  # a row's norm comes first
            asked.extend(rows.tolist())
            return exact[rows]

        by_row = None if norms is None else exact_norms
        got = _stress_ratios(nums, by_row, lower, probe, memo, sups, tol)
        # no row is asked for its sup twice, or for its norm twice
        assert len(asked) == len(set(asked)) and len(normed) == len(set(normed))
        return got, asked, normed

    @staticmethod
    def _same(got, want):
        assert got[1] == want[1]
        assert got[0] == want[0] or (np.isnan(got[0]) and np.isnan(want[0]))

    def test_matches_brute_force_on_random_arrays(self):
        rng = seeded_rng(8, 1)
        for trial in range(400):
            n = int(rng.integers(0, 80))
            # values on a grid of sixteenths, so ratios tie with bounds, and
            # bounds with the norms they bound
            exact = rng.integers(4, 40, n) / 16
            lower = np.minimum(exact, rng.integers(1, 40, n) / 16)
            probe = rng.integers(0, 40, n) / 16 * (rng.random(n) < 0.5)
            # norms on a finer grid, so ratios also come within 0.1 % of each other
            norms = rng.integers(0, 44 * 256, n) / 4096
            if trial % 4 == 1 and n >= 40:
                # a near tie: every ratio at most 1 but row 0's, 1 + 1/4096
                # with a tight sup, which a bound 0.1 % short of its norm prunes
                norms = np.minimum(norms, np.maximum(exact, probe))
                norms[0], exact[0], lower[0], probe[0] = 1.0 + 1.0 / 4096, 1.0, 1.0, 0.0
            steps = rng.integers(0, 8, n) * (rng.random(n) < 0.7)
            nums = norms + steps / 16
            # tighter bounds between them, on the same grid, as the stacked
            # bounds are when the screen prunes nothing: each ties with
            # nums or with the norms in some rows
            middle = norms + rng.integers(0, steps + 1) / 16
            bad = []
            if trial % 5 == 0 and n:
                bad = rng.integers(0, n, 2)
                nums[bad] = (np.nan, np.inf)[trial % 2]
            memo = np.where(rng.random(n) < 0.3 * (trial % 3), exact, np.nan)
            tol = (1e-8, 0.1)[trial % 2]
            want = _full_sup_ratios(
                nums,
                lambda rows: norms[rows],
                lower,
                probe,
                memo,
                lambda rows: exact[rows],
                tol,
            )
            got, _, normed = self._lazy(nums, lower, probe, memo, exact, tol, norms)
            self._same(got, want)
            assert set(np.asarray(bad).tolist()) <= set(normed)
            # on the tighter bounds, and with nothing known (every bound
            # inf, as a screen with kappa = inf would give)
            self._same(self._lazy(middle, lower, probe, memo, exact, tol, norms)[0], want)
            self._same(self._lazy(np.full(n, np.inf), lower, probe, memo, exact, tol, norms)[0], want)
            # a quarter of each: few rows can exceed 1 + tol, so the ratio
            # seeded first prunes the rest
            sups = lambda rows: exact[rows]  # noqa: E731
            quarter = _full_sup_ratios(nums / 4, lambda rows: norms[rows] / 4, lower, probe, memo, sups, tol)
            got = self._lazy(nums / 4, lower, probe, memo, exact, tol, norms / 4)[0]
            self._same(got, quarter)
            # without a norm call, as on the spectral route, nums are the norms
            self._same(self._lazy(norms, lower, probe, memo, exact, tol)[0], want)
            # and on nums, non-finite ones included, against every sup computed
            on_nums = _full_sup_ratios(nums, None, lower, probe, memo, sups, tol)
            self._same(self._lazy(nums, lower, probe, memo, exact, tol)[0], on_nums)
            # with a full memo no sup is asked for, and with exact norms nothing
            assert self._lazy(nums, lower, probe, exact, exact, tol, norms)[1] == []
            assert self._lazy(norms, lower, probe, exact, exact, tol)[1:] == ([], [])

    def test_the_witness_is_the_first_row_above_one_plus_tol(self):
        # rows 1 and 3 exceed 1 + tol with their sups, row 3 by more; row
        # 0's bound exceeds it too, but not its ratio
        nums, lower, probe = np.array([2.0, 1.5, 0.5, 3.0]), np.ones(4), np.zeros(4)
        exact = np.array([4.0, 1.0, 1.0, 1.0])
        got, asked, _ = self._lazy(nums, lower, probe, np.full(4, np.nan), exact, 1e-8)
        assert got == (3.0, 1) and sorted(asked) == [0, 1, 3]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_nums_are_refined(self, bad):
        nums, lower, probe = np.array([0.5, bad, 0.1]), np.array([1.0, 1.0, 1.0]), np.zeros(3)
        exact = np.array([1.0, 2.0, 1.5])
        want = _full_sup_ratios(nums, None, lower, probe, None, lambda rows: exact[rows], 1e-8)
        got, asked, _ = self._lazy(nums, lower, probe, np.full(3, np.nan), exact, 1e-8)
        self._same(got, want)
        assert 1 in asked and 2 not in asked

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bounds_get_their_norms(self, bad):
        nums, lower, probe = np.array([0.5, bad, 0.1]), np.array([1.0, 1.0, 1.0]), np.zeros(3)
        exact, norms = np.array([1.0, 2.0, 1.5]), np.array([0.5, 1.5, 0.1])
        want = _full_sup_ratios(nums, lambda rows: norms[rows], lower, probe, None, lambda rows: exact[rows], 1e-8)
        got, asked, normed = self._lazy(nums, lower, probe, np.full(3, np.nan), exact, 1e-8, norms)
        self._same(got, want)
        assert 1 in normed and 1 in asked and 2 not in asked

    def test_a_full_memo_asks_for_nothing(self):
        nums, exact = np.array([0.5, 0.9, 1.2]), np.array([1.0, 1.0, 1.0])
        got, asked, _ = self._lazy(nums, 0.5 * exact, np.zeros(3), exact, exact, 1e-8)
        assert got == (1.2, 2) and asked == []

    def test_one_seed_then_the_rest_pruned_without_norms(self):
        # no ratio can exceed 1 and none is known: the largest row gets its
        # norm and its sup first (ratio 0.9), which prunes the 39 others
        # on their bounds alone
        n = 40
        nums, norms = np.r_[0.96, np.full(n - 1, 0.85)], np.r_[0.9, np.full(n - 1, 0.25)]
        ones = np.ones(n)
        got, asked, normed = self._lazy(nums, ones, np.zeros(n), np.full(n, np.nan), ones, 1e-8, norms)
        assert got == (0.9, None) and asked == normed == [0]

    def test_a_witness_leaves_the_seeds_sup_unasked(self):
        # the seed, row 0, gets its norm with the rows above 1 + tol and
        # falls to 0.5; row 1 stays at 1.2 with its sup, above every other
        # bound, so the seed's sup and every other norm would prune nothing
        n = 40
        nums, norms = np.r_[1.5, 1.4, np.full(n - 2, 0.9)], np.r_[0.5, 1.2, np.full(n - 2, 0.25)]
        ones = np.ones(n)
        got, asked, normed = self._lazy(nums, ones, np.zeros(n), np.full(n, np.nan), ones, 1e-8, norms)
        assert got == (1.2, 1) and asked == [1] and normed == [0, 1]

    def test_a_bound_that_is_not_finite_climbs_before_any_sup(self):
        # a norm call that raises on a norm that is not finite, as the
        # factored route's does, raises before any sup is asked for: no
        # row is seeded while a bound is not finite, though the NaN row,
        # the largest, has a finite norm
        n = 20
        nums, norms = np.r_[np.nan, np.inf, np.full(n - 2, 0.5)], np.r_[0.5, np.inf, np.full(n - 2, 0.25)]

        def exact(rows):
            if not np.isfinite(norms[rows]).all():
                raise OverflowError
            return norms[rows]

        def sups(rows):
            pytest.fail("sup asked for")

        with pytest.raises(OverflowError):
            _stress_ratios(nums, exact, np.ones(n), np.zeros(n), np.full(n, np.nan), sups, 1e-8)

    def test_bounds_prune_norms(self):
        # the first batch of rows settles at ratio 0.9, above the last row's
        # bound 0.5: that row never gets its norm or its sup
        rows = certify._REFINE_ROWS
        nums, norms = np.r_[np.full(rows, 0.95), 0.5], np.r_[np.full(rows, 0.9), 0.25]
        exact, memo = np.ones(rows + 1), np.full(rows + 1, np.nan)
        got, asked, normed = self._lazy(nums, exact, np.zeros(rows + 1), memo, exact, 1e-8, norms)
        assert got == (0.9, None) and sorted(asked) == sorted(normed) == list(range(rows))


def _corpus_matrix(i, seed):
    """Instance ``i`` of a mix like the certify corpus's rounds of 20: normal
    matrices and their involutions, windowed matrices and the shear."""
    j, s = i % 20, 1000 * seed + i
    if j == 19:
        return example_matrix(0.5)
    if j % 5 == 4:
        return windowed_matrix(2 + j // 5, 0.5, s)
    t = normal_annulus_matrix(2 + i % 5, 0.5, s)
    return involution(t, 0.5) if j % 2 else t


def _conjugated(triangle):
    """``triangle`` conjugated by ``random_unitary(3, 5)``."""
    q = random_unitary(3, 5)
    return q @ np.array(triangle) @ q.conj().T


_LAZY_CASES = {
    "normal": normal_annulus_matrix(4, 0.5, 11),
    "involution": involution(normal_annulus_matrix(4, 0.5, 12), 0.5),
    "windowed": windowed_matrix(3, 0.5, 13),
    "shear": example_matrix(0.5),
    # hard inputs whose eigenvector screen prunes nothing: a Jordan block
    # (kappa = inf) and two near-defective 3x3s (kappa near 1e10)
    "jordan": np.array([[0.7, 0.2], [0.0, 0.7]]),
    "split-jordan": _conjugated([[0.6, 0.1, 0], [0, 0.6 + 1e-6, 0.1], [0, 0, 0.6 - 1e-6]]),
    "jordan3": _conjugated([[0.6, 0.3, 0], [0, 0.6, 0.2], [0, 0, 0.6]]),
}
# (kappa_2(Y) range, verdict, max_ratio or None) of the hard inputs at r =
# 0.5, 2000 trials, seed 1
_HARD_CASES = {
    "jordan": ((np.inf, np.inf), Verdict.PASSED_STRESS, 0.9132514708022987),
    "split-jordan": ((8e9, 9e9), Verdict.PASSED_STRESS, None),
    "jordan3": ((7e9, 8e9), Verdict.REFUTED, 1.6198529039052085),
}


@pytest.mark.oldest_pins
class TestLazyRefinement:
    """Pruning changes no report field, so a re-evaluated subset of rows must give the full stack's bits."""
    @pytest.mark.parametrize("kind", sorted(_LAZY_CASES))
    def test_reports_equal_full_sups(self, kind, monkeypatch):
        t = _LAZY_CASES[kind]
        _stress_battery.cache_clear()
        lazy = full_certification(t, 0.5, 2000, 1)
        monkeypatch.setattr(certify, "_stress_ratios", _full_sup_ratios)
        full = full_certification(t, 0.5, 2000, 1)
        assert lazy[0].to_json() == full[0].to_json() and lazy[1] == full[1]

    @pytest.mark.parametrize("kind", sorted(_HARD_CASES))
    def test_hard_inputs_keep_their_reports(self, kind):
        (low, high), verdict, ratio = _HARD_CASES[kind]
        t = _LAZY_CASES[kind]
        assert low <= linalg.analysis(t).eigenvector_condition <= high
        rep = vonneumann_stress(t, 0.5, 2000, 1)
        assert rep.verdict is verdict and rep.stress_route == "factored"
        if ratio is not None:
            assert_allclose(rep.max_ratio, ratio, rtol=1e-12)
        if kind == "jordan":
            assert rep.screened == 603

    @pytest.mark.parametrize("kind", [*sorted(_HARD_CASES), "shear", "windowed4"])
    def test_the_stacked_bound_runs_only_where_the_screen_prunes_nothing(self, kind, monkeypatch):
        # once over every evaluated row where no screened ratio is at most
        # 1 + verify_tol, on a cold battery and a warm one; never otherwise
        sizes = []
        bounds = calculus.FactoredNorms.bounds

        def counting(self, rows):
            out = bounds(self, rows)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(calculus.FactoredNorms, "bounds", counting)
        t = windowed_matrix(4, 0.5, 3) if kind == "windowed4" else _LAZY_CASES[kind]
        _stress_battery.cache_clear()
        for _ in range(2):
            sizes.clear()
            rep = vonneumann_stress(t, 0.5, 2000, 1)
            assert sizes == ([] if kind == "windowed4" else [2000 - rep.screened])

    def test_reports_equal_every_norm(self, monkeypatch):
        inputs = [_corpus_matrix(i, 7) for i in range(20)] + [windowed_matrix(4, 0.5, 3), example_matrix(0.5)]

        def sweep():
            _stress_battery.cache_clear()
            reports = [full_certification(t, 0.5, 2000, 2) for t in inputs[:20]]
            battery = _stress_battery(0.5, 2000, 2)
            counts = np.count_nonzero(~np.isnan(battery.memo))
            reports += [full_certification(t, 0.5, 2000, 2) for t in inputs[20:]]
            return [(rep.to_json(), details) for rep, details in reports], counts

        lazy = sweep()
        original = certify._stress_ratios

        def every_norm(nums, norms, lower, *rest):
            nums = norms(np.arange(nums.size)) if norms is not None else nums
            return original(nums, None, lower, *rest)

        monkeypatch.setattr(certify, "_stress_ratios", every_norm)
        assert lazy == sweep()
        assert {rep["verdict"] for rep, _ in lazy[0]} == {"PassedStress", "Refuted"}
        assert {rep["stress_route"] for rep, _ in lazy[0]} == {"spectral", "factored"}

    _PRUNE_CASES = {
        "normal": normal_annulus_matrix(4, 0.5, 11),
        "involution": involution(normal_annulus_matrix(4, 0.5, 12), 0.5),
        **{f"windowed{n}": windowed_matrix(n, 0.5, 13) for n in range(2, 6)},
        "shear": example_matrix(0.5),
    }

    @pytest.mark.parametrize("kind", list(_PRUNE_CASES))
    def test_lower_bounds_only_prune(self, kind, monkeypatch):
        # with no lower bound (zeros) every evaluated row gets its exact sup;
        # the report must be the one pruning gives, field by field
        t = self._PRUNE_CASES[kind]
        _stress_battery.cache_clear()
        pruned = vonneumann_stress(t, 0.5, 300, 1)
        battery = _stress_battery(0.5, 300, 1)
        sups = np.count_nonzero(~np.isnan(battery.memo))
        # a row with a pole within 1e-3 of a circle is among those evaluated
        read = np.flatnonzero(~np.isnan(battery.lower))
        stack = battery.stack.take(read)
        outer = np.arange(stack.roots.shape[1]) < stack.counts[:, :1]
        dist = np.where(outer, stack.moduli - 1.0, 0.5 - stack.moduli)
        assert (stack.mask & (dist < 1e-3)).any()
        _stress_battery.cache_clear()
        monkeypatch.setattr(certify, "_lower_bounds", lambda stack: np.zeros(stack.p.shape[0]))
        unpruned = vonneumann_stress(t, 0.5, 300, 1)
        assert np.count_nonzero(~np.isnan(_stress_battery(0.5, 300, 1).memo)) == read.size > sups
        _stress_battery.cache_clear()
        for field in dataclasses.fields(pruned):
            assert repr(getattr(pruned, field.name)) == repr(getattr(unpruned, field.name)), field.name
        assert pruned.to_json() == unpruned.to_json()

    @pytest.mark.parametrize("kind", ["normal", "windowed"])
    def test_cold_certify_refines_few_functions(self, kind):
        _stress_battery.cache_clear()
        vonneumann_stress(_LAZY_CASES[kind], 0.5, 2000, 1)
        assert np.count_nonzero(~np.isnan(_stress_battery(0.5, 2000, 1).memo)) < 100

    def test_cold_run_builds_no_function_objects(self, monkeypatch):
        built = []
        original = rational.FactoredStack.function
        monkeypatch.setattr(rational.FactoredStack, "function", lambda s, i: built.append(i) or original(s, i))
        _stress_battery.cache_clear()
        rep = vonneumann_stress(windowed_matrix(4, 0.5, 3), 0.5, 2000, 1)
        assert rep.verdict is Verdict.PASSED_STRESS
        # exact sups were computed, all from the stack
        assert np.count_nonzero(~np.isnan(_stress_battery(0.5, 2000, 1).memo)) > 0
        assert built == []

    def test_warm_battery_computes_no_witness_sup_twice(self, monkeypatch):
        _stress_battery.cache_clear()
        first = vonneumann_stress(example_matrix(0.5), 0.5, 2000, 2)
        assert first.verdict is Verdict.REFUTED
        battery = _stress_battery(0.5, 2000, 2)
        rows = np.flatnonzero(~np.isnan(battery.memo))
        assert rows.size and np.array_equal(battery.memo[rows], _critical_sups(battery.stack.take(rows)))
        monkeypatch.setattr(certify, "_critical_sups", lambda *args: pytest.fail("sup computed"))
        assert vonneumann_stress(example_matrix(0.5), 0.5, 2000, 2).to_json() == first.to_json()

    def test_threads_lose_no_sup(self):
        battery = _stress_battery.__wrapped__(0.5, 200, 2)
        parts = [np.arange(k, 24, 6) for k in range(6)]
        start = threading.Barrier(6)

        def worker(rows):
            start.wait()
            return battery.exact_sups(rows)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                got = [future.result(timeout=120) for future in [pool.submit(worker, rows) for rows in parts]]
        finally:
            sys.setswitchinterval(interval)
        want = _critical_sups(battery.stack.take(np.arange(24)))
        assert all(np.array_equal(g, want[rows]) for g, rows in zip(got, parts))
        assert np.array_equal(battery.memo[:24], want) and np.isnan(battery.memo[24:]).all()
        assert np.isnan(battery.lower).all()

    @pytest.mark.parametrize("kind", ["normal", "windowed", "shear"])
    def test_lower_bounds_only_for_the_rows_read(self, kind):
        # a strict double contraction reads the two-sided rows' bounds, the
        # shear every row's; each is the eager pass's value, bit for bit
        _stress_battery.cache_clear()
        rep = vonneumann_stress(_LAZY_CASES[kind], 0.5, 2000, 1)
        battery = _stress_battery(0.5, 2000, 1)
        read = np.flatnonzero(~np.isnan(battery.lower))
        want = battery.two_sided[0] if kind != "shear" else np.arange(2000)
        assert rep.screened == 2000 - want.size and np.array_equal(read, want)
        eager = certify._lower_bounds(battery.stack)
        assert battery.lower[read].tobytes() == eager[read].tobytes()

    @pytest.mark.parametrize("seed", [1, 3, 5, 7, 11])
    def test_cold_normal_certify_computes_at_most_two_sups(self, seed):
        _stress_battery.cache_clear()
        vonneumann_stress(normal_annulus_matrix(4, 0.5, seed), 0.5, 2000, 1)
        assert 1 <= np.count_nonzero(~np.isnan(_stress_battery(0.5, 2000, 1).memo)) <= 2

    def test_threads_on_one_cold_battery_match_a_sequential_run(self, monkeypatch):
        kinds = ["involution", "normal", "shear", "windowed"]  # one per worker
        _stress_battery.cache_clear()
        expected = [full_certification(_LAZY_CASES[k], 0.5, 2000, 2)[0].to_json() for k in kinds]
        _stress_battery.cache_clear()
        battery = _stress_battery(0.5, 2000, 2)
        computed = []
        original = certify._Battery.exact_sups

        def recording(self, rows):
            if self is battery:
                computed.extend(rows[np.isnan(self.memo[rows])].tolist())
            return original(self, rows)

        monkeypatch.setattr(certify._Battery, "exact_sups", recording)
        start = threading.Barrier(4)

        def worker(kind):
            start.wait()
            return full_certification(_LAZY_CASES[kind], 0.5, 2000, 2)[0].to_json()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(worker, k) for k in kinds]
                got = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        # no lost update: every sup computed is in the memo
        assert computed and not np.isnan(battery.memo[computed]).any()


def _one_sided(f) -> bool:
    """Poles on one side of the annulus only: none inside radius ``r``, or
    none outside the unit circle and ``f`` finite at infinity."""
    return not f.q2_roots or (not f.q1_roots and len(f.p_coeffs) - 1 <= len(f.q2_roots))


def _laurent_parts(f, z1, z2):
    """``g1`` at the points ``z1`` and ``g2`` at ``z2``: the nonnegative and
    negative parts of the Laurent expansion of ``f`` on the annulus.  ``g2``
    is the sum of the principal parts at the inner poles (simple ones, as
    the battery draws them), ``g1 = f - g2``."""
    inner = np.array(f.q2_roots, dtype=complex)
    assert len(set(f.q2_roots)) == inner.size
    poly = np.polynomial.polynomial
    residues = [
        poly.polyval(b, f.p_coeffs)
        / (f.scale * np.prod([b - a for a in f.q1_roots]) * np.prod([b - c for c in f.q2_roots if c != b]))
        for b in inner
    ]

    def g2(z):
        return sum((res / (z - b) for res, b in zip(residues, inner)), np.zeros(z.shape, dtype=complex))

    return evaluate(f, z1) - g2(z1), g2(z2)


def _split_bound(f, nodes=4096):
    """``sup_{|z|=1} |g1| + sup_{|z|=r} |g2|``, each sampled at ``nodes``
    equispaced points."""
    ring = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    g1, g2 = _laurent_parts(f, ring, f.r * ring)
    return float(np.abs(g1).max() + np.abs(g2).max())


class TestVonNeumannScreen:
    """A strict double contraction evaluates only the two-sided functions."""

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.81])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_two_sided_rows_match_the_function_classification(self, r, seed):
        battery = _stress_battery(r, 2000, seed)
        rows, stack = battery.two_sided
        assert rows.tolist() == [i for i, f in enumerate(_functions(battery)) if not _one_sided(f)]
        assert 0 < rows.size < 2000
        full = battery.stack.take(rows)
        for name in ("p", "roots", "mask", "scale"):
            assert np.array_equal(getattr(stack, name), getattr(full, name))
        rep = vonneumann_stress(windowed_matrix(4, r, 5), r, 2000, seed)
        assert rep.screened == 2000 - rows.size == rep.to_json()["screened"]

    @pytest.mark.parametrize(
        "t",
        [
            example_matrix(0.5),
            windowed_matrix(4, 0.5, 3) / operator_norm(windowed_matrix(4, 0.5, 3)),
            windowed_matrix(4, 0.5, 3) * (0.5 / np.linalg.svd(windowed_matrix(4, 0.5, 3), compute_uv=False)[-1]),
        ],
        ids=["shear", "norm-one", "smallest-singular-value-r"],
    )
    def test_operators_on_the_window_boundary_screen_nothing(self, t):
        rep = vonneumann_stress(t, 0.5, 2000, 1)
        assert rep.screened == 0 and rep.to_json()["screened"] == 0

    @pytest.mark.parametrize(
        "t", [normal_annulus_matrix(4, 0.5, 11), windowed_matrix(4, 0.5, 13)], ids=["normal", "windowed"]
    )
    def test_screened_rows_cannot_refute(self, t):
        # the premise of the screen, on the functions it skips
        battery = _stress_battery(0.5, 2000, 1)
        one_sided = np.setdiff1d(np.arange(2000), battery.two_sided[0])
        nums = calculus.factored_norms(battery.stack.take(one_sided), t)
        assert np.all(nums <= battery.exact_sups(one_sided) * (1.0 + 1e-12))
        assert vonneumann_stress(t, 0.5, 2000, 1).screened == one_sided.size

    @pytest.mark.parametrize(
        "t",
        [
            example_matrix(0.5),
            windowed_matrix(4, 0.5, 3),
            windowed_matrix(4, 0.5, 3) / operator_norm(windowed_matrix(4, 0.5, 3)),
            1.3 * windowed_matrix(4, 0.5, 3),
            0.1 * np.eye(2),
            normal_annulus_matrix(4, 0.5, 11),
        ],
        ids=["shear", "windowed", "norm-one", "scaled-up", "small", "normal"],
    )
    def test_the_screen_and_the_necessary_condition_read_one_test(self, t):
        # the two answers of Analysis.double_contraction against the
        # formulas they replace, and the three readers against them
        r, tols = 0.5, linalg.DEFAULT_TOLS
        facts = linalg.analysis(t)
        svals = np.linalg.svd(t, compute_uv=False)
        norm_rtinv = operator_norm(r * np.linalg.inv(t))
        margin = 64 * t.shape[0] * np.finfo(float).eps * svals[0]
        within = svals[0] <= 1.0 + tols.verify_tol and norm_rtinv <= 1.0 + tols.verify_tol
        strict = svals[0] + margin <= 1.0 and svals[-1] - margin >= r
        assert facts.double_contraction(r, norm_rtinv, tols) == (within, strict)
        report, details = full_certification(t, r, 200, 1)
        assert details["double_contraction"] == double_contraction_check(t, r) == within
        assert (report.screened > 0) == strict

    def test_probes_alone_are_screened_to_a_zero_ratio(self):
        rep = vonneumann_stress(normal_annulus_matrix(4, 0.5, 11), 0.5, 2, 1)
        assert (rep.verdict, rep.screened, rep.max_ratio) == (Verdict.PASSED_STRESS, 2, 0.0)

    @pytest.mark.parametrize(
        "t",
        [windowed_matrix(n, 0.5, 30 + n) for n in (2, 3, 5, 9)] + [normal_annulus_matrix(4, 0.5, 11)],
        ids=["n2", "n3", "n5", "n9", "normal"],
    )
    def test_evaluated_values_are_the_full_battery_rows(self, t):
        battery = _stress_battery(0.5, 2000, 1)
        rows, stack = battery.two_sided
        assert np.array_equal(calculus.factored_norms(stack, t), calculus.factored_norms(battery.stack, t)[rows])
        lams = linalg.spectrum(t)
        points = np.concatenate([_clamp_to_annulus(lams, 0.5), lams])
        assert np.array_equal(stack.abs_at(points), battery.stack.abs_at(points)[rows])

    def test_split_parts_are_the_laurent_parts(self):
        ring = np.exp(2j * np.pi * np.arange(64) / 64)
        for k in range(20):
            f = random_function(0.5, 900 + k)
            series = rational.laurent_expand(f, 120)
            assert series.tail_bound < 1e-12
            g1, g2 = _laurent_parts(f, ring, 0.5 * ring)
            pos = np.polynomial.polynomial.polyval(ring, series.coeffs[120:])
            neg = np.polynomial.polynomial.polyval(1.0 / (0.5 * ring), np.r_[0.0, series.coeffs[:120][::-1]])
            assert np.abs(g1 - pos).max() <= 1e-10 * max(1.0, np.abs(g1).max())
            assert np.abs(g2 - neg).max() <= 1e-10 * max(1.0, np.abs(g2).max())

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.81])
    def test_evaluated_norms_keep_the_split_bound(self, r):
        # ||f(T)|| <= sup_{|z|=1} |g1| + sup_{|z|=r} |g2| for a double
        # contraction: von Neumann's inequality for T and for r T^-1
        battery = _stress_battery(r, 2000, 1)
        rows, stack = battery.two_sided
        for seed in (3, 4):
            t = windowed_matrix(4, r, seed)
            rep = vonneumann_stress(t, r, 2000, 1)
            assert rep.stress_route == "factored" and rep.screened == 2000 - rows.size > 0
            for i, num in zip(rows, calculus.factored_norms(stack, t)):
                assert num <= _split_bound(battery.stack.function(i)) * (1.0 + 1e-6)


def _reference_direct(f, t):
    """Per-function factored evaluation: Horner, then one solve per root."""
    n = t.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for c in reversed(f.p_coeffs):
        out = out @ t + c * np.eye(n)
    out = out / f.scale
    for root in f.q1_roots + f.q2_roots:
        out = np.linalg.solve(t - root * np.eye(n), out)
    return out


class TestStackedFactoredEvaluation:
    TRIALS = 2000

    @pytest.mark.parametrize(
        "t",
        [example_matrix(0.5)] + [windowed_matrix(n, 0.5, 30 + n) for n in (2, 3, 5, 9)],
        ids=["shear", "n2", "n3", "n5", "n9"],
    )
    def test_matches_per_function_loop(self, t):
        battery = _stress_battery(0.5, self.TRIALS, 1)
        got = calculus.factored_norms(battery.stack, t)
        ref = np.array([operator_norm(_reference_direct(f, t)) for f in _functions(battery)])
        assert np.all(np.abs(got - ref) <= 1e-13 * ref)

    @pytest.mark.oldest_pins
    def test_abs_at_matches_evaluate_bit_for_bit(self):
        """numpy must give the same bits with sliced out= and transposed operands as with whole arrays."""
        battery = _stress_battery(0.5, self.TRIALS, 1)
        ring = np.exp(2j * np.pi * np.arange(4096) / 4096)
        radii = np.linspace(0.5, 1.0, 100)
        # stacks of 100 rows x 4096 points pass numpy's 256 KiB threshold for
        # eliding temporaries
        every = _functions(battery)
        for lo in range(0, self.TRIALS, 100):
            functions = every[lo : lo + 100]
            stack = rational.factored_stack(functions)
            ref = np.array([np.abs(evaluate(f, ring)) for f in functions])
            assert np.array_equal(stack.abs_at(ring), ref)
            ref = np.array([np.abs(evaluate(f, rho * ring)) for f, rho in zip(functions, radii)])
            assert np.array_equal(stack.abs_at(radii[:, np.newaxis] * ring), ref)

    @pytest.mark.oldest_pins
    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_eval_direct_is_the_per_root_route_bit_for_bit(self, n):
        """Horner, then numpy's 2-D solve once per root."""
        t = windowed_matrix(n, 0.5, 4)
        for f in _functions(_stress_battery(0.5, self.TRIALS, 1))[2:400]:
            assert calculus.eval_direct(f, t).tobytes() == _reference_direct(f, t).tobytes()

    def test_chunk_boundary_is_crossed(self):
        # n = 9 splits the 2000-function battery into two chunks
        assert calculus._CHUNK_BYTES // (16 * 9 * 9) < self.TRIALS

    def test_eigenvalue_on_a_root_raises_singular_naming_it(self):
        battery = _stress_battery(0.5, self.TRIALS, 1)
        with_roots = [f for f in _functions(battery)[2:] if f.q1_roots and f.q2_roots]
        first, later = with_roots[0], with_roots[1]
        # eigenvalues on a root of a later function and on the last root of an
        # earlier one: the earlier function, in battery order, is named
        root = first.q2_roots[-1]
        t = np.array([[later.q1_roots[0], 0.3], [0.0, root]], dtype=complex)
        with pytest.raises(Singular, match=re.escape(str(root))):
            vonneumann_stress(t, 0.5, self.TRIALS, 1)
        with pytest.raises(Singular, match=re.escape(str(root))):
            calculus.eval_direct(first, t)

    def test_fixed_memory_at_n40(self):
        t = windowed_matrix(40, 0.5, 3)
        battery = _stress_battery(0.5, self.TRIALS, 1)
        tracemalloc.start()
        try:
            calculus.factored_norms(battery.stack, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an unchunked stack of 2000 40x40 complex matrices takes 51 MB;
        # the chunked evaluation peaks near 6 MiB
        assert peak <= 12 * 2**20

    def test_non_normal_stress_makes_no_per_function_call(self, monkeypatch):
        calls = []
        original = calculus.eval_direct

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(calculus, "eval_direct", counting)
        rep = vonneumann_stress(windowed_matrix(3, 0.5, 8), 0.5, self.TRIALS, 1)
        assert rep.stress_route == "factored"
        assert calls == []


def _abs_reference(stack, points):
    """``np.abs(evaluate(f_i, z))`` row by row: ``z`` the shared points
    (1-D) or row ``i``'s own (2-D)."""
    rows = [stack.function(i) for i in range(stack.counts.shape[0])]
    zs = points if points.ndim == 2 else [points] * len(rows)
    return np.array([np.abs(evaluate(f, z)) for f, z in zip(rows, zs)]).reshape(len(rows), points.shape[-1])


def _annulus_points(r, count, seed):
    """``count`` points of the closed annulus, both circles included."""
    rng = np.random.default_rng(seed)
    rho = np.concatenate([[1.0, r], r + (1.0 - r) * rng.random(max(count - 2, 0))])[:count]
    return rho * np.exp(2j * np.pi * rng.random(count))


@pytest.mark.oldest_pins
class TestAbsAtKernel:
    """``FactoredStack.abs_at`` against ``np.abs(evaluate(f_i, z))`` bit for
    bit, in both layouts of its work arrays."""

    @staticmethod
    def _assert_bits(stack, points):
        got = stack.abs_at(points)
        ref = _abs_reference(stack, points)
        assert got.dtype == np.float64 and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        return got

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.81])
    @pytest.mark.parametrize("count", [1, 6, 12, 128, 4096])
    def test_seed_one_battery_at_shared_points(self, r, count):
        stack = _stress_battery(r, 2000, 1).stack
        points = _annulus_points(r, count, 7)
        # rows innermost below 2000 points, points innermost at 4096; at 128
        # also a stack of as many rows as points
        step = 2000 if count < 2000 else 1000
        for lo in range(0, 2000, step):
            self._assert_bits(stack.take(slice(lo, lo + step)), points)
        if count == 128:
            self._assert_bits(stack.take(slice(300, 428)), points)

    @pytest.mark.parametrize("count", [4, 512])
    def test_per_row_points(self, count):
        stack = _stress_battery(0.5, 2000, 1).stack.take(slice(0, 1000))
        points = _annulus_points(0.5, 1000 * count, 3).reshape(1000, count)
        got = self._assert_bits(stack, points)
        # each row reads its own points: a permuted stack permutes the values
        perm = np.random.default_rng(4).permutation(1000)
        assert stack.take(perm).abs_at(points[perm]).tobytes() == got[perm].tobytes()

    @pytest.mark.parametrize(
        "rows",
        [slice(3, 1500, 7), np.random.default_rng(5).permutation(2000)[:300], slice(11, 12), np.array([1999])],
        ids=["slice", "unsorted", "one-row-slice", "one-row-index"],
    )
    @pytest.mark.parametrize("count", [1, 6, 4096])
    def test_take_evaluates_the_rows_it_takes(self, rows, count):
        stack = _stress_battery(0.5, 2000, 1).stack
        points = _annulus_points(0.5, count, 9)
        got = self._assert_bits(stack.take(rows), points)
        if count < 4096:
            assert got.tobytes() == stack.abs_at(points)[rows].tobytes()

    def test_rows_of_every_edge_layout(self):
        r = 0.5
        functions = [
            AnnulusRational(r=r, p_coeffs=(0.3 - 1.1j, 2.0)),
            AnnulusRational(
                r=r,
                p_coeffs=(1.0, -0.5j, 0.25, 2.0 + 1j),
                q1_roots=(1.5, -2.0j, 3.0 + 1j, -1.2),
                q2_roots=(0.1, -0.2j, 0.3 + 0.1j, -0.05),
            ),
            AnnulusRational(r=r, p_coeffs=(1.0, 2.0 - 1j, 0.0), q1_roots=(2.5,), q2_roots=(0.1j,)),
            AnnulusRational(r=r, p_coeffs=(0.7j,), q1_roots=(1.1j, 4.0), scale=2.0 - 3.0j),
            AnnulusRational(r=r, p_coeffs=(0.0, 1.0, r), q2_roots=(0.0,)),
            AnnulusRational(r=r, p_coeffs=(1.0, 0.0, 0.0, 0.0, 0.0, 3.0), q2_roots=(0.0, 0.2)),
        ]
        stack = rational.factored_stack(functions)
        # 8 roots, then 2 roots with 6 and 3 coefficients, then 1, then none
        assert list(stack.order) == [1, 5, 2, 3, 4, 0]
        for count in (1, 3, 6, 7, 4096):
            self._assert_bits(stack, _annulus_points(r, count, count))
        self._assert_bits(stack, _annulus_points(r, 6 * 5, 2).reshape(6, 5))

    def test_a_constant_beside_a_quartic_that_overflows(self):
        # Horner runs every row over the padded coefficients: the constant's
        # four padded steps must leave +0, even where the quartic's z^4
        # overflows to inf and its value to NaN
        r = 0.5
        functions = [
            AnnulusRational(r=r, p_coeffs=(0.3 - 1.1j,)),
            AnnulusRational(r=r, p_coeffs=(1.0, -0.5j, 0.25, 2.0 + 1j, -1.5 + 0.5j), q2_roots=(0.1,)),
            AnnulusRational(r=r, p_coeffs=(complex(-0.0, 0.7),), q1_roots=(1.5j,)),
            AnnulusRational(r=r, p_coeffs=(0.0, 0.0, 0.0, 0.0, 1.0)),
        ]
        stack = rational.factored_stack(functions)
        points = np.concatenate([_annulus_points(r, 5, 4), 1e80 * np.exp(1j * np.array([0.3, -2.0, np.pi]))])
        with np.errstate(all="ignore"):
            got = self._assert_bits(stack, points)
            self._assert_bits(stack, np.tile(points, (4, 1)))
        assert np.all(got[0] == abs(0.3 - 1.1j)) and np.isfinite(got[2]).all()
        assert not np.isfinite(got[1, 5:]).any() and not np.isfinite(got[3, 5:]).any()

    def test_order_is_root_count_then_numerator_length(self):
        stack = _stress_battery(0.81, 2000, 1).stack
        k1, k2, lp = stack.counts[stack.order].T
        assert sorted(stack.order) == list(range(2000))
        keys = list(zip(k1 + k2, lp))
        assert keys == sorted(keys, reverse=True)
        assert not stack.order.flags.writeable

    def test_the_row_maximum_is_the_max_of_the_values(self):
        # 700 rows take several chunks of rows at 64 points and two at 6
        stack = _stress_battery(0.5, 2000, 1).stack.take(slice(0, 700))
        per_row = _annulus_points(0.5, 700 * 6, 4).reshape(700, 6)
        for points in (_annulus_points(0.5, 1, 2), _annulus_points(0.5, 64, 3), per_row):
            assert stack.max_abs_at(points).tobytes() == stack.abs_at(points).max(axis=1).tobytes()
        assert np.array_equal(stack.max_abs_at(np.empty((700, 0), complex)), np.full(700, -np.inf))
        with pytest.raises(ValueError, match="one row of points per row"):
            stack.max_abs_at(per_row[1:])

    def test_empty_stacks_and_points_keep_their_shapes(self):
        battery = _stress_battery(0.5, 2000, 1).stack
        points = _annulus_points(0.5, 5, 1)
        for stack in (battery.take(slice(0, 0)), rational.pack(0.5, np.zeros((0, 3)), [], [])):
            for z in (points, points.reshape(1, 5)[:0], np.empty(0, complex)):
                got = stack.abs_at(z)
                assert got.shape == (0, z.shape[-1]) and got.dtype == np.float64
        stack = battery.take(slice(0, 7))
        for z in (np.empty(0, complex), np.empty((7, 0), complex)):
            got = stack.abs_at(z)
            assert got.shape == (7, 0) and got.dtype == np.float64


def _conjugated_jordan(n):
    """``0.7 e^{0.4i} I + N`` with ``N`` the nilpotent shift, unitarily conjugated."""
    q = random_unitary(n, 5)
    return q @ (0.7 * np.exp(0.4j) * np.eye(n) + np.eye(n, k=1)) @ q.conj().T


# numpy.linalg's implementation module, whose norm takes its svd by name
_NP_LINALG = getattr(np.linalg, "_linalg", None) or np.linalg.linalg


@pytest.mark.oldest_pins
class TestNormBounds:
    """The lazy norms of the factored stress route: bounds that cover the
    computed norm, exact norms for few rows, one Schur form per call."""

    @pytest.mark.parametrize(
        "t, start",
        [(windowed_matrix(n, 0.5, 30 + n), 0) for n in (2, 3, 5, 9, 16)]
        + [(example_matrix(0.5), 0)]
        + [(_conjugated_jordan(n), 0) for n in (3, 6, 9)]
        # at 2^-950 the probe r/z has its root 0 on the spectrum
        + [(windowed_matrix(3, 0.5, 4) * 2.0**950, 0), (windowed_matrix(3, 0.5, 4) * 2.0**-950, 2)],
        ids=["n2", "n3", "n5", "n9", "n16", "shear", "jordan3", "jordan6", "jordan9", "huge", "tiny"],
    )
    def test_bounds_cover_the_norms(self, t, start):
        stack = _stress_battery(0.5, 2000, 1).stack.take(slice(start, None))
        with np.errstate(all="ignore"):
            full = calculus.factored_norms(stack, t)
            lazy = calculus.FactoredNorms(stack, t)
            bounds = lazy.bounds(slice(None))
            rows = np.arange(0, full.size, 7)
            assert np.array_equal(lazy.norms(rows), full[rows])
        assert np.all(bounds >= full)

    def test_near_rank_one_needs_the_allowance(self):
        # p(R) = c R^k of a rank-one T is rank one: ||X||_F = ||X||_2 exactly,
        # and the computed Frobenius norm can fall below the computed SVD
        below = 0
        for seed in range(12):
            rng = seeded_rng(seed, 5)
            n = int(rng.integers(2, 17))
            u, v = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
            t = 0.7 * np.outer(u, v.conj()) / abs(np.vdot(v, u))
            p = np.zeros((200, 5), dtype=complex)
            p[np.arange(200), rng.integers(1, 5, 200)] = rng.standard_normal(200) + 1j * rng.standard_normal(200)
            stack = rational.pack(0.5, np.tile([0, 0, 5], (200, 1)), p.ravel(), np.zeros(0))
            full = calculus.factored_norms(stack, t)
            bounds = calculus.FactoredNorms(stack, t).bounds(slice(None))
            assert np.all(bounds >= full)
            below += np.count_nonzero(bounds / (1.0 + linalg._ROUNDING * n * np.finfo(float).eps) < full)
        assert below > 0

    @pytest.mark.parametrize(
        "t", [windowed_matrix(4, 0.5, s) for s in range(3, 7)] + [example_matrix(0.5)],
        ids=["s3", "s4", "s5", "s6", "shear"],
    )
    def test_a_warm_call_takes_each_bound_and_norm_once(self, t, monkeypatch):
        # every stacked pass has rows, and no row is bounded or normed twice
        vonneumann_stress(t, 0.5, 2000, 1)  # warms the battery
        calls = []
        each = calculus.FactoredNorms._each

        def recording(self, rows, reduce):
            calls.append((reduce, np.arange(self.stack.p.shape[0])[rows]))
            return each(self, rows, reduce)

        monkeypatch.setattr(calculus.FactoredNorms, "_each", recording)
        assert vonneumann_stress(t, 0.5, 2000, 1).stress_route == "factored"
        assert calls and all(rows.size for _, rows in calls)
        for reduce in (calculus._norm_bounds, calculus._spectral_norms):
            rows = np.concatenate([rows for r, rows in calls if r is reduce] or [np.zeros(0, dtype=int)])
            assert rows.size == np.unique(rows).size

    def test_the_bound_takes_numpy_s_matrix_norms_bit_for_bit(self):
        # the bound forms its norms in place, to keep one temporary; they
        # must be np.linalg.norm's, whatever the layout and the scale
        def reference(x):
            n = x.shape[-1]
            a = np.abs(x)
            exponent = np.frexp(a.max(axis=(1, 2)))[1]
            a = np.ldexp(a, -exponent[:, np.newaxis, np.newaxis])
            fro = np.linalg.norm(a, "fro", axis=(1, 2))
            split = np.sqrt(np.linalg.norm(a, 1, axis=(1, 2)) * np.linalg.norm(a, np.inf, axis=(1, 2)))
            bound = np.ldexp(np.minimum(fro, split) * (1.0 + linalg._ROUNDING * n * linalg._EPS), exponent)
            bound += n * np.finfo(float).tiny
            bad = ~np.isfinite(bound)
            bound[bad] = calculus._spectral_norms(x[bad])
            return bound

        for trial in range(60):
            rng = seeded_rng(trial, 31)
            k, n = (int(v) for v in rng.integers(1, 24, 2))
            x = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
            x *= 10.0 ** rng.uniform(-300, 300, (k, 1, 1))
            x[0] *= trial % 5 != 0  # a zero matrix
            if trial % 3 == 1:
                x = np.asfortranarray(x)
            elif trial % 3 == 2:
                x = x[:, ::2, ::-1]
            if trial % 7 == 0:
                x[-1, 0, 0] = np.inf
            with np.errstate(all="ignore"):
                assert calculus._norm_bounds(x).tobytes() == reference(x).tobytes()

    def test_warm_stress_sends_few_rows_to_the_svd(self, monkeypatch):
        t = windowed_matrix(4, 0.5, 3)
        want = vonneumann_stress(t, 0.5, 2000, 1)
        matrices = []
        original = _NP_LINALG.svd

        def counting(a, *args, **kwargs):
            matrices.append(int(np.prod(np.shape(a)[:-2])))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(_NP_LINALG, "svd", counting)
        got = vonneumann_stress(t, 0.5, 2000, 1)
        assert got.to_json() == want.to_json() and got.screened > 0
        assert 0 < sum(matrices) <= 0.05 * (got.trials - got.screened)

    def test_one_schur_form_per_call(self, monkeypatch):
        t = windowed_matrix(4, 0.5, 3)
        vonneumann_stress(t, 0.5, 2000, 1)
        linalg._analysis_memo.cache_clear()  # a warm battery on a cold T
        calls = []
        original = linalg._schur_triangle
        monkeypatch.setattr(linalg, "_schur_triangle", lambda m: calls.append(1) or original(m))
        vonneumann_stress(t, 0.5, 2000, 1)
        assert calls == [1]
        # a later call on the same T reads its analysis
        vonneumann_stress(t, 0.5, 2000, 1)
        assert calls == [1]

    def test_a_double_contraction_at_n32_sends_no_root_past_its_singular_values(self, monkeypatch):
        # the window of T's singular values does not loosen with n: on a
        # double contraction no battery root reaches a later stage, neither
        # the comparison bound nor singular values of a shifted stack
        sent = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            if np.ndim(a) == 3 and kwargs.get("compute_uv") is False:
                sent.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(linalg.ShiftConditioning, "cleared", lambda self, ws, tols: sent.append(ws.size))
        linalg._analysis_memo.cache_clear()
        report, _ = full_certification(windowed_matrix(32, 0.5, 3), 0.5, 2000, 1)
        assert sent == []
        assert report.verdict is Verdict.PASSED_STRESS
        assert_allclose(report.max_ratio, 0.964242499739053, rtol=1e-12)

    def test_fixed_memory_at_n40(self):
        t = windowed_matrix(40, 0.5, 3)
        _stress_battery(0.5, 2000, 1)  # built outside the trace
        tracemalloc.start()
        try:
            vonneumann_stress(t, 0.5, 2000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the bound of TestStackedFactoredEvaluation::test_fixed_memory_at_n40
        assert peak <= 12 * 2**20


def _perturbed_jordan(n, delta, seed):
    """:func:`_conjugated_jordan` plus a complex Gaussian of norm ``delta``."""
    rng = seeded_rng(seed, 9)
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _conjugated_jordan(n) + delta * e / operator_norm(e)


def _near_defective():
    """A 3x3 with eigenvalues 1e-3 apart in a Jordan-like block: ``kappa >= 1e4``."""
    q = random_unitary(3, 5)
    return q @ (0.7 * np.exp(0.4j) * np.eye(3) + 0.3 * np.eye(3, k=1) + np.diag([0.0, 1e-3, 2e-3])) @ q.conj().T


def _count_formed(monkeypatch) -> list:
    """The row count of each stack ``calculus._factored_chunks`` evaluates
    from now on, appended as it is called."""
    formed = []
    chunks = calculus._factored_chunks

    def counting(stack, rule):
        formed.append(stack.p.shape[0])
        return chunks(stack, rule)

    monkeypatch.setattr(calculus, "_factored_chunks", counting)
    return formed


class TestEigenvectorScreen:
    """The foot of the factored route's norm ladder: ``(1 + mu) kappa_2(Y)
    max_j |f(r_jj)|`` bounds the computed ``||f(T)||``, and pruning on it
    changes no report."""

    _SOUND_CASES = [
        (t, r)
        for n in (2, 3, 4, 6, 9, 16)
        for r in (0.25, 0.5, 0.81)
        for s in range(1, 6)
        for t in (windowed_matrix(n, r, s), involution(windowed_matrix(n, r, s), r))
    ] + [(_perturbed_jordan(n, 10.0**-k, n + k), 0.5) for n in (2, 3, 5) for k in range(2, 10)]

    @pytest.mark.oldest_pins
    def test_the_screen_bounds_every_computed_norm(self):
        """kappa_2 times max|f(r_jj)| must stay above every norm, with the pinned numpy's SVD and matmul."""
        worst = 0.0
        for t, r in self._SOUND_CASES:
            stack = _stress_battery(r, 600, 1).stack
            facts = linalg.analysis(t)
            bound = certify._screen_factor(facts, linalg.DEFAULT_TOLS) * stack.abs_at(
                facts.conditioning.triangle.diagonal()
            ).max(axis=1)
            norms = calculus.factored_norms(stack, t)
            assert np.all(bound >= norms)
            worst = max(worst, float((norms / bound).max()))
        # on well-conditioned eigenvectors the bound is nearly tight
        assert 0.9 < worst <= 1.0

    @pytest.mark.parametrize(
        "t",
        [example_matrix(0.5), 0.7 * np.eye(2) + 0.3 * np.eye(2, k=1)],
        ids=["shear", "repeated"],
    )
    def test_a_repeated_diagonal_has_no_finite_condition(self, t):
        assert linalg.analysis(t).eigenvector_condition == np.inf
        assert certify._screen_factor(linalg.analysis(t), linalg.DEFAULT_TOLS) == np.inf

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
    def test_the_condition_is_that_of_the_unit_column_eigenvectors(self, n):
        t = windowed_matrix(n, 0.5, 3)
        tri = linalg.analysis(t).conditioning.triangle
        y = np.eye(n, dtype=complex)
        for j in range(n):
            for k in range(j - 1, -1, -1):
                y[k, j] = -(tri[k, k + 1 : j + 1] @ y[k + 1 : j + 1, j]) / (tri[k, k] - tri[j, j])
        assert np.linalg.norm(tri @ y - y * tri.diagonal()) <= 1e-15 * np.linalg.norm(tri) * np.linalg.norm(y)
        y /= np.linalg.norm(y, axis=0)
        assert_allclose(linalg.analysis(t).eigenvector_condition, np.linalg.cond(y), rtol=1e-12)

    _PRUNE_CASES = {
        "normal": normal_annulus_matrix(4, 0.5, 11),
        "involution": involution(normal_annulus_matrix(4, 0.5, 12), 0.5),
        **{f"windowed{n}": windowed_matrix(n, 0.5, 13) for n in range(2, 7)},
        "shear": example_matrix(0.5),
        "near-defective": _near_defective(),
        "outside": 1.25 * windowed_matrix(3, 0.5, 3),
    }

    @pytest.mark.oldest_pins
    @pytest.mark.parametrize("kind", list(_PRUNE_CASES))
    def test_the_screen_only_prunes(self, kind, monkeypatch):
        # with kappa = inf the screen keeps every row, as the route without
        # it did; the report must be the one the screen gives, field by field
        t = self._PRUNE_CASES[kind]
        formed = _count_formed(monkeypatch)
        _stress_battery.cache_clear()
        screened = vonneumann_stress(t, 0.5, 300, 1)
        rows_screened = sum(formed)
        formed.clear()
        _stress_battery.cache_clear()
        monkeypatch.setattr(linalg.Analysis, "eigenvector_condition", property(lambda self: np.inf))
        every = vonneumann_stress(t, 0.5, 300, 1)
        _stress_battery.cache_clear()
        for field in dataclasses.fields(screened):
            assert repr(getattr(screened, field.name)) == repr(getattr(every, field.name)), field.name
        assert screened.to_json() == every.to_json()
        if kind.startswith("windowed"):
            assert rows_screened < 0.5 * sum(formed)
        if kind == "outside":
            assert screened.verdict is Verdict.REFUTED and screened.witness is not None

    def test_the_near_defective_case_is_ill_conditioned(self):
        assert 1e4 <= linalg.analysis(_near_defective()).eigenvector_condition < np.inf

    def test_a_warm_battery_forms_few_rows(self, monkeypatch):
        formed = _count_formed(monkeypatch)
        t = windowed_matrix(4, 0.5, 3)
        vonneumann_stress(t, 0.5, 2000, 1)  # warms the battery
        formed.clear()
        rep = vonneumann_stress(t, 0.5, 2000, 1)
        assert rep.stress_route == "factored" and 0 < sum(formed) <= 200
        # the shear's eigenvectors are not finite: one pass over every row
        formed.clear()
        rep = vonneumann_stress(example_matrix(0.5), 0.5, 2000, 1)
        assert rep.screened == 0 and 2000 in formed


class TestCnnSplit:
    def test_normal_input(self):
        t = normal_annulus_matrix(4, 0.5, 3)
        p_normal, p_cnn = cnn_split(t)
        assert_allclose(p_normal, np.eye(4), atol=1e-10)
        assert operator_norm(p_cnn) <= 1e-10

    def test_shear_example_is_completely_non_normal(self):
        _, p_cnn = cnn_split(example_matrix(0.25))
        assert_allclose(p_cnn, np.eye(2), atol=1e-10)

    def test_rotated_block_oracle(self):
        # block-diagonal: normal block + a Jordan-type block, hidden by a rotation
        n0 = np.diag([0.9, 0.6 * np.exp(1j)])
        jordan = np.array([[0.5, 0.7], [0.0, 0.5]], dtype=complex)
        a = np.zeros((4, 4), dtype=complex)
        a[:2, :2] = n0
        a[2:, 2:] = jordan
        q = random_unitary(4, 17)
        t = q @ a @ q.conj().T
        p_normal, p_cnn = cnn_split(t)
        ref = np.zeros((4, 4), dtype=complex)
        ref[2:, 2:] = np.eye(2)
        assert operator_norm(p_cnn - q @ ref @ q.conj().T) <= 1e-9

    def test_projector_invariants(self):
        for seed in range(5):
            t = windowed_matrix(4, 0.5, 80 + seed)
            p_normal, p_cnn = cnn_split(t)
            assert operator_norm(p_cnn @ p_cnn - p_cnn) <= 1e-10
            assert operator_norm(p_cnn @ t - t @ p_cnn) <= 1e-9
            restricted = p_normal @ t @ p_normal
            comm = restricted.conj().T @ restricted - restricted @ restricted.conj().T
            assert operator_norm(comm) <= 1e-9

    _SCALED = [
        ("shear", lambda: example_matrix(0.5)),
        ("windowed", lambda: windowed_matrix(4, 0.5, 3)),
        ("normal", lambda: normal_annulus_matrix(4, 0.5, 3)),
    ]

    @pytest.mark.oldest_pins
    @pytest.mark.parametrize("scale", [2.0**40, 2.0**-40, 1e200, 1e300], ids=["2^40", "2^-40", "1e200", "1e300"])
    @pytest.mark.parametrize("name, make", _SCALED, ids=[name for name, _ in _SCALED])
    def test_a_scaled_matrix_splits_as_the_matrix(self, name, make, scale):
        # the commutator is formed for T scaled by a power of two and both
        # ranks are relative to ||T||, so nothing overflows at 1e300 and
        # 2^-40 T is not read as normal; at a power-of-two scale every
        # step is exact, so the split is the same bits
        t = make()
        want = cnn_split(t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cnn_split(scale * t)
        for a, b in zip(got, want):
            if np.frexp(scale)[0] == 0.5:
                assert np.array_equal(a, b)
            else:
                assert_allclose(a, b, rtol=0, atol=1e-12)

    @staticmethod
    def _unscaled_split(m, tols=linalg.DEFAULT_TOLS):
        """The split from ``T*T - TT*`` formed on ``T`` itself, with the
        thresholds ``rank_tol max(1, ||T||^2)`` and ``rank_tol max(1, ||T||)``."""

        def orth(cols, tol):
            u, s, _ = np.linalg.svd(cols, full_matrices=False)
            return u[:, : int(np.sum(s > tol))]

        n, norm = m.shape[0], np.linalg.svd(m, compute_uv=False)[0]
        basis = orth(m.conj().T @ m - m @ m.conj().T, tols.rank_tol * max(1.0, norm**2))
        while basis.shape[1] < n:
            width = basis.shape[1]
            basis = orth(np.hstack([basis, m @ basis, m.conj().T @ basis]), tols.rank_tol * max(1.0, norm))
            if basis.shape[1] == width:
                break
        return np.eye(n) - basis @ basis.conj().T, basis @ basis.conj().T

    @pytest.mark.oldest_pins
    def test_equals_the_unscaled_commutator_route_bit_for_bit(self):
        """Rests on LAPACK's SVD scaling exactly by a power of two."""
        # general, normal, normal-plus-triangular and windowed T, 2 <= n <= 6,
        # with ||T|| spread over [0.2, 1.7], across both sides of 1
        rng = seeded_rng(39)
        for k in range(1200):
            n, kind = 2 + k % 5, k % 4
            if kind == 0:
                t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            elif kind == 1:
                q = random_unitary(n, k)
                t = (q * (rng.standard_normal(n) + 1j * rng.standard_normal(n))) @ q.conj().T
            elif kind == 2:
                t = np.zeros((n, n), dtype=complex)
                t[0, 0] = 0.3
                t[1:, 1:] = np.triu(rng.standard_normal((n - 1, n - 1)))
                q = random_unitary(n, k)
                t = q @ t @ q.conj().T
            else:
                t = windowed_matrix(n, 0.5, k)
            t = t * (rng.uniform(0.2, 1.7) / operator_norm(t))
            got, want = cnn_split(t), self._unscaled_split(t)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (k, operator_norm(t))


class TestOneCommutatorPerMatrix:
    """``T``'s self-commutator is formed once, by ``linalg._self_commutator``
    for its analysis, and ``is_normal`` and ``cnn_split`` both read it."""

    @pytest.fixture(autouse=True)
    def _cold(self):
        linalg._analysis_memo.cache_clear()
        yield
        linalg._analysis_memo.cache_clear()

    def _count(self, monkeypatch, t):
        calls = []
        form = linalg._self_commutator
        monkeypatch.setattr(
            linalg, "_self_commutator", lambda m, norm: calls.append(np.array_equal(m, t)) or form(m, norm)
        )
        return calls

    def test_full_certification_forms_it_once(self, monkeypatch):
        t = example_matrix(0.5)
        calls = self._count(monkeypatch, t)
        _, details = full_certification(t, 0.5, 50, 1)
        assert details["williams"] == WilliamsVerdict.MINIMAL_DISK_REFUTATION.value
        assert calls == [True]

    def test_demo_example_forms_the_shears_once(self, monkeypatch):
        from annulus_lab import cli

        t = example_matrix(0.25)
        calls = self._count(monkeypatch, t)
        assert cli.demo_example(0.25)["all_ok"]
        # the shear's, and the Gram matrix's for eig_normal
        assert sorted(calls) == [False, True]

    def test_cnn_split_grows_from_the_analysis_commutator(self, monkeypatch):
        # a zero commutator in its place leaves nothing to grow from
        form = linalg._self_commutator

        def zero(m, norm):
            comm, scaled = form(m, norm)
            return 0 * comm, scaled

        monkeypatch.setattr(linalg, "_self_commutator", zero)
        p_normal, p_cnn = cnn_split(example_matrix(0.5))
        assert np.array_equal(p_normal, np.eye(2)) and not p_cnn.any()

    @pytest.mark.parametrize("scale", [1e308, 1e-310], ids=["1e308", "1e-310"])
    @pytest.mark.parametrize("normal", [True, False], ids=["full", "jordan"])
    def test_extreme_entries_give_a_finite_result_or_a_typed_error(self, scale, normal):
        # ||T|| of np.full((2, 2), 1e308) overflows; the commutator is formed
        # for T scaled by its largest entry part, so nothing reads NaN
        t = np.full((2, 2), scale) if normal else scale * np.array([[1.0, 1.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.is_normal(t) is normal
            try:
                eig = linalg.eig_normal(t)
            except AnnulusLabError as exc:
                assert isinstance(exc, NotNormal if not normal else NoConvergence)
            else:
                assert normal and scale < 1 and np.isfinite(eig.lambdas).all() and np.isfinite(eig.residual)
            p_normal, p_cnn = cnn_split(t)
        assert np.isfinite(p_normal).all() and np.isfinite(p_cnn).all()
        assert np.array_equal(p_cnn, np.zeros((2, 2)) if normal else np.eye(2))


class TestWilliams:
    def test_shear_example_any_radius(self):
        for r in (0.25, 0.5, 0.81):
            assert williams_verdict(example_matrix(r), r) is WilliamsVerdict.MINIMAL_DISK_REFUTATION

    def test_unitary_not_applicable(self):
        assert williams_verdict(random_unitary(3, 2), 0.5) is WilliamsVerdict.NOT_APPLICABLE

    def test_scaled_example_not_applicable(self):
        assert (
            williams_verdict(0.5 * example_matrix(0.25), 0.25)
            is WilliamsVerdict.NOT_APPLICABLE
        )

    def test_non_square_raises_before_the_norm_test(self):
        with pytest.raises(NotSquare):
            williams_verdict(3.0 * np.ones((2, 3)), 0.5)


class TestFullCertification:
    def test_separation_on_shear_example(self):
        report, details = full_certification(example_matrix(0.25), 0.25, 2000, 1)
        assert details["norm_window"] and details["double_contraction"]
        assert details["spectrum_in_annulus"]
        assert report.verdict in (Verdict.REFUTED, Verdict.WILLIAMS_REFUTED)

    def test_normal_instance_passes(self):
        report, details = full_certification(normal_annulus_matrix(4, 0.5, 5), 0.5, 300, 1)
        assert report.verdict is Verdict.PASSED_STRESS
        assert details["williams"] == "NotApplicable"

    @pytest.mark.parametrize(
        "t, r",
        [
            (example_matrix(0.25), 0.25),
            (normal_annulus_matrix(4, 0.5, 5), 0.5),
            (windowed_matrix(3, 0.5, 7), 0.5),
            (1.5 * random_unitary(3, 2), 0.5),
            (np.diag([0.1, 0.9]).astype(complex), 0.5),
            (0.5 * example_matrix(0.81), 0.81),
        ],
        ids=["shear", "normal", "windowed", "norm-above-one", "spectrum-inside", "small-norm"],
    )
    def test_details_equal_the_predicates(self, t, r):
        report, details = full_certification(t, r, 200, 1)
        passes, norm_t = norm_window(t, r)
        assert details == {
            "spectrum_in_annulus": spectrum_in_annulus(t, r),
            "norm_window": passes,
            "norm_T": norm_t,
            "double_contraction": double_contraction_check(t, r),
            "williams": williams_verdict(t, r).value,
        }
        stress = vonneumann_stress(t, r, 200, 1)
        assert (report.norm_t, report.norm_rtinv, report.max_ratio) == (
            stress.norm_t,
            stress.norm_rtinv,
            stress.max_ratio,
        )


    @pytest.mark.parametrize(
        "t", [example_matrix(0.5), normal_annulus_matrix(4, 0.5, 5), windowed_matrix(3, 0.5, 7)],
        ids=["shear", "normal", "windowed"],
    )
    def test_norm_of_t_is_taken_once(self, t, monkeypatch):
        # the stress report and the minimal-disk route read one analysis of
        # T: one SVD, one eigvals and one solve of T itself
        counts = dict.fromkeys(["svd", "eigvals", "solve"], 0)
        for name in counts:

            def counting(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                counts[_name] += np.array_equal(a, t)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        linalg._analysis_memo.cache_clear()
        full_certification(t, 0.5, 200, 1)
        assert counts == {"svd": 1, "eigvals": 1, "solve": 1}
