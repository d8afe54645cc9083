import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from annulus_lab import calculus, linalg, rational
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
    _bernstein_bound,
    _clamp_to_annulus,
    _pole_refined_sup,
    _sampled_sups,
    _stress_battery,
)
from annulus_lab.errors import NotInvertible, PoleHit, Singular
from annulus_lab.linalg import operator_norm, random_unitary, seeded_rng
from annulus_lab.rational import AnnulusRational, evaluate, rational_from_json


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
        monkeypatch.setattr(rational.FactoredStack, "abs_at", lambda s, z: passes.append(z) or original(s, z))
        rep = vonneumann_stress(t, 0.5, 2000, 1)
        assert rep.stress_route == "spectral" and len(passes) == 1

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
        # the recorded ratio uses a sampled sup lower bound, so replaying with
        # any denser lower bound still certifies a violation
        from annulus_lab.certify import _pole_refined_sup

        denom = _pole_refined_sup(f, base_nodes=1 << 15, local_nodes=4096)
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
        for f in battery.functions[:20]:
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

    def test_battery_sups_keep_the_coarse_sampling_maximum(self):
        # the 1024 coarse nodes are a subset of _pole_refined_sup's 4096
        battery = _stress_battery(0.5, 500, 4)
        coarse = [
            max(rational.boundary_sup_norm(f, 1024), _pole_refined_sup(f))
            for f in battery.functions
        ]
        assert battery.sups.tolist() == coarse


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


def _battery_functions(r, count, seed):
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


class TestSampledSups:
    """The coarse pass plus Bernstein cells gives the full sampling's maxima."""

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.81])
    def test_battery_matches_full_sampling(self, r):
        battery = _stress_battery(r, 2000, 1)
        ref = np.array([_reference_sup(f) for f in battery.functions])
        assert np.array_equal(battery.sups, ref)

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.81])
    def test_adversarial_matches_full_sampling(self, r):
        functions = _adversarial_functions(r, 300, 3)
        ref = np.array([_reference_sup(f) for f in functions])
        assert np.array_equal(_sampled_sups(functions), ref)

    def test_dense_recheck_matches_full_sampling(self):
        functions = _battery_functions(0.5, 100, 2)
        ref = np.array([_reference_sup(f, 1 << 15, 4096) for f in functions])
        assert np.array_equal(_sampled_sups(functions, 1 << 15, 4096), ref)
        assert _pole_refined_sup(functions[7], 1 << 15, 4096) == ref[7]

    def test_cold_build_evaluates_few_nodes(self, monkeypatch):
        evaluated = []
        original = rational.FactoredStack.abs_at

        def counting(stack, points):
            evaluated.append(stack.p.shape[0] * (points.shape[-1]))
            return original(stack, points)

        monkeypatch.setattr(rational.FactoredStack, "abs_at", counting)
        _stress_battery.__wrapped__(0.5, 2000, 5)
        # full sampling evaluates 2 x 4096 nodes per function, windows aside
        assert sum(evaluated) <= 0.3 * 2 * 4096 * 2000

    def test_pole_hit_is_raised(self):
        f = AnnulusRational(r=0.5, q1_roots=(1.0 + 1e-15,))
        with pytest.raises(PoleHit):
            _pole_refined_sup(f)

    def test_pole_hit_names_the_first_function(self):
        functions = _battery_functions(0.5, 6, 1)
        second = AnnulusRational(r=0.5, p_coeffs=(1.0, 2.0), q1_roots=(3.0, -(1.0 + 1e-15)))
        fifth = AnnulusRational(r=0.5, q2_roots=(0.5 * (1.0 - 1e-15),))
        functions[1], functions[4] = second, fifth
        with pytest.raises(PoleHit, match=re.escape(str(second.q1_roots[1]))):
            _sampled_sups(functions)
        with pytest.raises(PoleHit, match=re.escape(str(fifth.q2_roots[0]))):
            _sampled_sups(functions[2:])


class TestBernsteinBound:
    NODES = 16384

    @staticmethod
    def _sides(f, rho, nodes):
        """``|df/dθ|`` and ``B sampled_sup`` on the circle of radius ``rho``."""
        z = rho * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        roots = np.array(f.q1_roots + f.q2_roots, dtype=complex)
        p = np.array(f.p_coeffs)
        dp = np.polyval((p[1:] * np.arange(1, p.size))[::-1], z) if p.size > 1 else np.zeros_like(z)
        den = f.scale * np.prod(z[:, np.newaxis] - roots, axis=1)
        # f' = f (p'/p - sum 1/(z - a)), multiplied through by p
        fprime = (dp - np.polyval(p[::-1], z) * np.sum(1.0 / (z[:, np.newaxis] - roots), axis=1)) / den
        bound = _bernstein_bound(
            roots[np.newaxis, :], len(f.q1_roots), max(p.size - 1 - roots.size, 0), rho, z[np.newaxis, :], 0.0
        )[0]
        return rho * np.abs(fprime), bound * np.abs(evaluate(f, z)).max()

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.81])
    def test_holds_on_battery_functions(self, r):
        for f in _battery_functions(r, 150, 4):
            for rho in (1.0, r):
                deriv, bound = self._sides(f, rho, self.NODES)
                assert np.all(deriv <= bound * (1.0 + 1e-9))

    def test_sharp_for_a_monomial(self):
        f = AnnulusRational(r=0.5, p_coeffs=(0.0, 0.0, 0.0, 0.0, 1.0))
        for rho in (1.0, 0.5):
            deriv, bound = self._sides(f, rho, self.NODES)
            assert_allclose(deriv / bound, 1.0, rtol=1e-8)


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
        ref = np.array([operator_norm(_reference_direct(f, t)) for f in battery.functions])
        assert np.all(np.abs(got - ref) <= 1e-13 * ref)

    def test_abs_at_matches_evaluate_bit_for_bit(self):
        battery = _stress_battery(0.5, self.TRIALS, 1)
        ring = np.exp(2j * np.pi * np.arange(4096) / 4096)
        radii = np.linspace(0.5, 1.0, 100)
        # stacks of 100 rows x 4096 points pass numpy's 256 KiB threshold for
        # eliding temporaries
        for lo in range(0, self.TRIALS, 100):
            functions = battery.functions[lo : lo + 100]
            stack = rational.factored_stack(functions)
            ref = np.array([np.abs(evaluate(f, ring)) for f in functions])
            assert np.array_equal(stack.abs_at(ring), ref)
            ref = np.array([np.abs(evaluate(f, rho * ring)) for f, rho in zip(functions, radii)])
            assert np.array_equal(stack.abs_at(radii[:, np.newaxis] * ring), ref)

    def test_chunk_boundary_is_crossed(self):
        # n = 9 splits the 2000-function battery into two chunks
        assert calculus._CHUNK_BYTES // (16 * 9 * 9) < self.TRIALS

    def test_eigenvalue_on_a_root_raises_singular_naming_it(self):
        battery = _stress_battery(0.5, self.TRIALS, 1)
        with_roots = [f for f in battery.functions[2:] if f.q1_roots and f.q2_roots]
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
