import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from annulus_lab import calculus, certify, dilation, linalg, rational
from annulus_lab.ar_unitary import decompose, make_ar_unitary
from annulus_lab.calculus import (
    ContourSpec,
    SpectralPart,
    default_contour,
    eval_contour,
    eval_direct,
    eval_laurent,
    laurent_remainder_bound,
    riesz_projection,
)
from annulus_lab.certify import example_matrix, windowed_matrix
from annulus_lab.errors import (
    BadRadius,
    NoSpectralGap,
    NotInvertible,
    PoleHit,
    PoleInsideContour,
    SeriesDivergent,
    Singular,
    SpectrumOnContour,
)
from annulus_lab.linalg import DEFAULT_TOLS, operator_norm, random_unitary, seeded_rng
from annulus_lab.rational import AnnulusRational, laurent_order_for, multiply
from conftest import SHAPES, normal_with_moduli, open_annulus_normal, random_function, shaped_function


class TestEvalDirect:
    def test_identity_function(self):
        t = example_matrix(0.25)
        f = AnnulusRational(r=0.25, p_coeffs=(0.0, 1.0))
        assert_allclose(eval_direct(f, t), t)

    def test_scalar_matrix(self):
        f = AnnulusRational(r=0.25, p_coeffs=(1.0, 2.0), q1_roots=(3.0,), q2_roots=(0.05,))
        lam = 0.6 + 0.1j
        expected = (1 + 2 * lam) / ((lam - 3.0) * (lam - 0.05))
        assert_allclose(eval_direct(f, lam * np.eye(3)), expected * np.eye(3), rtol=1e-12)

    def test_scalar_oracle(self):
        f = AnnulusRational(r=0.25, p_coeffs=(1.0,), q1_roots=(2.0,))
        assert_allclose(eval_direct(f, 0.5 * np.eye(2)), -(2.0 / 3.0) * np.eye(2))

    def test_multiplicative(self):
        t = open_annulus_normal(4, 0.5, 2)
        f = random_function(0.5, 31)
        g = random_function(0.5, 32)
        lhs = eval_direct(multiply(f, g), t)
        rhs = eval_direct(f, t) @ eval_direct(g, t)
        assert operator_norm(lhs - rhs) <= 1e-9 * max(1.0, operator_norm(lhs))

    def test_far_root_on_a_non_normal_matrix_is_singular(self):
        # gap 0.1 from the spectrum, yet sigma_min ~ 1e-8 against sigma_max ~ 1e6:
        # the root fails the conditioning rule without touching the
        # spectrum, and the error says so in the rule's words
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(1.3,))
        fails = r"^denominator root \(1\.3\+0j\) fails the conditioning rule: condition estimate exceeds 1\.0e\+09$"
        with pytest.raises(Singular, match=fails):
            eval_direct(f, [[1.2, 1e6], [0.0, 1.2]])
        # eight rows take the bound, which must leave this root to the SVD
        with pytest.raises(Singular, match=fails):
            calculus.factored_norms(rational.factored_stack([f] * 8), [[1.2, 1e6], [0.0, 1.2]])
        # 0.6 from the spectrum, sigma_min(T - 1.5 I) = 3.6e-6 against sigma_max = 1e5
        with pytest.raises(Singular, match=fails.replace("1\\.3", "1\\.5")):
            eval_direct(AnnulusRational(r=0.5, q1_roots=(1.5,)), [[0.9, 1e5], [0, 0.9]])

    def test_spectrum_touching_root(self):
        f = AnnulusRational(r=0.25, p_coeffs=(1.0,), q1_roots=(1.0 + 1e-12,))
        with pytest.raises(Singular):
            eval_direct(f, np.eye(2))


class TestEvalLaurent:
    def test_identity_function_exact(self):
        t = open_annulus_normal(3, 0.5, 4)
        f = AnnulusRational(r=0.5, p_coeffs=(0.0, 1.0))
        assert_allclose(eval_laurent(f, t, 1), t)

    def test_scalar_geometric_oracle(self):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q2_roots=(0.1,))
        out = eval_laurent(f, 0.7 * np.eye(2), 40)
        assert_allclose(out, (1 / 0.6) * np.eye(2), atol=1e-10)

    def test_residual_decays_geometrically(self):
        t = open_annulus_normal(4, 0.5, 6)
        f = random_function(0.5, 7)
        direct = eval_direct(f, t)
        errs = [operator_norm(eval_laurent(f, t, m) - direct) for m in (8, 16, 32, 64)]
        assert errs[-1] <= 1e-10 * max(1.0, operator_norm(direct))
        assert errs[2] <= errs[0] + 1e-15

    def test_remainder_bound_is_certified(self):
        for seed in range(20):
            t = open_annulus_normal(4, 0.5, 100 + seed)
            f = random_function(0.5, 200 + seed)
            direct = eval_direct(f, t)
            for order in (16, 32):
                measured = operator_norm(eval_laurent(f, t, order) - direct)
                bound = laurent_remainder_bound(f, t, order)
                assert measured <= bound + 1e-12 * max(1.0, operator_norm(direct))

    @pytest.mark.parametrize("order", [2.5, True, 0])
    def test_order_must_be_an_integer_of_at_least_one(self, order):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,))
        t = open_annulus_normal(3, 0.5, 4)
        for route in (eval_laurent, laurent_remainder_bound):
            with pytest.raises(ValueError, match="^order must be"):
                route(f, t, order)

    def test_divergent_norm_rejected(self):
        f = AnnulusRational(r=0.5, p_coeffs=(0.0, 1.0))
        with pytest.raises(SeriesDivergent):
            eval_laurent(f, 2.0 * np.eye(2), 8)
        with pytest.raises(SeriesDivergent):
            eval_laurent(f, 0.1 * np.eye(2), 8)  # ||r T^-1|| = 5

    @pytest.mark.parametrize(
        "f, t",
        [
            (AnnulusRational(r=0.5, q1_roots=(1.01,)), 1.02 * np.eye(2)),
            (AnnulusRational(r=0.5, q2_roots=(0.45,)), 0.5 / 1.2 * np.eye(2)),
        ],
        ids=["outer", "inner"],
    )
    def test_an_infinite_grown_tail_is_an_infinite_bound_and_divergent(self, f, t):
        # growth (1.02, 1) and (1, 1.2): one grown tail is inf, the other 0,
        # and inf * 0 would read NaN
        series = rational.laurent_expand(f, 8)
        norm_rtinv = 0.5 * operator_norm(linalg.inverse(t))
        pos, neg = series.tail_models
        tails = pos.tail(8, max(1.0, operator_norm(t))), neg.tail(8, max(1.0, norm_rtinv))
        assert sorted(tails) == [0.0, np.inf]
        assert series.operator_tail_bound(operator_norm(t), norm_rtinv) == np.inf
        with pytest.raises(SeriesDivergent, match="no certified bound"):
            laurent_remainder_bound(f, t, 8)

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.81])
    def test_remainder_bound_is_the_expansion_bound_bit_for_bit(self, r):
        # the bound on an empty memo equals that of a warm expansion
        for k, shape in enumerate(SHAPES):
            f = shaped_function(r, 6300 + k, shape)
            t = open_annulus_normal(4, r, 40 + k)
            order = laurent_order_for(f, 1e-10)
            norm_rtinv = r * operator_norm(linalg.inverse(t))
            want = rational.laurent_expand(f, order).operator_tail_bound(operator_norm(t), norm_rtinv)
            rational._series_memo.cache_clear()
            assert laurent_remainder_bound(f, t, order) == want and np.isfinite(want), shape

    def test_singular_t_is_not_invertible_on_both_series_routes(self):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,))
        # a singular T is not invertible before its norm is compared
        for route in (eval_laurent, laurent_remainder_bound):
            for t in (np.diag([0.7, 0.0]), np.diag([2.0, 0.0])):
                with pytest.raises(NotInvertible, match=r"^condition estimate exceeds 1\.0e\+09$"):
                    route(f, t, 8)


def _reference_laurent(f, t, order):
    """The series route as a loop over orders: ``c_j T^j`` and ``c_-j
    T^-j`` from sequential products of ``T`` and of ``T^-1``."""
    series = rational.laurent_expand(f, order)
    inv = linalg.inverse(t)
    out = series.coefficient(0) * np.eye(len(t))
    pow_pos = pow_neg = np.eye(len(t))
    for j in range(1, order + 1):
        pow_pos, pow_neg = pow_pos @ t, pow_neg @ inv
        out = out + series.coefficient(j) * pow_pos + series.coefficient(-j) * pow_neg
    return out


class TestSeriesPowerTables:
    """``eval_laurent`` sums each side from a blocked table of powers, of
    ``T`` and of ``r T^-1``."""

    @staticmethod
    def _sequential(m, k):
        powers = [np.eye(len(m), dtype=complex)]
        for _ in range(k):
            powers.append(powers[-1] @ m)
        return np.array(powers)

    # default budget: one block; a budget of 5 matrices: the block edges
    @pytest.mark.parametrize(
        "k, budget",
        [(k, calculus._CHUNK_BYTES) for k in (0, 1, 2, 3, 7, 9, 15, 17, 63, 65)]
        + [(k, 5 * 16 * 9) for k in (3, 4, 5, 6, 9, 10, 11, 31)],
    )
    def test_the_blocks_are_the_powers_in_order(self, k, budget):
        m = windowed_matrix(3, 0.5, 7)
        n, eps = len(m), np.finfo(float).eps
        blocks = list(calculus._power_blocks(m, k, budget))
        sizes = [s.stop - s.start for s in calculus._chunks(k + 1, m.size, budget)]
        assert [len(b) for b in blocks] == sizes
        got, want = np.concatenate(blocks), self._sequential(m, k)
        assert np.array_equal(got[:2], want[:2])
        # ||m|| <= 1: each product of the two orders errs by at most about
        # n^2 eps, componentwise bounds taken in the 2-norm, per factor
        j = np.arange(k + 1)
        assert np.all(np.linalg.norm(got - want, 2, axis=(1, 2)) <= 2 * j * n * n * eps)

    def test_a_long_table_holds_at_most_two_blocks(self):
        # n = 64 at order 4096 is 268 MB of powers; a block is 16 of them
        m = 0.99 * random_unitary(64, 5)
        tracemalloc.start()
        try:
            count = sum(len(block) for block in calculus._power_blocks(m, 4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 4097
        # the block read and the next one, formed from it
        assert peak <= 2 * calculus._CHUNK_BYTES + 4 * m.nbytes

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.81])
    def test_the_tables_match_the_loop_over_orders(self, r):
        for k, shape in enumerate(SHAPES):
            f = shaped_function(r, 6400 + k, shape)
            t = open_annulus_normal(2 + k % 4, r, 60 + k)
            order = laurent_order_for(f, 1e-10)
            want = _reference_laurent(f, t, order)
            got = eval_laurent(f, t, order)
            assert operator_norm(got - want) <= 1e-13 * operator_norm(want), shape

    def test_a_long_order_stays_finite_within_its_bound(self):
        # ||r T^-1|| = 0.898 and ||T^-1|| = 1.8: T^-2897 overflows, while the
        # powers of r T^-1 shrink
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(1.01,), q2_roots=(0.2,))
        t = certify.normal_annulus_matrix(3, 0.5, 1)
        order = laurent_order_for(f, 1e-10)
        assert order == 2897
        bound = laurent_remainder_bound(f, t, order)
        assert bound <= 1e-10
        got = eval_laurent(f, t, order)  # a RuntimeWarning fails the test
        assert np.isfinite(got).all()
        assert operator_norm(got - eval_direct(f, t)) <= bound


class TestGramBounds:
    """``calculus._gram_bounds`` bounds the computed spectral norm from
    above, at any scale and rank, and is tighter than ``_norm_bounds`` on
    rounding noise."""

    def test_every_bound_is_at_least_the_computed_norm(self):
        for trial in range(60):
            rng = seeded_rng(trial, 37)
            k, n = (int(v) for v in rng.integers(1, 24, 2))
            x = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
            if trial % 4 == 1:  # rank one: the bound is tight, up to its allowance
                x = x[:, :, :1] @ x[:, :1, :]
            elif trial % 4 == 2:  # spread singular values
                x = x * np.logspace(0, -12, n)
            x *= 10.0 ** rng.uniform(-300, 300, (k, 1, 1))
            x[0] *= trial % 5 != 0  # a zero matrix
            norms = calculus._spectral_norms(x.copy())
            assert np.all(calculus._gram_bounds(x) >= norms), trial

    def test_rounding_noise_gets_a_tighter_bound(self):
        rng = seeded_rng(5, 37)
        x = 1e-16 * (rng.standard_normal((40, 16, 16)) + 1j * rng.standard_normal((40, 16, 16)))
        norms = calculus._spectral_norms(x.copy())
        gram, split = calculus._gram_bounds(x), calculus._norm_bounds(x)
        assert np.all(gram < split)
        assert np.all(gram <= 1.25 * norms)


class TestContourSpec:
    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, 0.0, -0.1])
    def test_delta_must_be_finite_and_positive(self, delta):
        with pytest.raises(ValueError, match="^delta must be finite and positive"):
            ContourSpec(delta=delta)

    @pytest.mark.parametrize("nodes", [100.5, 64.0, True, 15, np.nan])
    def test_nodes_must_be_an_integer_of_at_least_16(self, nodes):
        with pytest.raises(ValueError, match="^nodes must be"):
            ContourSpec(delta=0.05, nodes=nodes)

    def test_numpy_integer_nodes(self):
        assert ContourSpec(delta=0.05, nodes=np.int64(16)).nodes == 16

    @pytest.mark.parametrize("r", [np.nan, 0.0, 1.0, 1.5, -0.5])
    def test_riesz_projection_needs_a_radius_in_the_unit_interval(self, r):
        with pytest.raises(BadRadius):
            riesz_projection(np.diag([1.0, 0.5]), SpectralPart.OUTER, ContourSpec(0.05), r=r)


class TestEvalContour:
    def test_constant_function(self):
        t = example_matrix(0.25)
        one = AnnulusRational(r=0.25, p_coeffs=(1.0,))
        out = eval_contour(one, t, ContourSpec(delta=0.05, nodes=256))
        assert operator_norm(out - np.eye(2)) <= 1e-10

    def test_identity_on_shear_example(self):
        t = example_matrix(0.25)
        f = AnnulusRational(r=0.25, p_coeffs=(0.0, 1.0))
        out = eval_contour(f, t, ContourSpec(delta=0.05, nodes=512))
        assert operator_norm(out - t) <= 1e-10

    def test_scalar_residue(self):
        lam = 0.6 * np.exp(0.3j)
        f = AnnulusRational(r=0.25, p_coeffs=(1.0, 1.0), q1_roots=(2.5,))
        out = eval_contour(f, lam * np.eye(2), ContourSpec(delta=0.1, nodes=512))
        expected = (1 + lam) / (lam - 2.5)
        assert operator_norm(out - expected * np.eye(2)) <= 1e-10

    def test_contour_invariance(self):
        t = open_annulus_normal(4, 0.5, 9)
        f = random_function(0.5, 17)
        a = eval_contour(f, t, ContourSpec(delta=0.05, nodes=512))
        b = eval_contour(f, t, ContourSpec(delta=0.025, nodes=512))
        assert operator_norm(a - b) <= 1e-9

    def test_spectrum_on_contour_rejected(self):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,))
        with pytest.raises(SpectrumOnContour):
            eval_contour(f, np.diag([1.05, 0.7]), ContourSpec(delta=0.05, nodes=64))

    def test_pole_inside_contour_rejected(self):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(1.02,))
        with pytest.raises(PoleInsideContour):
            eval_contour(f, np.diag([0.7, 0.8]), ContourSpec(delta=0.05, nodes=64))


class TestSmallRadii:
    """The contour checks' margins are relative to the circles' radii, so a
    contour works at every legal radius, down to ``2^-952``."""

    R = 2.0**-952

    def test_eval_contour_at_a_tiny_annulus_matches_the_factored_form(self):
        t = 2.0**-950 * windowed_matrix(3, 0.5, 4)
        f = AnnulusRational(r=self.R, p_coeffs=(self.R, 0.5), q1_roots=(2.5,), q2_roots=(0.1 * self.R,))
        spec = default_contour(f, t, self.R)
        got = eval_contour(f, t, spec)
        want = eval_direct(f, t)
        assert np.isfinite(got).all()
        assert operator_norm(got - want) <= 1e-8 * operator_norm(want)

    def test_eval_direct_at_a_tiny_annulus_is_the_factored_form(self):
        # the touch limit rank_tol * max(|root|, ||T||) is relative, so the
        # root 0.1 r, far from the spectrum of T on T's own scale, passes
        t = 2.0**-950 * windowed_matrix(3, 0.5, 4)
        f = AnnulusRational(r=self.R, p_coeffs=(self.R, 0.5), q1_roots=(2.5,), q2_roots=(0.1 * self.R,))
        eye = np.eye(3)
        want = np.linalg.solve(t - 0.1 * self.R * eye, np.linalg.solve(t - 2.5 * eye, self.R * eye + 0.5 * t))
        assert np.array_equal(eval_direct(f, t), want)

    def test_riesz_projection_at_a_tiny_annulus(self):
        u = random_unitary(3, 5)
        spec = ContourSpec(delta=0.5 * self.R, nodes=512)
        inner = riesz_projection(self.R * u, SpectralPart.INNER, spec, self.R)
        assert operator_norm(inner - np.eye(3)) <= 1e-10
        assert operator_norm(riesz_projection(self.R * u, SpectralPart.OUTER, spec, self.R)) <= 1e-10

    def test_the_margins_still_refuse_a_pole_or_eigenvalue_on_a_circle(self):
        t = 2.0**-950 * windowed_matrix(3, 0.5, 4)
        spec = ContourSpec(delta=0.45 * self.R, nodes=512)
        inner = self.R - spec.delta
        with pytest.raises(PoleInsideContour):
            eval_contour(AnnulusRational(r=self.R, q2_roots=(inner * (1 - 1e-13),)), t, spec)
        with pytest.raises(SpectrumOnContour):
            eval_contour(AnnulusRational(r=self.R), np.diag([0.5, inner * (1 + 1e-11)]) * (1 + 0j), spec)
        with pytest.raises(NoSpectralGap):
            riesz_projection(np.diag([0.5 * self.R]) * (1 + 1e-13), SpectralPart.INNER, ContourSpec(delta=0.5 * self.R), self.R)
        # a point on the contour within 1e-14 of its modulus from a root hits it
        z = inner * np.exp(0.3j)
        with pytest.raises(PoleHit):
            rational.evaluate(AnnulusRational(r=self.R, q2_roots=(z * (1 + 1e-15),)), z)
        assert np.isfinite(rational.evaluate(AnnulusRational(r=self.R, q2_roots=(0.1 * self.R,)), z))


class TestOneAnalysisPerMatrix:
    def test_the_routes_on_one_matrix_share_its_analysis(self, monkeypatch):
        t = open_annulus_normal(4, 0.5, 31)
        f = random_function(0.5, 32)
        counts = {"eigvals": 0, "zgees": 0, "svd of T": 0}
        eigvals, svd, schur = np.linalg.eigvals, np.linalg.svd, linalg._schur_triangle

        def counting_svd(a, *args, **kwargs):
            counts["svd of T"] += np.shape(a) == t.shape and np.array_equal(a, t)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvals", lambda a: counts.update(eigvals=counts["eigvals"] + 1) or eigvals(a))
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(linalg, "_schur_triangle", lambda m: counts.update(zgees=counts["zgees"] + 1) or schur(m))
        linalg._analysis_memo.cache_clear()
        order = laurent_order_for(f, 1e-10)
        eval_direct(f, t)
        eval_laurent(f, t, order)
        laurent_remainder_bound(f, t, order)
        eval_contour(f, t, default_contour(f, t, 0.5, nodes=512))
        assert counts == {"eigvals": 1, "zgees": 1, "svd of T": 1}


@pytest.mark.oldest_pins
class TestSingularValueWindow:
    """On a double contraction the root check reads only the singular
    values of ``T``; elsewhere its verdicts do not depend on ``T``'s scale."""

    def test_eval_direct_on_an_egervary_carrier_forms_no_spectrum_or_schur_form(self, monkeypatch):
        u, _ = dilation.egervary_dilation(windowed_matrix(3, 0.5, 42), 24)
        assert u.shape == (75, 75)
        f = AnnulusRational(r=0.5, p_coeffs=(0.3, 1.0), q1_roots=(2.5, -1.7j))
        linalg._analysis_memo.cache_clear()
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: pytest.fail("eigvals"))
        monkeypatch.setattr(linalg, "_schur_triangle", lambda m: pytest.fail("zgees"))
        got = eval_direct(f, u)
        monkeypatch.undo()
        want = np.linalg.solve(u + 1.7j * np.eye(75), np.linalg.solve(u - 2.5 * np.eye(75), 0.3 * np.eye(75) + u))
        assert np.array_equal(got, want)

    def test_the_routes_give_the_same_bits_and_errors_without_the_window(self, monkeypatch):
        battery = certify._stress_battery(0.5, 2000, 1)

        def run():
            linalg._analysis_memo.cache_clear()
            out = {}
            for n in (2, 5, 16):
                t, f = windowed_matrix(n, 0.5, 300 + n), random_function(0.5, 70 + n)
                out[f"factored_norms-{n}"] = calculus.factored_norms(battery.stack, t)
                out[f"eval_direct-{n}"] = eval_direct(f, t)
                out[f"eval_contour-{n}"] = eval_contour(f, t, ContourSpec(delta=0.02, nodes=512))
            report, _ = certify.full_certification(windowed_matrix(4, 0.5, 3), 0.5, 2000, 1)
            out["certify"] = report.to_json()
            for name, t, stack, edits in TestCheckRoots._cases():
                out[f"check-{name}"] = _outcome(calculus._check_roots, _with_roots(stack, edits), t)
            return out

        want = run()
        undecided = lambda self, mods, tols: (np.zeros(np.shape(mods), dtype=bool),) * 2  # noqa: E731
        monkeypatch.setattr(linalg.Analysis, "window", undecided)
        got = run()
        for name, value in want.items():
            assert np.array_equal(got[name], value) if isinstance(value, np.ndarray) else got[name] == value, name
        assert sum(value is not None for name, value in want.items() if name.startswith("check-")) >= 8

    @pytest.mark.parametrize("k", [-950, -300, -20, 0])
    def test_touch_verdicts_do_not_depend_on_the_scale(self, k):
        s = 2.0**k
        t = np.diag([0.7, 0.6]).astype(complex) * s
        for root, touches in ((0.7 * (1 + 1e-13), True), (0.6 * (1 - 1e-12), True), (0.6 + 1e-3, False), (0.1, False)):
            f = AnnulusRational(r=0.9, p_coeffs=(1.0,), q2_roots=(root * s,))
            if touches:
                with pytest.raises(Singular, match="spectrum touches denominator root"):
                    eval_direct(f, t)
            else:
                assert np.isfinite(eval_direct(f, t)).all()


class TestThreeRouteAgreement:
    def test_pairwise_agreement(self):
        for seed in range(10):
            t = open_annulus_normal(4, 0.5, 400 + seed)
            f = random_function(0.5, 500 + seed)
            direct = eval_direct(f, t)
            order = laurent_order_for(f, 1e-10)
            series = eval_laurent(f, t, order)
            contour = eval_contour(f, t, ContourSpec(delta=0.05, nodes=512))
            scale = max(1.0, operator_norm(direct))
            assert operator_norm(direct - series) <= 1e-8 * scale
            assert operator_norm(direct - contour) <= 1e-8 * scale
            assert operator_norm(series - contour) <= 1e-8 * scale


class TestRieszProjection:
    def test_diagonal_split(self):
        p = riesz_projection(
            np.diag([1.0, 0.5]), SpectralPart.OUTER, ContourSpec(delta=0.1, nodes=256), 0.5
        )
        assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-10)

    def test_whole_and_empty_parts(self):
        u = random_unitary(3, 5)
        spec = ContourSpec(delta=0.1, nodes=256)
        assert operator_norm(
            riesz_projection(u, SpectralPart.OUTER, spec, 0.5) - np.eye(3)
        ) <= 1e-10
        assert operator_norm(riesz_projection(u, SpectralPart.INNER, spec, 0.5)) <= 1e-10

    @pytest.mark.parametrize("part", list(SpectralPart), ids=lambda part: part.value)
    def test_a_part_s_value_names_the_part(self, part):
        # 0.9 I lies wholly in the outer part, so its projector there is I
        t, spec = 0.9 * np.eye(2), ContourSpec(delta=0.01)
        p = riesz_projection(t, part.value, spec, 0.5)
        assert_allclose(p, np.eye(2) if part is SpectralPart.OUTER else np.zeros((2, 2)), atol=1e-10)
        assert np.array_equal(p, riesz_projection(t, part, spec, 0.5))

    @pytest.mark.parametrize("part", ["bogus", "OUTER", "Outer", "", None, 1])
    def test_anything_else_is_a_value_error_before_any_work(self, part):
        # the part is read first, so a bad radius does not mask it
        for r in (0.5, 2.0):
            with pytest.raises(ValueError, match="is not a valid SpectralPart"):
                riesz_projection(0.9 * np.eye(2), part, ContourSpec(delta=0.01), r)

    def test_conjugated_mixed_spectrum(self):
        r = 0.5
        q = random_unitary(4, 23)
        lams = np.array([1.0, np.exp(1j * np.pi / 3), r, -r])
        t = (q * lams) @ q.conj().T
        spec = ContourSpec(delta=0.1, nodes=512)
        p = riesz_projection(t, SpectralPart.OUTER, spec, r)
        assert np.trace(p).real == pytest.approx(2.0, abs=1e-9)
        assert operator_norm(p @ p - p) <= linalg.DEFAULT_TOLS.verify_tol
        assert operator_norm(p @ t - t @ p) <= 1e-9

    def test_parts_sum_to_identity(self):
        t = open_annulus_normal(5, 0.5, 77)
        # push the eigenvalues toward the two circles so a gap exists at the mid radius
        eig = linalg.eig_normal(t)
        lams = np.where(np.abs(eig.lambdas) > 0.75, eig.lambdas / np.abs(eig.lambdas), 0.5 * eig.lambdas / np.abs(eig.lambdas))
        t = (eig.q * lams) @ eig.q.conj().T
        spec = ContourSpec(delta=0.08, nodes=512)
        po = riesz_projection(t, SpectralPart.OUTER, spec, 0.5)
        pi = riesz_projection(t, SpectralPart.INNER, spec, 0.5)
        assert operator_norm(po + pi - np.eye(5)) <= linalg.DEFAULT_TOLS.verify_tol

    def test_no_spectral_gap(self):
        with pytest.raises(NoSpectralGap):
            riesz_projection(
                np.diag([0.75, 0.5]), SpectralPart.OUTER, ContourSpec(delta=0.1, nodes=64), 0.5
            )

    @pytest.mark.parametrize("delta", [0.5, 0.6])
    @pytest.mark.parametrize("part", list(SpectralPart))
    def test_delta_must_leave_an_inner_circle(self, part, delta):
        # with delta >= r the inner circle has no positive radius, and the
        # inner part of diag(1.4, 0.05) came out as the zero matrix
        with pytest.raises(ValueError, match="^delta leaves no inner circle$"):
            riesz_projection(np.diag([1.4, 0.05]), part, ContourSpec(delta), 0.5)


class TestDefaultContour:
    @pytest.mark.parametrize("r", [1.5, np.nan, 0.0])
    def test_a_bad_radius_is_named_before_delta(self, r):
        with pytest.raises(BadRadius):
            default_contour(None, windowed_matrix(3, 0.5, 1), r)

    def test_margins_respect_poles_and_spectrum(self):
        t = open_annulus_normal(3, 0.5, 3)
        f = random_function(0.5, 3)
        spec = default_contour(f, t, 0.5)
        if f.q1_roots:
            assert 1.0 + spec.delta < min(abs(a) for a in f.q1_roots)
        if f.q2_roots:
            assert 0.5 - spec.delta > max(abs(b) for b in f.q2_roots)


def _reference_circle(t, radius, nodes, f=None):
    """Per-node trapezoid loop: one solve (and one scalar f) per node."""
    eye = np.eye(t.shape[0])
    acc = np.zeros_like(eye, dtype=complex)
    for k in range(nodes):
        w = radius * np.exp(2j * np.pi * (k + 0.5) / nodes)
        fw = 1.0 if f is None else rational.evaluate(f, w)
        acc += fw * w * np.linalg.solve(w * eye - t, eye)
    return acc / nodes


class TestChunks:
    @pytest.mark.parametrize("budget", [None, 1 << 17, 16])
    def test_contiguous_slices_of_the_budget_cover_the_rows(self, budget):
        for count, width in itertools.product([0, 1, 7, 100, 1000], [1, 9, 144, 4096, 1 << 20]):
            if budget is None:
                slices, step = calculus._chunks(count, width), max(1, calculus._CHUNK_BYTES // (16 * width))
            else:
                slices, step = calculus._chunks(count, width, budget), max(1, budget // (16 * width))
            assert [s.start for s in slices] == list(range(0, count, step))
            assert [s.stop for s in slices] == [min(start + step, count) for start in range(0, count, step)]
            assert [i for s in slices for i in range(count)[s]] == list(range(count))

    def test_a_battery_pass_holds_one_chunk_of_work_arrays(self):
        # FactoredStack.max_abs_at works a chunk of rows at a time in one
        # workspace and keeps one value per row, so its peak memory grows
        # by that value per row, not by the rows' (rows, points) values
        battery = certify._stress_battery(0.5, 2000, 1).stack
        ring = np.exp(1j * (2.0 * np.pi * np.arange(4096) / 4096))
        z = np.concatenate([ring, 0.5 * ring])
        # past one chunk of rows (at most 512 here), at 8192, 64 and 8 points
        for points in (z, z[::128], np.tile(z[:8], (1800, 1))):
            peaks = []
            for rows in (600, 1800):
                stack = battery.take(slice(0, rows))
                stack._in_order  # cached per stack, formed outside the trace
                tracemalloc.start()
                stack.max_abs_at(points[:rows] if points.ndim == 2 else points)
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            assert peaks[1] - peaks[0] <= 16 * 1200 + 4096


@pytest.mark.oldest_pins
class TestBatchedQuadrature:
    """The contour routes, which solve on one zgees triangle and its Schur vectors, against a per-node loop."""
    NODES = 512

    def test_chunk_boundary_is_crossed(self):
        # n = 12 splits each circle into two chunks
        assert self.NODES > calculus._CHUNK_BYTES // (16 * 12 * 12)

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_eval_contour_matches_per_node_loop(self, n):
        t = open_annulus_normal(n, 0.5, 60 + n)
        f = random_function(0.5, 70 + n)
        spec = ContourSpec(delta=0.02, nodes=self.NODES)
        got = eval_contour(f, t, spec)
        ref = _reference_circle(t, 1.0 + spec.delta, spec.nodes, f) - _reference_circle(
            t, 0.5 - spec.delta, spec.nodes, f
        )
        assert operator_norm(got - ref) <= 1e-13 * operator_norm(ref)

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_riesz_projection_matches_per_node_loop(self, n):
        r, delta = 0.5, 0.05
        rng = np.random.default_rng(n)
        moduli = np.where(np.arange(n) % 2 == 0, 0.9, 0.55) + 0.05 * rng.random(n)
        t, _ = normal_with_moduli(moduli, 80 + n)
        spec = ContourSpec(delta=delta, nodes=self.NODES)
        mid = 0.5 * (1.0 + r)
        outer = _reference_circle(t, 1.0 + delta, self.NODES)
        middle = _reference_circle(t, mid, self.NODES)
        inner = _reference_circle(t, r - delta, self.NODES)
        for part, ref in ((SpectralPart.OUTER, outer - middle), (SpectralPart.INNER, middle - inner)):
            got = riesz_projection(t, part, spec, r)
            assert operator_norm(got - ref) <= 1e-13 * max(operator_norm(ref), 1.0)

    def test_a_shift_on_an_eigenvalue_raises_singular(self):
        t = np.diag([0.6, 0.8j])
        facts = linalg.analysis(t)
        facts.require(np.array([0.3, -0.9]), linalg.DEFAULT_TOLS)
        with pytest.raises(Singular, match="at 1 of 3 points$"):
            facts.require(np.array([0.3, 0.8j, -0.9]), linalg.DEFAULT_TOLS)
        # node 4 of 18 on |w| = 0.8 is the eigenvalue 0.8j
        with pytest.raises(Singular, match="at 1 of 18 points$"):
            calculus._circle_integral(t, 0.8, 0.3, 18, linalg.DEFAULT_TOLS)

    def test_pole_on_a_node_raises_pole_hit(self):
        nodes = 64
        w3 = 1.1 * np.exp(2j * np.pi * 3.5 / nodes)
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(w3,))
        with pytest.raises(PoleHit):
            calculus._circle_integral(np.diag([0.7, 0.8]), 1.1, 0.4, nodes, linalg.DEFAULT_TOLS, f)

    def test_decompose_near_one_stays_in_fixed_memory(self):
        r = 0.999
        u1, u2 = random_unitary(2, 1), random_unitary(1, 2)
        q = random_unitary(3, 3)
        m = q @ make_ar_unitary(u1, u2, r) @ q.conj().T
        tracemalloc.start()
        try:
            dec = decompose(m, r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dec.contour_nodes == 127936
        assert dec.residual <= 1e-8
        # the node vector alone is 2 MB; an unchunked stack would be 18 MB
        assert peak <= 12 * 2**20

    @pytest.mark.parametrize("route", ["decompose", "eval_contour"])
    def test_one_schur_form_per_contour_call(self, monkeypatch, route):
        linalg._analysis_memo.cache_clear()  # a cold T: an earlier test may have analysed it
        calls = []
        original = linalg._schur_triangle
        monkeypatch.setattr(linalg, "_schur_triangle", lambda m: calls.append(1) or original(m))
        if route == "decompose":
            # 127936 nodes a circle, 18 chunks each
            r = 0.999
            q = random_unitary(3, 3)
            n = q @ make_ar_unitary(random_unitary(2, 1), random_unitary(1, 2), r) @ q.conj().T
            decompose(n, r)
        else:
            f = AnnulusRational(r=0.5, q1_roots=(2.0,))
            eval_contour(f, windowed_matrix(3, 0.5, 8), ContourSpec(delta=0.05, nodes=1 << 16))
        assert len(calls) == 1


_NON_NORMAL = [("jordan", 3), ("jordan", 6), ("jordan", 9), ("windowed", 3), ("windowed", 9)]


def _non_normal(kind, n):
    """A conjugated Jordan block ``0.7 e^{0.4i} I + N``, or a windowed matrix."""
    if kind == "windowed":
        return windowed_matrix(n, 0.5, 40 + n)
    q = random_unitary(n, 60 + n)
    return q @ _jordan_block(n, 0.7 * np.exp(0.4j), 1.0) @ q.conj().T


@pytest.mark.oldest_pins
class TestTriangularQuadrature:
    """The contour routes solve for the resolvents on the Schur triangle
    ``R`` of ``T`` and return ``Q S Q*``."""

    @pytest.mark.parametrize("kind, n", _NON_NORMAL)
    def test_non_normal_matches_per_node_loop_and_direct(self, kind, n):
        t, f = _non_normal(kind, n), random_function(0.5, 70 + n)
        spec = default_contour(f, t, 0.5)
        got = eval_contour(f, t, spec)
        loop = _reference_circle(t, 1.0 + spec.delta, spec.nodes, f) - _reference_circle(
            t, 0.5 - spec.delta, spec.nodes, f
        )
        direct = eval_direct(f, t)
        assert operator_norm(got - loop) <= 1e-10 * operator_norm(loop)
        assert operator_norm(got - direct) <= 1e-10 * operator_norm(direct)

    def test_a_triangle_takes_no_lu(self, monkeypatch):
        for route in ("inv", "solve"):
            monkeypatch.setattr(np.linalg, route, lambda *args, **kwargs: pytest.fail(f"LU {route}"))
        for kind, n in _NON_NORMAL:
            eval_contour(random_function(0.5, 70 + n), _non_normal(kind, n), ContourSpec(delta=0.02, nodes=512))
        t = normal_with_moduli([0.9, 0.55, 0.95, 0.6], 84)[0]
        riesz_projection(t, SpectralPart.OUTER, ContourSpec(delta=0.05, nodes=512), 0.5)


def _clear_nothing(self, ws, tols):
    """The bound clears no shift: singular values of every shifted matrix."""
    return np.zeros(ws.shape, dtype=bool)


def _window_decides_nothing(self, mods, tols):
    """The singular-value window decides no shift: the later stages decide them all."""
    return np.zeros(mods.shape, dtype=bool), np.zeros(mods.shape, dtype=bool)


def _ar_unitary(r, seed):
    q = random_unitary(3, seed)
    return q @ make_ar_unitary(random_unitary(2, seed + 1), random_unitary(1, seed + 2), r) @ q.conj().T


class TestShiftConditioningRoutes:
    """The routes give the outputs of the rule applied through singular values
    at every shift, bit for bit, and on these inputs take no singular values
    of a shifted stack at all."""

    @staticmethod
    def _runs():
        battery = certify._stress_battery(0.5, 2000, 1)
        spec = ContourSpec(delta=0.02, nodes=512)
        for n in (2, 3, 5, 9):
            t = windowed_matrix(n, 0.5, 300 + n)
            yield f"factored_norms-{n}", lambda t=t: calculus.factored_norms(battery.stack, t)
        yield "factored_norms-shear", lambda: calculus.factored_norms(battery.stack, example_matrix(0.25))
        for n in (1, 5, 12):
            t, f = open_annulus_normal(n, 0.5, 60 + n), random_function(0.5, 70 + n)
            yield f"eval_contour-{n}", lambda t=t, f=f: eval_contour(f, t, spec)
            moduli = np.where(np.arange(n) % 2 == 0, 0.9, 0.55)
            t = normal_with_moduli(moduli, 80 + n)[0]
            yield f"riesz_projection-{n}", lambda t=t: riesz_projection(
                t, SpectralPart.OUTER, ContourSpec(delta=0.05, nodes=512), 0.5
            )

        def split():
            dec = decompose(_ar_unitary(0.8, 5), 0.8)
            return np.stack([dec.p1, dec.p2, np.full((3, 3), dec.residual)])

        yield "decompose-0.8", split

    def test_bit_identical_to_singular_values_everywhere(self, monkeypatch):
        got = {name: run() for name, run in self._runs()}
        monkeypatch.setattr(linalg.Analysis, "window", _window_decides_nothing)
        monkeypatch.setattr(linalg.ShiftConditioning, "cleared", _clear_nothing)
        for name, run in self._runs():
            assert np.array_equal(got[name], run()), name

    def test_no_singular_values_of_a_shifted_stack(self, monkeypatch):
        svd = np.linalg.svd
        stacks = []

        def counting_svd(a, *args, **kwargs):
            if np.ndim(a) == 3 and kwargs.get("compute_uv") is False:
                stacks.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        # the bound alone, without the window before it, clears every shift
        monkeypatch.setattr(linalg.Analysis, "window", _window_decides_nothing)
        for name, run in self._runs():
            run()
            assert stacks == [], name


def _one_stage_check(stack, t, tols):
    """The root check written out: every root's distance to each eigenvalue
    from ``np.linalg.eigvals``, and the rule on an explicit SVD of ``T - aI``
    for every root ``a``."""
    m = linalg.as_matrix(t)
    lams = np.linalg.eigvals(m)
    norm = np.linalg.svd(m, compute_uv=False)[0]
    roots, mask = stack.roots, stack.mask
    gaps = np.abs(roots[..., np.newaxis] - lams).min(axis=-1)
    touch = mask & (gaps <= tols.rank_tol * np.maximum(np.abs(roots), norm))
    svals = np.linalg.svd(m - roots[mask][:, np.newaxis, np.newaxis] * np.eye(m.shape[0]), compute_uv=False)
    failed = np.zeros_like(mask)
    failed[mask] = svals[:, -1] <= tols.rank_tol * svals[:, 0]
    hit = touch | failed
    if hit.any():
        i = int(np.argmax(hit.any(axis=1)))
        if touch[i].any():
            raise Singular(f"spectrum touches denominator root {complex(roots[i, np.argmax(touch[i])])}")
        raise Singular(
            f"denominator root {complex(roots[i, np.argmax(failed[i])])} fails the conditioning rule: "
            f"condition estimate exceeds {1.0 / tols.rank_tol:.1e}"
        )


def _outcome(check, stack, t):
    try:
        check(stack, t, DEFAULT_TOLS)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    return None


def _with_roots(stack, edits):
    """``stack`` with ``roots[i, j] = value`` for each ``(i, j, value)``."""
    roots = stack.roots.copy()
    for i, j, value in edits:
        roots[i, j] = value
    return rational.FactoredStack(r=stack.r, counts=stack.counts, p=stack.p, roots=roots, scale=stack.scale)


@pytest.mark.oldest_pins
class TestCheckRoots:
    """``_check_roots`` decides most roots from the window of ``T``'s
    singular values; its exceptions are those of the check written out
    with explicit eigenvalues and singular values."""

    @staticmethod
    def _cases():
        t = windowed_matrix(4, 0.5, 3)
        lams = linalg.spectrum(t)
        stack = certify._stress_battery(0.5, 2000, 3).stack
        rows = np.flatnonzero(stack.mask.sum(axis=1) >= 3)
        pad = np.argwhere(~stack.mask)[:3]
        yield "windowed", t, stack, []
        yield "on", t, stack, [(rows[10], 1, lams[1])]
        yield "1e-13", t, stack, [(rows[10], 0, lams[2] * (1 + 1e-13))]
        yield "1e-7", t, stack, [(rows[50], 2, lams[0] + 1e-7)]
        yield "several", t, stack, [
            (rows[40], 0, lams[0] + 1e-7),
            (rows[40], 2, lams[3]),
            (rows[20], 1, lams[1] * (1 + 1e-13)),
            (rows[90], 0, lams[0]),
        ]
        yield "padded", t, stack, [(i, j, lams[k % 4]) for k, (i, j) in enumerate(pad)]
        # a mild shear: a root 5e-6 from an eigenvalue fails the rule
        # without touching the spectrum, one 5e-4 from it passes
        shear = np.array([[0.7, 30.0], [0.0, 0.6]])
        yield "shear", shear, stack, [(rows[5], 1, 0.7 + 5e-4)]
        yield "shear-fails", shear, stack, [(rows[5], 1, 0.700005)]
        yield "shear-touch-first", shear, stack, [(rows[5], 0, 0.700005), (rows[5], 2, 0.6)]
        yield "shear-rows", shear, stack, [(rows[7], 0, 0.6 + 1e-4), (rows[3], 2, 0.700003), (rows[9], 1, 0.6)]
        # 2e-8 from 0.7 touches on the scale of ||T|| = 30.01, not of |root|
        yield "shear-relative-touch", shear, stack, [(rows[5], 0, 0.7 + 2e-8), (rows[5], 2, 0.6)]
        # several chunks of 40 rows
        wide = windowed_matrix(40, 0.5, 3)
        lams = linalg.spectrum(wide)
        part = stack.take(rows[:120])
        yield "n40", wide, part, [(85, 1, lams[7]), (101, 0, lams[3] * (1 + 1e-13))]
        small = rational.pack(0.5, [(1, 0, 1), (0, 1, 1), (2, 1, 2)], [1.0, 1.0, 1.0, 0.5], [2.0, 0.2, 1.5j, 3.0, 0.1])
        one = np.array([[0.7 + 0.1j]])
        yield "n1", one, small, []
        yield "n1-on", one, small, [(2, 1, 0.7 + 0.1j)]
        yield "n1-1e-13", one, small, [(1, 0, (0.7 + 0.1j) * (1 + 1e-13)), (2, 2, 0.7 + 0.1j)]
        # the probe r/z has its root at 0, an eigenvalue of a singular T
        yield "singular", np.diag([0.7, 0.0]), certify._stress_battery(0.5, 2000, 1).stack, []

    @pytest.mark.parametrize(
        "name",
        ["windowed", "on", "1e-13", "1e-7", "several", "padded", "shear", "shear-fails", "shear-touch-first",
         "shear-rows", "shear-relative-touch", "n40", "n1", "n1-on", "n1-1e-13", "singular"],
    )
    def test_outcome_is_that_of_the_one_stage_check(self, name):
        _, t, stack, edits = next(case for case in self._cases() if case[0] == name)
        stack = _with_roots(stack, edits)
        want = _outcome(_one_stage_check, stack, t)
        assert _outcome(calculus._check_roots, stack, t) == want
        touches = "spectrum touches denominator root {}".format
        fails = "denominator root {} fails the conditioning rule: condition estimate exceeds 1.0e+09".format
        named = {
            "shear-fails": fails("(0.700005+0j)"),
            "shear-touch-first": touches("(0.6+0j)"),
            "shear-rows": fails("(0.700003+0j)"),
            "shear-relative-touch": touches("(0.70000002+0j)"),
            "singular": touches("0j"),
        }
        if name in ("windowed", "1e-7", "padded", "shear", "n1"):
            assert want is None
        elif name in named:
            assert want == (Singular, named[name])
        else:
            assert want[0] is Singular


def _values_and_slopes(stack, a):
    """``f_i(a)`` and ``f_i'(a)`` for every row of a factored stack."""
    p = stack.p[:, ::-1]
    num = np.array([np.polyval(row, a) for row in p])
    slope = np.array([np.polyval(np.polyder(row), a) for row in p])
    den = stack.scale * np.prod(np.where(stack.mask, a - stack.roots, 1.0), axis=1)
    logdiff = np.sum(np.where(stack.mask, 1.0 / (a - stack.roots), 0.0), axis=1)
    return num / den, (slope - num * logdiff) / den


def _jordan_block(n, lam, step):
    return lam * np.eye(n, dtype=complex) + step * np.eye(n, k=1)


@pytest.mark.oldest_pins
class TestSchurRoute:
    """factored_norms evaluates ``f_i(R)`` on the Schur triangle of ``T`` by
    back-substitution; its norms are those of ``f_i(T)``."""

    @pytest.mark.parametrize("a, b", [(0.7, 0.40329), (0.6, 0.29)])
    def test_conjugated_shear_matches_the_closed_form(self, a, b):
        # f(aI + bE12) = [[f(a), b f'(a)], [0, f(a)]], and the norm is unitarily invariant
        stack = certify._stress_battery(0.5, 2000, 1).stack
        u = random_unitary(2, 5)
        t = u @ np.array([[a, b], [0.0, a]]) @ u.conj().T
        value, slope = _values_and_slopes(stack, a)
        closed = np.zeros((value.size, 2, 2), dtype=complex)
        closed[:, 0, 0] = closed[:, 1, 1] = value
        closed[:, 0, 1] = b * slope
        want = np.linalg.norm(closed, 2, axis=(1, 2))
        assert_allclose(calculus.factored_norms(stack, t), want, rtol=1e-13)

    @pytest.mark.parametrize("n", [3, 4, 6, 9])
    def test_conjugated_jordan_blocks_match_the_lu_route(self, n):
        # Superdiagonal 0.2, the least distance from modulus 0.7 to a battery
        # root at r = 0.5.  With 1 instead, f(T) at n = 9 holds eighth
        # derivatives amplified up to 5^8 times, and two backward-stable
        # routes differ by up to 2e-10 relative.
        battery = certify._stress_battery(0.5, 2000, 1)
        rows = slice(0, 300)
        stack, functions = battery.stack.take(rows), [battery.stack.function(i) for i in range(300)]
        q = random_unitary(n, 60 + n)
        t = q @ _jordan_block(n, 0.7 * np.exp(0.4j), 0.2) @ q.conj().T
        want = np.array([operator_norm(eval_direct(f, t)) for f in functions])
        assert_allclose(calculus.factored_norms(stack, t), want, rtol=1e-13)

    def test_a_stack_takes_no_lu_solve_and_one_schur_form(self, monkeypatch):
        calls = []
        triangle = linalg._schur_triangle
        monkeypatch.setattr(linalg, "_schur_triangle", lambda m: calls.append(1) or triangle(m))
        monkeypatch.setattr(np.linalg, "solve", lambda *args, **kwargs: pytest.fail("LU solve"))
        stack = certify._stress_battery(0.5, 2000, 1).stack
        for t in (windowed_matrix(4, 0.5, 3), windowed_matrix(9, 0.5, 3), example_matrix(0.25)):
            calls.clear()
            calculus.factored_norms(stack, t)
            assert len(calls) <= 1

    def test_the_triangle_is_unscaled_exactly(self):
        t = windowed_matrix(4, 0.5, 7)
        tri = linalg.ShiftConditioning(t).triangle
        assert np.array_equal(tri, np.triu(tri))
        for k in (-1000, -300, 100, 800, 1000):
            assert np.array_equal(linalg.ShiftConditioning(t * 2.0**k).triangle, tri * 2.0**k)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [950, -950, -1060])
    def test_extreme_scales_agree_with_eval_direct(self, k):
        # 2^-1060 T is subnormal.  Rows with a root within 1e-3 of 0 touch
        # the spectrum of the small scales and are left out.
        battery = certify._stress_battery(0.5, 2000, 1)
        stack = battery.stack
        keep = np.flatnonzero((~stack.mask | (np.abs(stack.roots) > 1e-3)).all(axis=1))[:300]
        t = windowed_matrix(3, 0.5, 4) * 2.0**k
        with np.errstate(over="ignore", invalid="ignore"):  # f(T) overflows at 2^950
            direct = [eval_direct(battery.stack.function(i), t) for i in keep]
        want = np.array([operator_norm(x) if np.isfinite(x).all() else np.inf for x in direct])
        got = calculus.factored_norms(stack.take(keep), t)
        assert (np.isfinite(want) & (want > 0)).sum() >= 17
        assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [950, -950])
    def test_extreme_scales_integrate_on_the_triangle(self, k):
        # eval_contour's absolute margins rule out radii this far from 1,
        # so the quadrature is called on circles of radius 1.1 s and 0.4 s
        # around s T, for f(z) = 0.3 + z / s.
        s = 2.0**k
        t = windowed_matrix(3, 0.5, 4) * s
        f = AnnulusRational(r=0.5, p_coeffs=(0.3, 1.0 / s))
        got = calculus._circle_integral(t, 1.1 * s, 0.4 * s, 512, linalg.DEFAULT_TOLS, f)
        want = eval_direct(f, t)
        assert operator_norm(got - want) <= 1e-13 * operator_norm(want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_triangle_beyond_the_float_range_ends_in_singular(self):
        # ||T||_F and the eigenvalue 3.4e308 overflow; the unscaled triangle
        # reads inf without a warning, and the root stays singular
        t = np.full((2, 2), 1.7e308)
        f = AnnulusRational(r=0.5, p_coeffs=(0.3, 1.0), q1_roots=(2.5,), q2_roots=(0.1,))
        assert np.isinf(linalg.ShiftConditioning(t).triangle).any()
        for route in (lambda: eval_direct(f, t), lambda: calculus.factored_norms(rational.factored_stack([f]), t)):
            with pytest.raises(Singular, match=r"^spectrum touches denominator root \(2\.5\+0j\)$"):
                route()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflow_reads_inf_without_a_warning(self):
        stack = certify._stress_battery(0.5, 2000, 1).stack
        t = windowed_matrix(3, 0.5, 3)
        norms = calculus.factored_norms(stack, t * 1e200)
        assert np.isinf(norms).any() and np.isfinite(norms).any()
        assert linalg.ShiftConditioning(t * 1e200).triangle is not None
