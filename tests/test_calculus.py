import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from annulus_lab import calculus, certify, linalg, rational
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
    PoleHit,
    PoleInsideContour,
    SeriesDivergent,
    Singular,
    SpectrumOnContour,
)
from annulus_lab.linalg import operator_norm, random_unitary
from annulus_lab.rational import AnnulusRational, laurent_order_for, multiply
from conftest import normal_with_moduli, open_annulus_normal, random_function


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
        # gap 0.1 from the spectrum, yet sigma_min ~ 1e-8 against sigma_max ~ 1e6
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(1.3,))
        with pytest.raises(Singular, match=r"^spectrum touches denominator root \(1\.3\+0j\)$"):
            eval_direct(f, [[1.2, 1e6], [0.0, 1.2]])
        # eight rows take the bound, which must leave this root to the SVD
        with pytest.raises(Singular, match=r"^spectrum touches denominator root \(1\.3\+0j\)$"):
            calculus.factored_norms(rational.factored_stack([f] * 8), [[1.2, 1e6], [0.0, 1.2]])

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


class TestBatchedQuadrature:
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
        rule = linalg.ShiftConditioning(t)
        rule.require(np.array([0.3, -0.9]), linalg.DEFAULT_TOLS)
        with pytest.raises(Singular, match="at 1 of 3 points$"):
            rule.require(np.array([0.3, 0.8j, -0.9]), linalg.DEFAULT_TOLS)
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
        for name, run in self._runs():
            run()
            assert stacks == [], name


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
        stack, functions = battery.stack.take(rows), battery.functions[rows]
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
            direct = [eval_direct(battery.functions[i], t) for i in keep]
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
