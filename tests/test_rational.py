import dataclasses
import itertools
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from annulus_lab import rational
from annulus_lab.errors import (
    BadRadius,
    BudgetExceeded,
    InvalidRational,
    PoleHit,
    RootInClosedDisk,
    RootOutsideInnerDisk,
)
from annulus_lab.rational import (
    AnnulusRational,
    boundary_sup_norm,
    evaluate,
    involute,
    laurent_expand,
    laurent_order_for,
    multiply,
    rational_from_json,
    rational_to_json,
    validate,
)
from conftest import SHAPES, random_function, shaped_function

# bound 0 from order 2 on
QUADRATIC = AnnulusRational(r=0.5, p_coeffs=(1.0, 0.3, 0.2))


def _loop_inverse_series(c, m):
    """The convolution recurrence ``u_n = -sum_k c_k u_{n-k} / c_0`` as a
    plain loop: the reference for :func:`rational._inverse_series`."""
    u = np.zeros(m + 1, dtype=complex)
    u[0] = 1.0 / c[0]
    deg = len(c) - 1
    for n in range(1, m + 1):
        acc = 0.0 + 0j
        for k in range(1, min(n, deg) + 1):
            acc += c[k] * u[n - k]
        u[n] = -acc / c[0]
    return u


def _recurrence_polynomials(seed, count=8):
    """``(c, m)`` pairs: monic polynomials of degree 1-8 from roots in
    ``1.01 <= |alpha| <= 3`` (a second root repeated in every other one),
    scaled, with run lengths up to 600."""
    rng = np.random.default_rng(seed)
    for deg in range(1, 9):
        for k in range(count):
            roots = list((1.01 + 2.0 * rng.random(deg)) * np.exp(2j * np.pi * rng.random(deg)))
            if deg >= 2 and k % 2:
                roots[1] = roots[0]
            c = rational._poly_from_roots(roots) * (0.5 + rng.random())
            yield c, int(rng.integers(1, 601))


class TestValidate:
    def test_accepts_classified_roots(self):
        validate(AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,), q2_roots=(0.25,)))

    def test_root_in_closed_disk(self):
        with pytest.raises(RootInClosedDisk):
            validate(AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(0.9,)))

    def test_root_outside_inner_disk(self):
        with pytest.raises(RootOutsideInnerDisk):
            validate(AnnulusRational(r=0.5, p_coeffs=(1.0,), q2_roots=(0.6,)))

    def test_bad_radius(self):
        with pytest.raises(BadRadius):
            validate(AnnulusRational(r=1.5, p_coeffs=(1.0,)))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("p_coeffs", (1.0, complex(np.nan, 0.0))),
            ("q1_roots", (complex(np.nan, 0.0),)),
            ("q1_roots", (complex(np.inf, 0.0),)),
            ("q2_roots", (complex(0.0, np.nan),)),
            ("scale", complex(1.0, np.inf)),
        ],
        ids=["nan-p", "nan-q1", "inf-q1", "nan-q2", "inf-scale"],
    )
    def test_non_finite_entries_rejected(self, field, value):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,), q2_roots=(0.1,))
        with pytest.raises(InvalidRational, match="non-finite"):
            validate(dataclasses.replace(f, **{field: value}))


class TestEvaluate:
    def test_identity_function(self):
        f = AnnulusRational(r=0.5, p_coeffs=(0.0, 1.0))
        assert evaluate(f, 0.7) == pytest.approx(0.7)

    def test_simple_outer_pole(self):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,))
        assert evaluate(f, 1.0) == pytest.approx(-1.0)

    def test_simple_inner_pole(self):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q2_roots=(0.1,))
        assert evaluate(f, 0.5) == pytest.approx(2.5)

    def test_pole_hit(self):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,))
        with pytest.raises(PoleHit):
            evaluate(f, 2.0 + 1e-16)


class TestLaurentExpand:
    @pytest.mark.parametrize("order", [2.5, True, 2.0, 0, -1])
    def test_order_must_be_an_integer_of_at_least_one(self, order):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,))
        with pytest.raises(ValueError, match="^order must be"):
            laurent_expand(f, order)

    def test_an_unbounded_factor_tail_gives_an_infinite_bound(self):
        # inf * 0 would read NaN: the outer tail is inf, the inner one 0
        s = laurent_expand(AnnulusRational(r=0.5, q1_roots=(1 + 1e-12,) * 6), 10)
        assert (s.tail_pos, s.tail_neg, s.tail_bound) == (np.inf, 0.0, np.inf)

    def test_numpy_integer_order(self):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,))
        assert laurent_expand(f, np.int64(3)).order == 3

    def test_outer_factor_coefficients(self):
        # 1/(z - 2) = -sum z^n / 2^(n+1)
        s = laurent_expand(AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,)), 8)
        assert_allclose(s.factor_pos[:3], [-0.5, -0.25, -0.125])

    def test_inner_factor_coefficients(self):
        # 1/(z - 0.1) = sum 0.1^n z^-(n+1)
        s = laurent_expand(AnnulusRational(r=0.5, p_coeffs=(1.0,), q2_roots=(0.1,)), 8)
        assert s.coefficient(-1) == pytest.approx(1.0)
        assert s.coefficient(-2) == pytest.approx(0.1)
        assert s.coefficient(-3) == pytest.approx(0.01)

    def test_polynomial_is_its_own_expansion(self):
        s = laurent_expand(AnnulusRational(r=0.5, p_coeffs=(3.0, 0.0, 2.0)), 4)
        assert s.coefficient(0) == pytest.approx(3.0)
        assert s.coefficient(2) == pytest.approx(2.0)
        assert s.coefficient(1) == 0 and s.coefficient(-1) == 0
        assert s.tail_bound == 0.0

    def test_trivial_inner_factor_series(self):
        s = laurent_expand(AnnulusRational(r=0.5, p_coeffs=(1.0, 1.0), q1_roots=(3.0,)), 6)
        assert_allclose(s.factor_neg, np.eye(7)[0])

    def test_coefficients_against_contour_oracle(self):
        # independent route: f_j = (1/2 pi) int f(rho e^(i t)) (rho e^(i t))^(-j) dt,
        # at an order high enough that the dropped product cross terms are dust
        for seed in range(8):
            f = random_function(0.5, seed)
            s = laurent_expand(f, 80)
            nodes = 4096
            theta = 2 * np.pi * np.arange(nodes) / nodes
            rho = np.sqrt(0.5)
            z = rho * np.exp(1j * theta)
            vals = evaluate(f, z)
            scale = np.abs(vals).max()
            for j in range(-4, 5):
                oracle = np.mean(vals * z ** (-j))
                assert abs(s.coefficient(j) - oracle) <= 1e-12 * max(1.0, scale)

    def test_sampled_remainder_within_tail_bound(self):
        theta = 2 * np.pi * np.arange(256) / 256
        for seed in range(100):
            f = random_function(0.5, 1000 + seed, max_roots=4, alpha_window=(1.2, 4.0))
            s = laurent_expand(f, 40)
            js = np.arange(-s.order, s.order + 1)
            for radius in (1.0, 0.5):
                z = radius * np.exp(1j * theta)
                approx = (z[:, np.newaxis] ** js[np.newaxis, :]) @ s.coeffs
                measured = np.abs(evaluate(f, z) - approx).max()
                scale = np.abs(evaluate(f, z)).max()
                # allowance for roundoff in the measurement itself
                assert measured <= s.tail_bound + 1e-12 * max(1.0, scale)

    def test_tail_bound_weakly_decreasing(self):
        f = random_function(0.5, 5, max_roots=4, alpha_window=(1.2, 4.0))
        bounds = [laurent_expand(f, m).tail_bound for m in range(4, 40, 3)]
        assert all(b1 >= b2 - 1e-16 for b1, b2 in zip(bounds, bounds[1:]))

    def test_tail_bound_within_structural_formula(self):
        # partial fractions of the (simple-root) samples bound each dropped
        # coefficient by sum_j |residue_j| rate_j^n; the certified bound may
        # not exceed the resulting geometric lumps
        m = 24
        for seed in range(20):
            f = random_function(0.5, 300 + seed, max_roots=3)
            s = laurent_expand(f, m)
            alphas, betas = np.array(f.q1_roots), np.array(f.q2_roots)
            p = np.array(f.p_coeffs)[::-1]
            lump_pos = sum(
                abs(np.polyval(p, a) / np.prod([a - o for o in alphas if o != a]) / f.scale)
                * abs(a) ** -(m + 2)
                / (1 - 1 / abs(a))
                for a in alphas
            )
            lump_neg = sum(
                abs(1 / np.prod([b - o for o in betas if o != b]))
                / abs(b)
                * (abs(b) / s.r) ** (m + 1)
                / (1 - abs(b) / s.r)
                for b in betas
            )
            sa = np.abs(s.factor_pos).sum() + lump_pos
            sb = (np.abs(s.factor_neg) * s.r ** -np.arange(m + 1.0)).sum() + lump_neg
            structural = lump_pos * sb + sa * lump_neg + lump_pos * lump_neg
            assert s.tail_bound <= structural * (1 + 1e-9) + 1e-15

    @pytest.mark.parametrize(
        "f, order",
        [
            (AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(1.5, 1.5)), 64),
            (AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(1.05,) * 3), 40),
            (AnnulusRational(r=0.5, p_coeffs=(1.0,), q2_roots=(0.45, 0.45)), 40),
        ],
        ids=["double-outer-1.5", "triple-outer-1.05", "double-inner-0.45"],
    )
    def test_repeated_root_bound_is_rigorous_and_tight(self, f, order):
        s = laurent_expand(f, order)
        nodes = 4096
        theta = 2 * np.pi * np.arange(nodes) / nodes
        js = np.arange(-s.order, s.order + 1)
        measured = scale = 0.0
        for radius in (1.0, f.r):
            z = radius * np.exp(1j * theta)
            vals = evaluate(f, z)
            approx = (z[:, np.newaxis] ** js[np.newaxis, :]) @ s.coeffs
            measured = max(measured, float(np.abs(vals - approx).max()))
            scale = max(scale, float(np.abs(vals).max()))
        # allowance for roundoff in the measurement itself
        assert measured <= s.tail_bound + 1e-12 * max(1.0, scale)
        assert s.tail_bound <= 100 * measured

    def test_laurent_order_binary_refined(self):
        for f in (
            AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,), q2_roots=(0.1,)),
            # repeated roots, an inner-only factor, a polynomial of degree 5
            AnnulusRational(r=0.5, p_coeffs=(1.0, 0.5), q1_roots=(1.5, 1.5), q2_roots=(0.2, 0.2)),
            AnnulusRational(r=0.5, p_coeffs=(0.3,), q2_roots=(0.3, -0.2j, 0.0)),
            AnnulusRational(r=0.5, p_coeffs=(1.0, 0.0, 2.0, 0.0, 0.5, 0.25j)),
            QUADRATIC,
        ):
            m = laurent_order_for(f, 1e-10)
            assert laurent_expand(f, m).tail_bound <= 1e-10
            assert laurent_expand(f, m - 1).tail_bound > 1e-10
        # the search refines below its first probe when that probe passes
        assert laurent_order_for(QUADRATIC, 1e-10) == 2

    def test_order_search_makes_no_expansion(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            rational, "laurent_expand", lambda *args: calls.append(args) or laurent_expand(*args)
        )
        for seed in range(10):
            rational.laurent_order_for(random_function(0.5, seed), 1e-10)
        assert calls == []

    def test_order_search_probes_equal_expansion_bounds(self, monkeypatch):
        # includes a root near the circle, whose search outgrows its first
        # build and grows the memo; each expansion is a cold build
        probes = []
        original = rational._tail_bounds
        monkeypatch.setattr(
            rational,
            "_tail_bounds",
            lambda pos, neg, order: probes.append((order, original(pos, neg, order)[2]))
            or original(pos, neg, order),
        )
        functions = [random_function(0.5, seed) for seed in range(20)]
        functions.append(AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(1.02, -1.1j)))
        for f in functions:
            probes.clear()
            laurent_order_for(f, 1e-10)
            searched = list(probes)
            assert searched
            for order, bound in searched:
                rational._series_memo.cache_clear()
                assert laurent_expand(f, order).tail_bound == bound

    def test_nan_tail_bound_never_certifies(self, monkeypatch):
        from annulus_lab import dilation

        monkeypatch.setattr(rational, "_tail_bounds", lambda pos, neg, order: (np.nan,) * 3)
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(3.0,), q2_roots=(0.1,))
        with pytest.raises(BudgetExceeded):
            laurent_order_for(f, 1e-10)
        assert dilation.default_budget(f) == dilation.BUDGET_CAP

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_a_tolerance_that_is_not_finite_and_positive_is_rejected_up_front(self, tol, monkeypatch):
        monkeypatch.setattr(rational, "_series_data", lambda *args: pytest.fail("scanned"))
        with pytest.raises(ValueError, match="^tol must be finite and > 0"):
            laurent_order_for(QUADRATIC, tol)

    @pytest.mark.parametrize("cap", [2.5, 4096.0, True, 0])
    def test_a_cap_that_is_not_a_positive_integer_is_rejected(self, cap):
        with pytest.raises(ValueError, match="^cap must be"):
            laurent_order_for(QUADRATIC, 1e-30, cap=cap)

    def test_the_scan_stops_at_the_cap(self):
        # order 9 at 1e-3 and order 4 at 0.1
        f = AnnulusRational(r=0.5, q1_roots=(2.5,), q2_roots=(0.2,))
        assert laurent_order_for(f, 1e-3) == 9
        assert laurent_order_for(f, 1e-3, cap=12) == 9
        assert laurent_order_for(f, 1e-3, cap=9) == 9
        with pytest.raises(BudgetExceeded, match="within order 8$"):
            laurent_order_for(f, 1e-3, cap=8)
        assert laurent_order_for(f, 0.1) == 4
        with pytest.raises(BudgetExceeded, match="within order 1$"):
            laurent_order_for(f, 0.1, cap=1)

    def test_order_past_the_cap_is_a_budget_error(self):
        # 1/(z - 1.001) needs an order near 30000 for 1e-10; the search stops at 4096
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(1.001,))
        with pytest.raises(BudgetExceeded, match="within order 4096"):
            laurent_order_for(f, 1e-10)

    def test_inverse_series_matches_the_loop(self):
        # LAPACK subtracts the terms one by one where the loop sums them
        # first, so the two round differently: by at most 4.2e-14 of the
        # largest modulus so far on these runs
        for c, m in _recurrence_polynomials(7):
            ref = _loop_inverse_series(c, m)
            got = rational._inverse_series(c, m)
            assert got.shape == ref.shape
            largest = np.maximum.accumulate(np.abs(ref))
            assert np.all(np.abs(got - ref) <= 1e-12 * largest)

    def test_inverse_series_shorter_run_is_a_prefix(self):
        for c, m in _recurrence_polynomials(8):
            full = rational._inverse_series(c, m)
            for k in {0, 1, len(c) - 1, m // 3, m // 2, m - 1}:
                assert np.array_equal(rational._inverse_series(c, k), full[: k + 1])

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.81])
    def test_the_operator_bound_at_growth_one_is_the_tail_bound_bit_for_bit(self, r):
        # one product-tail formula gives both
        for k, shape in enumerate(SHAPES):
            f = shaped_function(r, 6500 + k, shape)
            for order in (1, 8, 64):
                series = laurent_expand(f, order)
                assert series.operator_tail_bound(1.0, 1.0) == series.tail_bound, (shape, order)

    def test_an_overflowing_partial_sum_gives_an_infinite_operator_bound(self):
        # a polynomial drops nothing past its degree, but grown by 1e300 its
        # partial sum overflows: the bound is inf, where inf * 0 would read NaN
        series = laurent_expand(QUADRATIC, 8)
        assert series.tail_pos == series.tail_neg == 0.0
        assert series.operator_tail_bound(1e300, 1.0) == np.inf

    @pytest.mark.parametrize("r, beta, order", [(1e-3, 9e-4, 200), (0.25, 0.2, 500)])
    def test_bound_holds_once_inner_coefficients_underflow(self, r, beta, order):
        # 1/(z - beta) drops sum_{k > m} beta^(k-1) z^-k, largest on |z| = r:
        # (beta/r)^m / (r - beta); its coefficients underflow well before order m
        exact = (beta / r) ** order / (r - beta)
        bound = laurent_expand(AnnulusRational(r=r, q2_roots=(beta,)), order).tail_bound
        assert bound >= exact * (1 - 1e-12)

    def test_small_radius_order_certifies_the_exact_remainder(self):
        # 1e4 * 0.9^m <= 1e-10 first at m = 306
        assert laurent_order_for(AnnulusRational(r=1e-3, q2_roots=(9e-4,)), 1e-10) >= 306

    @pytest.mark.parametrize("order", [1, 2, 7, 24, 160])
    def test_every_field_of_a_warm_expansion_is_that_of_a_cold_one(self, order):
        fs = [random_function(0.5, 7100 + seed, max_roots=3, max_degree=5) for seed in range(10)]
        # more inner roots than order + 1 terms, repeated and zero roots
        fs.append(AnnulusRational(r=0.5, p_coeffs=(1.0, 0.5j), q1_roots=(1.5, 1.5), q2_roots=(0.2, 0.2, 0.0)))
        # and the denominators 1/(scale q1 q2) the dilation model reads
        fs += [dataclasses.replace(f, p_coeffs=(1.0,)) for f in fs]
        for f in fs:
            cold = _entry_bits(f, order, cold=True)
            # a warm read takes a prefix of a longer build
            laurent_expand(f, 400)
            assert _entry_bits(f, order) == cold
            series = laurent_expand(f, order)
            assert np.array_equal(series.tail_models[0].exact[: order + 1], np.abs(series.factor_pos))

    def test_order_search_reaches_a_battery_function_at_small_radius(self):
        from annulus_lab.certify import sample_test_function
        from annulus_lab.linalg import seeded_rng

        f = sample_test_function(0.25, seeded_rng(5, 17, 90))
        m = laurent_order_for(f, 1e-10)
        assert laurent_expand(f, m).tail_bound <= 1e-10
        assert laurent_expand(f, 480).tail_bound <= laurent_expand(f, m).tail_bound


# 1e4 * 0.9^m <= 1e-10 first at m = 306
SLOW = AnnulusRational(r=1e-3, q2_roots=(9e-4,))


def _entry_bits(f, order, cold=False):
    """The bytes of every field of ``laurent_expand(f, order)``, its product
    ``coeffs`` and an operator tail bound included; of its tail models, the
    terms that the order reads.  With ``cold``, on an empty memo."""
    if cold:
        rational._series_memo.cache_clear()
    series = laurent_expand(f, order)
    length = rational._length_for(f, order)
    out = []
    for name in [field.name for field in dataclasses.fields(series)] + ["coeffs"]:
        value = getattr(series, name)
        if name == "tail_models":
            for model in value:
                out += [array[:length].tobytes() for array in (model.exact, model.major, model.base)]
                out += [np.float64(model.rate).tobytes(), model.lead]
        else:
            out.append(value.tobytes() if isinstance(value, np.ndarray) else np.float64(value).tobytes())
    out.append(np.float64(series.operator_tail_bound(1.0 + 1e-9, 1.001)).tobytes())
    return out


class TestSeriesMemo:
    @pytest.mark.oldest_pins
    @pytest.mark.parametrize("r", [1e-3, 0.25, 0.5, 0.81, 0.95])
    def test_warm_reads_equal_cold_builds_bit_for_bit(self, r):
        """This needs np.convolve and float ** np.arange(L) to give bits that do not depend on the length."""
        functions = [shaped_function(r, 6100 + k, shape) for k, shape in enumerate(SHAPES)]
        functions += [
            # repeated roots, zero roots, a pole near the inner circle
            AnnulusRational(r=r, p_coeffs=(1.0, 0.5j), q1_roots=(1.5, 1.5), q2_roots=(0.4 * r, 0.4 * r, 0.0)),
            AnnulusRational(r=r, p_coeffs=(0.0, 0.0, 1.0), q2_roots=(0.0, 0.0, -0.3j * r)),
            AnnulusRational(r=r, q2_roots=(0.9 * r,)),
        ]
        if r == SLOW.r:
            functions.append(SLOW)
            rational._series_memo.cache_clear()
            assert laurent_order_for(SLOW, 1e-10) == 306
        orders = (2, 40, 306)
        for f in functions:
            cold = {m: _entry_bits(f, m, cold=True) for m in orders}
            rational._series_memo.cache_clear()
            cold_order = laurent_order_for(f, 1e-10)
            # short then long grows the memo, long then short reads a prefix
            for first, second in itertools.permutations(orders, 2):
                rational._series_memo.cache_clear()
                laurent_expand(f, first)
                assert _entry_bits(f, second) == cold[second]
                assert _entry_bits(f, first) == cold[first]
                assert laurent_order_for(f, 1e-10) == cold_order

    @pytest.mark.oldest_pins
    @pytest.mark.parametrize("r", [1e-3, 0.5, 0.95])
    def test_a_function_and_its_denominator_equal_cold_builds_in_either_order(self, r):
        """A function's data reads its denominator's, built at another length, as a prefix."""
        functions = [shaped_function(r, 6200 + k, shape) for k, shape in enumerate(SHAPES)]
        functions += [
            AnnulusRational(r=r, p_coeffs=(1.0, 0.5j, 0.0, 2.0), q1_roots=(1.5, 1.5), q2_roots=(0.4 * r, 0.0), scale=0.5j),
            AnnulusRational(r=r, p_coeffs=(0.0, 0.0, 1.0), q2_roots=(0.0, 0.0, -0.3j * r)),
        ]
        orders = (2, 40, 306)
        for f in functions:
            # 1/(scale q1 q2), which the dilation model expands, shares f's denominator
            g = dataclasses.replace(f, p_coeffs=(1.0,))
            cold = {(h, m): _entry_bits(h, m, cold=True) for h in (f, g) for m in orders}
            for first, second in itertools.permutations([(f, m) for m in orders] + [(g, m) for m in orders], 2):
                rational._series_memo.cache_clear()
                laurent_expand(*first)
                assert _entry_bits(*second) == cold[second]
                assert _entry_bits(*first) == cold[first]

    def test_functions_over_one_denominator_build_it_once(self, monkeypatch):
        lengths = []
        build = rational._build_denominator
        monkeypatch.setattr(rational, "_build_denominator", lambda g, n: lengths.append(n) or build(g, n))
        f = AnnulusRational(r=0.5, p_coeffs=(1.0, -0.3j, 0.2), q1_roots=(1.6, -2.0j), q2_roots=(0.2, 0.1j))
        others = [
            dataclasses.replace(f, p_coeffs=(1.0,)),
            dataclasses.replace(f, scale=2.0 - 1.0j),
            dataclasses.replace(f, p_coeffs=(0.0, 1.0), scale=-3.0),
        ]
        rational._series_memo.cache_clear()
        laurent_expand(f, 11)  # a short first read, as default_budget's probe
        assert laurent_order_for(f, 1e-10) <= 64
        for g in others:
            laurent_expand(g, 24)
            laurent_order_for(g, 1e-10)
        assert lengths == [rational._length_for(f, rational._REACH_ORDER)]
        # another denominator, or the same roots at another radius, is its own
        laurent_expand(dataclasses.replace(f, q2_roots=(0.2, -0.1j)), 24)
        laurent_expand(dataclasses.replace(f, r=0.6), 24)
        assert len(lengths) == 3
        # an order past the reach grows the denominator for every function over it
        laurent_expand(others[0], 400)
        assert lengths[-1] == rational._length_for(others[0], 400)
        laurent_expand(f, 300)
        assert len(lengths) == 4

    def test_functions_equal_but_for_the_sign_of_a_zero_keep_their_own_bits(self):
        f = AnnulusRational(r=0.5, p_coeffs=(0.3j,), q1_roots=(1.5,), scale=complex(0.0, 1.0))
        g = dataclasses.replace(f, scale=complex(-0.0, 1.0))
        cold_f, cold_g = _entry_bits(f, 12, cold=True), _entry_bits(g, 12, cold=True)
        # == calls them one function, but their series differ in signed zeros
        assert f == g and cold_f != cold_g
        rational._series_memo.cache_clear()
        assert _entry_bits(f, 12) == cold_f and _entry_bits(g, 12) == cold_g
        assert _entry_bits(f, 12) == cold_f

    def test_threads_on_one_cold_function_match_a_sequential_run(self, monkeypatch):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0, -0.3j), q1_roots=(1.05, -1.2j), q2_roots=(0.3, 0.3))
        orders = (3, 40, 150, 700)
        expected = [_entry_bits(f, m, cold=True) for m in orders]
        lengths = []
        build = rational._build_series
        monkeypatch.setattr(rational, "_build_series", lambda g, n: lengths.append(n) or build(g, n))
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                rational._series_memo.cache_clear()
                lengths.clear()
                results = [None] * len(orders)

                def work(k):
                    results[k] = _entry_bits(f, orders[k])

                threads = [threading.Thread(target=work, args=(k,)) for k in range(len(orders))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert results == expected
                # each build outgrows the last: none is repeated or lost
                assert lengths == sorted(set(lengths))
        finally:
            sys.setswitchinterval(previous)

    def test_the_order_search_and_its_expansion_read_one_build(self, monkeypatch):
        lengths = []
        build = rational._build_series
        monkeypatch.setattr(rational, "_build_series", lambda g, n: lengths.append(n) or build(g, n))
        for f in [random_function(0.5, seed) for seed in range(10)]:
            rational._series_memo.cache_clear()
            lengths.clear()
            m = laurent_order_for(f, 1e-10)
            laurent_expand(f, m)
            assert m <= 64 and lengths == [rational._length_for(f, 64)]
        # past order 64 the memo grows with the scan
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(1.02, -1.1j))
        rational._series_memo.cache_clear()
        lengths.clear()
        m = laurent_order_for(f, 1e-10)
        assert 1024 < m <= 2048
        assert lengths == [rational._length_for(f, order) for order in (64, 128, 256, 512, 1024, 2048)]

    def test_an_expansion_below_the_reach_builds_what_the_order_search_reads(self, monkeypatch):
        lengths = []
        build = rational._build_series
        monkeypatch.setattr(rational, "_build_series", lambda g, n: lengths.append(n) or build(g, n))
        f = AnnulusRational(r=0.5, p_coeffs=(0.3, 1.0), q1_roots=(2.5,), q2_roots=(0.1,))
        rational._series_memo.cache_clear()
        laurent_expand(f, 3)
        assert laurent_order_for(f, 1e-10) == 26
        # one build, at the reach of order 64, serves the short expansion too
        assert lengths == [rational._length_for(f, 64)] == [194]

    def test_the_memo_keeps_at_most_its_bound_and_clears(self):
        rational._series_memo.cache_clear()
        for k in range(rational._MEMO_SIZE + 8):
            laurent_expand(AnnulusRational(r=0.5, q1_roots=(2.0 + 0.01 * k,)), 4)
        info = rational._series_memo.cache_info()
        assert info.currsize == info.maxsize == rational._MEMO_SIZE
        rational._series_memo.cache_clear()
        assert rational._series_memo.cache_info().currsize == 0

    def test_memo_arrays_are_read_only_and_expansions_copy_them(self):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0, 0.2), q1_roots=(2.0,), q2_roots=(0.1,))
        series = laurent_expand(f, 10)
        for model in series.tail_models:
            for array in (model.exact, model.major, model.base):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 7.0
        before = _entry_bits(f, 10)
        # the product, formed on first read, is a fresh array too
        coeffs = series.coeffs
        assert series.coeffs is coeffs
        for array in (series.factor_pos, series.factor_neg, series.factor_neg_scaled, coeffs):
            array[:] = 7.0
        assert _entry_bits(f, 10) == before


class TestLazyProduct:
    def test_only_the_series_sum_and_a_direct_read_form_the_product(self, monkeypatch):
        from annulus_lab import calculus, dilation
        from annulus_lab.certify import windowed_matrix

        def unread(series):
            raise AssertionError("product formed")

        monkeypatch.setattr(rational.LaurentSeries, "coeffs", property(unread))
        rational._series_memo.cache_clear()
        t = windowed_matrix(3, 0.7, 45)
        model = dilation.build_model(t, 0.7, 8)
        f = random_function(0.7, 955, max_roots=2, alpha_window=(3.2, 4.0), beta_window_div=(8.0, 4.0))
        assert np.isfinite(model.tail_report(f)["bound"])
        assert np.isfinite(dilation.verify_model(model, t, f))
        fast = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(8.0,), q2_roots=(0.05,))
        slow = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(1.05,))
        assert dilation.default_budget(fast) < 24 and dilation.default_budget(slow) == 24
        order = laurent_order_for(f, 1e-10)
        assert np.isfinite(calculus.laurent_remainder_bound(f, t, order))
        # the patch is seen: the series sum and a direct read form it
        with pytest.raises(AssertionError, match="product formed"):
            calculus.eval_laurent(f, t, order)
        with pytest.raises(AssertionError, match="product formed"):
            laurent_expand(f, order).coeffs


class TestBoundarySupNorm:
    def test_identity_function(self):
        assert boundary_sup_norm(AnnulusRational(r=0.5, p_coeffs=(0.0, 1.0)), 256) == pytest.approx(1.0)

    def test_inverse_function(self):
        f = AnnulusRational(r=0.5, p_coeffs=(0.5,), q2_roots=(0.0,))
        assert boundary_sup_norm(f, 256) == pytest.approx(1.0)

    def test_outer_pole_dense_sampling(self):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,))
        assert boundary_sup_norm(f, 4096) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("nodes", [100.5, 128.0, True, 63])
    def test_nodes_that_are_not_an_integer_of_at_least_64_are_rejected(self, nodes):
        with pytest.raises(ValueError, match="^nodes must be"):
            boundary_sup_norm(QUADRATIC, nodes)

    def test_converges_from_below(self):
        f = random_function(0.5, 3)
        coarse = boundary_sup_norm(f, 128)
        fine = boundary_sup_norm(f, 1 << 14)
        assert coarse <= fine + 1e-15


class TestFactoredStack:
    FUNCTIONS = (
        AnnulusRational(r=0.5, p_coeffs=(1.0, 2.0j, 0.0), q1_roots=(1.5, -2.0j), q2_roots=(0.0, 0.3j), scale=2.0 - 1.0j),
        AnnulusRational(r=0.5),
        AnnulusRational(r=0.5, p_coeffs=(0.5,), q2_roots=(0.0,)),
        AnnulusRational(r=0.5, p_coeffs=(0.0, 1.0, 0.0, 0.0, 3.0), q1_roots=(4.0,), scale=-0.25),
    )

    def test_rows_come_back_as_the_functions(self):
        stack = rational.factored_stack(self.FUNCTIONS)
        assert stack.r == 0.5
        assert stack.counts.tolist() == [[2, 2, 3], [0, 0, 1], [0, 1, 1], [1, 0, 5]]
        assert stack.mask.tolist() == [[True] * 4, [False] * 4, [True] + [False] * 3, [True] + [False] * 3]
        assert [stack.function(i) for i in range(4)] == list(self.FUNCTIONS)
        taken = stack.take(np.array([3, 0]))
        assert [taken.function(i) for i in range(2)] == [self.FUNCTIONS[3], self.FUNCTIONS[0]]

    @staticmethod
    def _assert_outer_holds_the_q1_roots(stack):
        assert stack.outer.shape == stack.roots.shape
        assert not (stack.outer & ~stack.mask).any()
        for i in range(stack.p.shape[0]):
            q1 = stack.function(i).q1_roots
            assert np.flatnonzero(stack.outer[i]).tolist() == list(range(len(q1)))
            assert stack.roots[i, stack.outer[i]].tolist() == list(q1)

    @pytest.mark.parametrize("r", [0.25, 0.81])
    def test_outer_marks_the_q1_slots_of_the_battery(self, r):
        from annulus_lab import certify

        self._assert_outer_holds_the_q1_roots(certify._stress_battery(r, 2000, 1).stack)

    def test_outer_marks_the_q1_slots_of_a_stack_and_of_its_takes(self):
        # rows with k1 = 0 (1, 2, 4) and with k2 = 0 (1, 3, 5)
        functions = self.FUNCTIONS + (
            AnnulusRational(r=0.5, q2_roots=(0.1, -0.2j, 0.0)),
            AnnulusRational(r=0.5, p_coeffs=(1.0, 1.0), q1_roots=(1.5, 2.0j, -3.0, 1.1)),
        )
        stack = rational.factored_stack(functions)
        assert stack.outer.tolist() == [
            [True, True, False, False],
            [False] * 4,
            [False] * 4,
            [True] + [False] * 3,
            [False] * 4,
            [True] * 4,
        ]
        self._assert_outer_holds_the_q1_roots(stack)
        self._assert_outer_holds_the_q1_roots(stack.take(np.array([5, 2, 0])))
        for empty in (stack.take(np.zeros(0, dtype=int)), stack.take(slice(0, 0))):
            assert empty.outer.shape == (0, 4)
            self._assert_outer_holds_the_q1_roots(empty)
        with pytest.raises(ValueError, match="read-only"):
            stack.outer[0, 0] = False

    def test_mixed_radii_are_invalid(self):
        with pytest.raises(InvalidRational, match="mismatched radii 0.5 and 0.25"):
            rational.factored_stack([AnnulusRational(r=0.5), AnnulusRational(r=0.25)])

    def test_an_empty_sequence_is_rejected(self):
        with pytest.raises(ValueError, match="at least one function"):
            rational.factored_stack([])

    def test_equality_is_identity_and_a_stack_hashes(self):
        one, other = rational.factored_stack(self.FUNCTIONS), rational.factored_stack(self.FUNCTIONS)
        assert one == one and not one != one
        assert one != other and not one == other
        assert hash(one) == hash(one) and len({one, other}) == 2


class TestInvolute:
    def test_identity_maps_to_inverse(self):
        g = involute(AnnulusRational(r=0.5, p_coeffs=(0.0, 1.0)))
        zs = np.exp(1j * np.linspace(0, 2 * np.pi, 17))
        assert_allclose(evaluate(g, zs), 0.5 / zs)

    def test_is_an_involution(self):
        zs = np.exp(2j * np.pi * np.arange(64) / 64)
        for seed in range(10):
            f = random_function(0.5, 40 + seed)
            gg = involute(involute(f))
            assert np.abs(evaluate(gg, zs) - evaluate(f, zs)).max() <= 1e-12 * max(
                1.0, np.abs(evaluate(f, zs)).max()
            )

    def test_preserves_boundary_sup(self):
        for seed in range(10):
            f = random_function(0.5, 60 + seed)
            a = boundary_sup_norm(f, 2048)
            b = boundary_sup_norm(involute(f), 2048)
            assert abs(a - b) <= 1e-8 * max(1.0, a)

    def test_result_is_canonical(self):
        for seed in range(20):
            validate(involute(random_function(0.5, 80 + seed)))

    def test_invalid_input_rejected(self):
        from annulus_lab.errors import InvalidRational

        with pytest.raises(InvalidRational):
            involute(AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(0.5,)))


class TestMultiply:
    def test_pointwise_product(self):
        f = random_function(0.5, 1)
        g = random_function(0.5, 2)
        fg = multiply(f, g)
        validate(fg)
        zs = 0.8 * np.exp(2j * np.pi * np.arange(8) / 8)
        assert_allclose(evaluate(fg, zs), evaluate(f, zs) * evaluate(g, zs), rtol=1e-12)


class TestJson:
    def test_roundtrip(self):
        f = random_function(0.5, 13)
        g = rational_from_json(rational_to_json(f))
        zs = 0.7 * np.exp(2j * np.pi * np.arange(5) / 5)
        assert_allclose(evaluate(g, zs), evaluate(f, zs))

    def test_rejects_invalid(self):
        bad = rational_to_json(AnnulusRational(r=0.5, p_coeffs=(1.0,)))
        bad["q1_roots"] = [[0.5, 0.0]]
        with pytest.raises((ValueError, RootInClosedDisk)):
            rational_from_json(bad)

    @pytest.mark.parametrize("key", ["p", "q1_roots", "q2_roots", "scale"])
    @pytest.mark.parametrize(
        "pair", [[1.0, 0.0, 99.0], [1.0], ["1.0", 0.0], [True, 0.0], [None, 0.0]],
        ids=["three", "one", "string", "bool", "null"],
    )
    def test_rejects_malformed_pairs(self, key, pair):
        obj = rational_to_json(AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,), q2_roots=(0.1,)))
        obj[key] = pair if key == "scale" else [pair]
        with pytest.raises(ValueError, match="malformed rational object"):
            rational_from_json(obj)

    @pytest.mark.parametrize("r", ["0.5", True, None, [0.5]], ids=["string", "bool", "null", "list"])
    def test_rejects_a_radius_that_is_not_a_number(self, r):
        obj = rational_to_json(AnnulusRational(r=0.5, p_coeffs=(1.0,)))
        obj["r"] = r
        with pytest.raises(ValueError, match="malformed rational object"):
            rational_from_json(obj)
