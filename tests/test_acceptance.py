"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; corpus sizes match the stated requirements.
The full suite is sized to run in well under three minutes on a laptop.
"""

import itertools

import numpy as np

from annulus_lab import calculus, rational
from annulus_lab.ar_unitary import decompose, make_ar_unitary, membership_subspaces
from annulus_lab.calculus import ContourSpec, eval_contour, eval_direct, eval_laurent
from annulus_lab.certify import (
    Verdict,
    WilliamsVerdict,
    double_contraction_check,
    example_matrix,
    involution,
    norm_window,
    normal_annulus_matrix,
    vonneumann_stress,
    williams_verdict,
    windowed_matrix,
)
from annulus_lab.cli import demo_example
from annulus_lab.dilation import (
    build_model,
    single_carrier_residual,
    verify_model,
    verify_moments,
)
from annulus_lab.linalg import operator_norm, random_unitary, seeded_rng
from annulus_lab.rational import AnnulusRational, laurent_order_for
from conftest import random_function


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_example_reproduction():
    """Worked-example reproduction at three radii."""
    worst = 0.0
    for r in (0.25, 0.5, 0.81):
        payload = demo_example(r)
        assert payload["all_ok"], f"reproduction failed at r={r}: {payload['checks']}"
        worst = max(worst, abs(payload["checks"]["norm"]["measured"] - 1.0))
    report(1, True, f"example reproduced at r in {{0.25, 0.5, 0.81}}; worst norm defect {worst:.2e}")


def _necessary_corpus(r, count):
    for seed in range(count):
        n = 2 + seed % 5
        yield seed, normal_annulus_matrix(n, r, seed)


def test_criterion_2_necessary_condition_suite():
    """500 certified-normal instances pass all necessary checks and the
    stress battery; the shear example passes them yet is refuted."""
    r = 0.5
    worst_ratio = 0.0
    for seed, t in _necessary_corpus(r, 500):
        passes, _ = norm_window(t, r)
        assert passes, f"norm window failed at seed {seed}"
        assert double_contraction_check(t, r), f"double contraction failed at seed {seed}"
        rep = vonneumann_stress(t, r, 2000, 1)
        assert rep.verdict is Verdict.PASSED_STRESS, f"stress refuted seed {seed}"
        worst_ratio = max(worst_ratio, rep.max_ratio)
    assert worst_ratio <= 1.0 + 1e-10

    t_ex = example_matrix(0.25)
    passes, norm = norm_window(t_ex, 0.25)
    assert passes and abs(norm - 1.0) <= 1e-12
    assert double_contraction_check(t_ex, 0.25)
    rep = vonneumann_stress(t_ex, 0.25, 2000, 1)
    w = williams_verdict(t_ex, 0.25)
    assert rep.verdict is Verdict.REFUTED or w is WilliamsVerdict.MINIMAL_DISK_REFUTATION
    report(
        2,
        True,
        f"500/500 normal instances passed (max ratio {worst_ratio:.12f}); "
        f"example matrix separated (stress={rep.verdict.value}, williams={w.value})",
    )


def test_criterion_3_involution_symmetry():
    """The involuted corpus passes the identical battery; the involution
    squares to the identity."""
    r = 0.5
    worst_ratio = 0.0
    worst_roundtrip = 0.0
    for seed, t in _necessary_corpus(r, 500):
        s = involution(t, r)
        passes, _ = norm_window(s, r)
        assert passes and double_contraction_check(s, r), f"necessary failed at seed {seed}"
        rep = vonneumann_stress(s, r, 2000, 1)
        assert rep.verdict is Verdict.PASSED_STRESS, f"stress refuted involution seed {seed}"
        worst_ratio = max(worst_ratio, rep.max_ratio)
        worst_roundtrip = max(worst_roundtrip, operator_norm(involution(s, r) - t))
    assert worst_ratio <= 1.0 + 1e-10
    assert worst_roundtrip <= 1e-12
    report(
        3,
        True,
        f"involuted corpus passed (max ratio {worst_ratio:.12f}, "
        f"roundtrip defect {worst_roundtrip:.2e})",
    )


def test_criterion_4_route_agreement():
    """Three calculus routes agree pairwise to 1e-8 on 100 seeded pairs and
    the measured series remainder stays below its certified bound."""
    r = 0.5
    worst_pair = 0.0
    remainder_ok = 0
    for seed in range(100):
        n = 3 + seed % 4
        rng = seeded_rng(seed, 41)
        moduli = 0.55 + 0.40 * rng.random(n)
        lams = moduli * np.exp(2j * np.pi * rng.random(n))
        q = random_unitary(n, 4000 + seed)
        t = (q * lams) @ q.conj().T
        f = random_function(r, 6000 + seed, max_roots=3)
        direct = eval_direct(f, t)
        order = laurent_order_for(f, 1e-10)
        series = eval_laurent(f, t, order)
        contour = eval_contour(f, t, ContourSpec(delta=0.05, nodes=512))
        scale = max(1.0, operator_norm(direct))
        d_ls = operator_norm(direct - series)
        d_lc = operator_norm(direct - contour)
        d_sc = operator_norm(series - contour)
        worst_pair = max(worst_pair, d_ls / scale, d_lc / scale, d_sc / scale)
        tail = rational.laurent_expand(f, order).tail_bound
        # allowance covers the roundoff of the measurement itself, which
        # dominates when the function is a polynomial and the bound is zero
        if d_ls <= tail + 64 * np.finfo(float).eps * scale:
            remainder_ok += 1
    assert worst_pair <= 1e-8
    assert remainder_ok == 100
    report(
        4,
        True,
        f"100/100 pairs agree (worst pairwise {worst_pair:.2e}); "
        f"remainders within bound {remainder_ok}/100",
    )


def test_criterion_5_ar_unitary_roundtrip():
    """200 conjugated block instances: projector recovery, route agreement
    and orthogonality."""
    r = 0.5
    shapes = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]
    worst_recovery = 0.0
    worst_routes = 0.0
    worst_ortho = 0.0
    for seed in range(200):
        k1, k2 = shapes[seed % len(shapes)]
        u1 = random_unitary(k1, 3 * seed + 1)
        u2 = random_unitary(k2, 3 * seed + 2)
        q = random_unitary(k1 + k2, 3 * seed + 3)
        t = q @ make_ar_unitary(u1, u2, r) @ q.conj().T
        dec = decompose(t, r)
        ref1 = q[:, :k1] @ q[:, :k1].conj().T
        worst_recovery = max(
            worst_recovery,
            operator_norm(dec.p1 - ref1),
            operator_norm(dec.p2 - (np.eye(k1 + k2) - ref1)),
        )
        m1, m2 = membership_subspaces(t, r, 2)
        worst_routes = max(
            worst_routes, operator_norm(dec.p1 - m1), operator_norm(dec.p2 - m2)
        )
        worst_ortho = max(worst_ortho, operator_norm(dec.p1 @ dec.p2))
    assert worst_recovery <= 1e-10
    assert worst_routes <= 1e-9
    assert worst_ortho <= 1e-10
    report(
        5,
        True,
        f"200/200 decompositions recovered (projector {worst_recovery:.2e}, "
        f"routes {worst_routes:.2e}, orthogonality {worst_ortho:.2e})",
    )


def _pair_corpus(count):
    from conftest import commuting_contraction_pair

    for seed in range(count):
        n = 2 + seed % 5
        yield seed, commuting_contraction_pair(n, seed)


def test_criterion_6_ando_degree_budget():
    """100 commuting contraction pairs at budget d=6, M=8: every word of
    total degree <= 6 compresses exactly; commutator vanishes on budget."""
    from annulus_lab.dilation import ando_pair

    worst_word = 0.0
    worst_comm = 0.0
    for seed, (t1, t2) in _pair_corpus(100):
        h = t1.shape[0]
        pair = ando_pair(t1, t2, 8)
        for length in range(7):
            for word in itertools.product((0, 1), repeat=length):
                x = pair.embed
                ref = np.eye(h, dtype=complex)
                for letter in reversed(word):
                    x = pair.apply_v1(x) if letter == 0 else pair.apply_v2(x)
                    ref = (t1 if letter == 0 else t2) @ ref
                worst_word = max(
                    worst_word, operator_norm(pair.embed.conj().T @ x - ref)
                )
        budget = np.eye(pair.dim, dtype=complex)[:, : pair.block_slice(pair.m - 1).stop]
        comm = pair.apply_v1(pair.apply_v2(budget)) - pair.apply_v2(pair.apply_v1(budget))
        worst_comm = max(worst_comm, operator_norm(comm))
    assert worst_word <= 1e-10
    assert worst_comm <= 1e-10
    report(
        6,
        True,
        f"100/100 pairs: words of degree <= 6 exact to {worst_word:.2e}, "
        f"budget commutator {worst_comm:.2e}",
    )


def _controlled_function(r, seed, budget, tail_cap):
    """Random function whose certified truncation bound fits the budget."""
    for attempt in range(50):
        f = random_function(
            r,
            seed * 100 + attempt,
            max_roots=3,
            alpha_window=(3.0, 4.0),
            beta_window_div=(8.0, 4.0),
            max_degree=2,
        )
        g1 = AnnulusRational(r=r, p_coeffs=(1.0,), q1_roots=f.q1_roots, scale=f.scale)
        g2 = AnnulusRational(r=r, p_coeffs=(1.0,), q2_roots=f.q2_roots)
        s1 = rational.laurent_expand(g1, budget)
        s2 = rational.laurent_expand(g2, budget)
        cp = float(np.sum(np.abs(f.p_coeffs)))
        sa = float(np.sum(np.abs(s1.factor_pos)))
        sb = float(np.sum(np.abs(s2.factor_neg) * r ** -np.arange(budget + 1.0)))
        bound = cp * (s1.tail_pos * (sb + s2.tail_neg) + sa * s2.tail_neg + s1.tail_pos * s2.tail_neg)
        if bound <= tail_cap:
            return f
    raise AssertionError("could not sample a function within the tail cap")


def test_criterion_7_main_model():
    """Two-carrier model: exact regime, budgeted regime, moments, flip."""
    # (a) exact regime: unitary and r-scaled-unitary inputs
    r = 0.7
    worst_exact = 0.0
    for k in range(100):
        seed = 9000 + k
        base = random_unitary(2 + k % 4, seed)
        t = base if k < 50 else r * base
        model = build_model(t, r, 24)
        for j in range(20):
            f = _controlled_function(r, seed * 20 + j, budget=24, tail_cap=1e-11)
            worst_exact = max(worst_exact, verify_model(model, t, f))
    assert worst_exact <= 1e-10

    # (b) budgeted regime at d=16 with functions certified below 1e-8,
    # (c) moment identities within the budget
    worst_budget = -np.inf
    worst_moment = 0.0
    for k in range(50):
        t = windowed_matrix(2 + k % 4, r, 7000 + k)
        model = build_model(t, r, 16)
        f = _controlled_function(r, 300 + k, budget=16, tail_cap=1e-8)
        rep = model.tail_report(f)
        assert rep["bound"] <= 1e-8
        residual = verify_model(model, t, f)
        worst_budget = max(worst_budget, residual - rep["bound"])
        worst_moment = max(worst_moment, verify_moments(model, t, 16))
    assert worst_budget <= 1e-8
    assert worst_moment <= 1e-10

    # (d) flip structure holds exactly
    t = windowed_matrix(2, r, 123)
    model = build_model(t, r, 4)
    f_mat, n_mat = model.f_matrix, model.n_matrix
    assert np.array_equal(f_mat, f_mat.conj().T)
    assert np.array_equal(f_mat @ f_mat, np.eye(f_mat.shape[0]))
    q2 = (1.0, -0.25, 0.1j)
    lhs = calculus.polyval_matrix(q2, f_mat @ n_mat @ f_mat)
    rhs = f_mat @ calculus.polyval_matrix(q2, n_mat) @ f_mat
    assert np.array_equal(lhs, rhs)
    report(
        7,
        True,
        f"exact regime residual {worst_exact:.2e}; budget excess {worst_budget:.2e}; "
        f"moments {worst_moment:.2e}; flip identities exact",
    )


def test_criterion_8_single_factor_special_cases():
    """Single-carrier verification for inner-only and outer-only functions."""
    r = 0.5
    worst = 0.0
    for seed in range(50):
        t = windowed_matrix(2 + seed % 3, r, 8000 + seed)
        g = random_function(r, 8100 + seed, max_roots=3, alpha_window=(2.5, 4.0), max_degree=2)
        g_outer = AnnulusRational(r=r, p_coeffs=g.p_coeffs, q1_roots=g.q1_roots)
        f = random_function(r, 8200 + seed, max_roots=3, beta_window_div=(8.0, 4.0))
        f_inner = AnnulusRational(r=r, p_coeffs=(1.0,), q2_roots=f.q2_roots)
        worst = max(
            worst,
            single_carrier_residual(t, r, g_outer, 28),
            single_carrier_residual(t, r, f_inner, 28),
        )
    assert worst <= 1e-10
    report(8, True, f"50/50 instances: single-carrier residual {worst:.2e}")
