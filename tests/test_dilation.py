import dataclasses
import functools
import itertools
import json
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from annulus_lab import cli, dilation, linalg, rational
from annulus_lab.calculus import eval_direct, polyval_matrix
from annulus_lab.certify import windowed_matrix
from annulus_lab.dilation import (
    AndoPair,
    ando_pair,
    build_model,
    egervary_dilation,
    moment_table,
    save_model,
    single_carrier_residual,
    verify_model,
    verify_moments,
)
from annulus_lab.errors import (
    BadRadius,
    BudgetExceeded,
    DimensionMismatch,
    InvalidRational,
    NotCommuting,
    NotContraction,
    NotContractions,
    NotInvertible,
    NotIsometric,
    NotSquare,
)
from annulus_lab.ar_unitary import is_ar_unitary
from annulus_lab.linalg import inverse, matrix_from_json, operator_norm, random_unitary, seeded_rng
from annulus_lab.rational import AnnulusRational, laurent_expand
from conftest import SHAPES, commuting_contraction_pair, random_function, shaped_function


def word_residual(pair, t1, t2, max_degree):
    """Worst compressed-moment defect over all words up to the given degree."""
    h = t1.shape[0]
    worst = 0.0
    for length in range(max_degree + 1):
        for word in itertools.product((0, 1), repeat=length):
            x = pair.embed
            ref = np.eye(h, dtype=complex)
            for letter in reversed(word):
                x = pair.apply_v1(x) if letter == 0 else pair.apply_v2(x)
                ref = (t1 if letter == 0 else t2) @ ref
            worst = max(worst, operator_norm(pair.embed.conj().T @ x - ref))
    return worst


def _ghat_matrix(pair):
    """Dense ``Ghat``: the identity on ``H``, ``g`` on every cell."""
    h = pair.dim_h
    ghat = np.eye(pair.dim, dtype=complex)
    ghat[h:, h:] = np.kron(np.eye(pair.m), pair.g)
    return ghat


def _dense_v1(pair):
    """Dense ``V1 = S1 Ghat``, assembled row-wise: the H row applies T1,
    the first cell receives D1, and every later cell copies the previous
    Ghat row block.  An independent reference for ``pair.apply_v1``."""
    h, n_dim = pair.dim_h, pair.dim
    v1 = np.zeros((n_dim, n_dim), dtype=complex)
    v1[0:h, 0:h] = pair.t1
    v1[h : 2 * h, 0:h] = pair.d1
    v1[2 * h :, :] = _ghat_matrix(pair)[h : n_dim - h, :]
    return v1


def _dense_v2(pair):
    """Dense ``V2 = Ghat* S2``, assembled column-wise.  An independent
    reference for ``pair.apply_v2``."""
    h, n_dim = pair.dim_h, pair.dim
    v2 = np.zeros((n_dim, n_dim), dtype=complex)
    v2[0:h, 0:h] = pair.t2
    v2[h : 3 * h, 0:h] = pair.g.conj().T[:, :h] @ pair.d2
    v2[:, h : n_dim - h] = _ghat_matrix(pair).conj().T[:, 2 * h :]
    return v2


class TestEgervary:
    def test_unitary_dilates_itself(self):
        lam = np.exp(0.7j)
        u, embed = egervary_dilation(np.array([[lam]]), 3)
        assert u.shape == (1, 1) and u[0, 0] == lam
        assert_allclose(embed, np.eye(1))

    def test_zero_contraction_brute_force(self):
        u, embed = egervary_dilation(np.array([[0.0]]), 2)
        assert u.shape == (3, 3)
        assert operator_norm(u.conj().T @ u - np.eye(3)) <= 1e-14
        for n in (1, 2):
            assert abs(np.linalg.matrix_power(u, n)[0, 0]) <= 1e-14

    def test_seeded_contraction_moments(self):
        t = windowed_matrix(3, 0.5, 5)
        u, embed = egervary_dilation(t, 4)
        assert operator_norm(u.conj().T @ u - np.eye(u.shape[0])) <= 1e-12
        power = np.eye(3, dtype=complex)
        upower = np.eye(u.shape[0], dtype=complex)
        for _ in range(5):
            assert operator_norm(embed.conj().T @ upower @ embed - power) <= 1e-12
            power = power @ t
            upower = upower @ u

    def test_rejects_expansion(self):
        with pytest.raises(NotContraction):
            egervary_dilation(2.0 * np.eye(2), 2)

    def test_a_non_square_matrix_is_not_square(self):
        with pytest.raises(NotSquare):
            egervary_dilation(np.zeros((2, 3)), 2)


# Just above norm one: 1 - ||T||^2 is about -2e-9, -6e-9 and -1.6e-8, so the
# first two defect operators clamp to zero within verify_tol = 1e-8 and the
# last cannot.
_NEAR_ONE = ((1 + 1e-9, True), (1 + 3e-9, True), (1 + 8e-9, False))


class TestJustAboveNormOne:
    """A ``T`` accepted as a contraction, ``||T|| <= 1 + verify_tol``, builds
    or raises a typed :class:`NotContraction`; ``I - T* T`` is then slightly
    indefinite."""

    @pytest.mark.parametrize("s, builds", _NEAR_ONE)
    def test_build_model(self, s, builds):
        t = s * random_unitary(3, 5)
        if not builds:
            with pytest.raises(NotContraction, match="T1 is not a contraction within verify_tol"):
                build_model(t, 0.5, 4)
            return
        model = build_model(t, 0.5, 4)
        f = AnnulusRational(r=0.5, p_coeffs=(1.0, 0.5), q1_roots=(2.0,), q2_roots=(0.1,))
        assert verify_model(model, t, f) <= model.tail_report(f)["bound"]
        assert verify_moments(model, t, 4) <= 1e-10

    @pytest.mark.parametrize("s, builds", _NEAR_ONE)
    def test_egervary_dilation(self, s, builds):
        t = s * random_unitary(3, 5)
        if not builds:
            with pytest.raises(NotContraction, match="T is not a contraction within verify_tol"):
                egervary_dilation(t, 4)
            return
        u, embed = egervary_dilation(t, 4)
        assert operator_norm(u.conj().T @ u - np.eye(u.shape[0])) <= 1e-8
        assert operator_norm(embed.conj().T @ u @ u @ embed - t @ t) <= 1e-12

    def test_a_pair_error_is_a_contraction_error(self):
        with pytest.raises(NotContraction):
            ando_pair(2 * np.eye(2), np.eye(2), 3)


class TestAndoPair:
    def test_a_non_square_matrix_is_not_square(self):
        for t1, t2 in [(np.zeros((2, 3)), np.zeros((2, 3))), (np.eye(2), np.zeros((2, 3))), (np.zeros((3, 2)), np.eye(2))]:
            with pytest.raises(NotSquare):
                ando_pair(t1, t2, 4)

    def test_square_matrices_of_unequal_size_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^T1 is 2x2, T2 is 3x3$"):
            ando_pair(0.5 * np.eye(2), 0.5 * np.eye(3), 4)

    def test_scalar_pair_oracle(self):
        a, b = 0.6, 0.3
        pair = ando_pair(np.array([[a]]), np.array([[b]]), 5)
        for m in range(5):
            for n in range(5 - m):
                x = pair.embed
                for _ in range(n):
                    x = pair.apply_v2(x)
                for _ in range(m):
                    x = pair.apply_v1(x)
                got = (pair.embed.conj().T @ x)[0, 0]
                assert abs(got - a**m * b**n) <= 1e-12

    def test_unitary_pair_moments(self):
        u = random_unitary(2, 3)
        pair = ando_pair(u, u, 4)
        x = pair.embed
        ref = np.eye(2, dtype=complex)
        for _ in range(3):
            x = pair.apply_v1(x)
            ref = u @ ref
        x = pair.apply_v2(x)
        ref = u @ ref
        assert operator_norm(pair.embed.conj().T @ x - ref) <= 1e-12

    def test_mixed_words_on_seeded_pairs(self):
        for seed in range(5):
            t1, t2 = commuting_contraction_pair(3, seed)
            pair = ando_pair(t1, t2, 6)
            assert word_residual(pair, t1, t2, 5) <= 1e-10

    def test_commutator_vanishes_on_budget_blocks(self):
        t1, t2 = commuting_contraction_pair(3, 9)
        pair = ando_pair(t1, t2, 6)
        budget = np.eye(pair.dim, dtype=complex)[:, : pair.block_slice(pair.m - 1).stop]
        comm = pair.apply_v1(pair.apply_v2(budget)) - pair.apply_v2(pair.apply_v1(budget))
        assert operator_norm(comm) <= 1e-10

    def test_isometry_on_budget_blocks(self):
        t1, t2 = commuting_contraction_pair(2, 4)
        pair = ando_pair(t1, t2, 5)
        budget = np.eye(pair.dim, dtype=complex)[:, : pair.block_slice(pair.m - 1).stop]
        for image in (pair.apply_v1(budget), pair.apply_v2(budget)):
            gram = image.conj().T @ image
            assert operator_norm(gram - np.eye(budget.shape[1])) <= 1e-12

    def test_operators_are_contractions(self):
        t1, t2 = commuting_contraction_pair(3, 6)
        pair = ando_pair(t1, t2, 4)
        assert operator_norm(_dense_v1(pair)) <= 1.0 + 1e-12
        assert operator_norm(_dense_v2(pair)) <= 1.0 + 1e-12

    def test_dense_matrices_match_structured_applies(self):
        t1, t2 = commuting_contraction_pair(2, 7)
        pair = ando_pair(t1, t2, 4)
        rng = seeded_rng(33)
        x = rng.standard_normal((pair.dim, 3)) + 1j * rng.standard_normal((pair.dim, 3))
        assert_allclose(_dense_v1(pair) @ x, pair.apply_v1(x), atol=1e-13)
        assert_allclose(_dense_v2(pair) @ x, pair.apply_v2(x), atol=1e-13)

    def test_chains_from_h_fill_every_occupied_block(self):
        # each cell holds only the two copies of H that the defects reach:
        # k steps from H fill 2kh rows under V1 and (2k + 1)h under V2,
        # capped at dim, with no zero h-row block among them
        for seed in range(3):
            t1, t2 = commuting_contraction_pair(3, 60 + seed)
            pair = ando_pair(t1, t2, 5)
            for step, extra in ((pair.apply_v1, 0), (pair.apply_v2, 3)):
                x = pair.embed
                for k in range(1, pair.m + 2):
                    x = step(x)
                    assert x.shape == (pair.dim, 3)
                    norms = np.linalg.norm(x.reshape(-1, 9), axis=1)
                    occupied = np.flatnonzero(norms)[-1] + 1
                    assert 3 * occupied == min(6 * k + extra, pair.dim)
                    assert np.all(norms[:occupied] > 1e-8)
                assert 3 * occupied == pair.dim

    @pytest.mark.parametrize("rows", ["vector", "h", "dim + 5"])
    def test_applies_take_stacks_of_dim_rows(self, rows):
        pair = ando_pair(*commuting_contraction_pair(3, 5), 4)
        x = {"vector": np.ones(pair.dim), "h": np.ones((3, 2)), "dim + 5": np.ones((pair.dim + 5, 2))}[rows]
        for step in (pair.apply_v1, pair.apply_v2):
            with pytest.raises(DimensionMismatch, match=f"^the carrier acts on {pair.dim}-row stacks"):
                step(x)

    def test_a_column_major_stack_gives_the_row_major_bits(self):
        t1, t2 = commuting_contraction_pair(4, 6)
        pair = ando_pair(t1, t2, 5)
        rng = seeded_rng(35)
        x = rng.standard_normal((pair.dim, 7)) + 1j * rng.standard_normal((pair.dim, 7))
        for step in (pair.apply_v1, pair.apply_v2):
            for image in (step(x), step(np.asfortranarray(x))):
                assert image.flags.c_contiguous
            assert step(np.asfortranarray(x)).tobytes() == step(x).tobytes()

    def test_fixup_unitary_intertwines_defect_families(self):
        t1, t2 = commuting_contraction_pair(3, 8)
        pair = ando_pair(t1, t2, 3)
        assert pair.g.shape == (6, 6)
        assert operator_norm(pair.g.conj().T @ pair.g - np.eye(6)) <= 1e-12
        rng = seeded_rng(44)
        h = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        u_vec = np.vstack([pair.d1 @ t2 @ h, pair.d2 @ h])
        v_vec = np.vstack([pair.d2 @ t1 @ h, pair.d1 @ h])
        assert operator_norm(pair.g @ u_vec - v_vec) <= 1e-10 * max(1.0, operator_norm(u_vec))

    def test_rejects_non_commuting(self):
        a = np.array([[0.0, 0.5], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [0.5, 0.0]])
        with pytest.raises(NotCommuting, match="carrier commutation defect"):
            ando_pair(a, b, 3)

    def test_rejects_expansive_pair(self):
        with pytest.raises(NotContractions):
            ando_pair(2 * np.eye(2), np.eye(2), 3)


class TestModelStructure:
    def test_flip_is_selfadjoint_involution_exactly(self):
        t = windowed_matrix(2, 0.5, 3)
        model = build_model(t, 0.5, 3)
        f_mat = model.f_matrix
        assert np.array_equal(f_mat, f_mat.conj().T)
        assert np.array_equal(f_mat @ f_mat, np.eye(f_mat.shape[0]))

    def test_flip_swaps_carrier_blocks_exactly(self):
        t = windowed_matrix(2, 0.5, 4)
        model = build_model(t, 0.5, 3)
        n_mat, f_mat = model.n_matrix, model.f_matrix
        fnf = f_mat @ n_mat @ f_mat
        k = model.pair.dim
        assert np.array_equal(fnf[:k, :k], n_mat[k:, k:])
        assert np.array_equal(fnf[k:, k:], n_mat[:k, :k])

    def test_inner_polynomial_flip_identity_exact(self):
        # q2(F N F) = F q2(N) F as dense matrices
        t = windowed_matrix(2, 0.5, 5)
        model = build_model(t, 0.5, 3)
        q2 = (1.0, -0.3, 0.05j)
        n_mat, f_mat = model.n_matrix, model.f_matrix
        lhs = polyval_matrix(q2, f_mat @ n_mat @ f_mat)
        rhs = f_mat @ polyval_matrix(q2, n_mat) @ f_mat
        assert np.array_equal(lhs, rhs)

    def test_embedding_is_isometric(self):
        t = windowed_matrix(3, 0.5, 6)
        model = build_model(t, 0.5, 4)
        v = model.v_matrix
        assert operator_norm(v.conj().T @ v - np.eye(3)) <= 1e-12
        e = model.pair.embed
        assert operator_norm(e.conj().T @ e - np.eye(3)) <= 1e-12

    @pytest.mark.parametrize("h, d", [(2, 3), (3, 6)])
    def test_n_matrix_is_the_dense_assembly(self, h, d):
        model = build_model(windowed_matrix(h, 0.5, 7 + h), 0.5, d)
        k = model.pair.dim
        n_mat = model.n_matrix
        assert_allclose(n_mat[:k, :k], _dense_v1(model.pair), rtol=0, atol=1e-13)
        assert_allclose(n_mat[k:, k:], _dense_v2(model.pair), rtol=0, atol=1e-13)
        assert not n_mat[:k, k:].any() and not n_mat[k:, :k].any()


class TestVerifyModel:
    @pytest.mark.parametrize("r", [0.25, 0.5, 0.81])
    def test_the_report_bound_is_the_denominator_bound_times_the_numerator_sum(self, r):
        # one product-tail formula: the expansion of 1/(scale q1 q2) at d,
        # times sum |p_k|, bit for bit
        t = windowed_matrix(3, r, 3)
        for d in (1, 8, 64):
            model = build_model(t, r, d)
            for k, shape in enumerate(SHAPES):
                f = shaped_function(r, 6600 + k, shape)
                denominator = laurent_expand(dataclasses.replace(f, p_coeffs=(1.0,)), d)
                want = float(np.sum(np.abs(f.p_coeffs))) * denominator.tail_bound
                assert model.tail_report(f)["bound"] == want, (shape, d)

    def test_identity_function(self):
        t = windowed_matrix(3, 0.5, 11)
        model = build_model(t, 0.5, 4)
        f = AnnulusRational(r=0.5, p_coeffs=(0.0, 1.0))
        assert verify_model(model, t, f) <= 1e-12

    def test_unitary_exact_regime(self):
        t = random_unitary(3, 21)
        model = build_model(t, 0.5, 24)
        for seed in range(5):
            f = random_function(0.5, 900 + seed, alpha_window=(2.5, 4.0), beta_window_div=(8.0, 4.0))
            residual = verify_model(model, t, f)
            report = model.tail_report(f)
            assert residual <= report["bound"] + 1e-10

    def test_polynomial_function_cross_checked_with_power_dilation(self):
        t = windowed_matrix(3, 0.5, 13)
        model = build_model(t, 0.5, 6)
        f = AnnulusRational(r=0.5, p_coeffs=(0.5, -0.2, 0.1j, 0.3))
        assert verify_model(model, t, f) <= 1e-10
        assert single_carrier_residual(t, 0.5, f, 6) <= 1e-10

    def test_budgeted_regime_within_certified_bound(self):
        for seed in range(5):
            t = windowed_matrix(3, 0.7, 40 + seed)
            model = build_model(t, 0.7, 16)
            f = random_function(
                0.7, 950 + seed, max_roots=2, alpha_window=(3.2, 4.0), beta_window_div=(8.0, 4.0)
            )
            residual = verify_model(model, t, f)
            report = model.tail_report(f)
            assert residual <= report["bound"] + 1e-8

    def test_residual_stabilizes_within_tail_budget(self):
        # re-running at a deeper budget moves the residual by at most the
        # certified bound of the shallow run, across 100 seeded trials
        for seed in range(100):
            t = windowed_matrix(2 + seed % 2, 0.7, 6000 + seed)
            f = random_function(
                0.7, 960 + seed, max_roots=2, alpha_window=(2.5, 4.0), beta_window_div=(8.0, 4.0)
            )
            shallow = build_model(t, 0.7, 10)
            deep = build_model(t, 0.7, 20)
            r_shallow = verify_model(shallow, t, f)
            r_deep = verify_model(deep, t, f)
            assert abs(r_shallow - r_deep) <= shallow.tail_report(f)["bound"] + 1e-12

    def test_inner_weights_stay_finite_at_a_small_radius(self):
        # r^-m overflows from m = 155 on while b_m = 0.009^(m-1) underflows;
        # their product 100 * 0.9^(m-1) does neither
        t = windowed_matrix(2, 0.01, 3)
        model = build_model(t, 0.01, 160)
        f = AnnulusRational(r=0.01, p_coeffs=(1.0,), q2_roots=(0.009,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residual = verify_model(model, t, f)
        assert np.isfinite(residual)
        assert residual <= model.tail_report(f)["bound"]

    def test_the_tail_report_and_the_residual_read_one_build(self, monkeypatch):
        expands, builds = [], []
        monkeypatch.setattr(
            rational, "laurent_expand", lambda *args: expands.append(args) or laurent_expand(*args)
        )
        build = rational._build_series
        monkeypatch.setattr(rational, "_build_series", lambda *args: builds.append(args) or build(*args))
        t = windowed_matrix(3, 0.7, 45)
        model = build_model(t, 0.7, 8)
        f = random_function(0.7, 955, max_roots=2, alpha_window=(3.2, 4.0), beta_window_div=(8.0, 4.0))
        denominator = dataclasses.replace(f, p_coeffs=(1.0,))
        rational._series_memo.cache_clear()
        model.tail_report(f)
        # the series of 1/(scale q1 q2), at the model's budget, built once
        assert expands == [(denominator, model.d)] and [g for g, _ in builds] == [denominator]
        verify_model(model, t, f)
        # the residual reads the same expansion, a prefix of that build
        assert expands == [(denominator, model.d)] * 2 and len(builds) == 1

    @pytest.mark.parametrize("d", [1, 5, 12, 24, 160])
    def test_one_expansion_equals_the_factor_pair(self, d):
        r = 0.7
        fs = [random_function(r, 1300 + seed, max_roots=3, max_degree=5) for seed in range(12)]
        fs += [
            # deg p > #q2, no q1, no q2, neither, repeated and zero roots
            AnnulusRational(r=r, p_coeffs=(1.0, 0.2, -0.3j, 0.5), q1_roots=(2.0,), q2_roots=(0.1,)),
            AnnulusRational(r=r, p_coeffs=(0.5, 1.0j), q2_roots=(0.3, -0.2j)),
            AnnulusRational(r=r, p_coeffs=(1.0, 0.0, 2.0), q1_roots=(1.5, -3.0j), scale=2.0 - 1.0j),
            AnnulusRational(r=r, p_coeffs=(1.0, 0.4), scale=0.5j),
            AnnulusRational(r=r, p_coeffs=(1.0,), q1_roots=(1.2, 1.2), q2_roots=(0.5, 0.5, 0.0)),
        ]
        for f in fs:
            one = dilation._model_series(SimpleNamespace(r=r, d=d), f)
            outer, inner = _factor_pair(f, d)
            assert np.array_equal(one.factor_pos, outer.factor_pos)
            assert one.tail_pos == outer.tail_pos
            assert np.array_equal(one.factor_neg, inner.factor_neg)
            assert np.array_equal(one.factor_neg_scaled, inner.factor_neg_scaled)
            assert one.tail_neg == inner.tail_neg
            assert np.array_equal(one.tail_models[1].exact[: d + 1], inner.tail_models[1].exact[: d + 1])

    def test_default_budget_rule(self):
        from annulus_lab.dilation import default_budget
        from annulus_lab.rational import laurent_order_for

        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(3.0,), q2_roots=(0.1,))
        assert default_budget(f) == min(2 * laurent_order_for(f, 1e-10), 24)
        slow = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(1.05,))
        assert default_budget(slow) == 24  # capped
        # the early exit at a binding cap agrees with the full search, for an
        # odd and an even cap, over acceptance criterion 4's corpus
        for seed in range(100):
            f = random_function(0.5, 6000 + seed, max_roots=3)
            order = laurent_order_for(f, 1e-10)
            for cap in (23, 24):
                assert default_budget(f, cap=cap) == min(2 * order, cap)

    def test_default_budget_expands_nothing(self, monkeypatch):
        # the cap probe reads the memo's tail bound, laurent_expand's bits
        expands = []
        monkeypatch.setattr(rational, "laurent_expand", lambda *args: expands.append(args) or laurent_expand(*args))
        for f in (
            AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(1.05,)),
            AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(3.0,), q2_roots=(0.1,)),
        ):
            budget = dilation.default_budget(f)
            assert (budget == 24) is (not laurent_expand(f, 11).tail_bound <= 1e-10)
        assert expands == []

    def test_a_cap_past_the_order_search_s_leaves_the_answer_to_it(self):
        # the cap probe would build the series to order 5 * 10**8 - 1
        f = AnnulusRational(r=0.5, p_coeffs=(0.3, 1.0), q1_roots=(2.5,), q2_roots=(0.1,))
        assert dilation.default_budget(f, 1e-10, 10**9) == 52
        assert dilation.default_budget(f, 1e-10, 100) == 52 == 2 * rational.laurent_order_for(f, 1e-10)
        slow = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(1 + 1e-12,))
        with pytest.raises(BudgetExceeded, match="within order 4096"):
            dilation.default_budget(slow, 1e-10, 10**9)
        # a function that needs an order near 30000: the probe at order 4096
        # still returns the cap; one order further, the search raises
        mid = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(1.001,))
        assert dilation.default_budget(mid, 1e-10, 8194) == 8194
        for cap in (8195, 10000):
            with pytest.raises(BudgetExceeded, match="within order 4096"):
                dilation.default_budget(mid, 1e-10, cap)

    def test_an_unbounded_tail_reports_an_infinite_bound(self):
        # a sixfold root at 1 + 1e-12: the outer tail is inf, the inner 0
        f = AnnulusRational(r=0.5, q1_roots=(1 + 1e-12,) * 6)
        model = build_model(windowed_matrix(3, 0.5, 3), 0.5, 4)
        assert model.tail_report(f) == {"q1_tail": np.inf, "q2_tail": 0.0, "bound": np.inf}

    def test_a_numerator_whose_modulus_sum_overflows_reports_an_infinite_bound(self):
        # sum |p| is inf and the tails are 0, where the product reads NaN
        f = AnnulusRational(r=0.5, p_coeffs=(1e308, 1e308))
        model = build_model(windowed_matrix(3, 0.5, 3), 0.5, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.tail_report(f) == {"q1_tail": 0.0, "q2_tail": 0.0, "bound": np.inf}


def _factor_pair(f, d):
    """Laurent series of ``1/(scale q1)`` and of ``1/q2`` at order ``d``,
    each expanded on its own: the outer factor in the first series'
    ``factor_pos``, the inner one in the second's ``factor_neg``."""
    outer = laurent_expand(AnnulusRational(r=f.r, q1_roots=f.q1_roots, scale=f.scale), d)
    inner = laurent_expand(AnnulusRational(r=f.r, q2_roots=f.q2_roots), d)
    return outer, inner


def _dense_model_rhs(model, f):
    """``V* p(N) q1(N)^-1 q2(FNF)^-1 V`` from the dense ``N``, ``F``, ``V``,
    with both factor inverses truncated at the model's budget."""
    n_mat, f_mat, v_mat = model.n_matrix, model.f_matrix, model.v_matrix
    fnf = f_mat @ n_mat @ f_mat
    outer_series, inner_series = _factor_pair(f, model.d)
    outer, inner = outer_series.factor_pos, inner_series.factor_neg
    x = sum(
        b * model.r ** (-k) * np.linalg.matrix_power(fnf, k) @ v_mat for k, b in enumerate(inner)
    )
    x = sum(u * np.linalg.matrix_power(n_mat, k) @ x for k, u in enumerate(outer))
    x = polyval_matrix(f.p_coeffs, n_mat) @ x
    return v_mat.conj().T @ x


class TestFlipRoute:
    @pytest.mark.parametrize("h", [2, 3])
    @pytest.mark.parametrize("d", [3, 6])
    def test_structured_residual_matches_dense_model(self, h, d):
        r = 0.6
        t = windowed_matrix(h, r, 30 + h + d)
        model = build_model(t, r, d)
        f = AnnulusRational(
            r=r, p_coeffs=(0.4, -0.3j, 0.2), q1_roots=(2.0 + 1.0j, -2.5), q2_roots=(0.2j, -0.15)
        )
        dense_rhs = _dense_model_rhs(model, f)
        dense = float(np.max(np.linalg.norm(eval_direct(f, t) - dense_rhs, axis=0)))
        assert abs(verify_model(model, t, f) - dense) <= 1e-12

    @pytest.mark.parametrize("h", [2, 3])
    @pytest.mark.parametrize("d", [3, 6])
    def test_flipped_powers_are_the_second_carrier_over_zeros(self, h, d):
        t = windowed_matrix(h, 0.6, 40 + h + d)
        model = build_model(t, 0.6, d)
        pair = model.pair
        fnf = model.f_matrix @ model.n_matrix @ model.f_matrix
        dense, lean = model.v_matrix, pair.embed
        for _ in range(d + 1):
            assert_allclose(dense, np.vstack([lean, np.zeros_like(lean)]), rtol=0, atol=1e-12)
            dense, lean = fnf @ dense, pair.apply_v2(lean)


class TestLeanCarrier:
    F = AnnulusRational(
        r=0.7, p_coeffs=(0.5, 0.2j, -0.1), q1_roots=(2.0, -1.8j), q2_roots=(0.3, 0.25j)
    )

    def test_model_at_h20_d24_stays_in_small_memory(self):
        # the dense V1, V2 and Ghat alone would take 50 MB here, each 16.6 MB
        t = windowed_matrix(20, 0.7, 3)
        tracemalloc.start()
        try:
            model = build_model(t, 0.7, 24)
            residual = verify_model(model, t, self.F)
            moments = verify_moments(model, t, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert residual <= model.tail_report(self.F)["bound"] + 1e-8
        assert moments <= 1e-10


def _reference_series_apply(apply_op, coeffs, x):
    """``sum_k coeffs[k] Op^k x``, rebuilding the power chain on every call."""
    nonzero = np.flatnonzero(coeffs)
    last = nonzero[-1] if nonzero.size else 0
    acc = coeffs[0] * x
    cur = x
    for c in coeffs[1 : last + 1]:
        cur = apply_op(cur)
        if c != 0:
            acc = acc + c * cur
    return acc


def _reference_residual(model, t, f):
    """:func:`verify_model` on the carrier: power chains of the structured
    ``V1``/``V2`` applies, compressed to ``H`` at the end, and the two factor
    series expanded on their own."""
    pair = model.pair
    s1, s2 = _factor_pair(f, model.d)
    y = _reference_series_apply(pair.apply_v2, s2.factor_neg_scaled, pair.embed)
    z = _reference_series_apply(pair.apply_v1, s1.factor_pos, y)
    w = _reference_series_apply(pair.apply_v1, np.array(f.p_coeffs, dtype=complex), z)
    rhs = pair.embed.conj().T @ w
    return float(np.max(np.linalg.norm(eval_direct(f, t) - rhs, axis=0)))


def _reference_moment_rows(model, t, j_max):
    """``(forward, inverse)`` moment residuals from carrier power chains and
    one :func:`operator_norm` per entry."""
    pair, h = model.pair, model.pair.dim_h
    e, inv = pair.embed, inverse(t)
    x1 = x2 = e
    pow_pos = pow_neg = np.eye(h, dtype=complex)
    rows = []
    for j in range(j_max + 1):
        rows.append(
            (
                operator_norm(e.conj().T @ x1 - pow_pos),
                operator_norm(model.r ** (-j) * (e.conj().T @ x2) - pow_neg),
            )
        )
        x1, x2 = pair.apply_v1(x1), pair.apply_v2(x2)
        pow_pos, pow_neg = pow_pos @ t, pow_neg @ inv
    return rows


class TestSharedInnerChain:
    """One model serves every function it verifies and the moments, in any
    order; nothing it returns may differ from per-call carrier chains."""

    F = TestLeanCarrier.F

    @pytest.mark.parametrize("h", [2, 3, 6])
    @pytest.mark.parametrize(
        "order", [("verify", "moments", "verify"), ("moments", "verify")], ids=["vmv", "mv"]
    )
    def test_outputs_equal_per_call_chains(self, h, order):
        r, d = 0.7, 12
        t = windowed_matrix(h, r, 90 + h)
        model = build_model(t, r, d)
        fs = [self.F] + [
            random_function(
                r, 700 + 10 * h + k, max_roots=2, alpha_window=(2.0, 4.0), beta_window_div=(8.0, 2.0)
            )
            for k in range(3)
        ]
        residuals = [_reference_residual(model, t, f) for f in fs]
        rows = _reference_moment_rows(model, t, d)
        for step in order:
            if step == "verify":
                for f, expected in zip(fs, residuals):
                    assert np.array_equal(verify_model(model, t, f), expected)
            else:
                # a shorter table reads a prefix of the chain
                for j_max in (d // 2, d):
                    table = moment_table(model, t, j_max)
                    got = [(row["forward_residual"], row["inverse_residual"]) for row in table]
                    assert np.array_equal(np.array(got), np.array(rows[: j_max + 1]))


class TestRowsOfH:
    """``verify_model`` and ``moment_table`` form only the rows of ``H``:
    ``T1^k`` and ``T2^m`` in place of ``V1^k`` and ``V2^m``, with the carrier
    checked through its generators."""

    F = TestLeanCarrier.F

    @staticmethod
    def _operator(kind, h, r, seed):
        if kind == "windowed":
            return windowed_matrix(h, r, seed)
        return random_unitary(h, seed) * (1.0 if kind == "unitary" else r)

    def test_checks_make_no_carrier_apply(self, monkeypatch):
        calls = []
        for name in ("apply_v1", "apply_v2"):
            monkeypatch.setattr(AndoPair, name, lambda self, x, name=name: calls.append(name))
        d = 10
        t = windowed_matrix(3, 0.7, 4)
        model = build_model(t, 0.7, d)
        verify_model(model, t, self.F)
        verify_model(model, t, AnnulusRational(r=0.7, p_coeffs=(1.0,), q2_roots=(0.1, -0.2j)))
        moment_table(model, t, d)
        verify_moments(model, t, d // 2)
        assert calls == []

    @pytest.mark.parametrize("kind", ["windowed", "unitary", "r-unitary"])
    @pytest.mark.parametrize("d", [1, 12, 24, 122])
    @pytest.mark.parametrize("h", [2, 3, 6, 16])
    def test_outputs_equal_the_carrier_route(self, h, d, kind):
        r = 0.7
        t = self._operator(kind, h, r, 500 + 7 * h + d)
        model = build_model(t, r, d)
        fs = [self.F] + [
            random_function(
                r, 760 + h + d + k, max_roots=2, alpha_window=(2.0, 4.0), beta_window_div=(8.0, 2.0)
            )
            for k in range(2 if d * h < 1000 else 1)
        ]
        for f in fs:
            assert np.array_equal(verify_model(model, t, f), _reference_residual(model, t, f))
        got = [(row["forward_residual"], row["inverse_residual"]) for row in moment_table(model, t, d)]
        assert np.array_equal(np.array(got), np.array(_reference_moment_rows(model, t, d)))

    def test_model_at_h16_d122_stays_in_small_memory(self):
        # the stored chain of V2^k e alone took 62 MB here
        r, h, d = 0.7, 16, 122
        t = windowed_matrix(h, r, 3)
        fs = [self.F] + [random_function(r, 780 + k, max_roots=2, alpha_window=(2.0, 4.0)) for k in range(3)]
        tracemalloc.start()
        try:
            model = build_model(t, r, d)
            residuals = [verify_model(model, t, f) for f in fs]
            moment_table(model, t, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        for f, residual in zip(fs, residuals):
            assert residual <= model.tail_report(f)["bound"] + 1e-8

    @pytest.mark.parametrize("part", ["g", "d1", "d2", "t1", "t2"])
    @pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3])
    def test_dense_defects_follow_the_generator_check(self, part, eps):
        t1, t2 = commuting_contraction_pair(3, 12)
        pair = ando_pair(t1, t2, 5)
        rng = seeded_rng(13, len(part), int(-np.log10(eps)))
        shape = getattr(pair, part).shape
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        bad = dataclasses.replace(pair, **{part: getattr(pair, part) + eps * noise / operator_norm(noise)})
        check = max(value for name, value in bad.generator_defects.items() if name != "scale")
        assert check >= eps / 10

        def dense_defects(p):
            budget = np.eye(p.dim, dtype=complex)[:, : p.block_slice(p.m - 1).stop]
            v1, v2 = _dense_v1(p), _dense_v2(p)
            isometry = max(
                operator_norm(image.conj().T @ image - np.eye(budget.shape[1]))
                for image in (v1 @ budget, v2 @ budget)
            )
            return isometry, operator_norm((v1 @ v2 - v2 @ v1) @ budget)

        for moved, base in zip(dense_defects(bad), dense_defects(pair)):
            assert abs(moved - base) <= 4 * check


class TestModelArguments:
    """The model API rejects arguments it cannot give a meaningful answer for."""

    @pytest.mark.parametrize(
        "f",
        [
            AnnulusRational(r=0.3, p_coeffs=(1.0, 0.2), q1_roots=(3.0,), q2_roots=(0.1,)),
            AnnulusRational(r=0.3, p_coeffs=(1.0, 0.2), q1_roots=(3.0,)),
        ],
        ids=["inner-roots", "no-inner-roots"],
    )
    def test_function_on_another_radius_is_rejected(self, f):
        t = windowed_matrix(2, 0.5, 21)
        model = build_model(t, 0.5, 6)
        with pytest.raises(InvalidRational, match="mismatched radii"):
            verify_model(model, t, f)
        with pytest.raises(InvalidRational, match="mismatched radii"):
            model.tail_report(f)

    def test_another_matrix_of_the_same_size_is_rejected(self):
        model = build_model(windowed_matrix(3, 0.5, 4), 0.5, 16)
        other = windowed_matrix(3, 0.5, 5)
        f = AnnulusRational(r=0.5, p_coeffs=(0.3, 1.0), q1_roots=(2.5,), q2_roots=(0.1,))
        for call in (
            lambda: verify_model(model, other, f),
            lambda: moment_table(model, other, 4),
            lambda: verify_moments(model, other, 4),
        ):
            with pytest.raises(DimensionMismatch, match="not the model's T"):
                call()
        # the model's own T, as any array of the same entries, is accepted
        same = np.asfortranarray(windowed_matrix(3, 0.5, 4))
        assert verify_model(model, same, f) <= model.tail_report(f)["bound"] + 1e-8
        assert verify_moments(model, same.tolist(), 4) <= 1e-10

    def test_a_matrix_changed_after_the_build_is_not_the_model_s(self):
        t = windowed_matrix(3, 0.5, 4)
        model = build_model(t, 0.5, 16)
        t[0, 1] += 0.3
        f = AnnulusRational(r=0.5, p_coeffs=(0.3, 1.0), q1_roots=(2.5,), q2_roots=(0.1,))
        with pytest.raises(DimensionMismatch, match="not the model's T"):
            verify_model(model, t, f)
        # the model keeps its own read-only copy of T
        assert not np.array_equal(model.pair.t1, t)
        with pytest.raises(ValueError, match="read-only"):
            model.pair.t1[0, 1] = 0.0
        assert verify_model(model, windowed_matrix(3, 0.5, 4), f) <= model.tail_report(f)["bound"] + 1e-8

    @pytest.mark.parametrize("d", [2.5, 3.0, True, np.bool_(True), "4", 0, -2])
    def test_budget_that_is_not_a_positive_integer_is_rejected(self, d):
        with pytest.raises(ValueError, match="degree budget"):
            build_model(0.5 * np.eye(2), 0.5, d)

    @pytest.mark.parametrize("d", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_budget_is_accepted(self, d):
        assert build_model(0.5 * np.eye(2), 0.5, d).d == 3

    # every other function that takes a degree budget or a block depth
    _INTEGER_CALLS = {
        "egervary_dilation": lambda d: egervary_dilation(0.5 * np.eye(2), d),
        "ando_pair": lambda d: ando_pair(0.5 * np.eye(2), np.eye(2), d),
        "single_carrier_residual": lambda d: single_carrier_residual(
            0.5 * np.eye(2), 0.5, AnnulusRational(r=0.5, p_coeffs=(1.0, 0.2), q1_roots=(3.0,)), d
        ),
        "moment_table": lambda d: moment_table(build_model(0.5 * np.eye(2), 0.5, 4), 0.5 * np.eye(2), d),
    }

    @pytest.mark.parametrize("d", [2.5, 3.0, True, np.bool_(True), "4"])
    @pytest.mark.parametrize("name", sorted(_INTEGER_CALLS))
    def test_depth_that_is_not_an_integer_is_rejected(self, name, d):
        with pytest.raises(ValueError, match="must be an integer"):
            self._INTEGER_CALLS[name](d)

    @pytest.mark.parametrize("name", sorted(_INTEGER_CALLS))
    def test_numpy_integer_depth_gives_the_int_result(self, name):
        call = self._INTEGER_CALLS[name]
        assert repr(call(np.int64(3))) == repr(call(3))

    @pytest.mark.parametrize("cap", [True, np.bool_(True), 0, -3, 24.0, 2.5, "24"])
    def test_default_budget_rejects_a_cap_that_is_not_a_positive_integer(self, cap):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(3.0,), q2_roots=(0.1,))
        with pytest.raises(ValueError, match="^cap must be"):
            dilation.default_budget(f, cap=cap)

    @pytest.mark.parametrize("cap", [np.int64(24), np.int32(1), np.uint8(7)])
    def test_default_budget_takes_a_numpy_integer_cap(self, cap):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(3.0,), q2_roots=(0.1,))
        budget = dilation.default_budget(f, cap=cap)
        assert type(budget) is int and budget == dilation.default_budget(f, cap=int(cap))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10])
    def test_default_budget_rejects_a_tolerance_that_is_not_finite_and_positive(self, tol):
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(3.0,), q2_roots=(0.1,))
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            dilation.default_budget(f, tol=tol)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_default_budget_validates_the_function_at_every_cap(self, cap):
        # an outer-factor root inside the unit disk: a cap of 1 or 2 once
        # returned the cap before anything read f
        f = AnnulusRational(r=0.5, q1_roots=(0.5,))
        with pytest.raises(InvalidRational):
            dilation.default_budget(f, cap=cap)

    @pytest.mark.parametrize("r", [0.0, -0.5, 1.0, float("nan")])
    def test_radius_outside_the_unit_interval_is_rejected(self, r):
        with pytest.raises(BadRadius):
            build_model(0.5 * np.eye(2), r, 4)

    def test_negative_moment_degree_is_rejected(self):
        t = windowed_matrix(2, 0.5, 22)
        model = build_model(t, 0.5, 4)
        with pytest.raises(ValueError, match="j_max must be >= 0"):
            moment_table(model, t, -1)
        with pytest.raises(ValueError, match="j_max must be >= 0"):
            verify_moments(model, t, -1)

    def test_matrix_of_another_size_is_rejected(self):
        model = build_model(windowed_matrix(2, 0.5, 23), 0.5, 4)
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q1_roots=(2.0,), q2_roots=(0.1,))
        for other in (windowed_matrix(3, 0.5, 24), np.ones((2, 3))):
            with pytest.raises(DimensionMismatch):
                verify_model(model, other, f)
            with pytest.raises(DimensionMismatch):
                moment_table(model, other, 2)


class TestBrokenCarrier:
    @pytest.mark.parametrize("h", [3, 4, 16])
    def test_checks_see_a_corrupted_carrier(self, h):
        # P_H V_i = T_i P_H for any fix-up unitary and defects, so the rows of
        # H alone cannot see this; the generator check must
        r, d = 0.7, 24
        t = windowed_matrix(h, r, 80 + h)
        model = build_model(t, r, d)
        rng = seeded_rng(h, 81)
        pair = model.pair
        broken = dataclasses.replace(
            model,
            pair=dataclasses.replace(
                pair,
                g=5 * rng.standard_normal(pair.g.shape),
                d1=rng.standard_normal(pair.d1.shape),
                d2=rng.standard_normal(pair.d2.shape),
            ),
        )
        f = random_function(r, 740, max_roots=2, alpha_window=(2.0, 4.0))
        verify_model(model, t, f)
        moment_table(model, t, d)
        with pytest.raises(NotIsometric, match="carrier unitarity defect"):
            verify_model(broken, t, f)
        with pytest.raises(NotIsometric, match="carrier unitarity defect"):
            moment_table(broken, t, d)

    @pytest.mark.parametrize(
        "part, error, name",
        [("d1", NotIsometric, "isometry_1"), ("d2", NotIsometric, "isometry_2"), ("g", NotCommuting, "intertwining")],
    )
    def test_each_generator_defect_raises_its_error(self, part, error, name):
        # scaled defects break one staircase's isometry; a rotated fix-up
        # unitary stays unitary but no longer intertwines
        r, d = 0.7, 6
        t = windowed_matrix(3, r, 83)
        model = build_model(t, r, d)
        pair = model.pair
        value = pair.g @ random_unitary(6, 84) if part == "g" else 0.9 * getattr(pair, part)
        broken = dataclasses.replace(model, pair=dataclasses.replace(pair, **{part: value}))
        with pytest.raises(error, match=f"carrier {name} defect"):
            verify_model(broken, t, TestLeanCarrier.F)
        with pytest.raises(error, match=f"carrier {name} defect"):
            moment_table(broken, t, d)


class TestConcurrentUse:
    def test_threads_on_one_fresh_model_match_a_sequential_run(self):
        r, d, h = 0.7, 12, 4
        t = windowed_matrix(h, r, 31)
        fs = [TestLeanCarrier.F] + [
            random_function(r, 720 + k, max_roots=2, alpha_window=(2.0, 4.0), beta_window_div=(8.0, 2.0))
            for k in range(3)
        ]

        def run(model, moments_first=False):
            def table():
                rows = moment_table(model, t, d)
                return np.array([(row["forward_residual"], row["inverse_residual"]) for row in rows])

            first = table() if moments_first else None
            residuals = np.array([verify_model(model, t, f) for f in fs])
            return residuals, first if moments_first else table()

        expected = run(build_model(t, r, d))
        model = build_model(t, r, d)
        start = threading.Barrier(4)

        def worker(i):
            start.wait()
            # half the threads start with the moments
            return run(model, moments_first=i % 2 == 1)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(worker, range(4)))
        for residuals, rows in results:
            assert np.array_equal(residuals, expected[0]) and np.array_equal(rows, expected[1])


class TestOneAnalysisPerModel:
    def test_a_model_session_analyses_its_matrix_and_expands_each_denominator_once(self, monkeypatch):
        r, h = 0.7, 4
        t = windowed_matrix(h, r, 77)
        fs = [random_function(r, 780 + k, max_roots=2, alpha_window=(1.3, 3.0), beta_window_div=(4.0, 1.5)) for k in range(4)]
        counts = {"eigvals": 0, "zgees": 0, "inverse": 0, "svd": 0, "denominator": 0}
        eigvals, solve, svd, schur = np.linalg.eigvals, np.linalg.solve, np.linalg.svd, linalg._schur_triangle
        build = rational._build_denominator

        def counting_solve(a, b):
            counts["inverse"] += np.array_equal(a, t) and np.array_equal(b, np.eye(h))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "eigvals", lambda a: counts.update(eigvals=counts["eigvals"] + 1) or eigvals(a))
        def counting_svd(a, *args, **kwargs):
            counts["svd"] += np.array_equal(a, t)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(linalg, "_schur_triangle", lambda m: counts.update(zgees=counts["zgees"] + 1) or schur(m))
        monkeypatch.setattr(
            rational, "_build_denominator", lambda f, n: counts.update(denominator=counts["denominator"] + 1) or build(f, n)
        )
        linalg._analysis_memo.cache_clear()
        rational._series_memo.cache_clear()
        # the dilation model's session: budget, model, four checks, moments
        d = max(dilation.default_budget(f) for f in fs)
        model = build_model(t, r, d)
        for f in fs:
            assert np.isfinite(model.tail_report(f)["bound"])
            assert np.isfinite(verify_model(model, t, f))
        assert verify_moments(model, t, d) <= 1e-10
        # the model, the pair's generator check and each T-check read one
        # analysis of T: one SVD of T, whose singular values settle every
        # root of the checks, so no spectrum and no Schur form
        assert counts == {"eigvals": 0, "zgees": 0, "inverse": 1, "svd": 1, "denominator": 4}


class TestVerifyMoments:
    def test_degree_zero(self):
        t = windowed_matrix(2, 0.5, 16)
        model = build_model(t, 0.5, 3)
        assert verify_moments(model, t, 0) <= 1e-14

    def test_scaled_unitary_exact(self):
        t = 0.5 * random_unitary(3, 17)
        model = build_model(t, 0.5, 4)
        assert verify_moments(model, t, 4) <= 1e-11

    def test_windowed_instances(self):
        for seed in range(5):
            t = windowed_matrix(3, 0.7, 70 + seed)
            model = build_model(t, 0.7, 8)
            assert verify_moments(model, t, 8) <= 1e-10

    def test_budget_exceeded(self):
        t = windowed_matrix(2, 0.5, 18)
        model = build_model(t, 0.5, 3)
        with pytest.raises(BudgetExceeded):
            verify_moments(model, t, 4)

    def test_overflowing_inverse_weight_is_a_typed_error(self):
        # 0.01^-154 = 1e308 is the last power of 1/r below the largest double
        t = windowed_matrix(2, 0.01, 3)
        model = build_model(t, 0.01, 160)
        with pytest.raises(BudgetExceeded, match="overflows at degree 155"):
            verify_moments(model, t, 160)
        assert len(moment_table(model, t, 154)) == 155

    def test_table_has_one_row_per_degree_and_verify_takes_its_max(self):
        t = windowed_matrix(3, 0.5, 19)
        model = build_model(t, 0.5, 6)
        table = moment_table(model, t, 6)
        assert [row["degree"] for row in table] == list(range(7))
        worst = max(max(row["forward_residual"], row["inverse_residual"]) for row in table)
        assert verify_moments(model, t, 6) == worst
        assert table[0]["forward_residual"] <= 1e-14
        with pytest.raises(BudgetExceeded):
            moment_table(model, t, 7)


def _generator_matrices(pair):
    """The five generator defect matrices, written out from their definitions."""
    h = pair.dim_h
    g, t1, t2, d1, d2 = pair.g, pair.t1, pair.t2, pair.d1, pair.d2
    return {
        "unitarity": g.conj().T @ g - np.eye(2 * h),
        "isometry_1": t1.conj().T @ t1 + d1.conj().T @ d1 - np.eye(h),
        "isometry_2": t2.conj().T @ t2 + d2.conj().T @ d2 - np.eye(h),
        "commutation": t1 @ t2 - t2 @ t1,
        "intertwining": g @ np.vstack([d1 @ t2, d2]) - np.vstack([d2 @ t1, d1]),
    }


def _table_maximum(model, t, j_max):
    return max(max(row["forward_residual"], row["inverse_residual"]) for row in moment_table(model, t, j_max))


class TestMomentLadder:
    """``verify_moments`` takes exact norms only while a bound can still
    beat the largest one taken, and returns the table's maximum."""

    @pytest.mark.oldest_pins
    @pytest.mark.parametrize("kind", ["windowed", "unitary", "r-unitary"])
    @pytest.mark.parametrize("d", [1, 5, 24, 122])
    @pytest.mark.parametrize("h", [1, 2, 3, 6, 16])
    def test_the_maximum_is_the_table_s_bit_for_bit(self, h, d, kind):
        """Batched SVD norms must equal the 2-D ones, whatever rows are batched together."""
        r = 0.7
        t = TestRowsOfH._operator(kind, h, r, 600 + 7 * h + d)
        model = build_model(t, r, d)
        for j_max in sorted({0, 1, d // 2, d - 1, d}):
            got = verify_moments(model, t, j_max)
            assert type(got) is float
            assert got.hex() == _table_maximum(model, t, j_max).hex()

    def test_dilate_reports_the_maximum_and_the_exact_unitarity_defect(self, tmp_path):
        r, d = 0.7, 12
        for kind, h in (("windowed", 3), ("unitary", 6), ("r-unitary", 4), ("windowed", 16)):
            t = TestRowsOfH._operator(kind, h, r, 610 + h)
            path, out = tmp_path / "t.json", tmp_path / "report.json"
            path.write_text(json.dumps(linalg.matrix_to_json(t)))
            assert cli.main(["dilate", "--r", str(r), "--matrix", str(path), "--d", str(d), "--out", str(out)]) == cli.EXIT_OK
            result = json.loads(out.read_text())["result"]
            model = build_model(t, r, d)
            assert result["moment_residual"] == verify_moments(model, t, d)
            assert result["fixup_unitarity_defect"] == operator_norm(_generator_matrices(model.pair)["unitarity"])

    @staticmethod
    def _counting(monkeypatch):
        """Record the rows of each :func:`calculus._spectral_norms` call;
        return the list and the unpatched function."""
        taken = []
        norms = dilation.calculus._spectral_norms
        monkeypatch.setattr(dilation.calculus, "_spectral_norms", lambda x: taken.append(len(x)) or norms(x))
        return taken, norms

    def test_a_handful_of_exact_norms_at_h16(self, monkeypatch):
        taken, _ = self._counting(monkeypatch)
        for seed in range(8):
            t = windowed_matrix(16, 0.7, seed)
            model = build_model(t, 0.7, 24)
            taken.clear()
            verify_moments(model, t, 24)
            # the largest bound's norm, then at most one batch of the 50
            assert taken[0] == 1 and len(taken) <= 2 and sum(taken) <= 15

    def test_at_most_two_calls_on_a_unitary_t(self, monkeypatch):
        # rounding noise of full rank: every bound sits about sqrt(h) above
        # its norm, and the second call takes what the first cannot settle
        taken, _ = self._counting(monkeypatch)
        for seed in range(10):
            t = random_unitary(16, seed)
            model = build_model(t, 0.7, 24)
            taken.clear()
            got = verify_moments(model, t, 24)
            assert taken[0] == 1 and len(taken) <= 2
            assert got.hex() == _table_maximum(model, t, 24).hex()

    def test_a_bound_below_a_norm_would_prune_it(self, monkeypatch):
        # the result rests on the bounds: one that hides the largest norm
        # gives the next one, and exact bounds take a single norm
        t = windowed_matrix(6, 0.7, 5)
        model = build_model(t, 0.7, 24)
        exact = verify_moments(model, t, 24)
        taken, norms = self._counting(monkeypatch)
        monkeypatch.setattr(dilation.calculus, "_norm_bounds", lambda x: norms(x))
        assert verify_moments(model, t, 24) == exact and taken == [1]

        def hiding(x):
            bounds = norms(x)
            bounds[np.argmax(bounds)] = 0.0
            return bounds

        monkeypatch.setattr(dilation.calculus, "_norm_bounds", hiding)
        assert verify_moments(model, t, 24) < exact


class TestPowerTable:
    """The pair's table of ``T2^j`` holds the left products of the chain
    from ``I``."""

    @pytest.mark.oldest_pins
    @pytest.mark.parametrize("kind", ["windowed", "unitary", "r-unitary"])
    @pytest.mark.parametrize("h, d", [(1, 5), (3, 12), (6, 1), (16, 24)])
    def test_rows_are_the_chain_s_left_products(self, h, d, kind):
        """A sum of entries gives the bits of that sum on the chain, with numpy's matmul and complex multiply-add."""
        t = TestRowsOfH._operator(kind, h, 0.7, 620 + h + d)
        pair = build_model(t, 0.7, d).pair
        table = pair.powers
        assert table.shape == (d + 1, h, h)
        rng = seeded_rng(h, d, 621)
        coeffs = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        coeffs[rng.random(d + 1) < 0.3] = 0.0
        coeffs[-1] = 0.0
        x = np.eye(h, dtype=complex)
        for power in table:
            assert power.tobytes() == x.tobytes()
            x = pair.t2 @ x
        chain = dilation._power_sum(dilation._chain(pair.t2, np.eye(h, dtype=complex)), coeffs)
        assert dilation._power_sum(table, coeffs).tobytes() == chain.tobytes()

    @pytest.mark.parametrize("coeffs, read", [((1.0, 0.0, 2.0, 0.0, 0.0), 3), ((0.0, 0.0), 1), ((0.0, 3.0), 2)])
    def test_a_power_sum_reads_the_chain_to_its_last_nonzero_coefficient(self, coeffs, read):
        mat, coeffs = windowed_matrix(3, 0.7, 7), np.array(coeffs, dtype=complex)
        powers = []
        chain = (powers.append(p) or p for p in dilation._chain(mat, np.eye(3, dtype=complex)))
        got = dilation._power_sum(chain, coeffs)
        assert len(powers) == read
        expected = coeffs[0] * powers[0]
        for c, power in zip(coeffs[1:], powers[1:]):
            if c != 0:
                expected = expected + c * power
        assert got.tobytes() == expected.tobytes()

    def test_the_table_is_read_only(self):
        pair = build_model(windowed_matrix(3, 0.7, 6), 0.7, 4).pair
        with pytest.raises(ValueError, match="read-only"):
            pair.powers[2, 0, 0] = 0.0

    def test_each_pair_forms_its_table_once(self, monkeypatch):
        formed = []
        table = AndoPair.powers.func
        counting = functools.cached_property(lambda self: formed.append(self) or table(self))
        counting.__set_name__(AndoPair, "powers")
        monkeypatch.setattr(AndoPair, "powers", counting)
        r, d = 0.7, 12
        t = windowed_matrix(4, r, 8)
        model = build_model(t, r, d)
        for k in range(3):
            verify_model(model, t, random_function(r, 790 + k, max_roots=2, alpha_window=(2.0, 4.0)))
        moment_table(model, t, d)
        verify_moments(model, t, d // 2)
        assert formed == [model.pair]


class TestGeneratorBounds:
    """The carrier check decides from bounds; the exact defects are formed
    for their readers and when a bound is above the limit."""

    def test_a_healthy_session_forms_no_defects(self):
        r, d = 0.7, 24
        t = windowed_matrix(16, r, 9)
        model = build_model(t, r, d)
        for k in range(4):
            f = random_function(r, 800 + k, max_roots=2, alpha_window=(2.0, 4.0))
            model.tail_report(f)
            verify_model(model, t, f)
        verify_moments(model, t, d)
        assert "generator_bounds" in model.pair.__dict__
        assert "generator_defects" not in model.pair.__dict__

    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9, 1e-6, 1e-3])
    @pytest.mark.parametrize("part", ["g", "d1", "d2", "t1", "t2"])
    def test_bounds_cover_the_defects(self, part, eps):
        for h, seed in ((1, 1), (3, 12), (8, 13)):
            pair = ando_pair(*commuting_contraction_pair(h, seed), 4)
            rng = seeded_rng(seed, len(part), 14)
            shape = getattr(pair, part).shape
            noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            moved = dataclasses.replace(pair, **{part: getattr(pair, part) + eps * noise})
            bounds, defects = moved.generator_bounds, moved.generator_defects
            assert bounds.keys() == defects.keys() and bounds["scale"] == defects["scale"]
            for name, matrix in _generator_matrices(moved).items():
                assert defects[name] == operator_norm(matrix)
                assert defects[name] <= bounds[name] <= 4 * np.sqrt(2 * h) * defects[name] + 1e-300

    def test_a_broken_pair_names_its_exact_defect(self):
        r, d = 0.7, 6
        t = windowed_matrix(3, r, 83)
        model = build_model(t, r, d)
        broken = dataclasses.replace(model, pair=dataclasses.replace(model.pair, d1=0.9 * model.pair.d1))
        defect = operator_norm(_generator_matrices(broken.pair)["isometry_1"])
        with pytest.raises(NotIsometric) as info:
            verify_moments(broken, t, d)
        limit = linalg.DEFAULT_TOLS.verify_tol * broken.pair.generator_defects["scale"]
        assert str(info.value) == f"carrier isometry_1 defect {defect:.3g} exceeds {limit:.3g}"

    def test_save_model_writes_the_exact_defects(self, tmp_path):
        model = build_model(windowed_matrix(3, 0.6, 7), 0.6, 5)
        save_model(model, str(tmp_path))
        meta = json.loads((tmp_path / "meta.json").read_text())
        for name, matrix in _generator_matrices(model.pair).items():
            assert meta["generator_defects"][name] == operator_norm(matrix)


class TestSingleCarrier:
    def test_outer_factor_cases(self):
        for seed in range(5):
            t = windowed_matrix(3, 0.5, 80 + seed)
            g = random_function(0.5, 980 + seed, max_roots=2, alpha_window=(2.5, 4.0))
            g = AnnulusRational(r=0.5, p_coeffs=g.p_coeffs, q1_roots=g.q1_roots)
            assert single_carrier_residual(t, 0.5, g, 28) <= 1e-10

    def test_inner_factor_cases(self):
        for seed in range(5):
            t = windowed_matrix(3, 0.5, 85 + seed)
            f = random_function(0.5, 990 + seed, max_roots=2, beta_window_div=(8.0, 4.0))
            f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q2_roots=f.q2_roots)
            assert single_carrier_residual(t, 0.5, f, 28) <= 1e-10

    @pytest.mark.parametrize(
        "f",
        [
            AnnulusRational(r=0.5, p_coeffs=(1.0, 0.2), q1_roots=(3.0,)),
            AnnulusRational(r=0.5, p_coeffs=(1.0,), q2_roots=(0.1,)),
            AnnulusRational(r=0.5, p_coeffs=(1.0, 1.0), q1_roots=(2.0,), q2_roots=(0.1,)),
        ],
        ids=["outer", "inner", "mixed"],
    )
    def test_a_non_square_matrix_is_not_square(self, f):
        with pytest.raises(NotSquare):
            single_carrier_residual(np.zeros((2, 3)), 0.5, f, 8)

    def test_a_singular_t_is_not_invertible_as_in_build_model(self):
        t = np.array([[0.0, 0.0], [0.0, 0.6]])
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,), q2_roots=(0.1,))
        with pytest.raises(NotInvertible) as built:
            build_model(t, 0.5, 8)
        with pytest.raises(NotInvertible) as single:
            single_carrier_residual(t, 0.5, f, 8)
        assert str(single.value) == str(built.value)

    def test_rejects_mixed_function(self):
        t = windowed_matrix(2, 0.5, 19)
        f = AnnulusRational(r=0.5, p_coeffs=(1.0, 1.0), q1_roots=(2.0,), q2_roots=(0.1,))
        with pytest.raises(ValueError):
            single_carrier_residual(t, 0.5, f, 8)

    @pytest.mark.parametrize(
        "f",
        [
            AnnulusRational(r=0.3, p_coeffs=(1.0, 0.2), q1_roots=(3.0,)),
            AnnulusRational(r=0.3, p_coeffs=(1.0,), q2_roots=(0.1,)),
        ],
        ids=["outer", "inner"],
    )
    def test_function_on_another_radius_is_rejected(self, f):
        t = windowed_matrix(3, 0.5, 80)
        with pytest.raises(InvalidRational, match="mismatched radii 0.3 and 0.5"):
            single_carrier_residual(t, 0.5, f, 8)


class TestSaveModel:
    def test_writes_model_directory(self, tmp_path):
        t = windowed_matrix(2, 0.5, 20)
        model = build_model(t, 0.5, 3)
        save_model(model, str(tmp_path / "model"), seed=7)
        meta = json.loads((tmp_path / "model" / "meta.json").read_text())
        assert set(meta) == {
            "r", "d", "M", "seed", "version", "formula", "error_bound",
            "normal", "ar_unitary", "isometric_blocks", "commuting_blocks", "generator_defects",
        }
        assert meta["r"] == 0.5 and meta["d"] == 3 and meta["M"] == 4 and meta["seed"] == 7
        from annulus_lab.linalg import matrix_from_json

        n_mat = matrix_from_json(json.loads((tmp_path / "model" / "N.json").read_text()))
        assert n_mat.shape == (2 * model.pair.dim, 2 * model.pair.dim)

    @pytest.mark.parametrize("h", [2, 3])
    @pytest.mark.parametrize("d", [3, 6])
    def test_saved_files_satisfy_the_stated_formula(self, tmp_path, h, d):
        # meta's formula, evaluated densely on the files as read back, gives
        # verify_model's residual; its block ranges hold on the saved N
        r = 0.6
        t = windowed_matrix(h, r, 50 + h + d)
        f = AnnulusRational(
            r=r, p_coeffs=(0.4, -0.3j, 0.2), q1_roots=(2.0 + 1.0j, -2.5), q2_roots=(0.2j, -0.15)
        )
        model = build_model(t, r, d)
        save_model(model, str(tmp_path))
        read = {name: json.loads((tmp_path / f"{name}.json").read_text()) for name in ("N", "F", "V", "meta")}
        meta = read["meta"]
        n_mat, f_mat, v_mat = (matrix_from_json(read[name]) for name in ("N", "F", "V"))
        saved = SimpleNamespace(n_matrix=n_mat, f_matrix=f_mat, v_matrix=v_mat, r=meta["r"], d=meta["d"])
        residual = float(np.max(np.linalg.norm(eval_direct(f, t) - _dense_model_rhs(saved, f), axis=0)))
        assert abs(verify_model(model, t, f) - residual) <= 1e-12
        assert residual <= model.tail_report(f)["bound"]

        k = n_mat.shape[0] // 2
        v1, v2 = n_mat[:k, :k], n_mat[k:, k:]
        iso = np.eye(k)[:, : h + 2 * h * meta["isometric_blocks"][1]]
        comm = np.eye(k)[:, : h + 2 * h * meta["commuting_blocks"][1]]
        defect = max(value for name, value in meta["generator_defects"].items() if name != "scale")
        assert defect <= 1e-12
        for image in (v1 @ iso, v2 @ iso):
            assert operator_norm(image.conj().T @ image - np.eye(iso.shape[1])) <= 1e-12
        assert operator_norm((v1 @ v2 - v2 @ v1) @ comm) <= 1e-12
        assert meta["normal"] is False and meta["ar_unitary"] is False
        assert not is_ar_unitary(n_mat, r)
        assert operator_norm(n_mat.conj().T @ n_mat - n_mat @ n_mat.conj().T) >= 0.1
