import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from annulus_lab import calculus, linalg
from annulus_lab.ar_unitary import (
    decompose,
    is_ar_unitary,
    make_ar_unitary,
    membership_subspaces,
)
from annulus_lab.certify import example_matrix
from annulus_lab.errors import BadRadius, NotArUnitary, NotUnitary
from annulus_lab.linalg import operator_norm, random_unitary, spectrum


def conjugated_instance(r, k1, k2, seed):
    u1 = random_unitary(k1, seed) if k1 else np.zeros((0, 0))
    u2 = random_unitary(k2, seed + 1) if k2 else np.zeros((0, 0))
    n = make_ar_unitary(u1, u2, r)
    q = random_unitary(k1 + k2, seed + 2)
    ref1 = q[:, :k1] @ q[:, :k1].conj().T
    return q @ n @ q.conj().T, ref1, u1, u2, q


class TestArguments:
    @pytest.mark.parametrize("r", [2.0, 1.0, 0.0, -0.5, np.nan])
    def test_every_route_rejects_a_bad_radius(self, r):
        n = make_ar_unitary(np.eye(2), np.eye(1), 0.5)
        for route in (
            lambda: is_ar_unitary(np.eye(2), r),
            lambda: make_ar_unitary(np.eye(2), np.eye(2), r),
            lambda: decompose(n, r),
            lambda: membership_subspaces(n, r),
        ):
            with pytest.raises(BadRadius):
                route()

    @pytest.mark.parametrize("n_max", [1.5, 2.0, True, 0])
    def test_n_max_must_be_a_positive_integer(self, n_max):
        with pytest.raises(ValueError, match="^n_max must be"):
            membership_subspaces(make_ar_unitary(np.eye(2), np.eye(1), 0.5), 0.5, n_max)

    def test_a_numpy_integer_n_max_is_the_int(self):
        n = make_ar_unitary(random_unitary(2, 3), random_unitary(1, 4), 0.5)
        got, want = membership_subspaces(n, 0.5, np.int64(2)), membership_subspaces(n, 0.5, 2)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestIsArUnitary:
    def test_two_circle_diagonal(self):
        assert is_ar_unitary(np.diag([1.0, 0.5j]), 0.5)

    def test_interior_modulus_rejected(self):
        assert not is_ar_unitary(np.diag([0.7]), 0.5)

    def test_shear_example_is_not(self):
        assert not is_ar_unitary(example_matrix(0.25), 0.25)


class TestMakeArUnitary:
    def test_identity_blocks(self):
        n = make_ar_unitary(np.eye(2), np.eye(3), 0.5)
        assert_allclose(n, np.diag([1, 1, 0.5, 0.5, 0.5]).astype(complex))

    def test_empty_second_block(self):
        u1 = random_unitary(3, 4)
        assert_allclose(make_ar_unitary(u1, np.zeros((0, 0)), 0.5), u1)

    def test_construction_is_ar_unitary(self):
        for seed in range(5):
            n = make_ar_unitary(random_unitary(3, seed), random_unitary(2, seed + 9), 0.5)
            assert is_ar_unitary(n, 0.5)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            make_ar_unitary(2 * np.eye(2), np.eye(2), 0.5)


class TestDecompose:
    def test_pure_unitary(self):
        u = random_unitary(3, 7)
        dec = decompose(u, 0.5)
        assert_allclose(dec.p1, np.eye(3), atol=1e-10)
        assert dec.basis2.shape[1] == 0

    def test_pure_scaled_unitary(self):
        u = random_unitary(3, 8)
        dec = decompose(0.5 * u, 0.5)
        assert_allclose(dec.p2, np.eye(3), atol=1e-10)
        assert dec.basis1.shape[1] == 0

    def test_conjugation_oracle(self):
        t, ref1, u1, u2, q = conjugated_instance(0.5, 3, 2, 31)
        dec = decompose(t, 0.5)
        assert operator_norm(dec.p1 - ref1) <= 1e-10
        assert operator_norm(dec.p2 - (np.eye(5) - ref1)) <= 1e-10
        # compressed parts are unitary and carry the right spectra
        assert_allclose(
            np.sort(np.angle(spectrum(dec.u1))), np.sort(np.angle(spectrum(u1))), atol=1e-9
        )
        assert_allclose(
            np.sort(np.angle(spectrum(dec.u2))), np.sort(np.angle(spectrum(u2))), atol=1e-9
        )

    def test_roundtrip_in_block_basis(self):
        u1 = random_unitary(3, 11)
        u2 = random_unitary(2, 12)
        n = make_ar_unitary(u1, u2, 0.5)
        dec = decompose(n, 0.5)
        block1 = np.zeros((5, 5), dtype=complex)
        block1[:3, :3] = np.eye(3)
        assert operator_norm(dec.p1 - block1) <= 1e-10
        recon = dec.basis1 @ dec.u1 @ dec.basis1.conj().T + 0.5 * (
            dec.basis2 @ dec.u2 @ dec.basis2.conj().T
        )
        assert operator_norm(recon - n) <= 1e-10

    def test_invariants_across_seeds(self):
        for seed in range(10):
            t, _, _, _, _ = conjugated_instance(0.5, 2, 3, 100 + seed)
            dec = decompose(t, 0.5)
            assert dec.residual <= 1e-9
            assert operator_norm(dec.p1 @ dec.p2) <= 1e-10
            assert operator_norm(dec.p1 + dec.p2 - np.eye(5)) <= 1e-10
            assert (
                operator_norm(t - dec.p1 @ t @ dec.p1 - dec.p2 @ t @ dec.p2) <= 1e-10
            )

    def test_rejects_non_ar_unitary(self):
        with pytest.raises(NotArUnitary):
            decompose(example_matrix(0.25), 0.25)

    def test_residual_stays_small_across_radii(self):
        # the contour cross-check must keep up as the circles approach
        for r in (0.1, 0.5, 0.81, 0.95):
            t, ref1, _, _, _ = conjugated_instance(r, 2, 3, 55)
            dec = decompose(t, r)
            assert dec.residual <= 1e-9, f"residual {dec.residual} at r={r}"
            assert operator_norm(dec.p1 - ref1) <= 1e-10

    @pytest.mark.parametrize("r", [1e-6, 0.05, 0.2])
    def test_small_radii_integrate_around_the_inner_circle(self, r, monkeypatch):
        # at r <= 0.2 the outer route's delta = (1 - r) / 4 would reach r and
        # leave no inner circle, which riesz_projection rejects
        parts = []
        riesz = calculus.riesz_projection
        monkeypatch.setattr(calculus, "riesz_projection", lambda m, part, *a: parts.append(part) or riesz(m, part, *a))
        t, ref1, _, _, _ = conjugated_instance(r, 2, 3, 56)
        dec = decompose(t, r)
        assert parts == [calculus.SpectralPart.INNER]
        assert dec.residual <= 1e-9, f"residual {dec.residual} at r={r}"
        assert operator_norm(dec.p1 - ref1) <= 1e-10

    def test_one_schur_form_serves_the_eigenbasis_and_the_contour_route(self, monkeypatch):
        # eig_normal reads the zgees Schur form that the Riesz cross-check
        # solves on, so N is factored once and never by scipy.linalg.schur
        calls = []
        schur = linalg._schur_triangle

        def no_schur(*args, **kwargs):
            raise AssertionError("scipy.linalg.schur called")

        monkeypatch.setattr(sla, "schur", no_schur)
        monkeypatch.setattr(linalg, "_schur_triangle", lambda m: calls.append(m.shape) or schur(m))
        t, ref1, _, _, _ = conjugated_instance(0.5, 2, 3, 57)
        linalg._analysis_memo.cache_clear()
        dec = decompose(t, 0.5)
        assert calls == [(5, 5)]
        assert dec.residual <= 1e-9
        assert operator_norm(dec.p1 - ref1) <= 1e-10


class TestMembershipSubspaces:
    def test_pure_unitary(self):
        u = random_unitary(3, 13)
        p1, p2 = membership_subspaces(u, 0.5, 2)
        assert_allclose(p1, np.eye(3), atol=1e-10)
        assert operator_norm(p2) <= 1e-10

    def test_pure_scaled_unitary(self):
        u = random_unitary(3, 14)
        p1, p2 = membership_subspaces(0.5 * u, 0.5, 2)
        assert_allclose(p2, np.eye(3), atol=1e-10)

    def test_agrees_with_spectral_route(self):
        for seed in range(10):
            t, _, _, _, _ = conjugated_instance(0.5, 3, 2, 200 + seed)
            dec = decompose(t, 0.5)
            p1, p2 = membership_subspaces(t, 0.5, 2)
            assert operator_norm(dec.p1 - p1) <= 1e-9
            assert operator_norm(dec.p2 - p2) <= 1e-9
