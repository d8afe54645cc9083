import json
import re
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from annulus_lab import ar_unitary, calculus, certify, dilation, linalg, rational
from annulus_lab.errors import (
    DimensionMismatch,
    NoConvergence,
    NotInvertible,
    NotIsometric,
    NotNormal,
    NotSquare,
    Singular,
)
from annulus_lab.rational import AnnulusRational
from annulus_lab.linalg import (
    DEFAULT_TOLS,
    Tolerances,
    eig_normal,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    random_unitary,
    solve,
    spectrum,
    sqrtm_psd,
    unitary_completion,
)

from conftest import commuting_contraction_pair

EXAMPLE = np.array([[0.5, 0.75], [0.0, 0.5]], dtype=complex)  # norm-one shear, r = 0.25


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert (t.eig_tol, t.rank_tol, t.verify_tol) == (1e-10, 1e-9, 1e-8)

    @pytest.mark.parametrize("value", [0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["eig_tol", "rank_tol", "verify_tol"])
    def test_rejects_nonpositive(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and strictly positive"):
            Tolerances(**{name: value})

    @pytest.mark.parametrize("value", [True, np.True_, "1e-3", 1e-3j], ids=["True", "np.True_", "str", "complex"])
    @pytest.mark.parametrize("name", ["eig_tol", "rank_tol", "verify_tol"])
    def test_rejects_a_bool_or_a_non_real(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            Tolerances(**{name: value})

    @pytest.mark.parametrize("value", [np.float64(1e-3), np.float32(1e-3), 1, np.int64(2)], ids=repr)
    def test_keeps_a_real_number_as_given(self, value):
        kept = Tolerances(eig_tol=value).eig_tol
        assert type(kept) is type(value) and kept == value


class TestEigNormal:
    def test_identity(self):
        eig = eig_normal(np.eye(2))
        assert_allclose(eig.lambdas, [1.0, 1.0])
        assert_allclose(eig.q, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        eig = eig_normal(np.diag([1.0, 0.25]))
        assert_allclose(eig.lambdas, [1.0, 0.25])

    def test_ordering_descending_modulus_then_argument(self):
        eig = eig_normal(np.diag([-1.0, 0.5, 1.0, 1.0j]))
        assert_allclose(eig.lambdas, [1.0, 1.0j, -1.0, 0.5], atol=1e-14)

    def test_seeded_roundtrip_recovers_eigenvalues(self):
        q0 = random_unitary(3, 21)
        thetas = np.array([0.4, -1.3, 2.2])
        a = (q0 * np.exp(1j * thetas)) @ q0.conj().T
        eig = eig_normal(a)
        assert_allclose(
            np.sort_complex(eig.lambdas), np.sort_complex(np.exp(1j * thetas)), atol=1e-10
        )

    def test_reconstruction_invariant(self):
        for seed in range(10):
            q0 = random_unitary(5, seed)
            lams = 0.3 + np.exp(1j * np.arange(5))
            a = (q0 * lams) @ q0.conj().T
            eig = eig_normal(a)
            rec = (eig.q * eig.lambdas) @ eig.q.conj().T
            assert operator_norm(a - rec) <= 10 * DEFAULT_TOLS.eig_tol * operator_norm(a)

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            eig_normal(np.ones((2, 3)))

    def test_rejects_non_normal(self):
        with pytest.raises(NotNormal):
            eig_normal(EXAMPLE)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0**-1060], ids=["1e200", "1e-200", "2^-1060"])
    def test_refusal_at_extreme_scale_is_typed_and_reports_the_scale_free_ratio(self, scale):
        # the refusal reads the analysis' commutator of the scaled matrix, so
        # it neither overflows nor underflows, and its ratio is scale-free
        with pytest.raises(NotNormal) as unscaled:
            eig_normal(EXAMPLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotNormal) as scaled:
                eig_normal(scale * EXAMPLE)
        ratio = float(re.match(r"commutator norm (\S+) \* \|\|A\|\|\^2 exceeds", str(scaled.value)).group(1))
        assert ratio > 0
        assert str(scaled.value) == str(unscaled.value)

    @pytest.mark.parametrize("scale", [1e300, 1e-300], ids=["1e300", "1e-300"])
    def test_unitary_at_extreme_scale_is_decomposed_within_the_bound(self, scale):
        u = random_unitary(4, 31)
        a = scale * u
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = eig_normal(a)
        assert eig.residual <= 10 * DEFAULT_TOLS.eig_tol * max(1.0, operator_norm(a))
        assert_allclose(np.abs(eig.lambdas) / scale, 1.0, atol=1e-12)
        assert operator_norm((eig.q * (eig.lambdas / scale)) @ eig.q.conj().T - u) <= 1e-12


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0)

    def test_shear_example_has_norm_one(self):
        assert operator_norm(EXAMPLE) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert operator_norm(np.diag([0.3, 0.9])) == pytest.approx(0.9)

    def test_adjoint_invariance(self):
        rng = linalg.seeded_rng(3)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert operator_norm(a.conj().T) == pytest.approx(operator_norm(a), rel=1e-12)

    def test_unitary_invariance(self):
        rng = linalg.seeded_rng(5)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = random_unitary(4, 8)
        w = random_unitary(4, 9)
        assert operator_norm(u @ a @ w) == pytest.approx(operator_norm(a), rel=1e-11)


class TestIsNormal:
    def test_huge_entries_do_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.is_normal(1e300 * np.eye(2))
            assert not linalg.is_normal(1e300 * EXAMPLE)

    def test_verdicts_are_those_of_the_unscaled_test(self):
        # scaling by a power of two is exact, so ordinary inputs keep the
        # verdict of ||A*A - AA*|| <= eig_tol ||A||^2 formed on A itself
        rng = linalg.seeded_rng(12)
        verdicts = []
        for k in range(80):
            n = 2 + k % 4
            q = random_unitary(n, 40 + k)
            lams = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = ((q * lams) @ q.conj().T + 10.0 ** rng.uniform(-12, -8) * noise) * 2.0 ** rng.uniform(-40, 40)
            norm = operator_norm(m)
            comm = m.conj().T @ m - m @ m.conj().T
            want = operator_norm(comm) <= DEFAULT_TOLS.eig_tol * max(norm**2, np.finfo(float).tiny)
            assert linalg.is_normal(m) == want
            verdicts.append(want)
        assert any(verdicts) and not all(verdicts)

    def test_reads_the_analysis(self):
        linalg._analysis_memo.cache_clear()
        assert linalg.is_normal(EXAMPLE) is linalg.analysis(EXAMPLE).is_normal() is False
        assert linalg._analysis_memo.cache_info().currsize == 1

    @pytest.mark.parametrize(
        "shape, error",
        [((2, 3), NotSquare), ((3, 2), NotSquare), ((1, 4), NotSquare), ((2, 2, 2), DimensionMismatch)],
        ids=["2x3", "3x2", "1x4", "3-d"],
    )
    def test_rejects_a_non_square_matrix(self, shape, error):
        with pytest.raises(error):
            linalg.is_normal(np.ones(shape))


class TestSolve:
    def test_identity(self):
        b = np.arange(6, dtype=complex).reshape(3, 2)
        assert_allclose(solve(np.eye(3), b), b)

    def test_diagonal_inverse(self):
        x = solve(np.diag([2.0, 4.0]), np.eye(2))
        assert_allclose(x, np.diag([0.5, 0.25]))

    def test_residual_oracle(self):
        rng = linalg.seeded_rng(12)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 5 * np.eye(5)
        b = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        x = solve(a, b)
        assert operator_norm(a @ x - b) / operator_norm(b) <= 1e-10

    def test_singular(self):
        with pytest.raises(Singular):
            solve(np.zeros((2, 2)), np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve(np.eye(2), np.eye(3))

    _TINY = 1e-310 * np.eye(2)
    _F = AnnulusRational(r=0.5, p_coeffs=(0.3, 1.0), q1_roots=(2.5,), q2_roots=(0.1,))

    @pytest.mark.parametrize(
        "route",
        [
            lambda t, f: linalg.inverse(t),
            lambda t, f: certify.vonneumann_stress(t, 0.5, 50, 1),
            lambda t, f: certify.full_certification(t, 0.5, 50, 1),
            lambda t, f: certify.double_contraction_check(t, 0.5),
            lambda t, f: dilation.build_model(t, 0.5, 4),
            lambda t, f: calculus.eval_laurent(f, t, 8),
            lambda t, f: calculus.laurent_remainder_bound(f, t, 8),
        ],
        ids=["inverse", "vonneumann_stress", "full_certification", "double_contraction_check",
             "build_model", "eval_laurent", "laurent_remainder_bound"],
    )
    def test_an_overflowing_solution_is_singular_on_every_route(self, route):
        # 1e-310 * I is perfectly conditioned, but its inverse overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((Singular, NotInvertible)):
                route(self._TINY, self._F)


class TestRandomUnitary:
    def test_scalar_is_unimodular(self):
        u = random_unitary(1, 4)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-14

    def test_unitarity(self):
        u = random_unitary(4, 7)
        assert operator_norm(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_bit_identical_determinism(self):
        assert np.array_equal(random_unitary(4, 7), random_unitary(4, 7))

    def test_seeds_differ(self):
        assert not np.allclose(random_unitary(4, 7), random_unitary(4, 8))

    _SIZED = {
        "random_unitary": lambda n: random_unitary(n, 1),
        "normal_annulus_matrix": lambda n: certify.normal_annulus_matrix(n, 0.5, 1),
        "windowed_matrix": lambda n: certify.windowed_matrix(n, 0.5, 1),
    }

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
    @pytest.mark.parametrize("name", sorted(_SIZED))
    def test_a_size_that_is_not_an_integer_is_rejected(self, name, n):
        with pytest.raises(ValueError, match="^n must be an integer"):
            self._SIZED[name](n)

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("name", sorted(_SIZED))
    def test_a_size_below_one_is_a_dimension_mismatch(self, name, n):
        with pytest.raises(DimensionMismatch, match="^n must be >= 1$"):
            self._SIZED[name](n)

    @pytest.mark.parametrize("name", sorted(_SIZED))
    def test_a_numpy_integer_size_is_the_int_size(self, name):
        call = self._SIZED[name]
        assert np.array_equal(call(np.int64(3)), call(3))


class TestSeedValidation:
    """A seed is a non-negative integer: a float is not truncated to one."""

    _SEEDED = {
        "seeded_rng": lambda seed: linalg.seeded_rng(seed, 3),
        "vonneumann_stress": lambda seed: certify.vonneumann_stress(certify.windowed_matrix(3, 0.5, 1), 0.5, 3, seed),
        "random_unitary": lambda seed: random_unitary(3, seed),
        "normal_annulus_matrix": lambda seed: certify.normal_annulus_matrix(3, 0.5, seed),
        "windowed_matrix": lambda seed: certify.windowed_matrix(3, 0.5, seed),
    }

    @pytest.mark.parametrize("seed", [2.9, 2.0, True, np.float64(2.0), "2", -1])
    @pytest.mark.parametrize("name", sorted(_SEEDED))
    def test_a_seed_that_is_not_a_non_negative_integer_is_rejected(self, name, seed):
        with pytest.raises(ValueError, match="^seed must be"):
            self._SEEDED[name](seed)

    @pytest.mark.parametrize("name", ["random_unitary", "normal_annulus_matrix", "windowed_matrix"])
    def test_a_numpy_integer_seed_is_the_int_seed(self, name):
        call = self._SEEDED[name]
        assert np.array_equal(call(np.int64(2)), call(2))

    def test_a_stream_that_is_not_a_non_negative_integer_is_rejected(self):
        for stream in (3.5, -1):
            with pytest.raises(ValueError, match="^stream must be"):
                linalg.seeded_rng(2, stream)


# 2**130 has five words, more than SeedSequence's pool of four
_KEY_SEEDS = pytest.mark.parametrize(
    "seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130], ids=["0", "1", "2^32-1", "2^32", "2^64+5", "2^130"]
)


def _first_draws(rng):
    """Draws that leave a half-used 32-bit word and a part-used Philox buffer."""
    return rng.integers(0, 5), rng.random(3), rng.standard_normal(5), rng.integers(0, 2**40, 2)


@pytest.mark.oldest_pins
class TestSeededRng:
    """``seeded_rng(seed, stream, i)`` is Philox keyed by the first two words
    of ``SeedSequence(seed, spawn_key=(stream, i))``, counter zero, so a
    seed names the same battery streams under every numpy version."""

    @pytest.mark.parametrize("index", [0, 7, 39, 2**32 - 1, 2**32], ids=["0", "7", "39", "2^32-1", "2^32"])
    @pytest.mark.parametrize("stream", [3, 17])
    @_KEY_SEEDS
    def test_the_generator_is_philox_keyed_by_the_seed_sequence(self, seed, stream, index):
        key = np.random.SeedSequence(seed, spawn_key=(stream, index)).generate_state(2, np.uint64)
        want = np.random.Generator(np.random.Philox(key=key))
        got = linalg.seeded_rng(seed, stream, index)
        assert isinstance(got.bit_generator, np.random.Philox)
        state = got.bit_generator.state["state"]
        assert np.array_equal(state["key"], key) and not np.any(state["counter"])
        assert all(np.array_equal(a, b) for a, b in zip(_first_draws(got), _first_draws(want)))


class TestUnitaryCompletion:
    def test_first_basis_column(self):
        v = np.eye(3, dtype=complex)[:, :1]
        u = unitary_completion(v)
        assert_allclose(u[:, 0], v[:, 0])
        assert operator_norm(u.conj().T @ u - np.eye(3)) <= 1e-12

    def test_square_input_passthrough(self):
        v = random_unitary(3, 2)
        assert_allclose(unitary_completion(v), v)

    def test_seeded_isometry(self):
        q = random_unitary(5, 31)
        v = q[:, :2]
        u = unitary_completion(v)
        assert_allclose(u[:, :2], v)
        assert operator_norm(u.conj().T @ u - np.eye(5)) <= 1e-12

    def test_rejects_non_isometry(self):
        with pytest.raises(NotIsometric):
            unitary_completion(np.ones((3, 2)))


class TestSpectrum:
    def test_defective_triangular_is_exact(self):
        assert_allclose(spectrum(EXAMPLE), [0.5, 0.5])


class TestSqrtmPsd:
    def test_squares_back(self):
        rng = linalg.seeded_rng(77)
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = b @ b.conj().T
        s = sqrtm_psd(h)
        assert operator_norm(s @ s - h) <= 1e-10 * max(1.0, operator_norm(h))

    def test_clamps_negative_eigenvalues_down_to_verify_tol(self):
        assert np.array_equal(sqrtm_psd(np.diag([-5e-9, 1.0])), np.diag([0.0, 1.0]))
        # relative to the largest eigenvalue modulus, when that exceeds 1
        assert np.array_equal(sqrtm_psd(np.diag([-3e-8, 4.0])), np.diag([0.0, 2.0]))
        with pytest.raises(ValueError, match="not positive semidefinite"):
            sqrtm_psd(np.diag([-2e-8, 1.0]))


class TestJson:
    def test_roundtrip(self):
        rng = linalg.seeded_rng(9)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert_allclose(matrix_from_json(matrix_to_json(a)), a)

    def test_roundtrip_through_text(self):
        a = np.array([[1 + 2j, 0.5], [0, -1j]])
        assert_allclose(matrix_from_json(json.loads(json.dumps(matrix_to_json(a)))), a)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]})

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

    @pytest.mark.parametrize(
        "data",
        [[[1]], [[None, 0]], 5, [5], [[1.0, 0.0, 99.0]], [["1", 0]], [[True, 0]], [[10**400, 0]]],
        ids=["short", "null", "scalar", "bare-number", "three", "string", "bool", "huge"],
    )
    def test_rejects_malformed_entries(self, data):
        with pytest.raises(ValueError, match="malformed matrix object"):
            matrix_from_json({"rows": 1, "cols": 1, "data": data})

    @pytest.mark.parametrize(
        "rows, cols", [(2.5, 1), ("2", 1), (1, True), (1, None)], ids=["float", "string", "bool", "null"]
    )
    def test_rejects_non_integer_dimensions(self, rows, cols):
        data = [[1.0, 0.0]] * 2
        with pytest.raises(ValueError, match="malformed matrix object"):
            matrix_from_json({"rows": rows, "cols": cols, "data": data})


def _svd_rule(shifted, tols):
    """The conditioning rule on every shifted matrix: singular values first."""
    return linalg._ill_conditioned(np.linalg.svd(shifted, compute_uv=False), tols)


def _shifted(t, ws):
    return t - ws[:, np.newaxis, np.newaxis] * np.eye(t.shape[0])


class _Unwindowed(linalg.Analysis):
    """An analysis whose singular-value window decides no shift."""

    def window(self, mods, tols):
        return np.zeros(mods.shape, dtype=bool), np.zeros(mods.shape, dtype=bool)


def _helper(t, ws, tols):
    """The comparison-matrix bound, then the SVD fallback, as
    :meth:`linalg.Analysis.screen` runs them on a fresh analysis of ``t``
    without the window: where the shifts ``ws`` fail the rule."""
    return _Unwindowed(linalg.as_matrix(t)).screen(ws, tols)[1]


def _jordan(n, lam):
    return lam * np.eye(n, dtype=complex) + np.eye(n, k=1)


def _hard_matrices():
    q = random_unitary(6, 41)
    u, w = random_unitary(4, 42), random_unitary(4, 43)
    clustered = np.diag(0.6 + 1e-9 * np.arange(4)) + 1e-3 * np.eye(4, k=1)
    return {
        "shear_1e6": np.array([[1.2, 1e6], [0.0, 1.2]], dtype=complex),
        "jordan_6": _jordan(6, 0.5j),
        "jordan_6_rotated": q @ _jordan(6, 0.5 * np.exp(0.3j)) @ q.conj().T,
        "cond_1e8": (u * np.logspace(0, -8, 4)) @ w.conj().T,
        "clustered": u @ clustered @ u.conj().T,
        "zero": np.zeros((3, 3), dtype=complex),
    }


def _hard_shifts(t):
    """Shifts 10^-k (k = 1..12) from each eigenvalue in four directions, and
    64 nodes on each of the circles |w| = 1.02, 0.75 and 0.48."""
    lams = np.linalg.eigvals(t)
    steps = 10.0 ** -np.arange(1, 13)[:, np.newaxis] * np.array([1, 1j, -1, -1j])
    near = (lams[:, np.newaxis, np.newaxis] + steps).ravel()
    nodes = np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    circles = np.concatenate([radius * nodes for radius in (1.02, 0.75, 0.48)])
    return np.concatenate([near, lams, circles])


@pytest.mark.oldest_pins
class TestShiftConditioning:
    """The comparison-matrix bound rests on numpy's broadcast matmul of a row against a stack in its substitutions."""
    @pytest.mark.parametrize("rank_tol", [1e-9, 1e-15, 0.5, 1.5])
    @pytest.mark.parametrize("name", sorted(_hard_matrices()))
    def test_agrees_with_the_svd_rule(self, name, rank_tol):
        t = _hard_matrices()[name]
        tols = Tolerances(rank_tol=rank_tol)
        ws = _hard_shifts(t)
        shifted = _shifted(t, ws)
        got = _helper(t, ws, tols)
        assert np.array_equal(got, _svd_rule(shifted, tols))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-300, -290, -170, -100, -30, 30, 100, 150, 170, 290, 300])
    def test_scaled_inputs_agree_without_warnings(self, k, monkeypatch):
        svd = np.linalg.svd

        def svd_counts(scale):
            counts = []
            for name, t in _hard_matrices().items():
                ws, t = _hard_shifts(t) * scale, t * scale
                shifted = _shifted(t, ws)
                want = _svd_rule(shifted, DEFAULT_TOLS)
                sizes = [0]
                monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: sizes.append(len(a)) or svd(a, **kw))
                got = _helper(t, ws, DEFAULT_TOLS)
                monkeypatch.undo()
                assert np.array_equal(got, want), name
                counts.append(sum(sizes))
            return counts

        # the bound works in units of the largest entry, so at every scale it
        # clears the same shifts (the zero matrix has no such unit)
        assert svd_counts(10.0**k)[:-1] == svd_counts(1.0)[:-1]
        # the shear with the root 1.3 of the calculus example stays singular
        t = np.array([[1.2, 1e6], [0.0, 1.2]]) * 10.0**k
        ws = np.array([1.3]) * 10.0**k
        assert _helper(t, ws, DEFAULT_TOLS)[0]

    def test_non_finite_and_huge_shifts_agree_with_the_svd_rule(self):
        t = np.diag([0.5, 0.7]).astype(complex)
        ws = np.array([0.2, 1e300, -1e300j, 2.0**101, 0.3, 0.4j, -0.3, 0.6])
        shifted = _shifted(t, ws)
        assert np.array_equal(_helper(t, ws, DEFAULT_TOLS), _svd_rule(shifted, DEFAULT_TOLS))
        for bad in (np.inf, np.nan):
            ws = np.array([0.2, bad, 0.3, 0.4j, -0.3, 0.6, 0.1, -0.1j])
            with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
                _helper(t, ws, DEFAULT_TOLS)

    @pytest.mark.parametrize("n", [3, 16, 40])
    def test_schur_backward_error_is_well_inside_the_allowance(self, n):
        # The bound assumes zgees is backward stable with ||E||_F at most
        # _SCHUR_ERROR * n * eps * ||T||_F.  Measure ||Z R Z* - T||_F plus
        # the loss of unitarity of Z on the hard matrices and a random one:
        # it stays below a sixteenth of that allowance.
        rng = linalg.seeded_rng(7, n)
        mats = [*_hard_matrices().values(), rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))]
        eps = np.finfo(float).eps
        for t in mats:
            size = t.shape[0]
            tri, _, _, z, _, info = sla.lapack.zgees(lambda w: None, t, compute_v=1)
            assert info == 0
            form = linalg._schur_triangle(t)
            assert np.array_equal(tri, form[0]) and np.array_equal(z, form[1])
            fro = np.linalg.norm(t)
            error = np.linalg.norm(z @ tri @ z.conj().T - t) + np.linalg.norm(z.conj().T @ z - np.eye(size)) * fro
            assert error <= linalg._SCHUR_ERROR / 16 * size * eps * fro

    def test_schur_backward_error_is_accounted_for(self, monkeypatch):
        # A Schur form within the stated backward error: exact for T + E with
        # ||E||_F half the allowance.  Its eigenvalue moves off 1, so a bound
        # without the allowance would clear the singular shift w = 1.
        t = np.diag([1.0, 2.0, 3.0]).astype(complex)
        triangle = linalg._schur_triangle

        def perturbed(m):
            tri, vectors = triangle(m)
            tri[0, 0] += 0.5 * linalg._SCHUR_ERROR * 3 * np.finfo(float).eps * np.linalg.norm(m)
            return tri, vectors

        monkeypatch.setattr(linalg, "_schur_triangle", perturbed)
        tols = Tolerances(rank_tol=1e-15)
        ws = 1.0 + np.array([0.0, 1e-14, -1e-14, 1e-13, 1e-12, 1e-3, 0.5j, 0.5])
        shifted = _shifted(t, ws)
        got = _helper(t, ws, tols)
        assert np.array_equal(got, _svd_rule(shifted, tols))
        assert got[0]

    def test_require_counts_the_failing_points(self):
        t = np.array([[1.2, 1e6], [0.0, 1.2]])
        ws = np.array([1.3, 5e6, 1.2 + 1e-12, -3e6, 1.2, 2e7, -2e7, 4e6j])
        failed = _svd_rule(ws[:, np.newaxis, np.newaxis] * np.eye(2) - t, DEFAULT_TOLS)
        assert failed.sum() == 3
        facts = linalg.analysis(t)
        with pytest.raises(Singular, match=r"exceeds 1\.0e\+09 at 3 of 8 points$"):
            facts.require(ws, DEFAULT_TOLS)
        facts.require(ws[~failed], DEFAULT_TOLS)
        # every node of the circle |w| = 1.3 around the shear fails the rule
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,))
        with pytest.raises(Singular, match=r"exceeds 1\.0e\+09 at 16 of 16 points$"):
            calculus.eval_contour(f, t, calculus.ContourSpec(delta=0.3, nodes=16))

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.81])
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 9, 16])
    def test_the_distance_stage_clears_only_shifts_the_svd_rule_passes(self, n, r):
        # battery roots and default contour nodes on windowed T, also scaled
        # near overflow and into the subnormal range
        for seed in (1, 2, 3):
            t = certify.windowed_matrix(n, r, seed)
            stack = certify._stress_battery(r, 2000, seed).stack
            spec = calculus.default_contour(None, t, r)
            ring = np.exp(1j * (2.0 * np.pi * (np.arange(spec.nodes) + 0.5) / spec.nodes))
            ws = np.concatenate([stack.roots[stack.mask], (1.0 + spec.delta) * ring, (r - spec.delta) * ring])
            unscaled = linalg.ShiftConditioning(t).cleared(ws, DEFAULT_TOLS)
            # not vacuous: the stage decides most of these shifts
            assert unscaled.mean() > 0.5, seed
            for k in (0, 950, -950, -1060):
                m = np.ldexp(t.real, k) + 1j * np.ldexp(t.imag, k)
                scaled = np.ldexp(ws.real, k) + 1j * np.ldexp(ws.imag, k)
                cleared = linalg.ShiftConditioning(m).cleared(scaled, DEFAULT_TOLS)
                if k in (950, -950):
                    # the bound works in units of the largest entry, so it
                    # clears the same shifts wherever the scaling is exact
                    assert np.array_equal(cleared, unscaled), (seed, k)
                else:
                    # the rule's verdict on the shifted matrix, scaled back
                    # exactly: singular values of subnormal entries are slow
                    shifted = _shifted(m, scaled[cleared])
                    shifted = np.ldexp(shifted.real, -k) + 1j * np.ldexp(shifted.imag, -k)
                    assert not _svd_rule(shifted, DEFAULT_TOLS).any(), (seed, k)

    def test_the_distance_stage_is_sound_at_the_clearing_threshold(self):
        # shifts packed within 512 eps of the gap at which the distance stage
        # starts to clear, on the rays out of the largest and into the
        # smallest eigenvalue: those it clears pass the SVD rule, also where
        # a large coupling puts the threshold far from the eigenvalues
        tols = Tolerances(rank_tol=1e-3)
        eps = np.finfo(float).eps
        for coupling in (0.2, 20.0):
            t = np.array([[0.9 * np.exp(0.3j), coupling], [0.0, 0.5 * np.exp(-1.1j)]])
            rule = linalg.ShiftConditioning(t)
            for lam, sign in ((t[0, 0], 1.0), (t[1, 1], -1.0)):
                ray = sign * lam / abs(lam)
                lo, hi = 0.0, 4.0
                assert rule.cleared(np.array([lam + hi * ray]), tols)[0]
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if rule.cleared(np.array([lam + mid * ray]), tols)[0]:
                        hi = mid
                    else:
                        lo = mid
                ws = lam + hi * (1.0 + eps * np.arange(-512, 513)) * ray
                cleared = rule.cleared(ws, tols)
                assert cleared.any() and not cleared.all()
                assert not _svd_rule(_shifted(t, ws), tols).any()

    @pytest.mark.parametrize("n", [32, 64])
    def test_the_stage_sends_no_root_or_node_past_the_window_to_the_svd_at_large_n(self, n, monkeypatch):
        # every root of the battery that the window leaves undecided on a T
        # that is not a double contraction, and the nodes of both parts of
        # its Riesz projection; a bound that loosens like (||N||_F /
        # g)^(n-1), as Henrici's did, clears none of these roots
        t = 1.3 * certify.windowed_matrix(n, 0.5, 3)
        stack = certify._stress_battery(0.5, 2000, 1).stack
        linalg._analysis_memo.cache_clear()
        facts = linalg.analysis(t)
        roots = stack.roots[stack.mask][~facts.window(stack.moduli[stack.mask], DEFAULT_TOLS)[0]]
        svd, require, sent, nodes = np.linalg.svd, linalg.Analysis.require, [], []

        def counting_svd(a, *args, **kwargs):
            if np.ndim(a) == 3:
                sent.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(linalg.Analysis, "require", lambda self, ws, tols: nodes.append(ws) or require(self, ws, tols))
        assert not facts.screen(roots, DEFAULT_TOLS)[1].any()
        for part in calculus.SpectralPart:
            calculus.riesz_projection(t, part, calculus.ContourSpec(delta=0.1, nodes=512), 0.5)
        monkeypatch.undo()
        assert sent == []
        ws = np.concatenate([roots, *nodes])
        assert roots.size > 500 and ws.size == roots.size + 2048
        assert facts.conditioning.cleared(ws, DEFAULT_TOLS).all()
        for chunk in np.array_split(ws, 16):
            assert not _svd_rule(_shifted(t, chunk), DEFAULT_TOLS).any()

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_the_substitutions_keep_within_the_derived_rounding_bound(self, n):
        # M x = e solved by the shared substitution on comparison matrices
        # whose inverses grow up to about 1e16, against exact rational
        # arithmetic: the k-th entry from the end is at least (1 - 2 eps)
        # ** ((k^2 + 3k - 2) / 2) times the exact one, and keep is at most
        # the 1 - (n^2 + 3n + 2) eps that the bound's analysis needs
        eps = np.finfo(float).eps
        rng = linalg.seeded_rng(5, n)
        for coupling in (0.1, 3.0, 30.0):
            upper = -np.triu(rng.random((n, n)), 1) * coupling
            pivots = rng.random((1, n, 4)) + 0.05
            x = linalg._back_substitute(upper, pivots, np.ones((1, n, 4)))[0]
            for j in range(4):
                exact = [Fraction(0)] * n
                for k in range(n - 1, -1, -1):
                    total = 1 - sum(Fraction(upper[k, i]) * exact[i] for i in range(k + 1, n))
                    exact[k] = total / Fraction(pivots[0, k, j])
                for k in range(n):
                    steps = n - k
                    assert Fraction(x[k, j]) >= exact[k] * Fraction(1 - 2 * eps) ** ((steps**2 + 3 * steps - 2) // 2)
        rule = linalg.ShiftConditioning(certify.windowed_matrix(n, 0.5, 3))
        assert rule.keep <= 1 - (n * n + 3 * n + 2) * eps

    def test_the_distance_stage_clears_inside_shifts_but_not_nan_or_infinite_ones(self):
        t = np.array([[0.9, 0.3], [0.0, 0.6j]])
        rule = linalg.ShiftConditioning(t)
        inside = 0.75 * np.exp(1j * np.linspace(0, 2 * np.pi, 9))
        ws = np.concatenate([inside, [np.nan, np.inf, -np.inf * 1j, complex(np.nan, 1.0)]])
        # away from both eigenvalues, an inside shift is cleared
        cleared = rule.cleared(ws, DEFAULT_TOLS)
        assert cleared[:9].all() and not cleared[9:].any()

    def test_a_zgees_failure_raises_no_convergence(self, monkeypatch):
        zgees = sla.lapack.zgees

        def failing(*args, **kwargs):
            return (*zgees(*args, **kwargs)[:-1], 1)

        monkeypatch.setattr(sla.lapack, "zgees", failing)
        t = certify.windowed_matrix(3, 0.5, 4)
        with pytest.raises(NoConvergence, match="info = 1"):
            linalg.ShiftConditioning(t)
        f = AnnulusRational(r=0.5, p_coeffs=(0.3, 1.0), q1_roots=(2.5,))
        with pytest.raises(NoConvergence):
            calculus.factored_norms(rational.factored_stack([f]), t)
        with pytest.raises(NoConvergence):
            calculus.eval_contour(f, t, calculus.ContourSpec(delta=0.05, nodes=64))


def _window_matrices() -> dict:
    q = random_unitary(6, 66)
    jordan = q @ (0.7 * np.exp(0.4j) * np.eye(6) + np.eye(6, k=1)) @ q.conj().T
    mats = {f"windowed-{n}-{s}": certify.windowed_matrix(n, 0.5, s) for n in (2, 4, 16, 32) for s in (1, 3)}
    mats.update(
        shear=certify.example_matrix(0.5),
        jordan=jordan,
        singular=np.diag([0.7, 0.0]).astype(complex),
        normal=certify.normal_annulus_matrix(4, 0.5, 3),
    )
    for k in (950, -950):
        mats[f"windowed-4-3-x2^{k}"] = certify.windowed_matrix(4, 0.5, 3) * 2.0**k
        mats[f"jordan-x2^{k}"] = jordan * 2.0**k
    return mats


def _window_shifts(t, seed, scale):
    """Every occupied root of the battery of ``seed`` at r = 0.5, times
    ``scale``, then shifts at ``10^-k`` (k = 1..15) relative outside and
    inside the band of ``T``'s singular values and beside each
    eigenvalue."""
    stack = certify._stress_battery(0.5, 2000, seed).stack
    roots, first = np.unique(stack.roots[stack.mask], return_index=True)
    svals, lams = np.linalg.svd(t, compute_uv=False), np.linalg.eigvals(t)
    steps = 10.0 ** -np.arange(1, 16)
    ray = np.exp(2j * np.pi * np.arange(15) / 15)
    edges = [svals[0] * (1 + steps) * ray, svals[-1] * (1 - steps) * ray]
    edges += [lam * (1 + sign * steps) for lam in lams for sign in (1, -1)]
    ws = np.concatenate([roots * scale, *edges])
    mods = np.concatenate([stack.moduli[stack.mask][first] * scale, np.abs(np.concatenate(edges))])
    return ws, mods


@pytest.mark.oldest_pins
class TestShiftWindow:
    """The singular-value window of :class:`linalg.Analysis` clears only
    shifts that the rule passes on an explicit SVD of ``T - wI`` and that
    lie beyond the touch limit of every computed eigenvalue; and the whole
    chain of stages gives the verdicts of the explicit tests."""

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("name", sorted(_window_matrices()))
    def test_every_shift_the_window_clears_passes_the_explicit_tests(self, name, seed):
        t = _window_matrices()[name]
        scales = [1.0] + ([2.0 ** int(name.rsplit("^", 1)[1])] if "^" in name else [])
        for scale in scales:
            ws, mods = _window_shifts(t, seed, scale)
            linalg._analysis_memo.cache_clear()
            facts = linalg.analysis(t)
            cleared, apart = facts.window(mods, DEFAULT_TOLS)
            svals = np.linalg.svd(t, compute_uv=False)
            shifted = _shifted(t, ws)
            ill = _svd_rule(shifted, DEFAULT_TOLS)
            gaps = np.abs(ws[:, np.newaxis] - np.linalg.eigvals(t)).min(axis=1)
            touch = gaps <= DEFAULT_TOLS.rank_tol * np.maximum(mods, svals[0])
            assert not (cleared & ill).any()
            assert not (apart & touch).any()
            assert not ((cleared | apart) & (mods >= svals[-1]) & (mods <= svals[0])).any()
            # the stages together: the explicit verdicts, shift for shift
            screened = facts.screen(ws, DEFAULT_TOLS, mods)
            assert np.array_equal(screened[0], touch) and np.array_equal(screened[1], ill)
            # not vacuous: the window decides shifts outside the band
            assert cleared.sum() >= 0.3 * mods.size and apart.sum() >= 0.3 * mods.size

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 9, 16, 32])
    # (r, battery seed, seed of T)
    @pytest.mark.parametrize("r, seed, t_seed", [(0.5, 1, 3), (0.25, 1, 1), (0.5, 2, 2), (0.81, 3, 3)])
    def test_a_double_contraction_decides_every_battery_root_from_its_singular_values(self, r, seed, t_seed, n):
        stack = certify._stress_battery(r, 2000, seed).stack
        linalg._analysis_memo.cache_clear()
        facts = linalg.analysis(certify.windowed_matrix(n, r, t_seed))
        cleared, apart = facts.window(stack.moduli[stack.mask], DEFAULT_TOLS)
        assert cleared.all() and apart.all()
        assert set(vars(facts)) == {"matrix", "singular_values", "_window_bounds"}

    def test_screen_and_require_evaluate_the_window_once(self, monkeypatch):
        # On the shear of the calculus example the window decides the two
        # far shifts, the comparison bound the two at distance 100 and 300, and
        # the singular values of T - wI the two near 1.2, one of which
        # touches the spectrum.  Each stage sees only what the earlier
        # ones leave.
        t = np.array([[1.2, 1e6], [0.0, 1.2]])
        ws = np.array([1.3, 100.0, 1.2, 2e7, -300j, 4e6j])
        svd, calls = np.linalg.svd, []

        def counting(stage, method):
            def wrapper(self, shifts, tols):
                calls.append((stage, shifts.size))
                return method(self, shifts, tols)

            return wrapper

        def counting_svd(a, *args, **kwargs):
            if np.ndim(a) == 3:
                calls.append(("svd", len(a)))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(linalg.Analysis, "window", counting("window", linalg.Analysis.window))
        monkeypatch.setattr(linalg.ShiftConditioning, "cleared", counting("bound", linalg.ShiftConditioning.cleared))
        linalg._analysis_memo.cache_clear()
        facts = linalg.analysis(t)
        touch, failed = facts.screen(ws, DEFAULT_TOLS)
        stages = [("window", 6), ("bound", 4), ("svd", 2)]
        assert calls == stages
        assert touch.tolist() == [False, False, True, False, False, False]
        assert failed.tolist() == [True, False, True, False, False, False]
        with pytest.raises(Singular, match=r"at 2 of 6 points$"):
            facts.require(ws, DEFAULT_TOLS)
        assert calls == stages * 2

    def test_inside_nan_and_infinite_shifts_and_an_overflowing_t_are_left_undecided(self):
        facts = linalg.analysis(np.array([[0.9, 0.3], [0.0, 0.6j]]))
        svals = facts.singular_values
        inside = np.linspace(svals[-1], svals[0], 9) * np.exp(0.3j)
        ws = np.concatenate([inside, [np.nan, np.inf, -np.inf * 1j, complex(np.nan, 1.0)]])
        with np.errstate(invalid="ignore"):
            mods = np.abs(ws)
        for decided in facts.window(mods, DEFAULT_TOLS):
            assert not decided.any()
        huge = linalg.analysis(np.full((2, 2), 1.7e308))
        for decided in huge.window(np.array([0.0, 2.5, 1e300]), DEFAULT_TOLS):
            assert not decided.any()


def _f(r):
    return AnnulusRational(r=r, p_coeffs=(0.3, 1.0, -0.2j), q1_roots=(2.5, -1.7j), q2_roots=(0.1 * r, -0.2j * r))


def _bits(value) -> list:
    """The bytes of a reader's result, an exception's type and message included."""
    if isinstance(value, BaseException):
        return [f"{type(value).__name__}: {value}"]
    if isinstance(value, (tuple, list)):
        return [bit for item in value for bit in _bits(item)]
    if isinstance(value, dict):
        return [bit for key in sorted(value) for bit in [key, *_bits(value[key])]]
    if isinstance(value, calculus.ContourSpec):
        return _bits((value.delta, value.nodes))
    if isinstance(value, certify.CertificationReport):
        return [json.dumps(value.to_json())]
    if isinstance(value, certify.WilliamsVerdict):
        return [value.value]
    if isinstance(value, dilation.ModelTriple):
        pair = value.pair
        return _bits((pair.g, pair.d1, pair.d2, pair.t1, pair.t2))
    if isinstance(value, ar_unitary.ArUnitaryDecomposition):
        return _bits((value.p1, value.p2, value.u1, value.u2, value.basis1, value.basis2, value.residual))
    if isinstance(value, linalg.EigDecomposition):
        return _bits((value.q, value.lambdas, value.residual))
    return [np.asarray(value).tobytes(), np.asarray(value).dtype.str]


def _readers(t) -> dict:
    """Every public route that reads ``T``'s analysis, on ``T``: the
    annulus routes at r = 0.5 for a ``T`` in the annulus, the two-circle
    routes for an ``A_r``-unitary."""
    r = 0.5
    f = _f(r)
    inner = AnnulusRational(r=r, p_coeffs=(0.7,), q2_roots=(0.1 * r, -0.2j * r))
    spec = calculus.ContourSpec(delta=0.05, nodes=512)
    split = calculus.ContourSpec(delta=0.125, nodes=512)
    model = lambda: dilation.build_model(t, r, 8)  # noqa: E731
    return {
        "eval_direct": lambda: calculus.eval_direct(f, t),
        "factored_norms": lambda: calculus.factored_norms(rational.factored_stack([f, _f(r)]), t),
        "eval_laurent": lambda: calculus.eval_laurent(f, t, 40),
        "laurent_remainder_bound": lambda: calculus.laurent_remainder_bound(f, t, 40),
        "default_contour": lambda: calculus.default_contour(f, t, r),
        "eval_contour": lambda: calculus.eval_contour(f, t, spec),
        "riesz_projection": lambda: calculus.riesz_projection(t, calculus.SpectralPart.OUTER, split, r),
        "build_model": model,
        "verify_model": lambda: dilation.verify_model(model(), t, f),
        "moment_table": lambda: dilation.moment_table(model(), t, 8),
        "is_ar_unitary": lambda: ar_unitary.is_ar_unitary(t, r),
        "membership_subspaces": lambda: ar_unitary.membership_subspaces(t, r),
        "decompose": lambda: ar_unitary.decompose(t, r),
        "eig_normal": lambda: eig_normal(t),
        "inverse": lambda: linalg.analysis(t).inverse(),
        "vonneumann_stress": lambda: certify.vonneumann_stress(t, r, 200, 1),
        "full_certification": lambda: certify.full_certification(t, r, 200, 1),
        "spectrum_in_annulus": lambda: certify.spectrum_in_annulus(t, r),
        "norm_window": lambda: certify.norm_window(t, r),
        "double_contraction_check": lambda: certify.double_contraction_check(t, r),
        "involution": lambda: certify.involution(t, r),
        "williams_verdict": lambda: certify.williams_verdict(t, r),
        "generator_defects": lambda: dilation.ando_pair(t, r * linalg.inverse(t), 9).generator_defects,
        "single_carrier_residual": lambda: dilation.single_carrier_residual(t, r, inner, 8),
    }


# The readers that give an answer, not a typed refusal, on an annulus T and
# on an A_r-unitary.
_ANNULUS_READERS = {
    "eval_direct",
    "factored_norms",
    "eval_laurent",
    "laurent_remainder_bound",
    "default_contour",
    "eval_contour",
    "build_model",
    "verify_model",
    "moment_table",
    "is_ar_unitary",
    "inverse",
    "vonneumann_stress",
    "full_certification",
    "spectrum_in_annulus",
    "norm_window",
    "double_contraction_check",
    "involution",
    "williams_verdict",
    "generator_defects",
    "single_carrier_residual",
}
_SPLIT_READERS = {"is_ar_unitary", "membership_subspaces", "decompose", "riesz_projection", "eig_normal", "inverse"}


def _read(reader) -> tuple:
    """``(answered, bits)``: whether ``reader`` gave an answer, not a typed
    refusal, and the bits of either."""
    try:
        return True, _bits(reader())
    except Exception as exc:  # a typed refusal is a reading too
        return False, _bits(exc)


def _analysed_matrices() -> dict:
    q = random_unitary(5, 3)
    split = q @ ar_unitary.make_ar_unitary(random_unitary(3, 1), random_unitary(2, 2), 0.5) @ q.conj().T
    return {
        "windowed": certify.windowed_matrix(4, 0.5, 3),
        "normal": certify.normal_annulus_matrix(4, 0.5, 3),
        "split": split,
        "split-fortran": np.asfortranarray(split),
        "windowed-fortran": np.asfortranarray(certify.windowed_matrix(3, 0.5, 8)),
    }


@pytest.mark.oldest_pins
class TestAnalysisMemo:
    """A warm read gives a cold one's bits, which needs the read-only copy of T, in T's memory order, to give T's."""
    @pytest.mark.parametrize("name", sorted(_analysed_matrices()))
    def test_warm_reads_equal_cold_reads_bit_for_bit(self, name):
        t = _analysed_matrices()[name]
        readers = _readers(t)
        cold = {}
        for key, reader in readers.items():
            linalg._analysis_memo.cache_clear()
            cold[key] = _read(reader)
        succeeded = {key for key, (answered, _) in cold.items() if answered}
        assert (_SPLIT_READERS if name.startswith("split") else _ANNULUS_READERS) <= succeeded
        # every reader after every other, in both orders
        for keys in (list(readers), list(readers)[::-1]):
            linalg._analysis_memo.cache_clear()
            for key in keys:
                assert _read(readers[key]) == cold[key], key

    def test_a_changed_matrix_and_each_layout_get_their_own_analysis(self):
        t = certify.windowed_matrix(3, 0.5, 4)
        linalg._analysis_memo.cache_clear()
        first = linalg.analysis(t)
        assert linalg.analysis(t.copy()) is first
        want = first.spectrum.copy()
        t[0, 1] += 0.25
        second = linalg.analysis(t)
        assert second is not first and not np.array_equal(second.spectrum, want)
        # the first analysis kept its own copy
        assert np.array_equal(first.spectrum, want) and not np.array_equal(first.matrix, t)
        fortran = np.asfortranarray(t)
        assert linalg.analysis(fortran) is not second
        assert np.isfortran(linalg.analysis(fortran).matrix) and not np.isfortran(second.matrix)
        assert linalg.analysis(np.asfortranarray(t)) is linalg.analysis(fortran)
        # a view that is neither C- nor Fortran-contiguous gets its values' analysis
        wide = np.zeros((3, 6), dtype=complex)
        wide[:, ::2] = t
        assert np.array_equal(linalg.analysis(wide[:, ::2]).spectrum, spectrum(t))

    def test_cached_arrays_are_read_only(self):
        facts = linalg.analysis(certify.windowed_matrix(3, 0.5, 4))
        rule = facts.conditioning
        arrays = [facts.matrix, facts.spectrum, facts.singular_values, facts.inverse(), rule.triangle, rule.vectors]
        for array in arrays + [rule.lams]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7.0

    def test_parts_equal_the_functions_of_the_same_name(self):
        for t in _analysed_matrices().values():
            linalg._analysis_memo.cache_clear()
            facts = linalg.analysis(t)
            assert np.array_equal(facts.spectrum, spectrum(t))
            assert facts.norm == operator_norm(t)
            assert np.array_equal(facts.singular_values, linalg.singular_values(t))
            assert np.array_equal(facts.inverse(), linalg.inverse(t))
            assert facts.inverse_norm == operator_norm(linalg.inverse(t))
            for tols in (DEFAULT_TOLS, Tolerances(eig_tol=1e-3)):
                assert facts.is_normal(tols) == linalg.is_normal(t, tols)
            rule = linalg.ShiftConditioning(t)
            assert np.array_equal(facts.conditioning.triangle, rule.triangle)
            assert np.array_equal(facts.conditioning.vectors, rule.vectors)

    def test_singular_is_raised_at_each_call_s_tolerance(self):
        t = np.diag([1.0, 1e-6]).astype(complex)
        linalg._analysis_memo.cache_clear()
        facts = linalg.analysis(t)
        with pytest.raises(Singular, match="condition estimate exceeds 1.0e"):
            facts.inverse(Tolerances(rank_tol=1e-5))
        assert np.array_equal(facts.inverse(DEFAULT_TOLS), linalg.inverse(t))
        with pytest.raises(Singular, match="condition estimate exceeds"):
            facts.inverse(Tolerances(rank_tol=1e-5))
        with pytest.raises(Singular, match="overflows"):
            linalg.analysis(1e-310 * np.eye(2)).inverse()
        with pytest.raises(NotSquare):
            linalg.analysis(np.ones((2, 3)))

    def test_the_memo_keeps_at_most_its_bound_and_clears(self):
        linalg._analysis_memo.cache_clear()
        for k in range(linalg._ANALYSIS_SIZE + 4):
            linalg.analysis((0.5 + 0.01 * k) * np.eye(2))
        info = linalg._analysis_memo.cache_info()
        assert info.currsize == info.maxsize == linalg._ANALYSIS_SIZE
        linalg._analysis_memo.cache_clear()
        assert linalg._analysis_memo.cache_info().currsize == 0

    def test_threads_on_one_cold_matrix_match_a_sequential_run(self):
        t = certify.windowed_matrix(4, 0.5, 3)
        readers = _readers(t)
        names = ["eval_direct", "eval_contour", "verify_model", "eval_laurent", "vonneumann_stress"]
        expected = []
        for key in names:
            linalg._analysis_memo.cache_clear()
            expected.append(_read(readers[key]))
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                linalg._analysis_memo.cache_clear()
                results = [None] * len(names)
                start = threading.Barrier(len(names))

                def work(k):
                    start.wait()
                    results[k] = _read(readers[names[k]])

                threads = [threading.Thread(target=work, args=(k,)) for k in range(len(names))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert results == expected
        finally:
            sys.setswitchinterval(previous)


_RESULTS = {
    "EigDecomposition": lambda: eig_normal(certify.normal_annulus_matrix(3, 0.5, 2)),
    "ArUnitaryDecomposition": lambda: ar_unitary.decompose(
        ar_unitary.make_ar_unitary(random_unitary(2, 1), random_unitary(1, 2), 0.5), 0.5
    ),
    "AndoPair": lambda: dilation.ando_pair(*commuting_contraction_pair(2, 3), m_depth=3),
    "ModelTriple": lambda: dilation.build_model(certify.windowed_matrix(2, 0.5, 3), 0.5, 4),
    "LaurentSeries": lambda: rational.laurent_expand(AnnulusRational(r=0.5, q1_roots=(2.0,)), 6),
    "FactoredStack": lambda: rational.factored_stack([AnnulusRational(r=0.5, q1_roots=(2.0,))]),
}


@pytest.mark.parametrize("name", sorted(_RESULTS))
def test_results_that_hold_arrays_are_equal_only_to_themselves_and_hash(name):
    x = _RESULTS[name]()
    assert type(x).__name__ == name
    assert x == x and not x != x
    assert x != _RESULTS[name]()
    assert hash(x) == hash(x)
