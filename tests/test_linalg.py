import json
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from annulus_lab import calculus, certify, dilation, linalg, rational
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

EXAMPLE = np.array([[0.5, 0.75], [0.0, 0.5]], dtype=complex)  # norm-one shear, r = 0.25


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert (t.eig_tol, t.rank_tol, t.verify_tol) == (1e-10, 1e-9, 1e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerances(eig_tol=0.0)


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
            assert linalg.is_normal(m) == want == linalg.is_normal(m, DEFAULT_TOLS, norm)
            verdicts.append(want)
        assert any(verdicts) and not all(verdicts)


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
        "seeded_rngs": lambda seed: next(linalg.seeded_rngs(seed, 17, 0, 1)),
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
_KEY_RANGES = [(0, 0), (7, 8), (0, 40), (2**32 - 3, 2**32)]
_RANGE_IDS = ["empty", "one", "forty", "last-three"]


def _first_draws(rng):
    """Draws that leave a half-used 32-bit word and a part-used Philox buffer."""
    return rng.integers(0, 5), rng.random(3), rng.standard_normal(5), rng.integers(0, 2**40, 2)


class TestSeededRngs:
    """The keyed stream gives ``seeded_rng(seed, stream, i)``'s generators."""

    @pytest.mark.parametrize("start, stop", _KEY_RANGES, ids=_RANGE_IDS)
    @pytest.mark.parametrize("stream", [3, 17])
    @_KEY_SEEDS
    def test_keys_are_the_seed_sequence_keys(self, seed, stream, start, stop):
        keys = linalg._spawn_keys(seed, stream, start, stop)
        assert keys.shape == (stop - start, 2) and keys.dtype == np.uint64
        for i, key in zip(range(start, stop), keys):
            want = np.random.SeedSequence(seed, spawn_key=(stream, i)).generate_state(2, np.uint64)
            assert np.array_equal(key, want)

    @pytest.mark.parametrize("start, stop", _KEY_RANGES + [(2**32 - 1, 2**32 + 2)], ids=_RANGE_IDS + ["past-2^32"])
    @pytest.mark.parametrize("stream", [3, 17])
    @_KEY_SEEDS
    def test_draws_are_the_seeded_rng_draws(self, seed, stream, start, stop):
        got = [_first_draws(rng) for rng in linalg.seeded_rngs(seed, stream, start, stop)]
        want = [_first_draws(linalg.seeded_rng(seed, stream, i)) for i in range(start, stop)]
        assert len(got) == len(want) == stop - start
        for a, b in zip(got, want):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_a_negative_seed_raises_as_seeded_rng_does(self):
        with pytest.raises(ValueError):
            next(linalg.seeded_rngs(-1, 17, 0, 1))


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


def _helper(t, ws, tols):
    rule = linalg.ShiftConditioning(t)
    return rule.failed(ws, rule.cleared(ws, tols), tols)


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


class TestShiftConditioning:
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
        rule = linalg.ShiftConditioning(t)
        with pytest.raises(Singular, match=r"exceeds 1\.0e\+09 at 3 of 8 points$"):
            rule.require(ws, DEFAULT_TOLS)
        rule.require(ws[~failed], DEFAULT_TOLS)
        # every node of the circle |w| = 1.3 around the shear fails the rule
        f = AnnulusRational(r=0.5, p_coeffs=(1.0,))
        with pytest.raises(Singular, match=r"exceeds 1\.0e\+09 at 16 of 16 points$"):
            calculus.eval_contour(f, t, calculus.ContourSpec(delta=0.3, nodes=16))

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
