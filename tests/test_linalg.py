import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from annulus_lab import linalg
from annulus_lab.errors import (
    DimensionMismatch,
    NotIsometric,
    NotNormal,
    NotSquare,
    Singular,
)
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
