"""Dense complex linear algebra substrate.

Matrices are plain ``numpy.ndarray`` objects with complex entries; this
module supplies the factorizations, norms, seeded generators and the JSON
wire format that the rest of the toolkit builds on.  Eigendecomposition is
only offered for (numerically) normal matrices, where the unitary Schur
basis doubles as an orthonormal eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotIsometric,
    NotNormal,
    NotSquare,
    Singular,
)


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the toolkit (all dimensionless)."""

    eig_tol: float = 1e-10
    norm_tol: float = 1e-12
    rank_tol: float = 1e-9
    verify_tol: float = 1e-8

    def __post_init__(self):
        for name in ("eig_tol", "norm_tol", "rank_tol", "verify_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOLS = Tolerances()


def as_matrix(a, allow_empty: bool = False) -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    if not allow_empty and (m.shape[0] == 0 or m.shape[1] == 0):
        raise DimensionMismatch("empty matrix not allowed here")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix has NaN/Inf entries")
    return m


def _require_square(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"matrix is {m.shape[0]}x{m.shape[1]}")


def operator_norm(a) -> float:
    """Largest singular value."""
    m = as_matrix(a)
    return float(np.linalg.norm(m, 2))


def spectral_order(lams: np.ndarray) -> np.ndarray:
    """Permutation sorting eigenvalues by descending modulus, then ascending argument."""
    lams = np.asarray(lams, dtype=complex)
    return np.lexsort((np.angle(lams), -np.abs(lams)))


def spectrum(a) -> np.ndarray:
    """Eigenvalues of a general square matrix, in the canonical order."""
    m = as_matrix(a)
    _require_square(m)
    try:
        lams = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NoConvergence(str(exc)) from exc
    return lams[spectral_order(lams)]


@dataclass(frozen=True)
class EigDecomposition:
    """Unitary eigendecomposition ``A = Q diag(lambdas) Q*`` of a normal matrix."""

    q: np.ndarray
    lambdas: np.ndarray
    residual: float


def eig_normal(a, tols: Tolerances = DEFAULT_TOLS) -> EigDecomposition:
    """Eigendecomposition of a (numerically) normal matrix.

    The input must satisfy ``||A*A - AA*|| <= eig_tol * ||A||^2``; the unitary
    Schur factor then serves as the eigenvector basis.  Eigenvalues come back
    sorted by descending modulus with ties broken by ascending argument.
    """
    m = as_matrix(a)
    _require_square(m)
    n = m.shape[0]
    norm_a = operator_norm(m)
    comm = m.conj().T @ m - m @ m.conj().T
    if operator_norm(comm) > tols.eig_tol * max(norm_a**2, np.finfo(float).tiny):
        raise NotNormal(
            f"commutator norm {operator_norm(comm):.3e} exceeds "
            f"{tols.eig_tol:.1e} * ||A||^2"
        )
    try:
        t, q = sla.schur(m, output="complex")
    except (sla.LinAlgError, ValueError) as exc:
        raise NoConvergence(str(exc)) from exc
    lams = np.diag(t).copy()
    perm = spectral_order(lams)
    q = q[:, perm]
    lams = lams[perm]
    residual = operator_norm(m @ q - q * lams[np.newaxis, :]) + operator_norm(
        q.conj().T @ q - np.eye(n)
    )
    if residual > 10 * tols.eig_tol * max(1.0, norm_a):
        raise NoConvergence(f"eigendecomposition residual {residual:.3e} too large")
    return EigDecomposition(q=q, lambdas=lams, residual=residual)


def solve(a, b, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Solve ``A X = B`` for well-conditioned square ``A``.

    Raises :class:`Singular` when the condition estimate exceeds
    ``1 / rank_tol`` (smallest singular value below ``rank_tol * largest``).
    """
    ma = as_matrix(a)
    _require_square(ma)
    mb = as_matrix(b)
    if mb.shape[0] != ma.shape[0]:
        raise DimensionMismatch(f"A is {ma.shape}, B is {mb.shape}")
    if _ill_conditioned(np.linalg.svd(ma, compute_uv=False), tols):
        raise Singular(f"condition estimate exceeds {1.0 / tols.rank_tol:.1e}")
    return sla.solve(ma, mb)


def _ill_conditioned(svals: np.ndarray, tols: Tolerances):
    """Conditioning rule of :func:`solve`, per matrix.

    ``svals`` holds descending singular values along its last axis; a matrix
    fails when its smallest singular value is at most ``rank_tol`` times its
    largest (the zero matrix included).  One matrix gives a scalar.
    """
    return svals.T[-1] <= tols.rank_tol * svals.T[0]


def resolvents(a, ws, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Stack of resolvents ``(w_k I - A)^{-1}``, shape ``(len(ws), n, n)``.

    Every shifted matrix passes the conditioning rule of :func:`solve` in one
    batched singular-value call, and the stack is inverted in one batched
    LAPACK call; :class:`Singular` is raised if any point fails the rule.
    """
    m = as_matrix(a)
    _require_square(m)
    ws = np.asarray(ws, dtype=complex)
    shifted = ws[:, np.newaxis, np.newaxis] * np.eye(m.shape[0]) - m
    failed = _ill_conditioned(np.linalg.svd(shifted, compute_uv=False), tols)
    if failed.any():
        raise Singular(
            f"condition estimate exceeds {1.0 / tols.rank_tol:.1e} "
            f"at {int(failed.sum())} of {failed.size} points"
        )
    return np.linalg.inv(shifted)


def inverse(a, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Matrix inverse through :func:`solve`."""
    m = as_matrix(a)
    _require_square(m)
    return solve(m, np.eye(m.shape[0]), tols)


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for a (seed, stream...) key.

    Sub-streams are derived with ``SeedSequence(seed, spawn_key=stream)`` so a
    single user-facing seed deterministically covers every consumer.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, bit-reproducible for a fixed (n, seed).

    Complex Ginibre entries are orthonormalized by QR and the phases fixed so
    the implicit R factor has a real positive diagonal.
    """
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    rng = seeded_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[np.newaxis, :]


def unitary_completion(v, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Extend ``k`` orthonormal columns in dimension ``n`` to an ``n x n`` unitary.

    The first ``k`` columns of the result equal ``v`` exactly.
    """
    m = as_matrix(v)
    n, k = m.shape
    if k > n:
        raise DimensionMismatch(f"cannot complete {k} columns in dimension {n}")
    defect = operator_norm(m.conj().T @ m - np.eye(k))
    if defect > tols.rank_tol:
        raise NotIsometric(f"columns not orthonormal: ||V*V - I|| = {defect:.3e}")
    if k == n:
        return m.copy()
    q, _ = np.linalg.qr(m, mode="complete")
    u = np.hstack([m, q[:, k:]])
    # The complement from QR is orthogonal to range(V) but roundoff can leak;
    # one re-orthogonalization pass of the tail keeps ||U*U - I|| at 1e-15.
    tail = u[:, k:] - m @ (m.conj().T @ u[:, k:])
    u[:, k:], _ = np.linalg.qr(tail)
    return u


def sqrtm_psd(h, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues below ``rank_tol`` that rounded negative are clamped to zero.
    """
    m = as_matrix(h)
    _require_square(m)
    w, q = np.linalg.eigh(0.5 * (m + m.conj().T))
    if w.size and w[0] < -tols.rank_tol * max(1.0, abs(w[-1])):
        raise ValueError(f"matrix is not positive semidefinite: min eig {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    return (q * np.sqrt(w)[np.newaxis, :]) @ q.conj().T


# ---------------------------------------------------------------------------
# JSON wire format: {"rows": n, "cols": m, "data": [[re, im], ...]} row-major.
# ---------------------------------------------------------------------------


def matrix_to_json(a) -> dict:
    """Serialize a matrix to the row-major [re, im] pair format."""
    m = as_matrix(a, allow_empty=True)
    flat = m.reshape(-1)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the matrix wire format, rejecting NaN/Inf and shape mismatches."""
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if len(data) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
    out = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(data):
        re, im = float(pair[0]), float(pair[1])
        if not (np.isfinite(re) and np.isfinite(im)):
            raise ValueError(f"non-finite entry at index {i}")
        out[i] = complex(re, im)
    return out.reshape(rows, cols)
