"""Dense complex linear algebra substrate.

Matrices are plain ``numpy.ndarray`` objects with complex entries; this
module supplies the factorizations, norms, seeded generators and the JSON
wire format that the rest of the toolkit builds on.  Eigendecomposition is
only offered for (numerically) normal matrices, where the unitary Schur
basis doubles as an orthonormal eigenbasis.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    BadRadius,
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
    rank_tol: float = 1e-9
    verify_tol: float = 1e-8

    def __post_init__(self):
        for name in ("eig_tol", "rank_tol", "verify_tol"):
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


def as_integer(value, name: str, least: int) -> int:
    """``value`` as an ``int`` if it is an integer (numpy's too, not a
    ``bool``) of at least ``least``, else ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def as_size(n) -> int:
    """A matrix size ``n`` as an ``int``: ``ValueError`` naming ``n`` unless
    it is an integer (numpy's too, not a ``bool``), and
    :class:`DimensionMismatch` below 1."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    return int(n)


def require_radius(r: float) -> None:
    """:class:`BadRadius` unless the inner radius ``r`` is in (0, 1)."""
    if not (0.0 < r < 1.0):
        raise BadRadius(f"inner radius must be in (0, 1), got {r}")


def _require_square(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"matrix is {m.shape[0]}x{m.shape[1]}")


def singular_values(a) -> np.ndarray:
    """Singular values, in descending order."""
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def operator_norm(a) -> float:
    """Largest singular value."""
    return float(singular_values(a)[0])


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


def _ldexp(z, exponent: int) -> np.ndarray:
    """``z * 2**exponent`` as a complex array, part by part, for any
    ``exponent`` (``2.0**-1074`` and ``2.0**1024`` are out of a float's
    range); exact unless a part leaves the normal range.  The result keeps
    the memory order of ``z``: a BLAS product rounds by the layout of its
    operands, so a Fortran-ordered Schur triangle stays Fortran-ordered."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    np.ldexp(z.real, exponent, out=out.real)
    np.ldexp(z.imag, exponent, out=out.imag)
    return out


def is_normal(m: np.ndarray, tols: Tolerances = DEFAULT_TOLS, norm: float | None = None) -> bool:
    """``||A*A - AA*|| <= eig_tol * max(||A||^2, tiny)``; ``norm`` is ``||A||``
    when the caller has it already.

    Both sides are formed for ``A`` scaled by the power of two that brings
    ``||A||`` into ``[1/2, 1)``, so the commutator cannot overflow; the
    scaling is exact, which leaves the verdict that of the unscaled test
    wherever that one neither overflows nor underflows.
    """
    if norm is None:
        norm = operator_norm(m)
    shift = -int(np.frexp(norm)[1])
    a, norm = _ldexp(m, shift), float(np.ldexp(norm, shift))
    comm = a.conj().T @ a - a @ a.conj().T
    return operator_norm(comm) <= tols.eig_tol * max(norm**2, np.finfo(float).tiny)


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
    if not is_normal(m, tols, norm_a):
        comm = m.conj().T @ m - m @ m.conj().T
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
    ``1 / rank_tol`` (smallest singular value below ``rank_tol * largest``),
    or when the solution is not finite: a well-conditioned ``A`` of
    subnormal scale, such as ``1e-310 * I``, has an inverse that overflows.
    """
    ma = as_matrix(a)
    _require_square(ma)
    mb = as_matrix(b)
    if mb.shape[0] != ma.shape[0]:
        raise DimensionMismatch(f"A is {ma.shape}, B is {mb.shape}")
    if _ill_conditioned(np.linalg.svd(ma, compute_uv=False), tols):
        raise Singular(f"condition estimate exceeds {1.0 / tols.rank_tol:.1e}")
    x = np.linalg.solve(ma, mb)
    if not np.isfinite(x).all():
        raise Singular("the solution overflows")
    return x


def _ill_conditioned(svals: np.ndarray, tols: Tolerances):
    """Conditioning rule of :func:`solve`, per matrix.

    ``svals`` holds descending singular values along its last axis; a matrix
    fails when its smallest singular value is at most ``rank_tol`` times its
    largest (the zero matrix included).  One matrix gives a scalar.
    """
    return svals.T[-1] <= tols.rank_tol * svals.T[0]


# Generous multiples of ``n * eps`` in ShiftConditioning: the backward error
# of the computed Schur form, as a fraction of ``||T||_F`` (an assumed
# constant; see the class docstring), and the rounding of the bound itself,
# of the shifted matrices and of their singular values.
_SCHUR_ERROR = 1024
_ROUNDING = 64
_EPS = float(np.finfo(float).eps)


def _schur_triangle(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form ``(R, Q)`` of ``m``, ``m + E = Q R Q*`` with ``R``
    upper triangular and ``Q`` unitary; :class:`NoConvergence` if ``zgees``
    fails.

    ``zgees`` balances by permutation only, which is exact, so the form is
    exact for ``m + E`` with ``||E||_F`` of order ``n eps ||m||_F``;
    ``eigvals`` also scales and has no such bound in terms of ``m``.
    """
    tri, _, _, vectors, _, info = sla.lapack.zgees(lambda w: None, m, compute_v=1)
    if info != 0:
        raise NoConvergence(f"zgees failed with info = {info}")
    return tri, vectors


class ShiftConditioning:
    """:func:`solve`'s conditioning rule for shifts ``T - wI`` of one matrix.

    A shift is cleared without a singular-value call when Henrici's bound
    (Numer. Math. 4, 1962) proves ``sigma_min(T - wI)`` far enough above
    ``rank_tol * sigma_max``.  With ``lambda_i`` and ``N`` the diagonal and
    strict upper part of a Schur form of ``T + E``, ``g = min|lambda_i - w|``
    and ``nu >= ||N||_F``,

        sigma_min(T - wI) >= lo = 1 / sum_{k<n} nu^k / g^(k+1) - ||E||_F
        sigma_max(T - wI) <= hi = ||T||_F + |w|,

    and ``lo > (2 rank_tol + 64 n eps) hi`` leaves room for the rounding of
    the shifted matrix and of its singular values, so the rule would find
    that shift well conditioned too.  :meth:`cleared` applies the bound to
    an array of shifts; :meth:`failed` gives every other shift the singular
    values of ``T - wI`` as :func:`solve` does, forming the shifted matrix
    only there, so the verdicts are those of the rule; :meth:`require`
    raises :class:`Singular` on any failure.  The bound is computed with
    ``T`` scaled by the power of two that brings its largest entry into
    ``[1/2, 1)``, which every finite ``T`` has, subnormal or near overflow.

    ``triangle`` is the Schur triangle unscaled by the same power of two
    (exact wherever its entries stay in the normal range; one that
    overflows reads ``inf``), ``R`` with ``T + E = Q R Q*``, and
    ``vectors`` is ``Q``, both from the one ``zgees`` call.  A unitarily
    invariant quantity of a function of ``T``, such as ``||f(T)||``, can be
    computed from ``R`` alone, and any function of ``T + E`` as
    ``Q f(R) Q*``.  If ``zgees`` fails, :class:`NoConvergence` is raised.

    The agreement with the rule rests on one assumption: that the Schur form
    LAPACK ``zgees`` computes is exact for some ``T + E`` with
    ``||E||_F <= 1024 n eps ||T||_F``.  The published results give
    ``||E|| <= p(n) eps ||T||`` with ``p`` only called a modest function of
    ``n`` (LAPACK Users' Guide, 3rd ed., sec. 4.8, error bounds for the
    nonsymmetric eigenproblem; Golub and Van Loan, Matrix Computations,
    4th ed., sec. 7.5.6, for the Hessenberg QR iteration), so ``1024 n`` is
    a generous choice of ``p(n)``, not a derived one.
    """

    def __init__(self, m: np.ndarray):
        self.m = m
        self.exponent = int(np.frexp(max(np.abs(m.real).max(), np.abs(m.imag).max()))[1])
        scaled = _ldexp(m, -self.exponent)
        tri, self.vectors = _schur_triangle(scaled)
        n = m.shape[0]
        slack = _ROUNDING * n * _EPS
        fro = float(np.linalg.norm(scaled)) * (1.0 + slack)
        with np.errstate(over="ignore"):  # an eigenvalue beyond the float range reads inf
            self.triangle = _ldexp(tri, self.exponent)
        self.lams = tri.diagonal().copy()
        # rounding allowances: nu, ||T||_F and hi are rounded up by
        # (1 + slack), and the gap and the quotient gap / total down by
        # (1 - slack) each
        self.nu = float(np.linalg.norm(np.triu(tri, 1))) * (1.0 + slack) / (1.0 - slack)
        self.keep = (1.0 - slack) ** 2
        self.fro = fro
        self.slack = slack
        # n * tiny covers entries that scaling pushed below the normal range
        self.error = _SCHUR_ERROR * n * _EPS * fro + n * np.finfo(float).tiny

    def cleared(self, ws: np.ndarray, tols: Tolerances) -> np.ndarray:
        """Where the bound proves the shift ``ws[...]`` well conditioned."""
        # A zero gap, an overflow or a non-finite shift gives a NaN or
        # infinite term, and the comparisons then clear nothing.
        with np.errstate(all="ignore"):
            ws = _ldexp(ws, -self.exponent)
            dist = np.abs(ws)
            gap = np.abs(ws[..., np.newaxis] - self.lams).min(axis=-1)
            rho = self.nu / gap
            total = 1.0
            for _ in range(self.lams.size - 1):
                total = 1.0 + rho * total
            lo = gap * self.keep / total - self.error
            theta = (2.0 * tols.rank_tol + self.slack) * (1.0 + self.slack)
            return lo > theta * (self.fro + dist)

    def failed(self, ws: np.ndarray, cleared: np.ndarray, tols: Tolerances) -> np.ndarray:
        """:func:`_ill_conditioned` for the shifts ``T - wI`` of the 1-D
        ``ws``, with singular values of ``T - wI`` formed and taken only
        where :meth:`cleared` did not clear ``w``."""
        failed = ~cleared
        if failed.any():
            shifted = self.m - ws[failed, np.newaxis, np.newaxis] * np.eye(self.m.shape[0])
            failed[failed] = _ill_conditioned(np.linalg.svd(shifted, compute_uv=False), tols)
        return failed

    def require(self, ws: np.ndarray, tols: Tolerances) -> None:
        """:class:`Singular`, counting the failures, unless every shift
        ``T - wI`` of the 1-D ``ws`` passes the rule."""
        failed = self.failed(ws, self.cleared(ws, tols), tols)
        if failed.any():
            raise Singular(
                f"condition estimate exceeds {1.0 / tols.rank_tol:.1e} "
                f"at {int(failed.sum())} of {failed.size} points"
            )


def inverse(a, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Matrix inverse through :func:`solve`."""
    m = as_matrix(a)
    _require_square(m)
    return solve(m, np.eye(m.shape[0]), tols)


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for a (seed, stream...) key.

    Sub-streams are derived with ``SeedSequence(seed, spawn_key=stream)`` so a
    single user-facing seed deterministically covers every consumer.  This
    is the reference; :func:`seeded_rngs` gives the generators of a run of
    keys ``(seed, stream, i)`` in bulk.  ``ValueError`` naming ``seed`` or
    ``stream`` unless each is an integer (numpy's too, not a ``bool``) and
    ``>= 0``.
    """
    ss = np.random.SeedSequence(
        entropy=as_integer(seed, "seed", 0), spawn_key=tuple(as_integer(s, "stream", 0) for s in stream)
    )
    return np.random.Generator(np.random.Philox(ss))


# SeedSequence's hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, its multipliers and its xor-shift.
_POOL = 4
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """The 32-bit words of ``n >= 0`` as SeedSequence reads them, low first; 0 is one word."""
    words = [n & _M32]
    while n >> 32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix`` with its running constant: a function of
    32-bit words, a Python int or a ``uint64`` array, that advances the
    constant on every call."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    m = (_MIX_L * x - _MIX_R * y) & _M32
    return m ^ m >> 16


def _spawn_keys(seed: int, stream: int, start: int, stop: int) -> np.ndarray:
    """Row ``i - start`` is the Philox key of
    ``SeedSequence(seed, spawn_key=(stream, i))``, for ``0 <= start <= i <
    stop <= 2**32`` and ``seed, stream >= 0``.

    The entropy is the words of ``seed``, zero-padded to the pool as a
    spawned SeedSequence pads it, then those of ``stream``, then the single
    word ``i``; it is always past the pool, so it is mixed in last.  The
    words before it are mixed once, in Python ints, and only ``i`` and the
    state's two ``uint64`` words are hashed as arrays.
    """
    entropy = _words(seed)
    entropy += [0] * (_POOL - len(entropy)) + _words(stream)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:] + [np.arange(start, stop, dtype=np.uint64)]:
        pool = [_mix(p, hashmix(word)) for p in pool]
    hashmix = _hasher(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = (hashmix(p) for p in pool)
    return np.stack([lo0 | hi0 << 32, lo1 | hi1 << 32], axis=1)


def seeded_rngs(seed: int, stream: int, start: int, stop: int):
    """The generators ``seeded_rng(seed, stream, i)`` for ``start <= i < stop``,
    in order: the same draws, without a SeedSequence per ``i``.

    The keys come from :func:`_spawn_keys` in one pass, and one Philox
    generator is re-keyed for each ``i`` through its public ``state``
    (counter 0, an empty buffer), which is the state a fresh one starts in.
    So each generator yielded is valid only until the next one is taken:
    keep its draws, not the generator.  Keys the one pass does not cover
    (a negative ``i``, ``i >= 2**32``) are made by :func:`seeded_rng`, and
    ``seed`` and ``stream`` are checked as it checks them.
    """
    seed, stream = as_integer(seed, "seed", 0), as_integer(stream, "stream", 0)
    start, stop = int(start), int(stop)
    if start < 0 or stop > 1 << 32:
        for i in range(start, stop):
            yield seeded_rng(seed, stream, i)
        return
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    state = bits.state
    for key in _spawn_keys(seed, stream, start, stop).tolist():
        state["state"]["key"] = key
        bits.state = state
        yield rng


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, bit-reproducible for a fixed (n, seed).

    Complex Ginibre entries are orthonormalized by QR and the phases fixed so
    the implicit R factor has a real positive diagonal.  ``n`` is checked
    by :func:`as_size`, and ``seed`` as :func:`seeded_rng` checks it.
    """
    n = as_size(n)
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

    Negative eigenvalues down to ``-verify_tol`` times the largest
    eigenvalue modulus (at least 1) are clamped to zero: a matrix such as
    ``I - T* T`` for a ``T`` accepted as a contraction within ``verify_tol``
    reaches there.  ``ValueError`` below it.
    """
    m = as_matrix(h)
    _require_square(m)
    w, q = np.linalg.eigh(0.5 * (m + m.conj().T))
    if w.size and w[0] < -tols.verify_tol * max(1.0, abs(w[-1])):
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


def json_number(value, integral: bool = False):
    """``value`` as a ``float`` if it is a JSON number, or as an ``int`` if
    ``integral`` and it is a JSON integer (booleans are neither), else
    ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integral else numbers.Real):
        raise ValueError(f"{value!r} is not {'an integer' if integral else 'a number'}")
    if integral:
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{value!r} does not fit a double") from None


def complex_from_pair(pair) -> complex:
    """``complex(re, im)`` from a wire-format ``[re, im]`` pair of exactly two
    numbers, else ``ValueError``."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ValueError(f"{pair!r} is not an [re, im] pair")
    return complex(json_number(pair[0]), json_number(pair[1]))


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the matrix wire format, rejecting NaN/Inf and shape mismatches."""
    try:
        rows = json_number(obj["rows"], integral=True)
        cols = json_number(obj["cols"], integral=True)
        data = obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if not isinstance(data, list):
        raise ValueError(f"malformed matrix object: data is {data!r}, expected a list")
    if len(data) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
    out = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(data):
        try:
            out[i] = complex_from_pair(pair)
        except ValueError:
            raise ValueError(f"malformed matrix object: entry {i} is {pair!r}, expected [re, im]") from None
        if not np.isfinite(out[i]):
            raise ValueError(f"non-finite entry at index {i}")
    return out.reshape(rows, cols)
