"""Dense complex linear algebra substrate.

Matrices are plain ``numpy.ndarray`` objects with complex entries; this
module supplies the factorizations, norms, seeded generators and the JSON
wire format that the rest of the toolkit builds on.  Eigendecomposition is
only offered for (numerically) normal matrices, where the unitary Schur
basis doubles as an orthonormal eigenbasis.
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import lapack

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
    """Numerical thresholds shared across the toolkit (all dimensionless,
    each a finite real number > 0, not a ``bool``)."""

    eig_tol: float = 1e-10
    rank_tol: float = 1e-9
    verify_tol: float = 1e-8

    def __post_init__(self):
        for name in ("eig_tol", "rank_tol", "verify_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and strictly positive")


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
    if m.size and not np.isfinite(m).all():
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


@dataclass(frozen=True, eq=False)
class EigDecomposition:
    """Unitary eigendecomposition ``A = Q diag(lambdas) Q*`` of a normal
    matrix.  Two are equal only when they are one object."""

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


def _exponent(m: np.ndarray) -> int:
    """The exponent of ``m``'s largest entry part: ``2**-exponent`` brings
    it into ``[1/2, 1)``, exactly."""
    return int(np.frexp(max(np.abs(m.real).max(), np.abs(m.imag).max()))[1])


def _self_commutator(m: np.ndarray, norm: float) -> tuple[np.ndarray, float]:
    """``(A*A - AA*, ||A||)`` for ``A``, ``T`` scaled by the power of two
    that brings its largest entry part into ``[1/2, 1)``, as
    :class:`ShiftConditioning` scales it: the scaling is exact, and neither
    the commutator nor ``||A|| <= 2n`` can overflow.  ``||A||`` is ``||T||
    = norm`` scaled alike, or, for a finite ``T`` whose norm overflows,
    computed from ``A``."""
    shift = -_exponent(m)
    a = _ldexp(m, shift)
    norm = float(np.ldexp(norm, shift))
    return a.conj().T @ a - a @ a.conj().T, norm if np.isfinite(norm) else operator_norm(a)


def is_normal(m, tols: Tolerances = DEFAULT_TOLS) -> bool:
    """``||A*A - AA*|| <= eig_tol * max(||A||^2, tiny)``, read from ``A``'s
    :func:`analysis` (:class:`NotSquare` unless ``A`` is square).

    Both sides are formed for ``A`` scaled by a power of two
    (:func:`_self_commutator`), so the verdict is that of the unscaled test
    wherever that one neither overflows nor underflows.
    """
    return analysis(m).is_normal(tols)


def eig_normal(a, tols: Tolerances = DEFAULT_TOLS) -> EigDecomposition:
    """Eigendecomposition of a (numerically) normal matrix.

    The input must satisfy ``||A*A - AA*|| <= eig_tol * ||A||^2``
    (:class:`NotNormal` otherwise); the Schur vectors of ``A``'s
    :func:`analysis` then serve as the eigenvector basis, and the diagonal
    of its triangle as the eigenvalues.  Eigenvalues come back sorted by
    descending modulus with ties broken by ascending argument.
    :class:`NoConvergence` if one lies beyond the float range (a finite
    ``A`` near the overflow threshold) or the residual is too large.
    """
    m = as_matrix(a)
    facts = analysis(m)
    if not facts.is_normal(tols):
        ratio = facts.commutator_norm / facts.commutator[1] ** 2
        raise NotNormal(f"commutator norm {ratio:.3e} * ||A||^2 exceeds {tols.eig_tol:.1e} * ||A||^2")
    schur = facts.conditioning
    lams = schur.triangle.diagonal()
    perm = spectral_order(lams)
    q, lams = schur.vectors[:, perm], lams[perm]
    if not np.isfinite(lams).all():
        raise NoConvergence("an eigenvalue lies beyond the float range")
    residual = operator_norm(m @ q - q * lams[np.newaxis, :]) + operator_norm(
        q.conj().T @ q - np.eye(m.shape[0])
    )
    if not residual <= 10 * tols.eig_tol * max(1.0, facts.norm):
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
    _require_conditioned(np.linalg.svd(ma, compute_uv=False), tols)
    return _require_finite(np.linalg.solve(ma, mb))


def _require_conditioned(svals: np.ndarray, tols: Tolerances) -> None:
    """:class:`Singular` when the matrix of descending singular values
    ``svals`` fails :func:`solve`'s conditioning rule."""
    if _ill_conditioned(svals, tols):
        raise Singular(f"condition estimate exceeds {1.0 / tols.rank_tol:.1e}")


def _require_finite(x: np.ndarray) -> np.ndarray:
    """``x``, or :class:`Singular` when a solution has an entry that is not finite."""
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
# Relative allowance of Analysis.window's radial gap: a computed modulus or
# difference lies within 2 eps of its exact value.
_RADIAL = 4 * _EPS


def _schur_triangle(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form ``(R, Q)`` of ``m``, ``m + E = Q R Q*`` with ``R``
    upper triangular and ``Q`` unitary; :class:`NoConvergence` if ``zgees``
    fails.

    ``zgees`` balances by permutation only, which is exact, so the form is
    exact for ``m + E`` with ``||E||_F`` of order ``n eps ||m||_F``;
    ``eigvals`` also scales and has no such bound in terms of ``m``.
    """
    tri, _, _, vectors, _, info = lapack.zgees(lambda w: None, m, compute_v=1)
    if info != 0:
        raise NoConvergence(f"zgees failed with info = {info}")
    return tri, vectors


def _rule_share(n: int, tols: Tolerances) -> float:
    """``theta = (2 rank_tol + 64 n eps)(1 + 64 n eps)``: a shift whose
    ``sigma_min`` bound exceeds ``theta`` times its ``sigma_max`` bound
    passes :func:`solve`'s rule, with room for rounding."""
    slack = _ROUNDING * n * _EPS
    return (2.0 * tols.rank_tol + slack) * (1.0 + slack)


def _back_substitute(tri: np.ndarray, pivots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Column ``j`` of ``x[i]`` solved in place against the upper triangle
    ``tri`` with ``pivots[i, :, j]`` on its diagonal (``tri``'s own is not
    read; ``pivots[i]`` is ``(n, 1)`` for one diagonal per system).  Step
    ``k`` solves row ``k`` of every system by one broadcast ``tri[k, k+1:]
    @ x[:, k+1:]``, a product per ``x[i]``, so ``x[i]``'s result does not
    depend on the rest of the stack."""
    for k in range(tri.shape[0] - 1, -1, -1):
        x[:, k] -= tri[k, k + 1 :] @ x[:, k + 1 :]
        x[:, k] /= pivots[:, k]
    return x


class ShiftConditioning:
    """Ostrowski's comparison-matrix bound on :func:`solve`'s conditioning
    rule for shifts ``T - wI`` of one matrix, from its Schur form: one
    stage of the shift decision of :class:`Analysis` (see there), which
    builds it only for the shifts the earlier stage leaves undecided or
    when a route needs the triangle.

    With ``R`` the Schur triangle of ``T + E``, the comparison matrix ``M``
    of ``R - wI`` has ``|r_ii - w|`` on its diagonal and ``-|r_ij|`` above
    it, and ``0 <= |(R - wI)^-1| <= M^-1`` entrywise (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., ch. 8).  With ``e`` the
    vector of ones and ``||A||_2 <= sqrt(||A||_1 ||A||_inf)``,

        sigma_min(T - wI) >= lo = 1 / sqrt(||M^-1 e||_inf ||M^-T e||_inf) - ||E||_F
        sigma_max(T - wI) <= hi = ||T||_F + |w|,

    and :meth:`cleared` clears a shift where ``lo > theta hi``
    (:func:`_rule_share`).  ``M^-1 e`` is one :func:`_back_substitute`, a
    column per shift, ``M^-T e`` one on the index-reversed transpose of
    ``M``, upper triangular too.  ``T`` is scaled by the power of two that
    brings its largest entry into ``[1/2, 1)``, which every finite ``T`` has.

    Rounding.  ``M``'s diagonal is rounded down by ``1 - 64 n eps`` and
    ``|r_ij|`` up by ``1 + 64 n eps``, which can only raise ``M^-1``, and
    ``||T||_F`` and ``hi`` up by ``1 + 64 n eps``.  The substitutions add,
    multiply and divide non-negative numbers, so in any summation order each
    operation rounds within a factor ``1 +- 2 eps`` (a quotient below the
    normal range is at least ``2^-1024``; an underflowed product is added to
    at least 1), and by induction the ``k``-th entry from the end, a quotient
    of a sum whose terms pass ``k + 1`` roundings after the later entries'
    own, is at least ``(1 - 2 eps)^((k^2 + 3k - 2)/2)`` times the exact one.
    The product, square root, quotient and difference that follow keep the
    computed ``lo`` below the exact one if ``keep``, the quotient's
    numerator, is at most ``1 - (n^2 + 3n + 2) eps``; ``keep = (1 - 64 n
    eps)^n <= 1 - 32 n^2 eps`` wherever ``64 n^2 eps <= 1``.

    ``triangle`` is ``R`` unscaled (exact wherever its entries stay in the
    normal range; one that overflows reads ``inf``) and ``vectors`` is
    ``Q``, with ``T + E = Q R Q*``, both from the one ``zgees`` call (a
    failure raises :class:`NoConvergence`).  A unitarily invariant quantity
    of a function of ``T``, such as ``||f(T)||``, can be computed from
    ``R`` alone, and any function of ``T + E`` as ``Q f(R) Q*``.

    The stage rests on one assumption: that ``zgees``'s Schur form is exact
    for some ``T + E`` with ``||E||_F <= 1024 n eps ||T||_F``.  The
    published bounds are ``||E|| <= p(n) eps ||T||`` with ``p`` only called
    modest (LAPACK Users' Guide, 3rd ed., sec. 4.8; Golub and Van Loan,
    Matrix Computations, 4th ed., sec. 7.5.6), so ``1024 n`` is a generous
    choice of ``p(n)``, not a derived one.
    """

    def __init__(self, m: np.ndarray):
        self.exponent = _exponent(m)
        scaled = _ldexp(m, -self.exponent)
        tri, self.vectors = _schur_triangle(scaled)
        n = m.shape[0]
        self.slack = _ROUNDING * n * _EPS
        with np.errstate(over="ignore"):  # an eigenvalue beyond the float range reads inf
            self.triangle = _ldexp(tri, self.exponent)
        self.lams = tri.diagonal().copy()
        for array in (self.triangle, self.vectors, self.lams):
            array.flags.writeable = False
        # -|N| of M, and of its index-reversed transpose
        self.upper = -np.abs(np.triu(tri, 1)) * (1.0 + self.slack)
        self.lower = np.ascontiguousarray(self.upper.T[::-1, ::-1])
        self.keep = (1.0 - self.slack) ** n
        self.fro = float(np.linalg.norm(scaled)) * (1.0 + self.slack)
        # n * tiny covers entries that scaling pushed below the normal range
        self.error = _SCHUR_ERROR * n * _EPS * self.fro + n * np.finfo(float).tiny

    def cleared(self, ws: np.ndarray, tols: Tolerances) -> np.ndarray:
        """Where the bound clears the shift ``T - wI`` of the 1-D ``ws``."""
        # A zero pivot, an overflow or a non-finite shift gives a NaN or
        # infinite term, and the comparison then clears nothing.
        with np.errstate(all="ignore"):
            ws = _ldexp(ws, -self.exponent)
            pivots = np.abs(ws - self.lams[:, np.newaxis])[np.newaxis] * (1.0 - self.slack)
            rows = _back_substitute(self.upper, pivots, np.ones(pivots.shape)).max(axis=1)
            cols = _back_substitute(self.lower, pivots[:, ::-1], np.ones(pivots.shape)).max(axis=1)
            lo = self.keep / np.sqrt(rows * cols)[0] - self.error
            return lo > _rule_share(self.lams.size, tols) * (self.fro + np.abs(ws))


class Analysis:
    """What the toolkit reads off one square matrix ``T`` alone, each part
    computed on first read and then kept: ``matrix``, a read-only copy of
    ``T`` in its memory order; :attr:`spectrum`; :attr:`conditioning`, the
    :class:`ShiftConditioning` (``zgees`` triangle and Schur vectors, which
    :func:`eig_normal` reads); :attr:`eigenvector_condition`, read off
    that triangle; :attr:`singular_values`, which give
    :attr:`norm`, :meth:`inverse`'s conditioning test and the window below;
    the inverse; and :attr:`commutator`, the self-commutator of ``T``
    scaled by a power of two, which :meth:`is_normal`, :func:`eig_normal`'s
    refusal and :func:`certify.cnn_split` read.  Each part is, bit for bit,
    what the function of the same name computes from ``T``, a test that
    takes tolerances at each call's own.  Arrays are read-only.
    :func:`analysis` serves one object per matrix.

    Shifts ``T - wI`` are decided here, in one pass: :meth:`screen` runs
    the root check's touch test and :func:`solve`'s conditioning rule,
    :meth:`require` the rule alone.  Each stage sees only the shifts the
    earlier ones leave undecided and clears only shifts the explicit test
    passes, so the verdicts are those of the explicit tests.  The window
    (:meth:`window`), evaluated once, comes first for both.  The touch test
    then takes the distance to each computed eigenvalue; the rule takes the
    comparison-matrix bound (:meth:`ShiftConditioning.cleared`), then the
    singular values of ``T - wI``, as :func:`solve` does.  The window reads
    only :attr:`singular_values`: by Weyl's inequality for singular values
    (Horn and Johnson, Matrix Analysis, 2nd ed., sec. 7.3),

        sigma_min(T - wI) >= lo = max(|w| - sigma_1, sigma_n - |w|)
        sigma_max(T - wI) <= hi = sigma_1 + |w|,

    and every eigenvalue ``lambda`` of ``T`` has ``|w - lambda| >=
    sigma_min(T - wI)``.  ``sigma_1`` and ``sigma_n`` are the computed
    extreme singular values rounded outward by ``64 n eps sigma_1 + n
    tiny`` (``_ROUNDING``: the assumed backward error of the SVD, twice the
    ``32 n eps`` that :func:`calculus._norm_bounds` assumes), and ``lo`` is
    the radial gap to that band with each modulus and the difference
    rounded down by ``4 eps`` relative, so it is rounded down.  A
    shift is cleared for the rule where ``lo > theta hi``
    (:func:`_rule_share`), and it is farther than the touch limit from
    every computed eigenvalue where ``lo`` less ``1024 n eps sqrt(n)
    sigma_1 + n tiny`` (at least the Schur stage's ``1024 n eps ||T||_F``:
    the computed eigenvalues are taken to be exact for some ``T + E`` that
    close) exceeds the limit.  ``lo`` is not positive for ``|w|`` in
    ``[sigma_n, sigma_1]``, and a NaN or infinite shift, or a ``T`` whose
    singular values overflow, leaves the window undecided.  On a double
    contraction, whose singular values lie in ``[r, 1]``, the window decides
    every root of a function on the annulus that clears that band by more
    than these allowances, and no spectrum, Schur form or shifted SVD is
    formed.  The window also assumes that the computed modulus of a complex
    number (``np.abs``, ``np.hypot``: the C library's ``hypot``) lies
    within one ulp of the exact one; the ``4 eps`` of the gap is twice what
    that and the rounding of the difference need.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    @cached_property
    def spectrum(self) -> np.ndarray:
        return _read_only(spectrum(self.matrix))

    @cached_property
    def conditioning(self) -> ShiftConditioning:
        return ShiftConditioning(self.matrix)

    @cached_property
    def eigenvector_condition(self) -> float:
        """``kappa_2(Y)`` for ``Y`` the eigenvectors of the Schur triangle
        ``R`` of :attr:`conditioning`, each column scaled to unit 2-norm,
        or ``inf`` where ``Y`` is not finite (a repeated diagonal entry).

        ``Y`` is unit upper triangular, column ``j`` the solution of ``(R -
        r_jj I) y = 0`` with ``y_j = 1``: one :func:`_back_substitute` of
        ``I`` with ``r_kk - r_jj`` as pivot ``(k, j)`` above the diagonal and
        1 elsewhere.  Unit columns are within ``sqrt(n)`` of the best
        diagonal scaling (van der Sluis, *Numer. Math.* 14, 1969).  ``R``
        is ``zgees``'s, which does not balance, and ``kappa`` feeds only the
        stress battery's pruning bound (``certify._screen_factor``), no
        verdict.
        """
        tri = self.conditioning.triangle
        n = tri.shape[0]
        lams = tri.diagonal()
        pivots = np.where(np.triu(np.ones((n, n), dtype=bool), 1), lams[:, np.newaxis] - lams, 1.0)
        with np.errstate(all="ignore"):  # a zero pivot or an overflow reads inf or NaN
            y = _back_substitute(tri, pivots[np.newaxis], np.eye(n, dtype=complex)[np.newaxis])[0]
            y /= np.linalg.norm(y, axis=0)
        if not np.isfinite(y).all():
            return np.inf
        svals = singular_values(y)
        return float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf

    @cached_property
    def singular_values(self) -> np.ndarray:
        return _read_only(singular_values(self.matrix))

    @property
    def norm(self) -> float:
        """``||T||``, as :func:`operator_norm` gives it."""
        return float(self.singular_values[0])

    @cached_property
    def _window_bounds(self) -> tuple[tuple[float, float], float]:
        """``(band, error)``: the extreme singular values rounded outward,
        and the allowance of the computed eigenvalues."""
        svals, n = self.singular_values, self.matrix.shape[0]
        tiny = n * np.finfo(float).tiny
        with np.errstate(all="ignore"):  # singular values beyond the float range read inf
            spread = _ROUNDING * n * _EPS * svals[0] + tiny
            band = (float(svals[-1] - spread), float(svals[0] + spread))
            error = float(_SCHUR_ERROR * n * _EPS * np.sqrt(n) * band[1] + tiny)
        return band, error

    def touch_limit(self, mods: np.ndarray, tols: Tolerances) -> np.ndarray:
        """``rank_tol * max(|w|, ||T||)`` for shifts of moduli ``mods``: how
        near an eigenvalue a denominator root touches the spectrum, on the
        scale of the conditioning rule."""
        return tols.rank_tol * np.maximum(mods, self.norm)

    def window(self, mods: np.ndarray, tols: Tolerances) -> tuple[np.ndarray, np.ndarray]:
        """The singular-value window at shifts of computed moduli ``mods``:
        where it proves that the rule passes, and where it proves every
        computed eigenvalue farther than :meth:`touch_limit` from the
        shift (see the class docstring)."""
        (low, high), error = self._window_bounds
        down, up = 1.0 - _RADIAL, 1.0 + _RADIAL
        with np.errstate(all="ignore"):
            # max(|w| - high, low - |w|) with each modulus and the difference
            # rounded down by 4 eps, a bound where it is at least tiny; not
            # positive inside the band, NaN or inf for a NaN or infinite w
            lo = np.maximum(mods * down - high * up, low * down - mods * up) * down
            cleared = lo > _rule_share(self.matrix.shape[0], tols) * (high + mods)
            return cleared, lo - error > self.touch_limit(mods, tols)

    def screen(
        self, ws: np.ndarray, tols: Tolerances, mods: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(touch, failed)`` for the shifts ``T - wI`` of the 1-D ``ws``
        (of computed moduli ``mods``, ``np.abs(ws)`` if not given): where a
        computed eigenvalue of ``T`` lies within :meth:`touch_limit` of the
        shift, and where the shift fails :func:`solve`'s conditioning rule,
        each decided by the stages of the class docstring."""
        if mods is None:
            mods = np.abs(ws)
        cleared, apart = self.window(mods, tols)
        touch = ~apart
        if touch.any():
            with np.errstate(all="ignore"):
                gaps = np.abs(ws[touch][:, np.newaxis] - self.spectrum).min(axis=-1)
                touch[touch] = gaps <= self.touch_limit(mods[touch], tols)
        return touch, self._rule_failed(ws, cleared, tols)

    def require(self, ws: np.ndarray, tols: Tolerances) -> None:
        """:class:`Singular`, counting the failures, unless every shift
        ``T - wI`` of the 1-D ``ws`` passes the rule: :meth:`screen` without
        the touch test."""
        failed = self._rule_failed(ws, self.window(np.abs(ws), tols)[0], tols)
        if failed.any():
            raise Singular(
                f"condition estimate exceeds {1.0 / tols.rank_tol:.1e} "
                f"at {int(failed.sum())} of {failed.size} points"
            )

    def _rule_failed(self, ws: np.ndarray, cleared: np.ndarray, tols: Tolerances) -> np.ndarray:
        """Where the shifts of the 1-D ``ws`` fail the rule, given where the
        window ``cleared`` them: the comparison-matrix bound for the others,
        then one batched SVD of ``T - wI`` for those it leaves undecided."""
        failed = ~cleared
        if failed.any():
            failed[failed] = ~self.conditioning.cleared(ws[failed], tols)
            if failed.any():
                shifted = self.matrix - ws[failed, np.newaxis, np.newaxis] * np.eye(self.matrix.shape[0])
                failed[failed] = _ill_conditioned(np.linalg.svd(shifted, compute_uv=False), tols)
        return failed

    def double_contraction(self, r: float, norm_rtinv: float, tols: Tolerances) -> tuple[bool, bool]:
        """``(within, strict)`` given ``norm_rtinv = ||r T^-1||``: whether
        ``||T||`` and ``||r T^-1||`` are at most ``1 + verify_tol``, and
        whether the singular values lie in ``[r + delta, 1 - delta]`` for
        ``delta = 64 n eps ||T||``."""
        norm, tol = self.norm, tols.verify_tol
        margin = _ROUNDING * self.matrix.shape[0] * _EPS * norm
        strict = norm + margin <= 1.0 and bool(self.singular_values[-1] - margin >= r)
        return norm <= 1.0 + tol and norm_rtinv <= 1.0 + tol, strict

    @cached_property
    def _solved(self) -> np.ndarray:
        return _read_only(np.linalg.solve(self.matrix, np.eye(self.matrix.shape[0], dtype=complex)))

    def inverse(self, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
        """``T^-1`` as :func:`inverse` gives it, with its :class:`Singular`
        at ``tols``; the one array, read-only."""
        _require_conditioned(self.singular_values, tols)
        return _require_finite(self._solved)

    @cached_property
    def inverse_norm(self) -> float:
        """``||T^-1||``; read it only once :meth:`inverse` has returned."""
        return operator_norm(self._solved)

    @cached_property
    def commutator(self) -> tuple[np.ndarray, float]:
        """``(C, ||A||)`` of :func:`_self_commutator`, ``C`` read-only."""
        comm, norm = _self_commutator(self.matrix, self.norm)
        return _read_only(comm), norm

    @cached_property
    def commutator_norm(self) -> float:
        """``||C||``, the left side of :meth:`is_normal`."""
        return operator_norm(self.commutator[0])

    def is_normal(self, tols: Tolerances = DEFAULT_TOLS) -> bool:
        """:func:`is_normal` of ``T`` at ``tols``."""
        return self.commutator_norm <= tols.eig_tol * max(self.commutator[1] ** 2, np.finfo(float).tiny)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# The analysis memo holds at most this many matrices.
_ANALYSIS_SIZE = 16
_ANALYSIS_LOCK = threading.Lock()


@lru_cache(maxsize=_ANALYSIS_SIZE)
def _analysis_memo(key: tuple) -> list:
    """The slot ``[analysis]`` of the matrix whose dtype, shape, memory
    order and bytes are ``key`` (``[None]`` before the first read).  An
    entry holds a few ``n x n`` arrays.  ``cache_clear`` empties the memo."""
    return [None]


def analysis(t) -> Analysis:
    """The :class:`Analysis` of the square matrix ``T``, one per matrix.

    It is keyed by ``T``'s dtype, shape, memory order and bytes, so a
    C-ordered and a Fortran-ordered copy each get their own (a BLAS product
    rounds by the layout of its operands), and a ``T`` changed in place gets
    a new one.  :class:`NotSquare` unless ``T`` is square."""
    m = as_matrix(t)
    _require_square(m)
    copy = np.array(m, order="K")
    key = (copy.dtype.str, copy.shape, np.isfortran(copy), copy.tobytes())
    with _ANALYSIS_LOCK:
        slot = _analysis_memo(key)
        if slot[0] is None:
            slot[0] = Analysis(_read_only(copy))
        return slot[0]


def inverse(a, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Matrix inverse through :func:`solve`."""
    m = as_matrix(a)
    _require_square(m)
    return solve(m, np.eye(m.shape[0]), tols)


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for a (seed, stream...) key.

    Sub-streams are derived with ``SeedSequence(seed, spawn_key=stream)`` so a
    single user-facing seed deterministically covers every consumer; the
    stress battery draws from the three keys ``(seed, 17, k)``, ``k = 0, 1,
    2``, one stream per kind of variate.  ``ValueError`` naming ``seed`` or
    ``stream`` unless each is an integer (numpy's too, not a ``bool``) and
    ``>= 0``.
    """
    ss = np.random.SeedSequence(
        entropy=as_integer(seed, "seed", 0), spawn_key=tuple(as_integer(s, "stream", 0) for s in stream)
    )
    return np.random.Generator(np.random.Philox(ss))


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
