"""Functional calculus for rational functions of a matrix.

Three independent routes are provided and are expected to agree when the
spectrum sits inside the open annulus:

* :func:`eval_direct` evaluates the factored form ``p(T) q1(T)^-1 q2(T)^-1``,
* :func:`eval_laurent` sums the truncated two-sided power series,
* :func:`eval_contour` integrates the resolvent over the two-circle cycle
  around the annulus with the trapezoid rule.

:func:`riesz_projection` integrates the bare resolvent to split the spectrum
into the parts clustered near the two boundary circles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg, rational
from .errors import (
    NoSpectralGap,
    PoleInsideContour,
    SeriesDivergent,
    Singular,
    SpectrumOnContour,
)
from .linalg import DEFAULT_TOLS, Tolerances
from .rational import AnnulusRational


def _polyval_stack(p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Horner evaluation at ``m`` of each row of ascending coefficients ``p``.

    Each step is one ``(rows * n, n) @ (n, n)`` GEMM.
    """
    rows, n = p.shape[0], m.shape[0]
    eye = np.eye(n)
    out = np.zeros((rows, n, n), dtype=complex)
    for c in p.T[::-1]:
        out = (out.reshape(rows * n, n) @ m).reshape(rows, n, n)
        out += c[:, np.newaxis, np.newaxis] * eye
    return out


def polyval_matrix(coeffs, t: np.ndarray) -> np.ndarray:
    """Horner evaluation of an ascending-coefficient polynomial at a matrix."""
    p = np.asarray(tuple(coeffs), dtype=complex)[np.newaxis]
    return _polyval_stack(p, linalg.as_matrix(t))[0]


# Byte budget of one stacked batch of n x n complex matrices: of f_i(R) in
# _factored_chunks, of resolvents in _circle_integral, of powers in
# _power_blocks.  It bounds their memory whatever the number of rows, nodes
# or powers.
_CHUNK_BYTES = 1 << 20


def _chunks(count: int, width: int, budget: int = _CHUNK_BYTES) -> list[slice]:
    """Contiguous slices of ``count`` rows of ``width`` complex values, each
    of ``budget`` bytes or one row (the last may be shorter)."""
    step = max(1, budget // (16 * width))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _check_roots(stack: rational.FactoredStack, t, tols: Tolerances) -> linalg.ShiftConditioning:
    """The :class:`linalg.ShiftConditioning` of ``T``, once every root of
    ``stack`` is one :func:`eval_direct` could divide by; else
    :class:`Singular` for the first row with a root that is not.

    Chunk by chunk, as :func:`_factored_chunks` evaluates, the roots go
    through :func:`_check_row_roots`.  The conditioning returned is the
    one whose triangle :func:`_factored_chunks` evaluates on; it is formed
    here if the check did not need it.
    """
    facts = linalg.analysis(t)
    for rows in _chunks(stack.p.shape[0], facts.matrix.size):
        _check_row_roots(stack.roots[rows], stack.mask[rows], stack.moduli[rows], facts, tols)
    return facts.conditioning


def _check_row_roots(roots, mask, moduli, facts: linalg.Analysis, tols: Tolerances) -> None:
    """:class:`Singular` for the first of the rows ``roots`` (occupied
    where ``mask``, of moduli ``moduli``) with a root :func:`eval_direct`
    cannot divide by.

    A root whose distance to a computed eigenvalue of ``T`` is at most
    ``rank_tol * max(|root|, ||T||)`` touches the spectrum; a root ``a``
    whose ``T - aI`` fails :func:`linalg.solve`'s conditioning rule fails.
    :meth:`linalg.Analysis.screen` decides both for every root at once.
    The error names the first row in stack order with either, and within
    it a touching root before a failing one, each in slot order, in the
    words of its test: "spectrum touches denominator root a", or
    "denominator root a fails the conditioning rule: condition estimate
    exceeds 1/rank_tol".
    """
    ws = roots[mask]
    touch, failed = facts.screen(ws, tols, moduli[mask])
    hit = touch | failed
    if hit.any():
        # ws runs row by row, each row in slot order
        rows = np.nonzero(mask)[0]
        row = rows == rows[np.argmax(hit)]
        if (touch & row).any():
            raise Singular(f"spectrum touches denominator root {complex(ws[np.argmax(touch & row)])}")
        raise Singular(
            f"denominator root {complex(ws[np.argmax(failed & row)])} fails the conditioning rule: "
            f"condition estimate exceeds {1.0 / tols.rank_tol:.1e}"
        )


def _factored_chunks(stack: rational.FactoredStack, rule: linalg.ShiftConditioning):
    """Yield ``f_i(R)`` for the rows of ``stack`` as ``(k, n, n)`` chunks of
    about ``_CHUNK_BYTES``, with ``R`` the Schur triangle of ``T`` that its
    :class:`linalg.ShiftConditioning` ``rule`` keeps (``T + E = Q R Q*``),
    so each is unitarily similar to ``f_i(T)``: one batched Horner pass for
    ``p_i(R) / scale_i`` and, per root slot, one
    :func:`linalg._back_substitute` for the rows with a root in that slot.
    The roots are not checked here: :func:`_check_roots` does that first.
    A row's matrix does not depend on the rows stacked with it, so the
    chunks of ``stack.take(rows)`` hold the same matrices for those rows.
    """
    tri = rule.triangle
    for rows in _chunks(stack.p.shape[0], tri.size):
        roots, mask = stack.roots[rows], stack.mask[rows]
        out = _polyval_stack(stack.p[rows], tri)
        out /= stack.scale[rows, np.newaxis, np.newaxis]
        for j in np.flatnonzero(mask.any(axis=0)):  # a taken subset may leave slots empty
            idx = np.flatnonzero(mask[:, j])
            pivots = tri.diagonal() - roots[idx, j][:, np.newaxis]
            out[idx] = linalg._back_substitute(tri, pivots[..., np.newaxis], out[idx])
        yield out


def eval_direct(
    f: AnnulusRational, t, tols: Tolerances = DEFAULT_TOLS
) -> np.ndarray:
    """Evaluate ``f`` at ``T`` through the factored representation.

    ``p(T) / scale`` by Horner (:func:`polyval_matrix`), then one LU solve
    per linear denominator factor (``q1`` roots first), each behind
    :func:`linalg.solve`'s conditioning rule, checked as
    :func:`factored_norms` checks a stack.  :class:`Singular` names the
    first root within ``rank_tol * max(|root|, ||T||)`` of the spectrum,
    else the first that fails the rule.  On a double contraction the
    check reads only the singular values of ``T`` (see
    :class:`linalg.Analysis`), so a call forms one SVD of ``T``, the
    Horner products and the solves, and no spectrum or Schur form.
    """
    rational.validate(f)
    m = linalg.as_matrix(t)
    roots = np.array(f.q1_roots + f.q2_roots, dtype=complex)[np.newaxis]
    moduli = np.hypot(roots.real, roots.imag)
    _check_row_roots(roots, np.ones(roots.shape, dtype=bool), moduli, linalg.analysis(m), tols)
    out = polyval_matrix(f.p_coeffs, m) / f.scale
    eye = np.eye(m.shape[0])
    for root in f.q1_roots + f.q2_roots:
        out = np.linalg.solve(m - root * eye, out)
    return out


def _spectral_norms(x: np.ndarray) -> np.ndarray:
    """``||X||_2`` of each matrix of the stack ``x``, one batched SVD, or
    ``inf`` where an entry is not finite (such ``X`` are zeroed in place)."""
    finite = np.isfinite(x).all(axis=(1, 2))
    x[~finite] = 0.0  # the SVD cannot take them; their rows read inf
    return np.where(finite, np.linalg.norm(x, 2, axis=(1, 2)), np.inf)


def _norm_bounds(x: np.ndarray) -> np.ndarray:
    """An upper bound on what :func:`_spectral_norms` computes for each
    matrix of the stack ``x``: ``min(||X||_F, sqrt(||X||_1 ||X||_inf))``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    sec. 6.2) times ``1 + 64 n eps`` (``linalg._ROUNDING``), plus ``n
    tiny``.  Where that is not finite (an entry is not, or the bound
    overflows), it is the spectral norm itself, ``inf`` for a non-finite
    entry.

    The norms are taken of ``|X|`` scaled by the power of two that brings
    its largest entry into ``[1/2, 1)``, so no square or product underflows
    or overflows, and scaled back.  Pruning on the bound rests on one
    assumption: that the computed largest singular value and the computed
    bound each lie within ``32 n eps`` relative of their exact values.  The
    SVD is backward stable, ``sigma(X + E)`` with ``||E|| <= p(n) eps ||X||``
    for a ``p`` only called modest (LAPACK Users' Guide, 3rd ed., sec. 4.9);
    the sums carry at most ``n`` roundings per entry, fewer under numpy's
    pairwise summation; ``n tiny`` covers a scaled-back bound that leaves the
    normal range.  So ``64 n`` is a generous choice, not a derived one.

    Readers: :meth:`FactoredNorms.bounds` (the stress route's bound where
    the eigenvector screen prunes nothing), :func:`dilation.verify_moments` (which matrices go on to
    :func:`_gram_bounds`) and :attr:`dilation.AndoPair.generator_bounds`
    (the carrier check).
    """
    n = x.shape[-1]
    a = np.abs(x)
    exponent = np.frexp(a.max(axis=(1, 2)))[1]
    np.ldexp(a, -exponent[:, np.newaxis, np.newaxis], out=a)
    # numpy's matrix norms of a, in place: abs(a) is a, and a * a is the
    # real part of conj(a) * a
    split = np.sqrt(np.add.reduce(a, axis=1).max(axis=1) * np.add.reduce(a, axis=2).max(axis=1))
    fro = np.sqrt(np.add.reduce(np.multiply(a, a, out=a), axis=(1, 2)))
    bound = np.ldexp(np.minimum(fro, split) * (1.0 + linalg._ROUNDING * n * linalg._EPS), exponent)
    bound += n * np.finfo(float).tiny
    bad = ~np.isfinite(bound)
    if bad.any():
        bound[bad] = _spectral_norms(x[bad])
    return bound


def _gram_bounds(x: np.ndarray) -> np.ndarray:
    """Upper bounds on what :func:`_spectral_norms` computes for each
    matrix of the finite stack ``x``, tighter than :func:`_norm_bounds`
    where the singular values are spread, as in rounding noise: about 1.07
    times the norm there, against 2.1.

    ``X`` is scaled by the power of two that brings its largest entry into
    ``[1/2, 1)``, so nothing overflows and ``||X|| >= 1/2``; then ``G =
    fl(X* X)`` and ``H = fl(G G)``.  Since ``||X||^4 = ||(X* X)^2||``, and
    each product errs by at most ``gamma_n |A| |B|`` entrywise (complex
    products by a few times that; Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., sec. 3.5-3.6),

        ``||X||^4 <= ||H||_F + 64 n eps ||X||_F^4``,

    a generous constant on the first-order error ``~ 4 gamma_n ||X||_F^4``,
    which is at most ``n^2`` times ``||X||^4`` and so moves the fourth root
    by about ``16 n^3 eps`` relative.  The fourth root is taken, times
    ``1 + 64 n eps`` (``linalg._ROUNDING``), the allowance
    :func:`_norm_bounds` makes for the computed norm and bound, scaled
    back, plus ``n tiny``.  Two batched products per matrix: the reader,
    :func:`dilation.verify_moments`, takes it only on the matrices that
    :func:`_norm_bounds` leaves, in place of an SVD each.
    """
    n = x.shape[-1]
    allowance = linalg._ROUNDING * n * linalg._EPS
    exponent = np.frexp(np.abs(x).max(axis=(1, 2)))[1]
    y = x * np.ldexp(1.0, -exponent)[:, np.newaxis, np.newaxis]
    g = np.conj(y.transpose(0, 2, 1)) @ y
    quartic = np.linalg.norm(g @ g, "fro", axis=(1, 2)) + allowance * np.linalg.norm(y, "fro", axis=(1, 2)) ** 4
    return np.ldexp(np.sqrt(np.sqrt(quartic)) * (1.0 + allowance), exponent) + n * np.finfo(float).tiny


def factored_norms(
    stack: rational.FactoredStack, t, tols: Tolerances = DEFAULT_TOLS
) -> np.ndarray:
    """Operator norms ``||f_i(T)||`` for every row of a factored stack.

    The norm is unitarily invariant, so each row is evaluated at the Schur
    triangle ``R`` of ``T`` (``T + E = Q R Q*``) that the conditioning rule
    forms anyway, without its ``Q``: a Horner GEMM per coefficient and
    ``n`` vectorized back-substitution steps per root slot, no LU solve.
    That is one Schur form of ``T`` per call, plus what
    :meth:`linalg.Analysis.screen` needs to decide the roots.  The
    conditioning verdicts and :class:`Singular` messages are those of
    :func:`eval_direct`.

    A chunk of about 1 MB of stacked matrices is evaluated at a time, with
    one batched spectral norm per chunk; memory stays bounded whatever the
    number of rows.  A row whose ``f_i(R)`` has an entry that is not finite
    (an overflow) gets ``inf``.  :class:`FactoredNorms` gives the same
    values lazily.
    """
    return FactoredNorms(stack, t, tols).norms(slice(None))


class FactoredNorms:
    """:func:`factored_norms` of chosen rows of ``stack``, and cheap upper
    bounds on them, each evaluating only the rows asked for.

    Built, it has checked every root of ``stack`` once
    (:func:`_check_roots`, which raises what :func:`factored_norms`
    raises) and keeps the conditioning whose Schur triangle ``R`` every
    evaluation reads: :attr:`rule`, formed once per ``T``.  Nothing is
    evaluated at build.  :meth:`norms` of the rows ``rows`` evaluates
    ``f_i(R)`` for those rows alone, so it returns
    ``factored_norms(stack, t, tols)[rows]`` bit for bit: a row's matrix
    does not depend on the rows stacked with it, and the batched SVD works
    one matrix at a time.  :meth:`bounds` is one pass of the same chunked
    evaluation over its rows that keeps, per row, only the bound of
    :func:`_norm_bounds`, with an SVD only where the bound is not finite
    (there it is the norm, ``inf`` for a row with an entry that is not
    finite); each bound is at least the norm :meth:`norms` gives.  The
    stress route takes :meth:`bounds` only where its screen prunes nothing.
    """

    def __init__(self, stack: rational.FactoredStack, t, tols: Tolerances = DEFAULT_TOLS):
        self.stack = stack
        self.rule = _check_roots(stack, t, tols)

    def _each(self, rows, reduce) -> np.ndarray:
        """``reduce`` of each chunk of the rows ``rows``, joined; an overflow reads ``inf``."""
        with np.errstate(over="ignore", invalid="ignore"):
            parts = [reduce(out) for out in _factored_chunks(self.stack.take(rows), self.rule)]
        return np.concatenate(parts) if parts else np.zeros(0)

    def norms(self, rows) -> np.ndarray:
        """The spectral norms of the rows ``rows`` (a slice or an index array)."""
        return self._each(rows, _spectral_norms)

    def bounds(self, rows) -> np.ndarray:
        """Upper bounds on :meth:`norms` of the rows ``rows``."""
        return self._each(rows, _norm_bounds)


def _power_blocks(m: np.ndarray, k: int, budget: int = _CHUNK_BYTES):
    """Yield the powers ``m^0 .. m^k`` in index order as ``(b, n, n)``
    stacks of consecutive powers, each of ``budget`` bytes or one power
    (the last may be shorter), so memory stays bounded whatever ``k``.

    The first block is filled by doubling: with ``s`` powers formed,
    ``m^s = m^(s-1) m`` and one product ``m^i m^s`` over the stacked
    ``m^i`` gives the next ``s``.  Each later block is the one before it
    times ``m^B``, ``B`` the block length.  Each of those products is one
    ``(rows * n, n) @ (n, n)`` GEMM.  A yielded block is the generator's
    own array; read it, do not write it.
    """
    n = m.shape[0]
    first, *rest = _chunks(k + 1, m.size, budget)
    block = np.empty((first.stop, n, n), dtype=complex)
    block[0] = np.eye(n)
    s = 1
    while s < len(block):
        step = min(s, len(block) - s)
        np.matmul(block[:step].reshape(-1, n), block[s - 1] @ m, out=block[s : s + step].reshape(-1, n))
        s += step
    yield block
    if rest:
        jump = block[-1] @ m
    for rows in rest:
        block = (block[: rows.stop - rows.start].reshape(-1, n) @ jump).reshape(-1, n, n)
        yield block


def _power_series(m: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``sum_j coeffs[j] m^j``: one contraction of each block of
    :func:`_power_blocks` with its coefficients, accumulated in order."""
    n = m.shape[0]
    out = np.zeros(n * n, dtype=complex)
    lo = 0
    for block in _power_blocks(m, len(coeffs) - 1):
        out += coeffs[lo : lo + len(block)] @ block.reshape(len(block), n * n)
        lo += len(block)
    return out.reshape(n, n)


def _series_operands(f: AnnulusRational, t, order: int, tols: Tolerances) -> tuple:
    """``(series, m, t2, norm_t, norm_rtinv)`` for the series routes:
    ``laurent_expand(f, order)``, ``T`` as a matrix, ``T2 = r T^{-1}``
    (:func:`linalg.involution`) and the norms ``||T||`` and ``||r T^{-1}||``,
    the last three from ``T``'s :func:`linalg.analysis`;
    :class:`NotInvertible` when ``T`` is singular
    (:meth:`linalg.Analysis.inverse`)."""
    order = linalg.as_integer(order, "order", 1)
    m = linalg.as_matrix(t)
    series = rational.laurent_expand(f, order)
    facts = linalg.analysis(m)
    t2 = linalg.involution(m, f.r, tols)
    return series, m, t2, facts.norm, f.r * facts.inverse_norm


def eval_laurent(
    f: AnnulusRational,
    t,
    order: int,
    tols: Tolerances = DEFAULT_TOLS,
) -> np.ndarray:
    """Sum the truncated two-sided series ``sum_{|j| <= order} f_j T^j``.

    Requires ``T`` invertible with ``||T||`` and ``||r T^{-1}||`` at most
    ``1 + verify_tol``; the certified remainder for this route is available
    from :func:`laurent_remainder_bound`.  A singular ``T`` raises
    :class:`NotInvertible` before its norm is compared.

    The two sides are summed on the two contractions of the annulus, each
    as one contraction of its coefficients with a table of powers
    (:func:`_power_series`, blocks of about ``_CHUNK_BYTES``, so memory
    stays bounded whatever the order): ``sum_{j >= 0} c_j T^j`` from the
    powers of ``T``, and ``sum_{j >= 1} (c_-j r^-j) T2^j`` from those of
    ``T2 = r T^{-1}`` (:func:`linalg.involution`), so no power of
    ``T^{-1}``, whose norm may grow as ``r^-j``, is formed.  With
    ``a_k`` = ``factor_pos``, ``b_m`` = ``factor_neg`` and ``bs_m = b_m
    r^-m`` = ``factor_neg_scaled`` (each ``k, m <= order``), the product
    series has ``c_-j = sum_k a_k b_(k+j)``, hence

        ``c_-j r^-j = sum_k a_k b_(k+j) r^-(k+j) r^k
                    = sum_k (a_k r^k) bs_(k+j)``,

    the convolution of ``(a_k r^k)`` with the reversed ``bs``: the weights
    are formed with no ``r^-j``, which overflows where ``b_m`` underflows.
    """
    series, m, t2, norm_t, norm_rtinv = _series_operands(f, t, order, tols)
    if norm_t > 1.0 + tols.verify_tol:
        raise SeriesDivergent(f"||T|| = {norm_t} exceeds 1 + verify_tol")
    if norm_rtinv > 1.0 + tols.verify_tol:
        raise SeriesDivergent(f"||r T^-1|| = {norm_rtinv} exceeds 1 + verify_tol")
    k = series.order
    a = series.factor_pos * f.r ** np.arange(k + 1)
    weights = np.convolve(a, series.factor_neg_scaled[::-1])[k::-1]
    weights[0] = 0.0  # j = 0 is the positive side's
    return _power_series(m, series.coeffs[k:]) + _power_series(t2, weights)


def laurent_remainder_bound(
    f: AnnulusRational, t, order: int, tols: Tolerances = DEFAULT_TOLS
) -> float:
    """Certified bound on ``||eval_laurent(f, T, order) - f(T)||``.

    Uses the tail models of the expansion inflated by the measured
    ``||T||`` and ``||r T^{-1}||``; the truncated product is not formed.
    :class:`NotInvertible` when ``T`` is singular, as in
    :func:`eval_laurent`.
    """
    series, _, _, norm_t, norm_rtinv = _series_operands(f, t, order, tols)
    bound = series.operator_tail_bound(norm_t, norm_rtinv)
    if not np.isfinite(bound):
        raise SeriesDivergent("inflated series rates reach 1; no certified bound")
    return bound


# ---------------------------------------------------------------------------
# Contour route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContourSpec:
    """Two-circle integration cycle: radii ``1 + delta`` and ``r - delta``.

    ``nodes`` trapezoid nodes sit on each circle (see :func:`default_contour`
    for the rule that picks them).  The resolvents at the nodes are solved
    in chunks on the Schur triangle of ``T`` by back-substitution, so the
    cost grows linearly in ``nodes`` and the memory stays bounded.
    """

    delta: float
    nodes: int = 512

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be finite and positive, got {self.delta!r}")
        linalg.as_integer(self.nodes, "nodes", 16)


# Node clamp shared by default_contour and ar_unitary.decompose, and the
# trapezoid error that default_contour's node rule aims for.
_MIN_NODES = 512
_MAX_NODES = 1 << 17
_NODE_TARGET = 1e-16

# Clearances of the contour checks, relative to a circle's radius: of a pole
# (and, in riesz_projection, of the spectrum) and of the spectrum in
# eval_contour.
_POLE_MARGIN = 1e-12
_SPECTRUM_MARGIN = 1e-10


def clamp_nodes(needed: float) -> int:
    """Round a wanted node count up and clamp it to ``[512, 1 << 17]``."""
    return int(min(_MAX_NODES, max(_MIN_NODES, np.ceil(needed))))


def default_contour(
    f: AnnulusRational | None, t, r: float, nodes: int | None = None
) -> ContourSpec:
    """Contour with a margin rule for ``delta`` and a rate rule for ``nodes``.

    ``delta`` is half the least clearance among poles and spectrum.  When
    ``nodes`` is not given it follows the geometric rate ``rho`` of the
    trapezoid rule on the two circles, the largest of ``max|lambda|/(1+delta)``,
    ``(r-delta)/min|lambda|``, ``(1+delta)/min|q1 root|`` and
    ``max|q2 root|/(r-delta)``: ``nodes = ceil(log(1e-16) / log(rho))``,
    clamped to ``[512, 1 << 17]``.  Well-separated spectra keep 512 nodes; an
    eigenvalue or pole close to a circle gets more.  :class:`BadRadius`
    unless ``r`` is in (0, 1).
    """
    linalg.require_radius(r)
    gaps = [0.5 * (1.0 - r)]
    if f is not None:
        if f.q1_roots:
            gaps.append(min(abs(a) for a in f.q1_roots) - 1.0)
        if f.q2_roots:
            gaps.append(r - max(abs(b) for b in f.q2_roots))
    mods = np.empty(0)
    if t is not None:
        mods = np.abs(linalg.analysis(t).spectrum)
        inside = mods[(mods > r) & (mods < 1.0)]
        gaps.append(float(np.min(1.0 - inside)) if inside.size else 0.5 * (1.0 - r))
        gaps.append(float(np.min(inside - r)) if inside.size else 0.5 * (1.0 - r))
    delta = 0.5 * min(g for g in gaps if g > 0) if any(g > 0 for g in gaps) else 0.25 * (1.0 - r)
    delta = min(delta, 0.45 * r, 0.5 * (1.0 - r))
    if nodes is None:
        outer, inner = 1.0 + delta, r - delta
        tiny = np.finfo(float).tiny
        rates = []
        if mods.size:
            rates.append(mods.max() / outer)
            rates.append(inner / max(mods.min(), tiny))
        if f is not None and f.q1_roots:
            rates.append(outer / min(abs(a) for a in f.q1_roots))
        if f is not None and f.q2_roots:
            rates.append(max(abs(b) for b in f.q2_roots) / inner)
        rho = max(rates, default=0.0)
        nodes = clamp_nodes(
            np.inf if rho >= 1.0 else np.log(_NODE_TARGET) / np.log(max(rho, tiny))
        )
    return ContourSpec(delta=delta, nodes=nodes)


def _weighted_resolvents(tri: np.ndarray, ws: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_k weights[k] (ws[k] I - tri)^-1`` for upper triangular ``tri``.

    Every ``X_k = (w_k I - tri)^-1`` is upper triangular and is solved row
    by row from the bottom, all nodes at once, in a rows x columns x nodes
    array: row ``i`` is ``(e_i + tri[i, i+1:] X[i+1:]) / (w_k - tri[i, i])``,
    one product over the ``(n - i - 1, (n - i) K)`` block of columns
    ``i:`` (the columns left of ``i`` are zero).  The weighted sum is one
    product with ``weights``.
    """
    n, k = tri.shape[0], ws.size
    x = np.zeros((n, n, k), dtype=complex)
    pivots = ws - tri.diagonal()[:, np.newaxis]
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            x[i, i:] = (tri[i, i + 1 :] @ x[i + 1 :, i:].reshape(n - i - 1, -1)).reshape(n - i, k)
        x[i, i] += 1.0
        x[i, i:] /= pivots[i]
    return (x.reshape(n * n, k) @ weights).reshape(n, n)


def _circle_integral(
    m: np.ndarray,
    outer: float,
    inner: float,
    nodes: int,
    tols: Tolerances,
    f: AnnulusRational | None = None,
) -> np.ndarray:
    """Trapezoid rule for ``(1/2 pi i) * integral of f(w) (wI - T)^-1 dw``
    over the circle ``|w| = outer`` minus the same over ``|w| = inner``.

    ``f`` defaults to 1.  The :class:`linalg.ShiftConditioning` of ``T``'s
    :func:`linalg.analysis` serves both circles with its one Schur form
    ``T + E = Q R Q*``.  One ring of unit nodes is formed per call and
    ``f`` is evaluated once over both circles' nodes (one vectorized
    :func:`rational.evaluate`, with its :class:`PoleHit` check; the callers'
    pole margins keep every node clear of it), elementwise, so the weights
    have the bits of a per-chunk evaluation.  Nodes are then taken in
    chunks whose stacked resolvents fit ``_CHUNK_BYTES``; each chunk gets
    the conditioning rule at its nodes (:meth:`linalg.Analysis.require`,
    whose :class:`Singular` counts the failures among the chunk's points)
    and the weighted sum of its resolvents of ``R`` by
    :func:`_weighted_resolvents`, back-substitution with no LU.  The
    result is ``Q (S_outer - S_inner) Q*``.  Chunks depend only on ``n``
    and ``nodes`` (:func:`_chunks`) and are accumulated in index order, so
    the reduction is deterministic.
    """
    n = m.shape[0]
    facts = linalg.analysis(m)
    rule = facts.conditioning
    ring = np.exp(1j * (2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes))
    ws = np.stack((outer * ring, inner * ring))
    weights = ws if f is None else ws * rational.evaluate(f, ws)
    integrals = []
    for w_circle, weights_circle in zip(ws, weights):
        acc = np.zeros((n, n), dtype=complex)
        for rows in _chunks(nodes, n * n):
            w = w_circle[rows]
            facts.require(w, tols)
            acc += _weighted_resolvents(rule.triangle, w, weights_circle[rows])
        integrals.append(acc / nodes)
    return rule.vectors @ (integrals[0] - integrals[1]) @ rule.vectors.conj().T


def eval_contour(
    f: AnnulusRational,
    t,
    spec: ContourSpec,
    tols: Tolerances = DEFAULT_TOLS,
) -> np.ndarray:
    """Resolvent integral of ``f`` over the two-circle cycle.

    The outer circle ``|w| = 1 + delta`` is positively oriented, the inner
    circle ``|w| = r - delta`` negatively; spectrum must sit strictly between
    them and all poles strictly outside, each with a margin relative to the
    circle's radius: ``1e-12`` for the poles, ``1e-10`` for the spectrum.
    """
    rational.validate(f)
    m = linalg.as_matrix(t)
    r = f.r
    outer = 1.0 + spec.delta
    inner = r - spec.delta
    if inner <= 0:
        raise ValueError("delta leaves no inner circle")
    if f.q1_roots and min(abs(a) for a in f.q1_roots) <= outer * (1.0 + _POLE_MARGIN):
        raise PoleInsideContour("an outer-factor root is inside the outer circle")
    if f.q2_roots and max(abs(b) for b in f.q2_roots) >= inner * (1.0 - _POLE_MARGIN):
        raise PoleInsideContour("an inner-factor root is outside the inner circle")
    mods = np.abs(linalg.analysis(m).spectrum)
    if np.any(mods >= outer * (1.0 - _SPECTRUM_MARGIN)) or np.any(mods <= inner * (1.0 + _SPECTRUM_MARGIN)):
        raise SpectrumOnContour("spectrum touches or escapes the contour")
    return _circle_integral(m, outer, inner, spec.nodes, tols, f)


class SpectralPart(enum.Enum):
    OUTER = "outer"
    INNER = "inner"


def riesz_projection(
    t,
    part: SpectralPart | str,
    spec: ContourSpec,
    r: float,
    tols: Tolerances = DEFAULT_TOLS,
) -> np.ndarray:
    """Spectral projector onto the eigenvalues clustered near one circle.

    The spectrum must split across the mid radius ``(1 + r)/2`` with a margin
    of ``delta`` on each side, stay inside ``|w| = 1 + delta`` and outside
    ``|w| = r - delta`` by ``1e-12`` relative to the radius, and the inner
    circle must have a positive radius for either part: ``ValueError`` when
    ``delta >= r``. ``part`` is a :class:`SpectralPart` or its value;
    anything else is a ``ValueError``.
    """
    part = SpectralPart(part)
    linalg.require_radius(r)
    if r - spec.delta <= 0:
        raise ValueError("delta leaves no inner circle")
    m = linalg.as_matrix(t)
    mid = 0.5 * (1.0 + r)
    mods = np.abs(linalg.analysis(m).spectrum)
    if np.any(np.abs(mods - mid) <= spec.delta):
        raise NoSpectralGap(f"eigenvalue modulus within delta of the split radius {mid}")
    big, small = 1.0 + spec.delta, r - spec.delta
    if np.any(mods >= big * (1.0 - _POLE_MARGIN)) or np.any(mods <= small * (1.0 + _POLE_MARGIN)):
        raise NoSpectralGap("spectrum escapes the two-circle region")
    outer, inner = (big, mid) if part is SpectralPart.OUTER else (mid, small)
    return _circle_integral(m, outer, inner, spec.nodes, tols)
