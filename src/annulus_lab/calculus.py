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
    NotInvertible,
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


def _back_substitute(tri: np.ndarray, shifts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(tri - shifts[i] I)^-1 x[i]`` for each ``i``, with ``tri`` upper
    triangular, written over ``x``.

    Step ``k`` solves row ``k`` of every system at once.  Its update is one
    broadcast ``tri[k, k+1:] @ x[:, k+1:]``, a product per matrix, so a
    row's result does not depend on the rows stacked with it; one GEMV over
    the whole stack would round some entries differently by position.
    """
    n = tri.shape[0]
    pivots = tri.diagonal() - shifts[:, np.newaxis]
    for k in range(n - 1, -1, -1):
        if k < n - 1:
            x[:, k] -= tri[k, k + 1 :] @ x[:, k + 1 :]
        x[:, k] /= pivots[:, k, np.newaxis]
    return x


def _factored_chunks(
    stack: rational.FactoredStack, m: np.ndarray, tols: Tolerances, triangular: bool = True
):
    """Yield ``f_i(T)``, or a unitarily similar matrix, for the rows of
    ``stack`` as ``(k, n, n)`` chunks.

    Chunks hold about ``_CHUNK_BYTES`` of matrices.  One
    :class:`linalg.ShiftConditioning` per matrix decides :func:`linalg.solve`'s
    conditioning rule for every root, with singular values (and a shifted
    matrix) only for roots its bound cannot clear, so the verdicts are the
    rule's.  A row whose root lies within ``rank_tol * max(1, |root|)`` of
    the spectrum, or fails the rule, raises :class:`Singular` naming that
    root: the first such row in stack order, and within it a touching root
    before a failing one, each in slot order.

    With ``triangular``, a chunk is ``f_i(R)`` on the rule's Schur triangle
    ``R`` of ``T`` (``T + E = Q R Q*``), unitarily similar to ``f_i(T)``:
    one batched Horner pass for ``p_i(R) / scale_i`` and, per root slot,
    one :func:`_back_substitute` for the rows with a root in that slot.
    Otherwise it is ``f_i(T)`` itself: Horner on ``T`` and one batched LU
    solve per root slot, the cheaper route for a single function.
    """
    n = m.shape[0]
    eye = np.eye(n)
    lams = linalg.spectrum(m)
    rule = linalg.ShiftConditioning(m)
    base = rule.triangle if triangular else m
    step = max(1, _CHUNK_BYTES // (16 * n * n))
    for start in range(0, stack.p.shape[0], step):
        rows = slice(start, start + step)
        roots, mask = stack.roots[rows], stack.mask[rows]
        gaps = np.abs(roots[..., np.newaxis] - lams).min(axis=-1)
        touch = mask & (gaps <= tols.rank_tol * np.maximum(1.0, np.abs(roots)))
        cleared = rule.cleared(roots, tols)
        failed = np.zeros_like(mask)
        for j in range(roots.shape[1]):
            idx = np.flatnonzero(mask[:, j])
            failed[idx, j] = rule.failed(roots[idx, j], cleared[idx, j], tols)
        hit = touch | failed
        if hit.any():
            i = int(np.argmax(hit.any(axis=1)))
            slots = touch[i] if touch[i].any() else failed[i]
            raise Singular(f"spectrum touches denominator root {complex(roots[i, np.argmax(slots)])}")
        out = _polyval_stack(stack.p[rows], base)
        out /= stack.scale[rows, np.newaxis, np.newaxis]
        for j in range(roots.shape[1]):
            idx = np.flatnonzero(mask[:, j])
            if triangular:
                out[idx] = _back_substitute(base, roots[idx, j], out[idx])
            else:
                out[idx] = np.linalg.solve(m - roots[idx, j, np.newaxis, np.newaxis] * eye, out[idx])
        yield out


def eval_direct(
    f: AnnulusRational, t, tols: Tolerances = DEFAULT_TOLS
) -> np.ndarray:
    """Evaluate ``f`` at ``T`` through the factored representation.

    The one-function case of :func:`factored_norms`' stacked evaluation,
    on ``T`` itself: ``p(T) / scale`` by Horner, then one LU solve per
    linear denominator factor (``q1`` roots first), each behind
    :func:`linalg.solve`'s conditioning rule.  :class:`Singular` names the
    first root within ``rank_tol * max(1, |root|)`` of the spectrum, else
    the first that fails the rule.
    """
    m = linalg.as_matrix(t)
    return next(_factored_chunks(rational.factored_stack([f]), m, tols, triangular=False))[0]


def factored_norms(
    stack: rational.FactoredStack, t, tols: Tolerances = DEFAULT_TOLS
) -> np.ndarray:
    """Operator norms ``||f_i(T)||`` for every row of a factored stack.

    The norm is unitarily invariant, so each row is evaluated at the Schur
    triangle ``R`` of ``T`` (``T + E = Q R Q*``) that the conditioning rule
    forms anyway, without its ``Q``: a Horner GEMM per coefficient and
    ``n`` vectorized back-substitution steps per root slot, no LU solve.
    That is one Schur form of ``T`` per call, plus singular values of
    ``T - aI`` only for the roots ``a`` that Henrici's bound leaves
    undecided (see :class:`linalg.ShiftConditioning`).  The conditioning
    verdicts and :class:`Singular` messages are those of :func:`eval_direct`.

    A chunk of about 1 MB of stacked matrices is evaluated at a time, with
    one batched spectral norm per chunk; memory stays bounded whatever the
    number of rows.  A row whose ``f_i(R)`` has an entry that is not finite
    (an overflow) gets ``inf``.
    """
    m = linalg.as_matrix(t)
    norms = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf
        for out in _factored_chunks(stack, m, tols):
            finite = np.isfinite(out).all(axis=(1, 2))
            out[~finite] = 0.0  # the SVD cannot take them; their rows read inf
            norms.append(np.where(finite, np.linalg.norm(out, 2, axis=(1, 2)), np.inf))
    return np.concatenate(norms) if norms else np.zeros(0)


def eval_laurent(
    f: AnnulusRational,
    t,
    order: int,
    tols: Tolerances = DEFAULT_TOLS,
) -> np.ndarray:
    """Sum the truncated two-sided series ``sum_{|j| <= order} f_j T^j``.

    Requires ``T`` invertible with ``||T||`` and ``||r T^{-1}||`` at most
    ``1 + verify_tol``; the certified remainder for this route is available
    from :func:`laurent_remainder_bound`.
    """
    order = linalg.as_integer(order, "order", 1)
    m = linalg.as_matrix(t)
    series = rational.laurent_expand(f, order)
    norm_t = linalg.operator_norm(m)
    if norm_t > 1.0 + tols.verify_tol:
        raise SeriesDivergent(f"||T|| = {norm_t} exceeds 1 + verify_tol")
    try:
        inv = linalg.inverse(m, tols)
    except Singular as exc:
        raise NotInvertible("series evaluation needs invertible T") from exc
    norm_rtinv = f.r * linalg.operator_norm(inv)
    if norm_rtinv > 1.0 + tols.verify_tol:
        raise SeriesDivergent(f"||r T^-1|| = {norm_rtinv} exceeds 1 + verify_tol")
    n = m.shape[0]
    out = series.coefficient(0) * np.eye(n)
    pow_pos = np.eye(n)
    pow_neg = np.eye(n)
    for j in range(1, order + 1):
        pow_pos = pow_pos @ m
        pow_neg = pow_neg @ inv
        out = out + series.coefficient(j) * pow_pos
        out = out + series.coefficient(-j) * pow_neg
    return out


def laurent_remainder_bound(
    f: AnnulusRational, t, order: int, tols: Tolerances = DEFAULT_TOLS
) -> float:
    """Certified bound on ``||eval_laurent(f, T, order) - f(T)||``.

    Uses the tail models of the expansion inflated by the measured
    ``||T||`` and ``||r T^{-1}||``.
    """
    order = linalg.as_integer(order, "order", 1)
    m = linalg.as_matrix(t)
    series = rational.laurent_expand(f, order)
    norm_t = linalg.operator_norm(m)
    norm_rtinv = f.r * linalg.operator_norm(linalg.inverse(m, tols))
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

# Byte budget of one stacked batch of resolvents in _circle_integral; bounds
# the memory of a quadrature whatever its node count.
_CHUNK_BYTES = 1 << 20


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
        mods = np.abs(linalg.spectrum(t))
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

    ``f`` defaults to 1.  One :class:`linalg.ShiftConditioning` for ``T``
    serves both circles, so the contour forms one Schur form
    ``T + E = Q R Q*``.  Nodes are taken in chunks whose stacked resolvents
    fit ``_CHUNK_BYTES``; each chunk gets one vectorized evaluation of ``f``
    (with its :class:`PoleHit` check), the conditioning rule at its nodes
    (singular values only where the rule's bound leaves a node undecided;
    :class:`Singular` counts the failures) and the weighted sum of its
    resolvents of ``R`` by :func:`_weighted_resolvents`, back-substitution
    with no LU.  The result is ``Q (S_outer - S_inner) Q*``.  Chunks
    depend only on ``n`` and ``nodes`` and are accumulated in index
    order, so the reduction is deterministic.
    """
    n = m.shape[0]
    ring = np.exp(1j * (2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes))
    step = max(1, _CHUNK_BYTES // (16 * n * n))
    rule = linalg.ShiftConditioning(m)
    integrals = []
    for radius in (outer, inner):
        ws = radius * ring
        acc = np.zeros((n, n), dtype=complex)
        for start in range(0, nodes, step):
            w = ws[start : start + step]
            weights = w if f is None else w * rational.evaluate(f, w)
            rule.require(w, tols)
            acc += _weighted_resolvents(rule.triangle, w, weights)
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
    them and all poles strictly outside.
    """
    rational.validate(f)
    m = linalg.as_matrix(t)
    r = f.r
    outer = 1.0 + spec.delta
    inner = r - spec.delta
    if inner <= 0:
        raise ValueError("delta leaves no inner circle")
    if f.q1_roots and min(abs(a) for a in f.q1_roots) <= outer + 1e-12:
        raise PoleInsideContour("an outer-factor root is inside the outer circle")
    if f.q2_roots and max(abs(b) for b in f.q2_roots) >= inner - 1e-12:
        raise PoleInsideContour("an inner-factor root is outside the inner circle")
    mods = np.abs(linalg.spectrum(m))
    margin = 1e-10
    if np.any(mods >= outer - margin) or np.any(mods <= inner + margin):
        raise SpectrumOnContour("spectrum touches or escapes the contour")
    return _circle_integral(m, outer, inner, spec.nodes, tols, f)


class SpectralPart(enum.Enum):
    OUTER = "outer"
    INNER = "inner"


def riesz_projection(
    t,
    part: SpectralPart,
    spec: ContourSpec,
    r: float,
    tols: Tolerances = DEFAULT_TOLS,
) -> np.ndarray:
    """Spectral projector onto the eigenvalues clustered near one circle.

    The spectrum must split across the mid radius ``(1 + r)/2`` with a margin
    of ``delta`` on each side, stay inside ``|w| = 1 + delta`` and outside
    ``|w| = r - delta``, which must have a positive radius for either part:
    ``ValueError`` when ``delta >= r``.
    """
    linalg.require_radius(r)
    if r - spec.delta <= 0:
        raise ValueError("delta leaves no inner circle")
    m = linalg.as_matrix(t)
    mid = 0.5 * (1.0 + r)
    mods = np.abs(linalg.spectrum(m))
    if np.any(np.abs(mods - mid) <= spec.delta):
        raise NoSpectralGap(f"eigenvalue modulus within delta of the split radius {mid}")
    if np.any(mods >= 1.0 + spec.delta - 1e-12) or np.any(mods <= r - spec.delta + 1e-12):
        raise NoSpectralGap("spectrum escapes the two-circle region")
    outer, inner = (1.0 + spec.delta, mid) if part is SpectralPart.OUTER else (mid, r - spec.delta)
    return _circle_integral(m, outer, inner, spec.nodes, tols)
