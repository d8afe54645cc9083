"""Rational functions with poles off the closed annulus ``r <= |z| <= 1``.

A function is stored in factored form

    f(z) = p(z) / (scale * prod_j (z - alpha_j) * prod_i (z - beta_i))

with every ``alpha_j`` strictly outside the closed unit disk and every
``beta_i`` strictly inside the inner disk of radius ``r``.  On the closed
annulus such an ``f`` splits into an ascending series (the ``p/q1`` part,
convergent on ``|z| <= 1``) times a descending series (the ``1/q2`` part,
convergent on ``|z| >= r``); :func:`laurent_expand` produces both factor
series, their truncated two-sided product, and certified geometric bounds on
everything that was dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadRadius,
    InvalidRational,
    PoleHit,
    RootInClosedDisk,
    RootOutsideInnerDisk,
)

_POLE_TOL = 1e-14
_CLUSTER_TOL = 1e-9


def _as_ctuple(values) -> tuple:
    return tuple(complex(v) for v in values)


@dataclass(frozen=True)
class AnnulusRational:
    """Factored rational function with classified root locations.

    ``p_coeffs`` are ascending numerator coefficients; ``q1_roots`` must lie
    outside the closed unit disk, ``q2_roots`` inside the open disk of radius
    ``r``; ``scale`` collects the leading constants of both denominator
    factors.
    """

    r: float
    p_coeffs: tuple = (1.0 + 0j,)
    q1_roots: tuple = ()
    q2_roots: tuple = ()
    scale: complex = 1.0 + 0j

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "p_coeffs", _as_ctuple(self.p_coeffs))
        object.__setattr__(self, "q1_roots", _as_ctuple(self.q1_roots))
        object.__setattr__(self, "q2_roots", _as_ctuple(self.q2_roots))
        object.__setattr__(self, "scale", complex(self.scale))


def validate(f: AnnulusRational) -> None:
    """Check the root-location invariants, raising on the first violation."""
    if not (0.0 < f.r < 1.0):
        raise BadRadius(f"inner radius must be in (0, 1), got {f.r}")
    if len(f.p_coeffs) == 0 or f.scale == 0:
        raise InvalidRational("numerator empty or scale is zero")
    for a in f.q1_roots:
        if abs(a) <= 1.0:
            raise RootInClosedDisk(f"outer-factor root {a} has |.| <= 1")
    for b in f.q2_roots:
        if abs(b) >= f.r:
            raise RootOutsideInnerDisk(f"inner-factor root {b} has |.| >= r = {f.r}")


def evaluate(f: AnnulusRational, z):
    """Evaluate ``f`` at a complex point (or array of points).

    Raises :class:`PoleHit` if any point is within 1e-14 of a denominator root.
    """
    zz = np.asarray(z, dtype=complex)
    num = np.polyval(np.array(f.p_coeffs)[::-1], zz)
    den = np.full_like(zz, f.scale)
    for root in f.q1_roots + f.q2_roots:
        d = zz - root
        if np.any(np.abs(d) < _POLE_TOL):
            raise PoleHit(f"evaluation point within {_POLE_TOL} of root {root}")
        den = den * d
    out = num / den
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(out)
    return out


@dataclass(frozen=True)
class FactoredStack:
    """Factored forms of a sequence of rationals, one zero-padded row each.

    Row ``i`` holds the ascending numerator coefficients ``p[i]``, the
    ``q1_roots`` then the ``q2_roots`` in ``roots[i]`` with ``mask[i]``
    marking the occupied slots, and the constant ``scale[i]``.
    """

    p: np.ndarray
    roots: np.ndarray
    mask: np.ndarray
    scale: np.ndarray

    def abs_at(self, points: np.ndarray) -> np.ndarray:
        """``|f_i(z_j)|`` for every row at once, shape ``(rows, len(points))``."""
        z = points[np.newaxis, :]
        num = np.zeros((self.p.shape[0], points.size), dtype=complex)
        for k in range(self.p.shape[1] - 1, -1, -1):
            num = num * z + self.p[:, k : k + 1]
        den = np.repeat(self.scale[:, np.newaxis], points.size, axis=1)
        for k in range(self.roots.shape[1]):
            den = den * np.where(self.mask[:, k : k + 1], z - self.roots[:, k : k + 1], 1.0)
        return np.abs(num / den)


def factored_stack(functions) -> FactoredStack:
    """Validate each function and pad the factored forms into one stack."""
    functions = tuple(functions)
    for f in functions:
        validate(f)
    width_p = max((len(f.p_coeffs) for f in functions), default=1)
    width_r = max((len(f.q1_roots) + len(f.q2_roots) for f in functions), default=0)
    p = np.zeros((len(functions), width_p), dtype=complex)
    roots = np.zeros((len(functions), width_r), dtype=complex)
    mask = np.zeros((len(functions), width_r), dtype=bool)
    for i, f in enumerate(functions):
        p[i, : len(f.p_coeffs)] = f.p_coeffs
        row = f.q1_roots + f.q2_roots
        roots[i, : len(row)] = row
        mask[i, : len(row)] = True
    scale = np.array([f.scale for f in functions], dtype=complex)
    return FactoredStack(p=p, roots=roots, mask=mask, scale=scale)


def multiply(f: AnnulusRational, g: AnnulusRational) -> AnnulusRational:
    """Product of two rational functions on the same annulus, in factored form."""
    if f.r != g.r:
        raise InvalidRational(f"mismatched radii {f.r} and {g.r}")
    p = tuple(np.convolve(np.array(f.p_coeffs), np.array(g.p_coeffs)))
    return AnnulusRational(
        r=f.r,
        p_coeffs=p,
        q1_roots=f.q1_roots + g.q1_roots,
        q2_roots=f.q2_roots + g.q2_roots,
        scale=f.scale * g.scale,
    )


def _trim_trailing_zeros(coeffs: np.ndarray) -> np.ndarray:
    nz = np.nonzero(coeffs)[0]
    if nz.size == 0:
        return coeffs[:1]
    return coeffs[: nz[-1] + 1]


def involute(f: AnnulusRational) -> AnnulusRational:
    """Compose with the annulus automorphism ``z -> r/z``.

    The result is re-expressed in canonical factored form: outer roots map to
    inner roots ``r/alpha`` and vice versa, with powers of ``z`` rebalanced
    between the numerator and extra roots at the origin.
    """
    try:
        validate(f)
    except (BadRadius, RootInClosedDisk, RootOutsideInnerDisk) as exc:
        raise InvalidRational(str(exc)) from exc
    r = f.r
    p = _trim_trailing_zeros(np.array(f.p_coeffs))
    k = len(p) - 1
    # p(r/z) = z^{-k} * ptilde(z) with ptilde_i = p_{k-i} r^{k-i}
    ptilde = np.array([p[k - i] * r ** (k - i) for i in range(k + 1)], dtype=complex)
    new_q2 = [r / a for a in f.q1_roots]
    new_q1 = []
    scale = f.scale
    zero_shift = 0
    for a in f.q1_roots:
        scale *= -a
    for b in f.q2_roots:
        if b == 0:
            scale *= r
            zero_shift += 1
        else:
            scale *= -b
            new_q1.append(r / b)
    # net power of z moved into the numerator (or, if negative, into origin roots)
    exponent = len(f.q1_roots) + len(f.q2_roots) - k
    if exponent >= 0:
        ptilde = np.concatenate([np.zeros(exponent, dtype=complex), ptilde])
    else:
        new_q2.extend([0.0 + 0j] * (-exponent))
    g = AnnulusRational(
        r=r,
        p_coeffs=tuple(_trim_trailing_zeros(ptilde)),
        q1_roots=tuple(new_q1),
        q2_roots=tuple(new_q2),
        scale=scale,
    )
    validate(g)
    return g


def boundary_sup_norm(f: AnnulusRational, nodes: int) -> float:
    """Max of ``|f|`` over equispaced samples on the two boundary circles.

    A lower bound on the true sup norm, converging as ``nodes`` grows.
    """
    validate(f)
    if nodes < 64:
        raise ValueError("need at least 64 nodes per circle")
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    ring = np.exp(1j * theta)
    outer = np.abs(evaluate(f, ring))
    inner = np.abs(evaluate(f, f.r * ring))
    return float(max(outer.max(), inner.max()))


# ---------------------------------------------------------------------------
# Laurent expansion with certified tails
# ---------------------------------------------------------------------------


def inner_weights(b: np.ndarray, r: float, growth: float = 1.0) -> np.ndarray:
    """``|b_m| (growth/r)^m`` computed in log space (no 0 * inf artifacts)."""
    m = np.arange(len(b), dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(np.log(np.abs(b)) + m * (np.log(growth) - np.log(r)))


def _poly_from_roots(roots) -> np.ndarray:
    """Monic polynomial with the given roots, ascending coefficients."""
    c = np.array([1.0 + 0j])
    for root in roots:
        c = np.convolve(c, np.array([-root, 1.0 + 0j]))
    return c


def _inverse_series(c: np.ndarray, m: int) -> np.ndarray:
    """First ``m+1`` ascending coefficients of ``1/poly`` (``c[0] != 0``).

    The convolution recurrence is exact for repeated roots, unlike the
    partial-fraction route used for the tail constants.
    """
    u = np.zeros(m + 1, dtype=complex)
    u[0] = 1.0 / c[0]
    deg = len(c) - 1
    for n in range(1, m + 1):
        acc = 0.0 + 0j
        for k in range(1, min(n, deg) + 1):
            acc += c[k] * u[n - k]
        u[n] = -acc / c[0]
    return u


def _declump(roots: np.ndarray) -> tuple[np.ndarray, bool]:
    """Separate root clusters by 1e-9 so simple-root residue formulas apply.

    Returns the (possibly perturbed) roots and a flag saying whether any
    perturbation happened.
    """
    out = np.array(roots, dtype=complex)
    warned = False
    for i in range(len(out)):
        for j in range(i):
            if abs(out[i] - out[j]) < _CLUSTER_TOL * max(1.0, abs(out[j])):
                out[i] = out[j] + _CLUSTER_TOL * max(1.0, abs(out[j])) * np.exp(
                    1j * (i + 1)
                )
                warned = True
    return out, warned


def _residues(numer: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Residues of ``numer(z) / prod(z - roots)`` at each (distinct) root."""
    res = np.empty(len(roots), dtype=complex)
    for j, root in enumerate(roots):
        den = 1.0 + 0j
        for k, other in enumerate(roots):
            if k != j:
                den *= root - other
        res[j] = np.polyval(numer[::-1], root) / den
    return res


@dataclass(frozen=True)
class _TailModel:
    """Geometric majorants for everything dropped by a truncation.

    ``pos_terms`` / ``neg_terms`` are (weight, rate) pairs: the modulus of the
    ascending coefficient ``a_n`` is bounded by ``sum w * rate**(n+1)`` and
    the inner-weighted coefficient ``|b_m| r^{-m}`` by ``sum w * rate**m``
    (the inner rates already carry the ``1/r`` factor).  Coefficients inside
    the exactly computed window but past the truncation order are stored in
    ``*_dropped`` as (weighted magnitude, index); the geometric majorants only
    take over beyond ``*_window_end``.
    """

    r: float
    pos_window_end: int
    neg_window_end: int
    pos_terms: tuple = ()
    neg_terms: tuple = ()
    pos_dropped: tuple = ()
    neg_dropped: tuple = ()

    def pos_tail(self, order: int, growth: float = 1.0) -> float:
        """Bound on ``sum_{n > order} |a_n| growth^n``; requires rate*growth < 1."""
        total = 0.0
        for mag, n in self.pos_dropped:
            if n > order:
                total += mag * growth**n
        start = max(order, self.pos_window_end)
        for w, rate in self.pos_terms:
            q = rate * growth
            if q >= 1.0:
                return np.inf
            total += w * rate * q ** (start + 1) / (1.0 - q)
        return total

    def neg_tail(self, order: int, growth: float = 1.0) -> float:
        """Bound on ``sum_{m > order} |b_m| r^{-m} growth^m``; rate*growth < 1."""
        total = 0.0
        for mag, m in self.neg_dropped:
            if m > order:
                total += mag * growth**m
        start = max(order, self.neg_window_end)
        for w, rate in self.neg_terms:
            q = rate * growth
            if q >= 1.0:
                return np.inf
            total += w * q ** (start + 1) / (1.0 - q)
        return total


@dataclass(frozen=True)
class LaurentSeries:
    """Truncated two-sided expansion of an :class:`AnnulusRational`.

    ``coeffs[j + M]`` is the coefficient of ``z^j`` for ``j = -M..M``.
    ``factor_pos`` holds the ascending coefficients of the outer factor
    (numerator and scale folded in), ``factor_neg`` the coefficients ``b_m``
    of the inner factor ``1/q2 = sum b_m z^{-m}`` (so ``(1, 0, 0, ...)`` when
    the inner factor is trivial).  ``tail_bound`` certifies the sup-norm
    remainder of the truncation on the closed annulus; ``C1, C2, rho1, rho2``
    expose the partial-fraction constants behind the geometric rates.
    """

    r: float
    order: int
    coeffs: np.ndarray
    factor_pos: np.ndarray
    factor_neg: np.ndarray
    rho1: float
    rho2: float
    c1: float
    c2: float
    tail_pos: float
    tail_neg: float
    tail_bound: float
    cluster_warning: bool = False
    tail_model: _TailModel = field(repr=False, default=None)

    def coefficient(self, j: int) -> complex:
        """Coefficient of ``z^j`` (zero outside the truncation window)."""
        if abs(j) > self.order:
            return 0.0 + 0j
        return complex(self.coeffs[j + self.order])

    def operator_tail_bound(self, norm_t: float, norm_rtinv: float) -> float:
        """Certified bound on the dropped terms when the series is applied to
        an operator with ``||T|| <= norm_t`` and ``||r T^{-1}|| <= norm_rtinv``.

        Returns ``inf`` when the inflated geometric rates reach 1.
        """
        s = max(1.0, float(norm_t))
        t = max(1.0, float(norm_rtinv))
        m = self.order
        weights_pos = np.abs(self.factor_pos) * s ** np.arange(m + 1)
        weights_neg = inner_weights(self.factor_neg, self.r, growth=t)
        tp = self.tail_model.pos_tail(m, s)
        tn = self.tail_model.neg_tail(m, t)
        sa = float(weights_pos.sum()) + tp
        sb = float(weights_neg.sum()) + tn
        return tp * sb + sa * tn


def laurent_expand(f: AnnulusRational, order: int) -> LaurentSeries:
    """Expand ``f`` into factor series and their truncated two-sided product.

    Coefficients come from exact convolution recurrences; the certified tail
    constants use simple-root partial fractions (clustered roots are
    separated by a 1e-9 perturbation and flagged).
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    try:
        validate(f)
    except (BadRadius, RootInClosedDisk, RootOutsideInnerDisk) as exc:
        raise InvalidRational(str(exc)) from exc
    m = int(order)
    r = f.r
    p = _trim_trailing_zeros(np.array(f.p_coeffs))
    alphas = np.array(f.q1_roots, dtype=complex)
    betas_all = np.array(f.q2_roots, dtype=complex)
    n_zero = int(np.sum(betas_all == 0))
    betas = betas_all[betas_all != 0]
    n_roots2 = len(betas_all)

    # exact coefficient window: wide enough to hold the numerator image and
    # the full inner-factor offset, so dropped-but-computed terms are exact
    ext = max(m, len(p) - 1 + len(alphas), n_roots2 + 4, 8)

    # ascending factor: p(z) / (scale * prod(z - alpha_j))
    inv_outer = _inverse_series(_poly_from_roots(alphas), ext)
    a_full = np.convolve(p, inv_outer)[: ext + 1] / f.scale
    if len(a_full) < ext + 1:
        a_full = np.pad(a_full, (0, ext + 1 - len(a_full)))
    a = a_full[: m + 1].copy()

    # descending factor: 1/prod(z - beta_i) = sum_{m >= L} v_{m-L} z^{-m}
    inv_inner = _inverse_series(
        _poly_from_roots([1.0 / b for b in betas]) * np.prod(-betas) if len(betas) else np.array([1.0 + 0j]),
        ext,
    )
    # note: prod(z - beta) = z^L' * prod(1 - beta/z); the series of
    # 1/prod(1 - beta w) in w has polynomial prod(1 - beta_i w) whose
    # ascending coefficients equal poly_from_roots(1/beta) * prod(-beta).
    b_full = np.zeros(ext + n_roots2 + 1, dtype=complex)
    b_full[n_roots2 : n_roots2 + ext + 1] = inv_inner
    b = b_full[: m + 1].copy()

    warned = False
    pos_terms = []
    if len(alphas):
        alphas_sep, w1 = _declump(alphas)
        warned |= w1
        _, rem = (
            np.polydiv(p[::-1], _poly_from_roots(alphas_sep)[::-1])
            if len(p) > len(alphas_sep)
            else (np.zeros(1), p[::-1])
        )
        res1 = _residues(np.atleast_1d(rem)[::-1], alphas_sep)
        for c_j, a_j in zip(res1, alphas_sep):
            pos_terms.append((abs(c_j) / abs(f.scale), 1.0 / abs(a_j)))
    neg_terms = []
    if len(betas):
        betas_sep, w2 = _declump(betas)
        warned |= w2
        res2 = _residues(np.array([1.0 + 0j]), betas_sep)
        for d_i, b_i in zip(res2, betas_sep):
            # full-index coefficient b_{m} = d_i beta^{m - n_zero - 1}
            neg_terms.append((abs(d_i) / abs(b_i) ** (n_zero + 1), abs(b_i) / r))

    pos_dropped = tuple(
        (float(abs(a_full[n])), n) for n in range(m + 1, ext + 1) if a_full[n] != 0
    )
    neg_dropped = tuple(
        (float(abs(b_full[j]) * r ** (-j)), j)
        for j in range(m + 1, len(b_full))
        if b_full[j] != 0
    )
    model = _TailModel(
        r=r,
        pos_window_end=ext,
        neg_window_end=len(b_full) - 1,
        pos_terms=tuple(pos_terms),
        neg_terms=tuple(neg_terms),
        pos_dropped=pos_dropped,
        neg_dropped=neg_dropped,
    )
    tail_pos = model.pos_tail(m)
    tail_neg = model.neg_tail(m)
    wa = np.abs(a)
    wb = inner_weights(b, r)
    sa_cap = float(wa.sum()) + tail_pos
    sb_cap = float(wb.sum()) + tail_neg
    tail_bound = tail_pos * sb_cap + sa_cap * tail_neg + tail_pos * tail_neg

    coeffs = np.convolve(a, b[::-1])
    rho1 = float(1.0 / np.min(np.abs(alphas))) if len(alphas) else 0.0
    rho2 = float(np.max(np.abs(betas_all))) if n_roots2 else 0.0
    c1 = float(sum(w for w, _ in pos_terms))
    c2 = float(sum(w for w, _ in neg_terms)) if len(betas) else 0.0
    return LaurentSeries(
        r=r,
        order=m,
        coeffs=coeffs,
        factor_pos=a,
        factor_neg=b,
        rho1=rho1,
        rho2=rho2,
        c1=c1,
        c2=c2,
        tail_pos=tail_pos,
        tail_neg=tail_neg,
        tail_bound=tail_bound,
        cluster_warning=warned,
        tail_model=model,
    )


def laurent_order_for(f: AnnulusRational, tol: float, cap: int = 4096) -> int:
    """Smallest truncation order whose certified tail bound is at most ``tol``.

    Doubling scan followed by binary refinement; the minimal order keeps the
    bound within one geometric factor of ``tol``.
    """
    hi = 8
    while laurent_expand(f, hi).tail_bound > tol:
        hi *= 2
        if hi > cap:
            raise InvalidRational(f"tail bound does not reach {tol} within order {cap}")
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if laurent_expand(f, mid).tail_bound <= tol:
            hi = mid
        else:
            lo = mid + 1
    return hi


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def _pairs(values) -> list:
    return [[float(np.real(v)), float(np.imag(v))] for v in values]


def rational_to_json(f: AnnulusRational) -> dict:
    return {
        "r": float(f.r),
        "p": _pairs(f.p_coeffs),
        "q1_roots": _pairs(f.q1_roots),
        "q2_roots": _pairs(f.q2_roots),
        "scale": [float(f.scale.real), float(f.scale.imag)],
    }


def rational_from_json(obj: dict) -> AnnulusRational:
    try:
        f = AnnulusRational(
            r=float(obj["r"]),
            p_coeffs=tuple(complex(c[0], c[1]) for c in obj["p"]),
            q1_roots=tuple(complex(c[0], c[1]) for c in obj.get("q1_roots", [])),
            q2_roots=tuple(complex(c[0], c[1]) for c in obj.get("q2_roots", [])),
            scale=complex(obj["scale"][0], obj["scale"][1]),
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"malformed rational object: {exc}") from exc
    validate(f)
    return f
