"""Rational functions with poles off the closed annulus ``r <= |z| <= 1``.

A function is stored in factored form

    f(z) = p(z) / (scale * prod_j (z - alpha_j) * prod_i (z - beta_i))

with every ``alpha_j`` strictly outside the closed unit disk and every
``beta_i`` strictly inside the inner disk of radius ``r``.  On the closed
annulus such an ``f`` splits into an ascending series (the ``p/q1`` part,
convergent on ``|z| <= 1``) times a descending series (the ``1/q2`` part,
convergent on ``|z| >= r``); :func:`laurent_expand` produces both factor
series, their truncated two-sided product, and certified bounds on everything
that was dropped.  A factor's dropped tail is bounded by its exact
coefficient moduli over a fixed margin past the order, and beyond that by a
positive majorant series (``prod 1/(|alpha_j| - z)`` for the outer factor),
whose log-concavity gives the rest in closed form.  Repeated roots need no
special treatment.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import (
    BadRadius,
    BudgetExceeded,
    InvalidRational,
    PoleHit,
    RootInClosedDisk,
    RootOutsideInnerDisk,
)
from .linalg import as_integer, complex_from_pair, json_number, require_radius

_POLE_TOL = 1e-14


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
    """Check the root-location invariants and that every entry is finite,
    raising on the first violation."""
    require_radius(f.r)
    if len(f.p_coeffs) == 0 or f.scale == 0:
        raise InvalidRational("numerator empty or scale is zero")
    for v in f.p_coeffs + f.q1_roots + f.q2_roots + (f.scale,):
        if not cmath.isfinite(v):
            raise InvalidRational(f"non-finite coefficient, root or scale {v}")
    for a in f.q1_roots:
        if abs(a) <= 1.0:
            raise RootInClosedDisk(f"outer-factor root {a} has |.| <= 1")
    for b in f.q2_roots:
        if abs(b) >= f.r:
            raise RootOutsideInnerDisk(f"inner-factor root {b} has |.| >= r = {f.r}")


def _checked(f: AnnulusRational) -> None:
    """:func:`validate`, with a root or radius violation raised as :class:`InvalidRational`."""
    try:
        validate(f)
    except (BadRadius, RootInClosedDisk, RootOutsideInnerDisk) as exc:
        raise InvalidRational(str(exc)) from exc


def check_clearance(d, root) -> None:
    """Raise :class:`PoleHit` if some offset ``d = z - root`` is within 1e-14 of 0."""
    if np.any(np.abs(d) < _POLE_TOL):
        raise PoleHit(f"evaluation point within {_POLE_TOL} of root {root}")


def evaluate(f: AnnulusRational, z):
    """Evaluate ``f`` at a complex point (or array of points).

    Raises :class:`PoleHit` if any point is within 1e-14 of a denominator root.
    """
    zz = np.asarray(z, dtype=complex)
    num = np.polyval(np.array(f.p_coeffs)[::-1], zz)
    den = np.full_like(zz, f.scale)
    for root in f.q1_roots + f.q2_roots:
        d = zz - root
        check_clearance(d, root)
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

    def take(self, rows) -> "FactoredStack":
        """The rows selected by ``rows`` (a slice or an index array)."""
        return FactoredStack(p=self.p[rows], roots=self.roots[rows], mask=self.mask[rows], scale=self.scale[rows])

    def abs_at(self, points: np.ndarray) -> np.ndarray:
        """``|f_i(z)|`` at shared points (1-D) or at row ``i``'s own points
        ``points[i]`` (2-D), shape ``(rows, points)``.

        Row ``i`` equals ``np.abs(evaluate(f_i, z))`` bit for bit.  numpy's
        complex multiply is not bitwise commutative (it uses FMA), so every
        product keeps :func:`evaluate`'s operand order, and is formed in
        place: ``den = den * np.where(...)`` lets numpy's temporary elision
        compute ``where(...) * den`` once the temporary reaches 256 KiB.
        """
        z = points if points.ndim == 2 else points[np.newaxis, :]
        shape = (self.p.shape[0], z.shape[1])
        num = np.zeros(shape, dtype=complex)
        for k in range(self.p.shape[1] - 1, -1, -1):
            np.multiply(num, z, out=num)
            num += self.p[:, k : k + 1]
        den = np.repeat(self.scale[:, np.newaxis], shape[1], axis=1)
        for k in range(self.roots.shape[1]):
            d = z - self.roots[:, k : k + 1]
            if not self.mask[:, k].all():
                d = np.where(self.mask[:, k : k + 1], d, 1.0)
            np.multiply(den, d, out=den)
        return np.abs(np.divide(num, den, out=num))


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
    _checked(f)
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
    ``nodes`` is an integer >= 64 (numpy's too, not a ``bool``).
    """
    validate(f)
    nodes = as_integer(nodes, "nodes", 64)
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    ring = np.exp(1j * theta)
    outer = np.abs(evaluate(f, ring))
    inner = np.abs(evaluate(f, f.r * ring))
    return float(max(outer.max(), inner.max()))


# ---------------------------------------------------------------------------
# Laurent expansion with certified tails
# ---------------------------------------------------------------------------

# Past the truncation order, the tail bounds sum this many exactly computed
# coefficient moduli before a positive majorant takes over.
_MARGIN = 128


def _grown(mag, n, growth: float):
    """``mag * growth**n``, in log space unless ``growth`` is 1."""
    if growth == 1.0:
        return mag
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(np.log(mag) + n * np.log(growth))


def _poly_from_roots(roots) -> np.ndarray:
    """Monic polynomial with the given roots, ascending coefficients."""
    c = np.array([1.0 + 0j])
    for root in roots:
        c = np.convolve(c, np.array([-root, 1.0 + 0j]))
    return c


def _inverse_series(c: np.ndarray, m: int) -> np.ndarray:
    """First ``m+1`` ascending coefficients of ``1/poly`` (``c[0] != 0``).

    Forward substitution in the banded lower-triangular Toeplitz system whose
    columns hold ``c``, in one LAPACK ``ztbtrs`` call: the convolution
    recurrence, exact for repeated roots.  Each entry depends only on ``c``
    and the entries before it, so a shorter run is a prefix of a longer one
    bit for bit.
    """
    band = np.repeat(np.asarray(c, dtype=complex)[:, np.newaxis], m + 1, axis=1)
    rhs = np.zeros((m + 1, 1), dtype=complex)
    rhs[0] = 1.0
    u, _ = lapack.ztbtrs(band, rhs, uplo="L")
    return u[:, 0]


@dataclass(frozen=True)
class _TailModel:
    """Certified bound on ``sum_{n > order} x_n growth^n`` for one factor.

    ``exact[n]`` holds the computed ``x_n``: the coefficient moduli of the
    factor series, weighted by ``r^-n`` for the inner factor.  ``major[n]``
    is a positive majorant ``M_n >= x_n``: a kernel with last nonzero entry
    at ``lead`` convolved with ``rate^n base[n]``, where ``base`` holds the
    coefficients of ``prod_j 1/(1 - kappa_j w)`` with ``0 < kappa_j <= 1``.
    ``base`` is a convolution of geometric sequences, hence log-concave:
    its term ratio never increases.  Each ``M_k`` is a positive combination
    of ``rate^j base[j]`` over ``k - lead <= j <= k``, so
    ``M_{k+1}/M_k <= rate base[n-lead+1]/base[n-lead]`` for every
    ``k >= n >= lead``.  The bound sums ``x_n`` over ``_MARGIN`` terms past
    the order and closes the rest with that ratio as a geometric series.
    """

    exact: np.ndarray
    major: np.ndarray
    base: np.ndarray
    rate: float
    lead: int

    def tail(self, order: int, growth: float = 1.0) -> float:
        """Bound on ``sum_{n > order} x_n growth^n``; ``inf`` once the
        majorant's ratio times ``growth`` reaches 1."""
        end = max(order, self.lead) + _MARGIN
        window = np.arange(order + 1, end + 1)
        total = float(np.sum(_grown(self.exact[order + 1 : end + 1], window, growth)))
        if self.rate:
            k = end - self.lead
            q = growth * self.rate * self.base[k + 1] / self.base[k]
            if q >= 1.0:
                return np.inf
            total += float(_grown(self.major[end], end, growth)) * q / (1.0 - q)
        return total


def _tail_model(exact, kernel, kappas, rate: float) -> _TailModel:
    """Tail model with majorant ``kernel * (rate^n base[n])`` over ``len(exact)`` terms."""
    length = len(exact)
    base = np.zeros(length)
    base[0] = 1.0
    for kappa in kappas:
        base = np.convolve(base, kappa ** np.arange(length))[:length]
    major = np.convolve(kernel, rate ** np.arange(length) * base)[:length]
    return _TailModel(exact=exact, major=major, base=base, rate=rate, lead=len(kernel) - 1)


def factor_series(f: AnnulusRational, length: int) -> tuple:
    """The first ``length`` coefficients of both factor series of ``f``:
    ``(a, b, b_scaled, weights)``.

    ``a`` is the ascending series of ``p / (scale q1)``, ``b`` the
    coefficients ``b_m`` of ``1/q2 = sum b_m z^-m``, ``b_scaled`` the weights
    ``b_m r^-m`` and ``weights`` their moduli, both formed without ``r^-m``
    (see :class:`LaurentSeries`).  Every entry depends only on the entries
    before it, so a longer call extends a shorter one bit for bit.
    """
    r = f.r
    p = _trim_trailing_zeros(np.array(f.p_coeffs))
    alphas = np.array(f.q1_roots, dtype=complex)
    betas_all = np.array(f.q2_roots, dtype=complex)
    betas = betas_all[betas_all != 0]
    n_roots2 = len(betas_all)
    # np.convolve sums in another order when the series is not the longer
    # operand, so it always is, as in every longer call
    inv_outer = _inverse_series(_poly_from_roots(alphas), max(length, len(p) + 1) - 1)
    a = np.convolve(p, inv_outer)[:length] / f.scale
    # 1/prod(z - beta_i) = z^-L sum_m c_m (r/z)^m, where c is the series of
    # 1/prod(1 - (beta_i/r) w) in w; that polynomial's ascending coefficients
    # equal poly_from_roots(r/beta) * prod(-beta/r).  So b_{m+L} = c_m r^m,
    # and the weights b_{m+L} r^-(m+L) = c_m r^-L stay representable where
    # b_{m+L} underflows and r^-(m+L) overflows.
    b = np.zeros(length, dtype=complex)
    b_scaled = np.zeros(length, dtype=complex)
    weights = np.zeros(length)
    if length > n_roots2:
        inv_inner = _inverse_series(
            _poly_from_roots([r / beta for beta in betas]) * np.prod(-betas / r) if len(betas) else np.array([1.0 + 0j]),
            length - n_roots2 - 1,
        )
        b[n_roots2:] = inv_inner * r ** np.arange(length - n_roots2)
        b_scaled[n_roots2:] = inv_inner * r ** (-n_roots2)
        weights[n_roots2:] = np.abs(inv_inner) * r ** (-n_roots2)
    return a, b, b_scaled, weights


def _series_data(f: AnnulusRational, length: int):
    """:func:`factor_series` of ``f`` and the tail models of its two
    factors, ``length`` terms each."""
    a, b, b_scaled, weights = factor_series(f, length)
    # each coefficient of 1/prod(z - alpha_j) is bounded by that of
    # prod 1/(|alpha_j| - z)
    moduli = np.abs(np.array(f.q1_roots, dtype=complex))
    lo = moduli.min(initial=np.inf)
    kernel = np.abs(_trim_trailing_zeros(np.array(f.p_coeffs))) * np.prod(1.0 / moduli) / abs(f.scale)
    pos = _tail_model(np.abs(a), kernel, lo / moduli, 1.0 / lo)
    # weighted majorant r^-L prod 1/(1 - (|beta_i|/r) w), shifted by L
    betas = np.array(f.q2_roots, dtype=complex)
    n_roots2 = len(betas)
    moduli = np.abs(betas[betas != 0])
    hi = moduli.max(initial=0.0)
    kernel = np.zeros(n_roots2 + 1)
    kernel[-1] = f.r ** (-n_roots2)
    neg = _tail_model(weights, kernel, moduli / hi, hi / f.r)
    return a, b, b_scaled, pos, neg


def _tail_bounds(pos: _TailModel, neg: _TailModel, order: int) -> tuple[float, float, float]:
    """``(tail_pos, tail_neg, tail_bound)`` at ``order`` from the two models.

    Reads only the first ``_length_for(f, order)`` terms of each model.
    """
    tail_pos = pos.tail(order)
    tail_neg = neg.tail(order)
    sa_cap = float(pos.exact[: order + 1].sum()) + tail_pos
    sb_cap = float(neg.exact[: order + 1].sum()) + tail_neg
    return tail_pos, tail_neg, tail_pos * sb_cap + sa_cap * tail_neg + tail_pos * tail_neg


@dataclass(frozen=True)
class LaurentSeries:
    """Truncated two-sided expansion of an :class:`AnnulusRational`.

    ``coeffs[j + M]`` is the coefficient of ``z^j`` for ``j = -M..M``.
    ``factor_pos`` holds the ascending coefficients of the outer factor
    (numerator and scale folded in), ``factor_neg`` the coefficients ``b_m``
    of the inner factor ``1/q2 = sum b_m z^{-m}`` (so ``(1, 0, 0, ...)`` when
    the inner factor is trivial), and ``factor_neg_scaled`` the weights
    ``b_m r^-m`` of its series in ``r/z``, formed without ``r^-m``: they stay
    finite and nonzero where ``b_m`` underflows and ``r^-m`` overflows.
    ``tail_pos`` and ``tail_neg`` bound what each factor series drops,
    ``tail_bound`` the sup-norm remainder of the truncated product on the
    closed annulus; all three hold for repeated roots as they stand.  ``rho1, rho2`` are the geometric rates of the two
    factors: the largest ``1/|alpha_j|`` and ``|beta_i|``.
    """

    r: float
    order: int
    coeffs: np.ndarray
    factor_pos: np.ndarray
    factor_neg: np.ndarray
    factor_neg_scaled: np.ndarray
    rho1: float
    rho2: float
    tail_pos: float
    tail_neg: float
    tail_bound: float
    tail_models: tuple = field(repr=False)

    def coefficient(self, j: int) -> complex:
        """Coefficient of ``z^j`` (zero outside the truncation window)."""
        if abs(j) > self.order:
            return 0.0 + 0j
        return complex(self.coeffs[j + self.order])

    def operator_tail_bound(self, norm_t: float, norm_rtinv: float) -> float:
        """Certified bound on the dropped terms when the series is applied to
        an operator with ``||T|| <= norm_t`` and ``||r T^{-1}|| <= norm_rtinv``.

        Returns ``inf`` when the inflated majorant ratios reach 1.
        """
        s = max(1.0, float(norm_t))
        t = max(1.0, float(norm_rtinv))
        m = self.order
        pos, neg = self.tail_models
        weights_pos = np.abs(self.factor_pos) * s ** np.arange(m + 1)
        weights_neg = _grown(neg.exact[: m + 1], np.arange(m + 1), t)
        tp = pos.tail(m, s)
        tn = neg.tail(m, t)
        sa = float(weights_pos.sum()) + tp
        sb = float(weights_neg.sum()) + tn
        return tp * sb + sa * tn


def _length_for(f: AnnulusRational, order: int) -> int:
    """Terms of series data that the tail bounds at ``order`` read: the
    margin past the order (or past a later kernel end) and one ratio term."""
    lead = max(len(_trim_trailing_zeros(np.array(f.p_coeffs))) - 1, len(f.q2_roots))
    return max(order, lead) + _MARGIN + 2


def laurent_expand(f: AnnulusRational, order: int) -> LaurentSeries:
    """Expand ``f`` into factor series and their truncated two-sided product.

    Coefficients come from exact convolution recurrences.  Each factor's
    dropped tail is bounded by its exact coefficient moduli over ``_MARGIN``
    terms past the order, then by a positive majorant series in closed form.
    """
    m = as_integer(order, "order", 1)
    _checked(f)
    a_full, b_full, b_scaled, pos, neg = _series_data(f, _length_for(f, m))
    tail_pos, tail_neg, tail_bound = _tail_bounds(pos, neg, m)
    a = a_full[: m + 1].copy()
    b = b_full[: m + 1].copy()
    alphas = np.abs(np.array(f.q1_roots, dtype=complex))
    betas = np.abs(np.array(f.q2_roots, dtype=complex))
    return LaurentSeries(
        r=f.r,
        order=m,
        coeffs=np.convolve(a, b[::-1]),
        factor_pos=a,
        factor_neg=b,
        factor_neg_scaled=b_scaled[: m + 1].copy(),
        rho1=float(1.0 / alphas.min(initial=np.inf)),
        rho2=float(betas.max(initial=0.0)),
        tail_pos=tail_pos,
        tail_neg=tail_neg,
        tail_bound=tail_bound,
        tail_models=(pos, neg),
    )


def laurent_tail_bound(f: AnnulusRational, order: int) -> float:
    """``laurent_expand(f, order).tail_bound`` bit for bit, from the tail
    models alone: no truncated product is formed."""
    order = as_integer(order, "order", 1)
    _checked(f)
    *_, pos, neg = _series_data(f, _length_for(f, order))
    return _tail_bounds(pos, neg, order)[2]


def laurent_order_for(f: AnnulusRational, tol: float, cap: int = 4096) -> int:
    """Smallest truncation order whose certified tail bound is at most ``tol``.

    Doubling scan from order 8 followed by binary refinement (from order 1
    when 8 already passes) over series data rebuilt only when a probe reads
    past it.  Each probe's bound equals ``laurent_expand(f, order).tail_bound``
    bit for bit.  A NaN bound counts as not reaching ``tol``;
    :class:`BudgetExceeded` is raised when no order up to ``cap`` reaches it.
    ``tol`` must be finite and > 0, and ``cap`` an integer >= 1 (numpy's
    too, not a ``bool``).
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    cap = as_integer(cap, "cap", 1)
    _checked(f)
    data = _series_data(f, _length_for(f, 8))

    def bound(order: int) -> float:
        nonlocal data
        need = _length_for(f, order)
        if len(data[0]) < need:
            data = _series_data(f, need)
        return _tail_bounds(data[-2], data[-1], order)[2]

    hi = 8
    while not bound(hi) <= tol:
        hi *= 2
        if hi > cap:
            raise BudgetExceeded(f"tail bound does not reach {tol} within order {cap}")
    lo = 1 if hi == 8 else hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if bound(mid) <= tol:
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
            r=json_number(obj["r"]),
            p_coeffs=tuple(map(complex_from_pair, obj["p"])),
            q1_roots=tuple(map(complex_from_pair, obj.get("q1_roots", []))),
            q2_roots=tuple(map(complex_from_pair, obj.get("q2_roots", []))),
            scale=complex_from_pair(obj["scale"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed rational object: {exc}") from exc
    validate(f)
    return f
