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
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BadRadius,
    BudgetExceeded,
    InvalidRational,
    PoleHit,
    RootInClosedDisk,
    RootOutsideInnerDisk,
)
from .linalg import as_integer, complex_from_pair, complex_to_pair, json_number, lapack, require_radius

_POLE_TOL = 1e-14
# Bytes of each of FactoredStack.abs_at's four work arrays for one chunk of
# rows; one allocation per call holds them.  glibc's malloc serves a block
# past its mmap threshold (128 KiB until a larger mmapped block is freed) by
# mmap and hands it back to the kernel when freed, so the page faults of a
# pass depended on what the process had freed before it, not on the pass:
# with an allocation per chunk, a cold certify's lower-bound pass faulted
# each chunk's pages in again.  At this size that pass takes about 300
# faults, whatever was imported.
_ABS_CHUNK_BYTES = 1 << 16


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


def check_clearance(d, root, z) -> None:
    """Raise :class:`PoleHit` if some offset ``d = z - root`` is within
    ``1e-14 |z|`` of 0: relative to the modulus of the point, so a contour
    at any radius can pass."""
    if np.any(np.abs(d) <= _POLE_TOL * np.abs(z)):
        raise PoleHit(f"evaluation point within {_POLE_TOL} |z| of root {root}")


def evaluate(f: AnnulusRational, z):
    """Evaluate ``f`` at a complex point (or array of points).

    Raises :class:`PoleHit` if any point ``z`` is within ``1e-14 |z|`` of a
    denominator root.
    """
    zz = np.asarray(z, dtype=complex)
    num = np.polyval(np.array(f.p_coeffs)[::-1], zz)
    den = np.full_like(zz, f.scale)
    for root in f.q1_roots + f.q2_roots:
        d = zz - root
        check_clearance(d, root, zz)
        den = den * d
    out = num / den
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(out)
    return out


@dataclass(frozen=True, eq=False)
class FactoredStack:
    """Factored forms of a sequence of rationals on one annulus of inner
    radius ``r``, one zero-padded row each.

    Row ``i`` holds the ascending numerator coefficients ``p[i]``, the
    ``q1_roots`` then the ``q2_roots`` in ``roots[i]``, and the constant
    ``scale[i]``; ``counts[i]`` is its layout ``(k1, k2, len(p))``, so
    ``mask[i]`` marks the first ``k1 + k2`` slots of ``roots[i]`` and
    ``outer[i]`` the first ``k1``, the ``q1`` roots; ``moduli`` holds the
    modulus of every slot and ``order`` the rows by root count, each
    computed once per stack.
    :func:`pack` builds a stack, :meth:`function` gives a row back.  Two
    stacks are equal only when they are one object, and a stack hashes.
    """

    r: float
    counts: np.ndarray
    p: np.ndarray
    roots: np.ndarray
    scale: np.ndarray

    @cached_property
    def mask(self) -> np.ndarray:
        """The occupied slots of ``roots``."""
        return np.arange(self.roots.shape[1]) < (self.counts[:, 0] + self.counts[:, 1])[:, np.newaxis]

    @cached_property
    def outer(self) -> np.ndarray:
        """The slots of ``roots`` that hold ``q1`` roots, read-only."""
        outer = np.arange(self.roots.shape[1]) < self.counts[:, :1]
        outer.flags.writeable = False
        return outer

    @cached_property
    def moduli(self) -> np.ndarray:
        """``abs`` of each slot of ``roots`` as :func:`validate` takes it,
        read-only: ``hypot``, from which ``np.abs`` can differ in the last
        bit."""
        mods = np.hypot(self.roots.real, self.roots.imag)
        mods.flags.writeable = False
        return mods

    def take(self, rows) -> "FactoredStack":
        """The rows selected by ``rows`` (a slice or an index array)."""
        return FactoredStack(
            r=self.r, counts=self.counts[rows], p=self.p[rows], roots=self.roots[rows], scale=self.scale[rows]
        )

    def function(self, i: int) -> AnnulusRational:
        """Row ``i`` as an :class:`AnnulusRational`."""
        k1, k2, lp = self.counts[i]
        return AnnulusRational(
            r=self.r,
            p_coeffs=tuple(self.p[i, :lp]),
            q1_roots=tuple(self.roots[i, :k1]),
            q2_roots=tuple(self.roots[i, k1 : k1 + k2]),
            scale=self.scale[i],
        )

    @cached_property
    def order(self) -> np.ndarray:
        """The rows by ``k1 + k2`` descending, then ``len(p)`` descending
        (a stable sort), read-only, computed once per stack."""
        k, lp = self.counts[:, 0] + self.counts[:, 1], self.counts[:, 2]
        order = np.lexsort((-lp, -k))
        order.flags.writeable = False
        return order

    @cached_property
    def _in_order(self) -> tuple:
        """``(rows holding slot j, p.T, roots.T, scale)`` with the rows in
        :attr:`order`, so slot ``j`` is held by the first ``held[j]``
        rows."""
        counts = self.counts[self.order]
        k = counts[:, 0] + counts[:, 1]
        held = np.count_nonzero(k[:, np.newaxis] > np.arange(self.roots.shape[1]), axis=0)
        return (
            held,
            self.p[self.order].T.copy(),
            self.roots[self.order].T.copy(),
            self.scale[self.order],
        )

    def abs_at(self, points: np.ndarray) -> np.ndarray:
        """``|f_i(z)|`` at shared points (1-D) or at row ``i``'s own points
        ``points[i]`` (2-D, one row of points per row), shape
        ``(rows, points)``, in the stack's row order.

        Row ``i`` equals ``np.abs(evaluate(f_i, z))`` bit for bit, and no
        row depends on another.  The rows are worked in :attr:`order`, a
        chunk at a time (:meth:`_abs_chunks`): root slot ``j`` multiplies
        only the prefix of rows that hold it, so no padded root is
        evaluated.  Horner runs over the zero-padded coefficients, every row
        at every step: a padded step maps ``+0`` to ``0 z + 0 = +0`` (round
        to nearest adds a zero of either sign to ``+0`` as ``+0``), so a
        row's first coefficient ``c`` gives ``0 z + c`` as
        :func:`evaluate`'s first step does, and a non-finite ``z`` gives NaN
        either way.  numpy's complex multiply is not bitwise commutative (it
        uses FMA), so every value is formed by :func:`evaluate`'s operations
        in its operand order.  A chunk's work arrays are ``(rows, points)``
        in memory, so the prefix of rows that a root slot multiplies is one
        contiguous block, unless a row has fewer than 16 points and fewer
        points than the stack has rows: then they are ``(points, rows)``,
        so the longer axis is innermost.  Neither the layout nor the chunks
        change any arithmetic.
        """
        points = np.asarray(points, dtype=complex)
        out = np.empty((self.order.size, points.shape[-1]))
        for rows, vals in self._abs_chunks(points):
            out[rows] = vals[:, : out.shape[1]]
        return out

    def max_abs_at(self, points: np.ndarray) -> np.ndarray:
        """``abs_at(points).max(axis=1)``, one value per row (``-inf`` for
        no points), without holding the ``(rows, points)`` values."""
        out = np.full(self.order.size, -np.inf)
        for rows, vals in self._abs_chunks(np.asarray(points, dtype=complex)):
            out[rows] = vals.max(axis=1)
        return out

    def _abs_chunks(self, points: np.ndarray):
        """``(rows, |f_rows(z)|)`` for consecutive chunks of :attr:`order`,
        each of about ``_ABS_CHUNK_BYTES`` per work array; the values are a
        view that the next chunk overwrites.  One allocation holds every
        chunk's work arrays, each chunk's contiguous in its layout.  A lone
        point is evaluated twice over."""
        if points.shape[-1] == 1:
            # numpy multiplies a lone element in place by a loop without FMA:
            # two copies of the point keep every product longer than one
            points = np.repeat(points, 2, axis=-1)
        rows, width = self.order.size, points.shape[-1]
        if not rows or not width:
            return
        held, p, roots, scale = self._in_order
        layout = "F" if width < 16 and rows > width else "C"
        step = max(1, _ABS_CHUNK_BYTES // (16 * width))
        if points.ndim == 2:
            if points.shape[0] != rows:
                raise ValueError(f"need one row of points per row, got {points.shape[0]} for {rows}")
            # take gathers into a C-ordered block without a copy of its input
            points = np.ascontiguousarray(points)
        work = np.empty((4, min(step, rows) * width), dtype=complex)
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            shape, size = (hi - lo, width), (hi - lo) * width
            num, den, d, z = (w[:size].reshape(shape, order=layout) for w in work)
            # z holds each row's points, so that every operand of a step has
            # one layout and numpy runs the step as one loop
            if points.ndim == 2:
                # d's memory holds the rows' points until z takes them in its layout
                block = work[2, :size].reshape(shape)
                np.take(points, self.order[lo:hi], axis=0, out=block, mode="clip")
                z[...] = block
            else:
                z[...] = points
            num[...] = 0
            for k in range(p.shape[0] - 1, -1, -1):
                np.multiply(num, z, out=num)
                np.add(num, p[k, lo:hi, np.newaxis], out=num)
            den[...] = scale[lo:hi, np.newaxis]
            for j, m in enumerate(np.minimum(held, hi) - lo):
                if m <= 0:
                    break
                np.subtract(z[:m], roots[j, lo : lo + m, np.newaxis], out=d[:m])
                np.multiply(den[:m], d[:m], out=den[:m])
            vals = work[2, :size].view(float)[:size].reshape(shape, order=layout)
            yield self.order[lo:hi], np.abs(np.divide(num, den, out=num), out=vals)


def _slots(width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, column)`` of each entry of rows holding ``width[i]`` entries
    each, packed flat in row order."""
    row = np.repeat(np.arange(width.size), width)
    return row, np.arange(row.size) - np.repeat(np.cumsum(width) - width, width)


def pack(r: float, counts, p, roots, scale=1.0) -> FactoredStack:
    """The rows ``(k1, k2, len(p))`` of ``counts`` on the annulus of inner
    radius ``r`` as one zero-padded :class:`FactoredStack`, from their
    numerator coefficients ``p`` and roots ``roots`` (each row's ``q1_roots``
    then its ``q2_roots``), each flat in row order, and ``scale``, one per
    row or one for all.  Nothing is validated."""
    counts = np.asarray(counts, dtype=int).reshape(-1, 3)
    lp, k = counts[:, 2], counts[:, 0] + counts[:, 1]
    n = counts.shape[0]
    stack = FactoredStack(
        r=float(r),
        counts=counts,
        p=np.zeros((n, lp.max(initial=1)), dtype=complex),
        roots=np.zeros((n, k.max(initial=0)), dtype=complex),
        scale=np.full(n, scale, dtype=complex),
    )
    stack.p[_slots(lp)] = p
    stack.roots[_slots(k)] = roots
    return stack


def factored_stack(functions) -> FactoredStack:
    """Validate each function and :func:`pack` the factored forms into one
    stack.  The functions must share one annulus (:class:`InvalidRational`
    otherwise) and be at least one (``ValueError``)."""
    functions = tuple(functions)
    if not functions:
        raise ValueError("factored_stack needs at least one function")
    r = functions[0].r
    for f in functions:
        validate(f)
        if f.r != r:
            raise InvalidRational(f"mismatched radii {r} and {f.r}")
    return pack(
        r,
        [(len(f.q1_roots), len(f.q2_roots), len(f.p_coeffs)) for f in functions],
        [c for f in functions for c in f.p_coeffs],
        [a for f in functions for a in f.q1_roots + f.q2_roots],
        [f.scale for f in functions],
    )


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
    for a in f.q1_roots:
        scale *= -a
    for b in f.q2_roots:
        if b == 0:
            scale *= r
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


def _majorant_base(length: int, kappas) -> np.ndarray:
    """The first ``length`` coefficients of ``prod_j 1/(1 - kappa_j w)``."""
    base = np.zeros(length)
    base[0] = 1.0
    for kappa in kappas:
        base = np.convolve(base, kappa ** np.arange(length))[:length]
    return base


def _build_denominator(f: AnnulusRational, length: int) -> tuple:
    """``(inv_outer, b, b_scaled, base, geometric, neg)``, read-only, for the
    denominator ``(r, q1_roots, q2_roots)`` of ``f``, ``length`` terms
    each: the series of ``1/prod(z - alpha_j)``, the inner factor's
    coefficients ``b`` and weights ``b_scaled``, the outer majorant's
    ``base`` and ``rate^n base[n]``, and the inner factor's tail model.
    The half of :func:`_build_series` that does not read ``p`` or
    ``scale``; every entry depends only on the entries before it, so a
    longer build extends a shorter one bit for bit."""
    r = f.r
    alphas = np.array(f.q1_roots, dtype=complex)
    betas_all = np.array(f.q2_roots, dtype=complex)
    betas = betas_all[betas_all != 0]
    n_roots2 = len(betas_all)
    inv_outer = _inverse_series(_poly_from_roots(alphas), length - 1)
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
    # each coefficient of 1/prod(z - alpha_j) is bounded by that of
    # prod 1/(|alpha_j| - z)
    moduli = np.abs(alphas)
    lo = moduli.min(initial=np.inf)
    base = _majorant_base(length, lo / moduli)
    geometric = (1.0 / lo) ** np.arange(length) * base
    # weighted majorant r^-L prod 1/(1 - (|beta_i|/r) w), shifted by L
    moduli = np.abs(betas)
    hi = moduli.max(initial=0.0)
    kernel = np.zeros(n_roots2 + 1)
    kernel[-1] = r ** (-n_roots2)
    rate, neg_base = hi / r, _majorant_base(length, moduli / hi)
    major = np.convolve(kernel, rate ** np.arange(length) * neg_base)[:length]
    neg = _TailModel(exact=weights, major=major, base=neg_base, rate=rate, lead=n_roots2)
    for array in (inv_outer, b, b_scaled, base, geometric, neg.exact, neg.major, neg.base):
        array.flags.writeable = False
    return inv_outer, b, b_scaled, base, geometric, neg


def _build_series(f: AnnulusRational, length: int) -> tuple:
    """``(a, b, b_scaled, pos, neg)``, read-only: the factor series that
    :class:`LaurentSeries` holds as ``factor_pos``, ``factor_neg`` and
    ``factor_neg_scaled`` (``neg.exact`` holds the moduli of ``b_scaled``)
    and the tail models of both factors, at least ``length`` terms each.
    Only ``a = conv(p, inv_outer) / scale`` and the outer model's ``exact``
    and ``major`` are formed here; the rest is the denominator's data from
    the series memo, which may be longer.  Every entry depends only on the
    entries before it, so a longer build extends a shorter one bit for bit.
    Call it with ``_MEMO_LOCK`` held.
    """
    p = _trim_trailing_zeros(np.array(f.p_coeffs))
    # np.convolve sums in another order when the series is not the longer
    # operand, so it always is, as in every longer call
    reach = max(length, len(p) + 1)
    inv_outer, b, b_scaled, base, geometric, neg = _denominator_data(f, reach)
    a = np.convolve(p, inv_outer[:reach])[:length] / f.scale
    moduli = np.abs(np.array(f.q1_roots, dtype=complex))
    kernel = np.abs(p) * np.prod(1.0 / moduli) / abs(f.scale)
    major = np.convolve(kernel, geometric[:length])[:length]
    pos = _TailModel(
        exact=np.abs(a), major=major, base=base[:length], rate=1.0 / moduli.min(initial=np.inf), lead=len(kernel) - 1
    )
    for array in (a, pos.exact, pos.major):
        array.flags.writeable = False
    return a, b, b_scaled, pos, neg


# Every entry of the series memo, of either kind, is built at least to the
# reach of this order (_length_for): every order up to it of a function with
# a lead up to it, and of every function over its denominator, 1/(scale q1
# q2) included, then reads one build.
_REACH_ORDER = 64

# The series memo holds the data of at most this many functions and
# denominators.
_MEMO_SIZE = 32
_MEMO_LOCK = threading.Lock()
_ORDER_CAP = 4096  # the default cap of laurent_order_for


@lru_cache(maxsize=_MEMO_SIZE)
def _series_memo(kind: str, key: bytes) -> list:
    """The slot ``[data]`` that holds the longest build so far (``[None]``
    before the first): of :func:`_build_series` for ``kind == "function"``,
    of the function whose fields have the bits ``key``; of
    :func:`_build_denominator` for ``kind == "denominator"``, of the
    denominators ``(r, q1_roots, q2_roots)`` with the bits ``key``, which
    every function over it shares, ``1/(scale q1 q2)`` included.

    A denominator entry holds 88 bytes per term (three complex and five
    real arrays), a function entry 32 of its own (one complex and two real
    arrays) and its denominator's, which it keeps while the denominator's
    entry may be dropped.  At ``order`` an entry has ``max(order, 64,
    lead) + 130`` terms (64 is ``_REACH_ORDER``), where ``lead`` is the
    numerator's degree or the inner factor's root count: about 0.5 MB at
    order 4096, so at most ``_MEMO_SIZE`` x 0.5 MB = 16 MB while no order
    passes ``_ORDER_CAP = 4096``, the cap of :func:`laurent_order_for`.
    ``cache_clear`` empties the memo.
    """
    return [None]


def _denominator_data(f: AnnulusRational, length: int) -> tuple:
    """:func:`_build_denominator` of ``f`` with at least ``length`` terms,
    from the memo or built and kept there; call it with ``_MEMO_LOCK``
    held."""
    key = np.array((f.r, len(f.q1_roots)) + f.q1_roots + f.q2_roots, dtype=complex).tobytes()
    slot = _series_memo("denominator", key)
    if slot[0] is None or len(slot[0][0]) < length:
        slot[0] = _build_denominator(f, length)
    return slot[0]


def _series_data(f: AnnulusRational, order: int) -> tuple:
    """:func:`_build_series` of ``f`` with the terms that ``order`` reads
    (:func:`_length_for`), from the memo when the data it holds is that
    long, else built to the reach of ``max(order, _REACH_ORDER)`` and kept
    in its place.  The data may be longer than asked; every reader takes a
    prefix, which equals a build at its own length bit for bit."""
    # 0.0 and -0.0 can build different data, though == calls them equal
    head = (f.r, f.scale, len(f.p_coeffs), len(f.q1_roots))
    key = np.array(head + f.p_coeffs + f.q1_roots + f.q2_roots, dtype=complex).tobytes()
    with _MEMO_LOCK:
        slot = _series_memo("function", key)
        if slot[0] is None or len(slot[0][0]) < _length_for(f, order):
            slot[0] = _build_series(f, _length_for(f, max(order, _REACH_ORDER)))
        return slot[0]


def _tail_bounds(pos: _TailModel, neg: _TailModel, order: int, s: float = 1.0, t: float = 1.0) -> tuple:
    """``(tp, tn, bound)`` at ``order``: the two factor tails, terms grown by
    ``s^j`` and ``t^j``, and the one product-tail bound
    ``||A B - A_o B_o|| <= tp (Sb + tn) + Sa tn`` (``A_o (B - B_o) +
    (A - A_o) B``), where ``Sa``, ``Sb`` sum the grown moduli of each
    factor's first ``order + 1`` terms.  ``bound`` is ``inf`` when a tail or
    a sum is not finite, where ``inf * 0`` would read NaN.  Reads only the
    first ``_length_for(f, order)`` terms of each model.
    """
    tp, tn = pos.tail(order, s), neg.tail(order, t)
    n = np.arange(order + 1)
    sa = float(_grown(pos.exact[: order + 1], n, s).sum())
    sb = float(_grown(neg.exact[: order + 1], n, t).sum())
    if not np.isfinite(tp + tn + sa + sb):
        return tp, tn, np.inf
    return tp, tn, tp * (sb + tn) + sa * tn


@dataclass(frozen=True, eq=False)
class LaurentSeries:
    """Truncated two-sided expansion of an :class:`AnnulusRational`.

    ``coeffs[j + M]`` is the coefficient of ``z^j`` for ``j = -M..M``, the
    product of the two factor series, formed on first read.
    ``factor_pos`` holds the ascending coefficients of the outer factor
    (numerator and scale folded in), ``factor_neg`` the coefficients ``b_m``
    of the inner factor ``1/q2 = sum b_m z^{-m}`` (so ``(1, 0, 0, ...)`` when
    the inner factor is trivial), and ``factor_neg_scaled`` the weights
    ``b_m r^-m`` of its series in ``r/z``, formed without ``r^-m``: they stay
    finite and nonzero where ``b_m`` underflows and ``r^-m`` overflows.
    ``tail_pos`` and ``tail_neg`` bound what each factor series drops,
    ``tail_bound`` (:func:`_tail_bounds` at growth 1) the sup-norm remainder
    of the truncated product on the closed annulus; all three hold for
    repeated roots as they stand.  ``rho1, rho2`` are the geometric rates of
    the two factors: the largest ``1/|alpha_j|`` and ``|beta_i|``.  Two
    series are equal only when they are one object, and a series hashes.
    """

    r: float
    order: int
    factor_pos: np.ndarray
    factor_neg: np.ndarray
    factor_neg_scaled: np.ndarray
    rho1: float
    rho2: float
    tail_pos: float
    tail_neg: float
    tail_bound: float
    tail_models: tuple = field(repr=False)

    @cached_property
    def coeffs(self) -> np.ndarray:
        return np.convolve(self.factor_pos, self.factor_neg[::-1])

    def coefficient(self, j: int) -> complex:
        """Coefficient of ``z^j`` (zero outside the truncation window)."""
        if abs(j) > self.order:
            return 0.0 + 0j
        return complex(self.coeffs[j + self.order])

    def operator_tail_bound(self, norm_t: float, norm_rtinv: float) -> float:
        """Certified bound on the dropped terms when the series is applied to
        an operator with ``||T|| <= norm_t`` and ``||r T^{-1}|| <= norm_rtinv``:
        :func:`_tail_bounds` at growths ``max(1, norm_t)`` and
        ``max(1, norm_rtinv)``, ``tail_bound`` at ``(1, 1)`` bit for bit."""
        s, t = max(1.0, float(norm_t)), max(1.0, float(norm_rtinv))
        return _tail_bounds(*self.tail_models, self.order, s, t)[2]


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
    The factor series are fresh copies of a prefix of the series memo's data
    for ``f`` (see :func:`_series_memo`), built only when the memo holds too
    few terms; ``tail_models`` are the memo's read-only models, which may
    run past what this order reads.  The product ``coeffs`` is formed only
    when read.  ``order`` is an integer >= 1 (numpy's too, not a ``bool``).
    """
    m = as_integer(order, "order", 1)
    _checked(f)
    a, b, b_scaled, pos, neg = _series_data(f, m)
    tail_pos, tail_neg, tail_bound = _tail_bounds(pos, neg, m)
    alphas = np.abs(np.array(f.q1_roots, dtype=complex))
    betas = np.abs(np.array(f.q2_roots, dtype=complex))
    return LaurentSeries(
        r=f.r,
        order=m,
        factor_pos=a[: m + 1].copy(),
        factor_neg=b[: m + 1].copy(),
        factor_neg_scaled=b_scaled[: m + 1].copy(),
        rho1=float(1.0 / alphas.min(initial=np.inf)),
        rho2=float(betas.max(initial=0.0)),
        tail_pos=tail_pos,
        tail_neg=tail_neg,
        tail_bound=tail_bound,
        tail_models=(pos, neg),
    )


def _tail_bound_at(f: AnnulusRational, order: int) -> float:
    """The certified remainder bound of ``f`` at ``order``, from the memo."""
    return _tail_bounds(*_series_data(f, order)[3:], order)[2]


def laurent_order_for(f: AnnulusRational, tol: float, cap: int = _ORDER_CAP) -> int:
    """Smallest truncation order whose certified tail bound is at most ``tol``.

    Doubling scan from order 8, clamped at ``cap``, followed by binary
    refinement above the last failing probe (from order 1 when the first
    passes).  The series memo builds every entry to at least the reach of
    order 64 (:func:`_series_data`), so every probe up to order 64 reads
    one build, and so does a :func:`laurent_expand` at the order found; a
    probe past it grows the memo.  Each probe's bound equals
    ``laurent_expand(f, order).tail_bound`` bit for bit.  A NaN bound
    counts as not reaching ``tol``; :class:`BudgetExceeded` is raised when
    no order up to ``cap`` reaches it.  ``tol`` must be finite and > 0, and
    ``cap`` an integer >= 1 (numpy's too, not a ``bool``).
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    cap = as_integer(cap, "cap", 1)
    _checked(f)
    lo, hi = 1, min(8, cap)
    while not _tail_bound_at(f, hi) <= tol:
        if hi == cap:
            raise BudgetExceeded(f"tail bound does not reach {tol} within order {cap}")
        lo, hi = hi, min(2 * hi, cap)
    while lo < hi:
        mid = (lo + hi) // 2
        if _tail_bound_at(f, mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return hi


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def rational_to_json(f: AnnulusRational) -> dict:
    return {
        "r": float(f.r),
        "p": [complex_to_pair(c) for c in f.p_coeffs],
        "q1_roots": [complex_to_pair(z) for z in f.q1_roots],
        "q2_roots": [complex_to_pair(z) for z in f.q2_roots],
        "scale": complex_to_pair(f.scale),
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
