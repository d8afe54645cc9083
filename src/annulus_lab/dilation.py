"""Truncated commuting isometric dilations and the two-carrier model.

For a commuting pair of contractions ``(T1, T2)`` the classical staircase
isometries insert the defect vectors ``D_i h`` into a fresh cell of a shift
chain.  Those staircases do not commute; the fix-up unitary ``G`` on four
copies of ``H`` intertwines the two insertion patterns

    (D1 T2 h, 0, D2 h, 0)  ->  (D2 T1 h, 0, D1 h, 0)

and conjugating one staircase by the block-diagonal lift of ``G`` makes the
pair commute wherever the chain has room, since every product of two steps
shifts content by exactly one ``G`` block.  Cutting the chain at ``M`` blocks
keeps all of this exact on vectors supported away from the cut: isometry on
blocks ``0..M-1``, commutation on blocks ``0..M-2``, and compressed moments
``w(T1, T2)`` for every word.

The model for an invertible ``T`` stacks the two carriers: ``N`` is block
diagonal in the dilation of ``T`` and of ``r T^{-1}`` (the second kept in
inverse form, never inverted), ``F`` swaps the two summands, and ``V`` embeds
``H`` into the first.  Negative powers are realized as the convergent series
``sum q_m r^{-m} V2^m`` whose truncation error is certified per function.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import calculus, linalg, rational
from ._version import __version__
from .errors import (
    BudgetExceeded,
    NotCommuting,
    NotContraction,
    NotContractions,
    NotInvertible,
    Singular,
)
from .linalg import DEFAULT_TOLS, Tolerances
from .rational import AnnulusRational


# ---------------------------------------------------------------------------
# Finite unitary power dilation (single contraction)
# ---------------------------------------------------------------------------


def egervary_dilation(t, d: int, tols: Tolerances = DEFAULT_TOLS) -> tuple[np.ndarray, np.ndarray]:
    """Unitary ``U`` on ``H^(d+1)`` with ``embed* U^n embed = T^n`` for n <= d.

    Block companion layout: the first column carries ``(T, D_T)``, the last
    carries ``(D_{T*}, -T*)``, and an identity subdiagonal shifts everything
    else.  A unitary input dilates itself (1x1 block).
    """
    m = linalg.as_matrix(t)
    if m.shape[0] != m.shape[1]:
        raise NotContraction("dilation needs a square matrix")
    if d < 1:
        raise ValueError("degree budget must be >= 1")
    h = m.shape[0]
    norm = linalg.operator_norm(m)
    if norm > 1.0 + tols.verify_tol:
        raise NotContraction(f"||T|| = {norm} exceeds 1")
    gram_defect = linalg.operator_norm(np.eye(h) - m.conj().T @ m)
    if gram_defect <= tols.rank_tol:
        return m.copy(), np.eye(h, dtype=complex)
    d_t = linalg.sqrtm_psd(np.eye(h) - m.conj().T @ m, tols)
    d_tstar = linalg.sqrtm_psd(np.eye(h) - m @ m.conj().T, tols)
    n_blocks = d + 1
    u = np.zeros((n_blocks * h, n_blocks * h), dtype=complex)
    u[0:h, 0:h] = m
    u[h : 2 * h, 0:h] = d_t
    u[0:h, d * h :] = d_tstar
    u[h : 2 * h, d * h :] = -m.conj().T
    for k in range(2, n_blocks):
        u[k * h : (k + 1) * h, (k - 1) * h : k * h] = np.eye(h)
    embed = np.zeros((n_blocks * h, h), dtype=complex)
    embed[0:h] = np.eye(h)
    return u, embed


# ---------------------------------------------------------------------------
# Commuting pair dilation
# ---------------------------------------------------------------------------


def _fixup_unitary(t1, t2, d1, d2, tols: Tolerances) -> np.ndarray:
    """Unitary G on H^4 mapping (D1 T2 h, 0, D2 h, 0) to (D2 T1 h, 0, D1 h, 0).

    The two vector families have identical Gram matrices whenever ``T1`` and
    ``T2`` are commuting contractions, so mapping one orthonormalized frame
    onto the other and completing to a unitary realizes the intertwining.
    """
    h = t1.shape[0]
    a = np.zeros((4 * h, h), dtype=complex)
    b = np.zeros((4 * h, h), dtype=complex)
    a[0:h] = d1 @ t2
    a[2 * h : 3 * h] = d2
    b[0:h] = d2 @ t1
    b[2 * h : 3 * h] = d1
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > tols.rank_tol * max(1.0, s[0] if s.size else 0.0)))
    if rank == 0:
        return np.eye(4 * h, dtype=complex)
    y = b @ vh.conj().T[:, :rank] / s[:rank][np.newaxis, :]
    # y is orthonormal up to roundoff (equal Grams); snap it before completing
    qy, ry = np.linalg.qr(y)
    dr = np.diag(ry).copy()
    dr[dr == 0] = 1.0
    qy = qy * (dr / np.abs(dr))[np.newaxis, :]
    y_full = linalg.unitary_completion(qy, tols)
    return y_full @ u.conj().T


@dataclass(frozen=True)
class AndoPair:
    """Truncated commuting dilation pair on ``K0 = H + (H^4)^M``.

    ``v1``/``v2`` are dense; the ``apply_*`` methods use the staircase
    structure instead and are much cheaper for tall chains.  Isometry holds on
    vectors supported in blocks ``0..M-1``, commutation on ``0..M-2``, and the
    compressed moments are exact for every word in the pair.
    """

    v1: np.ndarray = field(repr=False)
    v2: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    d1: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)
    embed: np.ndarray = field(repr=False)
    t1: np.ndarray = field(repr=False)
    t2: np.ndarray = field(repr=False)
    m: int
    d: int

    @property
    def dim_h(self) -> int:
        return self.t1.shape[0]

    @property
    def dim(self) -> int:
        return self.dim_h * (4 * self.m + 1)

    def block_slice(self, b: int) -> slice:
        """Index range of block ``b`` (block 0 is H, then M blocks of H^4)."""
        h = self.dim_h
        if b == 0:
            return slice(0, h)
        return slice(h + (b - 1) * 4 * h, h + b * 4 * h)

    def _stair(self, t, defect, x: np.ndarray) -> np.ndarray:
        h = self.dim_h
        out = np.zeros_like(x)
        out[:h] = t @ x[:h]
        out[h : 2 * h] = defect @ x[:h]
        out[3 * h :] = x[h : -2 * h]
        return out

    def _ghat(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        h = self.dim_h
        gg = self.g.conj().T if adjoint else self.g
        out = x.copy()
        blocks = x[h:].reshape(self.m, 4 * h, x.shape[1])
        out[h:] = np.matmul(gg, blocks).reshape(4 * self.m * h, x.shape[1])
        return out

    def apply_v1(self, x) -> np.ndarray:
        """Structured product ``V1 @ x`` for column stacks."""
        xx = np.asarray(x, dtype=complex)
        flat = xx.ndim == 1
        if flat:
            xx = xx.reshape(-1, 1)
        out = self._stair(self.t1, self.d1, self._ghat(xx))
        return out[:, 0] if flat else out

    def apply_v2(self, x) -> np.ndarray:
        """Structured product ``V2 @ x`` for column stacks."""
        xx = np.asarray(x, dtype=complex)
        flat = xx.ndim == 1
        if flat:
            xx = xx.reshape(-1, 1)
        out = self._ghat(self._stair(self.t2, self.d2, xx), adjoint=True)
        return out[:, 0] if flat else out


def ando_pair(t1, t2, m_depth: int, tols: Tolerances = DEFAULT_TOLS) -> AndoPair:
    """Truncated commuting isometric dilation of a commuting contraction pair."""
    m1 = linalg.as_matrix(t1)
    m2 = linalg.as_matrix(t2)
    if m1.shape != m2.shape or m1.shape[0] != m1.shape[1]:
        raise NotCommuting("need two square matrices of equal size")
    if m_depth < 2:
        raise ValueError("block depth must be >= 2")
    h = m1.shape[0]
    scale = max(1.0, linalg.operator_norm(m1) * linalg.operator_norm(m2))
    if linalg.operator_norm(m1 @ m2 - m2 @ m1) > tols.verify_tol * scale:
        raise NotCommuting("operators do not commute within tolerance")
    for name, mat in (("T1", m1), ("T2", m2)):
        if linalg.operator_norm(mat) > 1.0 + tols.verify_tol:
            raise NotContractions(f"{name} is not a contraction")
    eye = np.eye(h)
    d1 = linalg.sqrtm_psd(eye - m1.conj().T @ m1, tols)
    d2 = linalg.sqrtm_psd(eye - m2.conj().T @ m2, tols)
    g = _fixup_unitary(m1, m2, d1, d2, tols)

    n_dim = h * (4 * m_depth + 1)
    ghat = np.eye(n_dim, dtype=complex)
    for b in range(m_depth):
        i = h + b * 4 * h
        ghat[i : i + 4 * h, i : i + 4 * h] = g

    # V1 = S1 Ghat assembled row-wise: the H row applies T1, the first cell
    # receives D1, and every later cell copies the previous Ghat row block.
    v1 = np.zeros((n_dim, n_dim), dtype=complex)
    v1[0:h, 0:h] = m1
    v1[h : 2 * h, 0:h] = d1
    v1[3 * h :, :] = ghat[h : n_dim - 2 * h, :]

    # V2 = Ghat* S2 assembled column-wise.
    v2 = np.zeros((n_dim, n_dim), dtype=complex)
    v2[0:h, 0:h] = m2
    first = np.zeros((4 * h, h), dtype=complex)
    first[0:h] = d2
    v2[h : 5 * h, 0:h] = g.conj().T @ first
    v2[:, h : n_dim - 2 * h] = ghat.conj().T[:, 3 * h :]

    embed = np.zeros((n_dim, h), dtype=complex)
    embed[0:h] = eye
    return AndoPair(
        v1=v1, v2=v2, g=g, d1=d1, d2=d2, embed=embed, t1=m1, t2=m2, m=m_depth, d=m_depth - 1
    )


# ---------------------------------------------------------------------------
# The two-carrier model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelTriple:
    """Model data ``(N, F, V)`` for one matrix ``T``.

    ``N`` is block diagonal in the two carriers (second block stored in
    inverse form: its positive powers scaled by ``r^{-n}`` realize negative
    powers of ``T``), ``F`` swaps the two summands, ``V`` embeds ``H`` into
    the first.  Matrices are assembled lazily; the verifier works through the
    structured applies of the underlying pair.
    """

    pair: AndoPair
    r: float
    d: int

    @property
    def m(self) -> int:
        return self.pair.m

    @cached_property
    def n_matrix(self) -> np.ndarray:
        k = self.pair.dim
        n = np.zeros((2 * k, 2 * k), dtype=complex)
        n[:k, :k] = self.pair.v1
        n[k:, k:] = self.pair.v2
        return n

    @cached_property
    def f_matrix(self) -> np.ndarray:
        k = self.pair.dim
        f = np.zeros((2 * k, 2 * k), dtype=complex)
        f[:k, k:] = np.eye(k)
        f[k:, :k] = np.eye(k)
        return f

    @cached_property
    def v_matrix(self) -> np.ndarray:
        k = self.pair.dim
        v = np.zeros((2 * k, self.pair.dim_h), dtype=complex)
        v[:k, :] = self.pair.embed
        return v

    def tail_report(self, f: AnnulusRational) -> dict:
        """Certified truncation bounds for verifying ``f`` at budget ``d``."""
        u, ut, b, bt = _factor_series(f, self.d)
        cp = float(np.sum(np.abs(f.p_coeffs)))
        sa = float(np.sum(np.abs(u)))
        sb = float(np.sum(rational.inner_weights(b, self.r)))
        bound = cp * (ut * (sb + bt) + sa * bt + ut * bt)
        return {"q1_tail": ut, "q2_tail": bt, "bound": bound}


def _factor_series(f: AnnulusRational, order: int) -> tuple[np.ndarray, float, np.ndarray, float]:
    """Series of ``1/(scale q1)`` and of ``1/q2`` with their certified tails."""
    g1 = AnnulusRational(r=f.r, p_coeffs=(1.0,), q1_roots=f.q1_roots, scale=f.scale)
    s1 = rational.laurent_expand(g1, order)
    g2 = AnnulusRational(r=f.r, p_coeffs=(1.0,), q2_roots=f.q2_roots, scale=1.0)
    s2 = rational.laurent_expand(g2, order)
    return s1.factor_pos, s1.tail_pos, s2.factor_neg, s2.tail_neg


def default_budget(f: AnnulusRational, tol: float = 1e-10, cap: int = 24) -> int:
    """Default degree budget for verifying ``f``: twice the truncation order
    that certifies ``tol``, capped.  A capped budget may leave the certified
    bound above ``tol``; the verifier's budget gate reports that case."""
    order = rational.laurent_order_for(f, tol)
    return max(1, min(2 * order, cap))


def build_model(t, r: float, d: int, tols: Tolerances = DEFAULT_TOLS) -> ModelTriple:
    """Model for an invertible ``T`` with ``T`` and ``r T^{-1}`` contractions."""
    m = linalg.as_matrix(t)
    if d < 1:
        raise ValueError("degree budget must be >= 1")
    try:
        t2 = r * linalg.inverse(m, tols)
    except Singular as exc:
        raise NotInvertible(str(exc)) from exc
    pair = ando_pair(m, t2, m_depth=d + 1, tols=tols)
    return ModelTriple(pair=pair, r=float(r), d=int(d))


def _series_apply(apply_op, coeffs, x: np.ndarray) -> np.ndarray:
    """Evaluate ``sum_k coeffs[k] Op^k`` on a column stack, chaining powers."""
    acc = coeffs[0] * x
    cur = x
    for c in coeffs[1:]:
        cur = apply_op(cur)
        if c != 0:
            acc = acc + c * cur
    return acc


def verify_model(
    model: ModelTriple,
    t,
    f: AnnulusRational,
    tols: Tolerances = DEFAULT_TOLS,
    budget_tol: float | None = None,
) -> float:
    """Residual ``max_h ||f(T) h - V* p(N) q1(N)^-1 q2(FNF)^-1 V h||``.

    The right-hand side follows the series route on the carriers: the inner
    factor as ``sum_m q_m r^{-m} V2^m``, the outer factor and numerator as
    series/polynomial in ``V1``.  The flip route is cross-checked structurally
    on the way (applying the inner series via ``F . F`` conjugation must give
    bit-identical columns).  With ``budget_tol`` set, a certified truncation
    bound above it raises :class:`BudgetExceeded` instead of returning a
    residual that cannot meet the request.
    """
    rational.validate(f)
    m = linalg.as_matrix(t)
    pair = model.pair
    if budget_tol is not None:
        report = model.tail_report(f)
        if report["bound"] > budget_tol:
            raise BudgetExceeded(
                f"certified bound {report['bound']:.3e} exceeds {budget_tol:.1e}; raise d"
            )
    u, _, b, _ = _factor_series(f, model.d)
    rweights = model.r ** (-np.arange(model.d + 1, dtype=float))
    e = pair.embed
    y = _series_apply(pair.apply_v2, b * rweights, e)
    # flip identity: routing the same series through F q2(N)^-1 F touches the
    # identical carrier computation, so the columns must agree exactly
    y_flip = _flip_route_inner(pair, b * rweights, e)
    if not np.array_equal(y, y_flip):
        raise AssertionError("flip-route inner factor deviated from the direct route")
    z = _series_apply(pair.apply_v1, u, y)
    w = _series_apply(pair.apply_v1, np.array(f.p_coeffs, dtype=complex), z)
    rhs = e.conj().T @ w
    lhs = calculus.eval_direct(f, m, tols)
    return float(np.max(np.linalg.norm(lhs - rhs, axis=0)))


def _flip_route_inner(pair: AndoPair, coeffs, e: np.ndarray) -> np.ndarray:
    """Inner series via ``F (series in N) F`` on the stacked space.

    ``F`` swaps the two summands, so the series lands on the ``V2`` carrier
    for vectors embedded in the first summand; on the second summand (probed
    here with zeros) it would land on ``V1``.
    """
    top = np.zeros_like(e)
    # F V h = (0, h); series-in-N acts blockwise: V1-block on top, V2 below
    lower = _series_apply(pair.apply_v2, coeffs, e)
    upper = _series_apply(pair.apply_v1, coeffs, top)
    # F brings the second summand back to the first
    return lower + upper


def verify_moments(model: ModelTriple, t, j_max: int, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Max moment residual over ``0 <= j <= j_max`` for both power directions."""
    if j_max > model.d:
        raise BudgetExceeded(f"j_max {j_max} exceeds budget d = {model.d}")
    m = linalg.as_matrix(t)
    h = m.shape[0]
    inv = linalg.inverse(m, tols)
    e = model.pair.embed
    x1 = e.copy()
    x2 = e.copy()
    pow_pos = np.eye(h, dtype=complex)
    pow_neg = np.eye(h, dtype=complex)
    worst = 0.0
    for j in range(j_max + 1):
        res1 = linalg.operator_norm(e.conj().T @ x1 - pow_pos)
        res2 = linalg.operator_norm(model.r ** (-j) * (e.conj().T @ x2) - pow_neg)
        worst = max(worst, res1, res2)
        if j < j_max:
            x1 = model.pair.apply_v1(x1)
            x2 = model.pair.apply_v2(x2)
            pow_pos = pow_pos @ m
            pow_neg = pow_neg @ inv
    return worst


# ---------------------------------------------------------------------------
# Single-carrier special cases
# ---------------------------------------------------------------------------


def single_carrier_residual(
    t, r: float, f: AnnulusRational, d: int, tols: Tolerances = DEFAULT_TOLS
) -> float:
    """Residual of the one-carrier model for single-factor functions.

    For ``f = p/q1`` (no inner roots) the finite unitary power dilation of
    ``T`` itself carries the calculus; for ``f = 1/q2`` (constant numerator,
    no outer roots) the carrier is ``r U*`` built on ``r T^{-1}``, whose
    negative powers compress to negative powers of ``T`` up to degree ``d``.
    """
    rational.validate(f)
    m = linalg.as_matrix(t)
    if not f.q2_roots:
        u, e = egervary_dilation(m, d, tols)
        carrier = u
    elif not f.q1_roots and len(f.p_coeffs) == 1:
        u2, e = egervary_dilation(r * linalg.inverse(m, tols), d, tols)
        carrier = r * u2.conj().T
    else:
        raise ValueError("single-carrier verification needs f = p/q1 or f = c/q2")
    val = calculus.eval_direct(f, carrier, tols)
    rhs = e.conj().T @ val @ e
    lhs = calculus.eval_direct(f, m, tols)
    return float(linalg.operator_norm(lhs - rhs))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_model(model: ModelTriple, directory: str, seed: int | None = None) -> None:
    """Write N.json, F.json, V.json and meta.json into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    for name, mat in (
        ("N", model.n_matrix),
        ("F", model.f_matrix),
        ("V", model.v_matrix),
    ):
        with open(os.path.join(directory, f"{name}.json"), "w") as fh:
            json.dump(linalg.matrix_to_json(mat), fh)
    meta = {
        "r": model.r,
        "d": model.d,
        "M": model.m,
        "tail_report": None,
        "seed": seed,
        "version": __version__,
    }
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(meta, fh, sort_keys=True)
