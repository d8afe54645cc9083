"""Truncated commuting isometric dilations and the two-carrier model.

For a commuting pair of contractions ``(T1, T2)`` the classical staircase
isometries insert the defect vectors ``D_i h`` into a fresh cell of a shift
chain.  Each cell holds two copies of ``H``; a staircase step moves content
by one copy, so two steps move it by one cell.  Those staircases do not
commute; the fix-up unitary ``G`` on ``H^2`` intertwines the two insertion
patterns

    (D1 T2 h, D2 h)  ->  (D2 T1 h, D1 h)

and conjugating one staircase by the block-diagonal lift of ``G`` makes the
pair commute wherever the chain has room, since every product of two steps
shifts content by exactly one ``G`` block.  (Ando's proof pads each cell with
two more copies of ``H`` that only match the dimensions of infinite
complements.)  Cutting the chain at ``M`` blocks keeps all of this exact on
vectors supported away from the cut: isometry on blocks ``0..M-1``,
commutation on blocks ``0..M-2``, and compressed moments ``w(T1, T2)`` for
every word.

The model for an invertible ``T`` stacks the two carriers: ``N`` is block
diagonal in the dilation ``V1`` of ``T`` and ``V2`` of ``r T^{-1}`` (the
second kept in inverse form, never inverted), ``F`` swaps the two summands,
and ``V`` embeds ``H`` into the first.  The model is truncated, not the
paper's: ``N`` is neither normal nor an ``A_r``-unitary.  What the saved
``(N, F, V)`` satisfy, for ``f = p / (scale q1 q2)`` at budget ``d``, is

    f(T)  ~  V* p(N) [sum_{k<=d} a_k N^k] [sum_{m<=d} b_m r^-m (FNF)^m] V

where ``1/(scale q1) = sum a_k z^k`` and ``1/q2 = sum b_m z^-m``, with an
error bounded by :meth:`ModelTriple.tail_report`.  ``V1`` and ``V2`` are
isometric on blocks ``0..M-1`` and commute on blocks ``0..M-2`` up to the
pair's :attr:`AndoPair.generator_defects`.

The verification path applies no carrier.  ``P_H V_i = T_i P_H`` by
construction, so :func:`verify_model` and :func:`moment_table` form only the
rows of ``H``, as ``h x h`` chains in ``T1`` and ``T2``.  Those rows cannot
see the carrier, so both first check it in its generators, whose defects are
what keeps ``V1`` and ``V2`` from being commuting isometries on the budget
blocks.  ``V1`` and ``V2`` have one implementation, the structured applies;
the dense ``N`` is built from them for :func:`save_model`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import calculus, linalg, rational
from ._version import __version__
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidRational,
    NotCommuting,
    NotIsometric,
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
    d = linalg.as_integer(d, "degree budget", 1)
    h = m.shape[0]
    norm = linalg.operator_norm(m)
    if norm > 1.0 + tols.verify_tol:
        raise NotContraction(f"||T|| = {norm} exceeds 1")
    gram_defect = linalg.operator_norm(np.eye(h) - m.conj().T @ m)
    if gram_defect <= tols.rank_tol:
        return m.copy(), np.eye(h, dtype=complex)
    d_t = _defect(np.eye(h) - m.conj().T @ m, "T", NotContraction, tols)
    d_tstar = _defect(np.eye(h) - m @ m.conj().T, "T*", NotContraction, tols)
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


def _defect(c: np.ndarray, name: str, error: type, tols: Tolerances) -> np.ndarray:
    """Defect operator ``c^(1/2)``, ``c = I - X* X``, of an ``X`` (named
    ``name``) accepted as a contraction, ``||X|| <= 1 + verify_tol``.

    Such a ``c`` can have eigenvalues down to about ``-2 verify_tol``.
    :func:`linalg.sqrtm_psd` clamps those down to ``-verify_tol`` to zero,
    which leaves ``X* X + D^2 - I`` within ``verify_tol``; below that no
    defect operator does, and ``error`` is raised.
    """
    try:
        return linalg.sqrtm_psd(c, tols)
    except ValueError as exc:
        raise error(f"{name} is not a contraction within verify_tol: {exc}") from None


# ---------------------------------------------------------------------------
# Commuting pair dilation
# ---------------------------------------------------------------------------


def _fixup_unitary(t1, t2, d1, d2, tols: Tolerances) -> np.ndarray:
    """Unitary G on H^2 mapping (D1 T2 h, D2 h) to (D2 T1 h, D1 h).

    The two vector families have identical Gram matrices whenever ``T1`` and
    ``T2`` are commuting contractions, so mapping one orthonormalized frame
    onto the other and completing to a unitary realizes the intertwining.
    """
    a = np.vstack([d1 @ t2, d2])
    b = np.vstack([d2 @ t1, d1])
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > tols.rank_tol * max(1.0, s[0] if s.size else 0.0)))
    if rank == 0:
        return np.eye(a.shape[0], dtype=complex)
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
    """Truncated commuting dilation pair on ``K0 = H + (H^2)^M``.

    The pair is held in structured form: the fix-up unitary ``g``, the
    defects ``d1``/``d2`` and the contractions themselves.  ``V1 = S1 Ghat``
    and ``V2 = Ghat* S2``, with ``S_i`` the staircases and ``Ghat`` the
    block-diagonal lift of ``g``, act only through :meth:`apply_v1` and
    :meth:`apply_v2`.  Isometry holds on vectors supported in blocks
    ``0..M-1``, commutation on ``0..M-2``, and the compressed moments are
    exact for every word in the pair.  How far the first two hold is read off
    the generators, :attr:`generator_defects`; past the cut neither holds.
    """

    g: np.ndarray = field(repr=False)
    d1: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)
    t1: np.ndarray = field(repr=False)
    t2: np.ndarray = field(repr=False)
    m: int

    @property
    def d(self) -> int:
        """Degree budget ``M - 1``: power ``k <= d`` of a chain started on
        ``H`` stays off the last cell."""
        return self.m - 1

    @property
    def dim_h(self) -> int:
        return self.t1.shape[0]

    @property
    def dim(self) -> int:
        return self.dim_h * (2 * self.m + 1)

    @cached_property
    def embed(self) -> np.ndarray:
        """The injection ``V`` of ``H`` as block 0 of ``K0``."""
        return np.eye(self.dim, self.dim_h, dtype=complex)

    @cached_property
    def generator_defects(self) -> dict:
        """Operator norms of ``g* g - I`` (``unitarity``),
        ``t_i* t_i + d_i* d_i - I`` (``isometry_i``), ``t1 t2 - t2 t1``
        (``commutation``) and ``g [d1 t2; d2] - [d2 t1; d1]``
        (``intertwining``), and the ``scale`` ``max(1, ||t1|| ||t2||)`` they
        are judged at.  Their maximum bounds
        the isometry and commutation defects of ``V1``, ``V2`` on the budget
        blocks up to a small factor."""
        norm = linalg.operator_norm
        eye = np.eye(self.dim_h)
        g, t1, t2, d1, d2 = self.g, self.t1, self.t2, self.d1, self.d2
        return {
            "unitarity": norm(g.conj().T @ g - np.eye(g.shape[0])),
            "isometry_1": norm(t1.conj().T @ t1 + d1.conj().T @ d1 - eye),
            "isometry_2": norm(t2.conj().T @ t2 + d2.conj().T @ d2 - eye),
            "commutation": norm(t1 @ t2 - t2 @ t1),
            "intertwining": norm(g @ np.vstack([d1 @ t2, d2]) - np.vstack([d2 @ t1, d1])),
            "scale": max(1.0, norm(t1) * norm(t2)),
        }

    def block_slice(self, b: int) -> slice:
        """Index range of block ``b`` (block 0 is H, then M blocks of H^2)."""
        h = self.dim_h
        if b == 0:
            return slice(0, h)
        return slice(h + (b - 1) * 2 * h, h + b * 2 * h)

    def _cell_end(self, s: int) -> int:
        """Row ``s`` rounded up to the end of its block, capped at ``dim``."""
        h = self.dim_h
        cells = -(-max(s - h, 0) // (2 * h))
        return min(h + 2 * h * cells, self.dim)

    # The applies take and return the leading rows a column stack occupies;
    # every row past them is zero.  ``V1`` maps rows ``[0, s)`` into
    # ``[0, cell_end(s) + h)`` and ``V2`` into ``[0, cell_end(s + h))``, so a
    # power chain started on ``H`` fills one more copy of ``H`` per step and
    # a full-length stack maps to a full-length stack.

    def _stair(self, t, defect, x: np.ndarray) -> np.ndarray:
        h = self.dim_h
        out = np.zeros((min(x.shape[0] + h, self.dim), x.shape[1]), dtype=complex)
        out[:h] = t @ x[:h]
        out[h : 2 * h] = defect @ x[:h]
        out[2 * h :] = x[h : out.shape[0] - h]
        return out

    def _ghat(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        h = self.dim_h
        gg = self.g.conj().T if adjoint else self.g
        out = np.zeros((self._cell_end(x.shape[0]), x.shape[1]), dtype=complex)
        out[: x.shape[0]] = x
        blocks = out[h:].reshape(-1, 2 * h, x.shape[1])
        out[h:] = np.matmul(gg, blocks).reshape(-1, x.shape[1])
        return out

    def apply_v1(self, x: np.ndarray) -> np.ndarray:
        """``V1 @ x = S1 Ghat x`` for a column stack given by its leading rows."""
        return self._stair(self.t1, self.d1, self._ghat(x))

    def apply_v2(self, x: np.ndarray) -> np.ndarray:
        """``V2 @ x = Ghat* S2 x`` for a column stack given by its leading rows."""
        return self._ghat(self._stair(self.t2, self.d2, x), adjoint=True)


# In check order: a pair that does not commute is named so before the fix-up
# unitary built on it fails to intertwine.
_GENERATOR_ERRORS = (
    ("unitarity", NotIsometric),
    ("isometry_1", NotIsometric),
    ("isometry_2", NotIsometric),
    ("commutation", NotCommuting),
    ("intertwining", NotCommuting),
)


def _check_generators(pair: AndoPair, tols: Tolerances) -> None:
    """:class:`NotIsometric` or :class:`NotCommuting` for the first generator
    defect above ``verify_tol`` at the pair's scale."""
    defects = pair.generator_defects
    limit = tols.verify_tol * defects["scale"]
    for name, error in _GENERATOR_ERRORS:
        if not defects[name] <= limit:
            raise error(f"carrier {name} defect {defects[name]:.3g} exceeds {limit:.3g}")


def ando_pair(t1, t2, m_depth: int, tols: Tolerances = DEFAULT_TOLS) -> AndoPair:
    """Truncated commuting isometric dilation of a commuting contraction pair;
    its generators pass the check :func:`verify_model` makes, else
    :class:`NotCommuting` or :class:`NotIsometric`."""
    m1 = linalg.as_matrix(t1)
    m2 = linalg.as_matrix(t2)
    if m1.shape != m2.shape or m1.shape[0] != m1.shape[1]:
        raise NotCommuting("need two square matrices of equal size")
    m_depth = linalg.as_integer(m_depth, "block depth", 2)
    h = m1.shape[0]
    for name, mat in (("T1", m1), ("T2", m2)):
        if linalg.operator_norm(mat) > 1.0 + tols.verify_tol:
            raise NotContractions(f"{name} is not a contraction")
    eye = np.eye(h)
    d1 = _defect(eye - m1.conj().T @ m1, "T1", NotContractions, tols)
    d2 = _defect(eye - m2.conj().T @ m2, "T2", NotContractions, tols)
    g = _fixup_unitary(m1, m2, d1, d2, tols)
    pair = AndoPair(g=g, d1=d1, d2=d2, t1=m1, t2=m2, m=m_depth)
    _check_generators(pair, tols)
    return pair


# ---------------------------------------------------------------------------
# The two-carrier model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelTriple:
    """Model data ``(N, F, V)`` for one matrix ``T``.

    ``N`` is block diagonal in the two carriers (second block stored in
    inverse form: its positive powers scaled by ``r^{-n}`` realize negative
    powers of ``T``), ``F`` swaps the two summands, ``V`` embeds ``H`` into
    the first.  The model is truncated.  ``N`` is not normal, so not an
    ``A_r``-unitary: on each copy of ``H`` it is isometric while ``N*`` acts
    as ``T_i*``, and ``T``, ``r T^-1`` are not both unitary.  ``f(T)`` is the
    module docstring's series form within :meth:`tail_report`'s bound, not
    ``p(N) q1(N)^-1 q2(FNF)^-1`` compressed.  The dense
    ``n_matrix`` (the pair's applies on the identity), ``f_matrix`` and
    ``v_matrix`` are built only when read.
    """

    pair: AndoPair
    r: float

    @property
    def m(self) -> int:
        return self.pair.m

    @property
    def d(self) -> int:
        return self.pair.d

    @cached_property
    def n_matrix(self) -> np.ndarray:
        k = self.pair.dim
        eye = np.eye(k, dtype=complex)
        n = np.zeros((2 * k, 2 * k), dtype=complex)
        n[:k, :k] = self.pair.apply_v1(eye)
        n[k:, k:] = self.pair.apply_v2(eye)
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
        return np.eye(2 * self.pair.dim, self.pair.dim_h, dtype=complex)

    def tail_report(self, f: AnnulusRational) -> dict:
        """Certified truncation bounds for verifying ``f`` at budget ``d``."""
        series = _model_series(self, f)
        ut, bt = series.tail_pos, series.tail_neg
        cp = float(np.sum(np.abs(f.p_coeffs)))
        sa = float(np.sum(np.abs(series.factor_pos)))
        sb = float(np.sum(series.tail_models[1].exact[: self.d + 1]))
        bound = cp * (ut * (sb + bt) + sa * bt + ut * bt)
        return {"q1_tail": ut, "q2_tail": bt, "bound": bound}


BUDGET_CAP = 24


def default_budget(f: AnnulusRational, tol: float = 1e-10, cap: int = BUDGET_CAP) -> int:
    """Default degree budget for verifying ``f``: twice the truncation order
    that certifies ``tol``, capped.  A capped budget may leave the certified
    bound above ``tol``.

    No order search runs when the cap binds: if the bound at order
    ``ceil(cap/2) - 1`` is above ``tol`` (or NaN), every order that certifies
    ``tol`` doubles to at least ``cap``.  ``tol`` must be finite and > 0, and
    ``cap`` an integer >= 1 (numpy's too, not a ``bool``).
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    cap = linalg.as_integer(cap, "cap", 1)
    half = -(-cap // 2)
    if half < 2 or not rational.laurent_tail_bound(f, half - 1) <= tol:
        return cap
    return min(2 * rational.laurent_order_for(f, tol), cap)


def build_model(t, r: float, d: int, tols: Tolerances = DEFAULT_TOLS) -> ModelTriple:
    """Model for an invertible ``T`` with ``T`` and ``r T^{-1}`` contractions,
    at a budget ``d`` that is an integer >= 1 (numpy's too, not a ``bool``)."""
    m = linalg.as_matrix(t)
    linalg.require_radius(r)
    d = linalg.as_integer(d, "degree budget", 1)
    try:
        t2 = r * linalg.inverse(m, tols)
    except Singular as exc:
        raise NotInvertible(str(exc)) from exc
    pair = ando_pair(m, t2, m_depth=d + 1, tols=tols)
    return ModelTriple(pair=pair, r=float(r))


def _model_series(model: ModelTriple, f: AnnulusRational) -> rational.LaurentSeries:
    """Laurent series of ``1/(scale q1 q2)`` at the model's budget, for an
    ``f`` on its annulus.  Its outer factor series and tail are those of
    ``1/(scale q1)``, its inner ones those of ``1/q2``."""
    return rational.laurent_expand(_denominator(model, f), model.d)


def _denominator(model: ModelTriple, f: AnnulusRational) -> AnnulusRational:
    """``1/(scale q1 q2)`` for an ``f`` on the model's annulus."""
    if f.r != model.r:
        raise InvalidRational(f"mismatched radii {f.r} and {model.r}")
    return replace(f, p_coeffs=(1.0,))


def _operand(model: ModelTriple, t) -> np.ndarray:
    """``T`` as a matrix, :class:`DimensionMismatch` unless it acts on ``H``."""
    m = linalg.as_matrix(t)
    h = model.pair.dim_h
    if m.shape != (h, h):
        raise DimensionMismatch(f"T is {m.shape}, the model acts on H of dimension {h}")
    return m


def _chain_sum(mat: np.ndarray, coeffs, x: np.ndarray) -> np.ndarray:
    """``sum_k coeffs[k] mat^k x`` up to the last nonzero coefficient,
    accumulated in order, one product with ``mat`` per power; zero terms
    are skipped."""
    nonzero = np.flatnonzero(coeffs)
    acc = coeffs[0] * x
    for c in coeffs[1 : nonzero[-1] + 1 if nonzero.size else 1]:
        x = mat @ x
        if c != 0:
            acc = acc + c * x
    return acc


def verify_model(
    model: ModelTriple,
    t,
    f: AnnulusRational,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Residual ``max_h ||f(T) h - V* p(N) q1(N)^-1 q2(FNF)^-1 V h||``.

    The right-hand side follows the series route: the inner factor as
    ``sum_m b_m r^{-m} V2^m`` (the first ``d + 1`` weights of
    :func:`rational.factor_series`, no tail; ``F N F`` acts on the
    first summand as ``V2``), the outer factor and numerator as
    series/polynomial in ``V1``.  Since ``P_H V_i = T_i P_H``, only the rows
    of ``H`` are formed: ``h x h`` chains in ``T2``, then ``T1``, one product
    per power, each stopping at its series' last nonzero coefficient.  Those
    rows cannot see the carrier, so the pair's
    :attr:`AndoPair.generator_defects` are checked first:
    :class:`NotIsometric` or :class:`NotCommuting` when one exceeds
    ``verify_tol`` at the pair's scale.  :class:`InvalidRational` is raised
    when ``f.r`` is not the model's ``r``, :class:`DimensionMismatch` when
    ``T`` is not ``h x h``.
    """
    rational.validate(f)
    factor_pos, _, factor_neg_scaled, _ = rational.factor_series(_denominator(model, f), model.d + 1)
    m = _operand(model, t)
    pair = model.pair
    _check_generators(pair, tols)
    y = _chain_sum(pair.t2, factor_neg_scaled, np.eye(m.shape[0], dtype=complex))
    z = _chain_sum(pair.t1, factor_pos, y)
    w = _chain_sum(pair.t1, np.array(f.p_coeffs, dtype=complex), z)
    lhs = calculus.eval_direct(f, m, tols)
    return float(np.max(np.linalg.norm(lhs - w, axis=0)))


def moment_table(model: ModelTriple, t, j_max: int, tols: Tolerances = DEFAULT_TOLS) -> list:
    """Moment residuals per degree ``0 <= j <= j_max``, both power directions.

    Row ``j`` holds ``forward_residual = ||V* V1^j V - T^j||`` and
    ``inverse_residual = ||r^-j V* V2^j V - T^-j||``.  The compressions
    ``T_i^j`` are left products, as in :func:`verify_model`, after the same
    generator check; the powers of ``T`` and ``T^-1`` are right products.
    ``V* V_i^j V = T_i^j`` holds by construction, so a row tests only the
    rounding of those two products of ``T`` powers (and of ``r^-j`` against
    ``T2 = r T^-1``), never the carrier: that is checked by
    :attr:`AndoPair.generator_defects`, whose failure raises here before
    any row is formed.  Each direction's norms are taken in one batched
    call.
    :class:`BudgetExceeded` is raised when ``j_max`` exceeds ``d`` or
    ``r^-j_max`` overflows, ``ValueError`` when ``j_max`` is not an integer
    >= 0 and :class:`DimensionMismatch` when ``T`` is not ``h x h``.
    """
    j_max = linalg.as_integer(j_max, "j_max", 0)
    if j_max > model.d:
        raise BudgetExceeded(f"j_max {j_max} exceeds budget d = {model.d}")
    m = _operand(model, t)
    pair = model.pair
    _check_generators(pair, tols)
    h = m.shape[0]
    inv = linalg.inverse(m, tols)
    rweights = _inverse_weights(model.r, j_max)
    forward = np.empty((j_max + 1, h, h), dtype=complex)
    inverse = np.empty_like(forward)
    x1 = x2 = pow_pos = pow_neg = np.eye(h, dtype=complex)
    for j in range(j_max + 1):
        forward[j] = x1 - pow_pos
        inverse[j] = rweights[j] * x2 - pow_neg
        if j < j_max:
            x1, x2 = pair.t1 @ x1, pair.t2 @ x2
            pow_pos, pow_neg = pow_pos @ m, pow_neg @ inv
    norms = zip(_operator_norms(forward), _operator_norms(inverse))
    return [
        {"degree": j, "forward_residual": float(fw), "inverse_residual": float(iv)}
        for j, (fw, iv) in enumerate(norms)
    ]


def _inverse_weights(r: float, j_max: int) -> list:
    """``r^-j`` for ``j = 0..j_max``; :class:`BudgetExceeded` names the first
    degree whose weight overflows a double."""
    weights = []
    for j in range(j_max + 1):
        try:
            weights.append(r ** (-j))
        except OverflowError:
            raise BudgetExceeded(
                f"r^-j overflows at degree {j} (r = {r}); inverse moments reach at most degree {j - 1}"
            ) from None
    return weights


def _operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack, in one batched call;
    non-finite entries raise as :func:`linalg.operator_norm` does."""
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix has NaN/Inf entries")
    return np.linalg.norm(stack, 2, axis=(1, 2))


def verify_moments(model: ModelTriple, t, j_max: int, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Max moment residual over ``0 <= j <= j_max`` for both power directions.

    As in :func:`moment_table`, the residual measures the rounding of
    ``T`` powers; the carrier is tested by its generator check."""
    return max(
        max(row["forward_residual"], row["inverse_residual"])
        for row in moment_table(model, t, j_max, tols)
    )


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
    ``f`` must live on the annulus of radius ``r``, and ``d`` be an integer.
    """
    rational.validate(f)
    if f.r != r:
        raise InvalidRational(f"mismatched radii {f.r} and {r}")
    d = linalg.as_integer(d, "degree budget", 1)
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
    """Write N.json, F.json, V.json and meta.json into ``directory``; meta
    states the module docstring's convention, with the first and last block
    (:meth:`AndoPair.block_slice`) where ``V1``, ``V2`` are isometric and
    commute."""
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
        "seed": seed,
        "version": __version__,
        "formula": "f(T) ~ V* p(N) [sum_{k<=d} a_k N^k] [sum_{m<=d} b_m r^-m (FNF)^m] V, "
        "1/(scale q1) = sum_k a_k z^k, 1/q2 = sum_m b_m z^-m",
        "error_bound": "ModelTriple.tail_report(f)['bound']",
        "normal": False,
        "ar_unitary": False,
        "isometric_blocks": [0, model.m - 1],
        "commuting_blocks": [0, model.m - 2],
        "generator_defects": model.pair.generator_defects,
    }
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(meta, fh, sort_keys=True)
