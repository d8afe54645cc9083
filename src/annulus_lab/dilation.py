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
from itertools import islice

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
    else.  A unitary input dilates itself (1x1 block).  :class:`NotSquare`
    unless ``T`` is square.
    """
    m = linalg.as_matrix(t)
    facts = linalg.analysis(m)
    d = linalg.as_integer(d, "degree budget", 1)
    h = m.shape[0]
    norm = facts.norm
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


@dataclass(frozen=True, eq=False)
class AndoPair:
    """Truncated commuting dilation pair on ``K0 = H + (H^2)^M``.

    The pair is held in structured form: the fix-up unitary ``g``, the
    defects ``d1``/``d2`` and read-only copies of the contractions.  ``V1 = S1 Ghat``
    and ``V2 = Ghat* S2``, with ``S_i`` the staircases and ``Ghat`` the
    block-diagonal lift of ``g``, act only through :meth:`apply_v1` and
    :meth:`apply_v2`.  Isometry holds on vectors supported in blocks
    ``0..M-1``, commutation on ``0..M-2``, and the compressed moments are
    exact for every word in the pair.  How far the first two hold is read off
    the generators, :attr:`generator_defects`; past the cut neither holds.
    :attr:`powers` tables the compressions ``T2^j`` that the model checks
    read.  Two pairs are equal only when they are one object.
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
        are judged at, from the two analyses.  Their maximum bounds
        the isometry and commutation defects of ``V1``, ``V2`` on the budget
        blocks up to a small factor.  The check of :func:`verify_model`
        reads :attr:`generator_bounds` and forms these only when a bound
        exceeds its limit."""
        terms = self._generator_terms()
        return {name: linalg.operator_norm(x) for name, x in terms.items()} | {"scale": self._scale}

    @cached_property
    def generator_bounds(self) -> dict:
        """Upper bounds on the five norms of :attr:`generator_defects`, and
        the same ``scale``: one :func:`calculus._norm_bounds` call on the
        defect matrices, zero-padded to a ``(5, 2h, 2h)`` stack, so no SVD
        is taken."""
        terms = self._generator_terms()
        size = 2 * self.dim_h
        stack = np.zeros((len(terms), size, size), dtype=complex)
        for slot, x in zip(stack, terms.values()):
            slot[: x.shape[0], : x.shape[1]] = x
        return dict(zip(terms, calculus._norm_bounds(stack).tolist())) | {"scale": self._scale}

    @property
    def _scale(self) -> float:
        return max(1.0, linalg.analysis(self.t1).norm * linalg.analysis(self.t2).norm)

    def _generator_terms(self) -> dict:
        """The five defect matrices whose norms are the generator defects."""
        eye = np.eye(self.dim_h)
        g, t1, t2, d1, d2 = self.g, self.t1, self.t2, self.d1, self.d2
        return {
            "unitarity": g.conj().T @ g - np.eye(g.shape[0]),
            "isometry_1": t1.conj().T @ t1 + d1.conj().T @ d1 - eye,
            "isometry_2": t2.conj().T @ t2 + d2.conj().T @ d2 - eye,
            "commutation": t1 @ t2 - t2 @ t1,
            "intertwining": g @ np.vstack([d1 @ t2, d2]) - np.vstack([d2 @ t1, d1]),
        }

    @cached_property
    def powers(self) -> np.ndarray:
        """Read-only ``(M, h, h)`` table of ``T2^j``, ``j = 0..d``: the left
        products of :func:`_chain` from ``I``, so a :func:`_power_sum` of its
        entries has the bits of that sum on the chain itself."""
        table = np.array(list(islice(_chain(self.t2, np.eye(self.dim_h, dtype=complex)), self.m)))
        table.flags.writeable = False
        return table

    def block_slice(self, b: int) -> slice:
        """Index range of block ``b`` (block 0 is H, then M blocks of H^2)."""
        h = self.dim_h
        if b == 0:
            return slice(0, h)
        return slice(h + (b - 1) * 2 * h, h + b * 2 * h)

    def _full(self, x: np.ndarray) -> np.ndarray:
        if np.ndim(x) != 2 or np.shape(x)[0] != self.dim:
            raise DimensionMismatch(f"the carrier acts on {self.dim}-row stacks, got shape {np.shape(x)}")
        return x

    def _stair(self, t, defect, x: np.ndarray) -> np.ndarray:
        h = self.dim_h
        out = np.zeros(x.shape, dtype=complex)
        out[:h] = t @ x[:h]
        out[h : 2 * h] = defect @ x[:h]
        out[2 * h :] = x[h:-h]
        return out

    def _ghat(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        h = self.dim_h
        gg = self.g.conj().T if adjoint else self.g
        out = np.array(x, dtype=complex, order="C")
        blocks = out[h:].reshape(-1, 2 * h, x.shape[1])
        out[h:] = np.matmul(gg, blocks).reshape(-1, x.shape[1])
        return out

    def apply_v1(self, x: np.ndarray) -> np.ndarray:
        """``V1 @ x = S1 Ghat x`` for a stack of ``dim`` rows."""
        return self._stair(self.t1, self.d1, self._ghat(self._full(x)))

    def apply_v2(self, x: np.ndarray) -> np.ndarray:
        """``V2 @ x = Ghat* S2 x`` for a stack of ``dim`` rows."""
        return self._ghat(self._stair(self.t2, self.d2, self._full(x)), adjoint=True)


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
    defect above ``verify_tol`` at the pair's scale.  The defects are formed
    only when one of :attr:`AndoPair.generator_bounds` is above that limit."""
    bounds = pair.generator_bounds
    limit = tols.verify_tol * bounds["scale"]
    if all(bounds[name] <= limit for name, _ in _GENERATOR_ERRORS):
        return
    defects = pair.generator_defects
    for name, error in _GENERATOR_ERRORS:
        if not defects[name] <= limit:
            raise error(f"carrier {name} defect {defects[name]:.3g} exceeds {limit:.3g}")


def ando_pair(t1, t2, m_depth: int, tols: Tolerances = DEFAULT_TOLS) -> AndoPair:
    """Truncated commuting isometric dilation of a commuting contraction pair;
    its generators pass the check :func:`verify_model` makes, else
    :class:`NotCommuting` or :class:`NotIsometric`.  It keeps the read-only
    ``T1`` and ``T2`` of :func:`linalg.analysis`, so a later change to an input leaves it as it was.
    :class:`NotSquare` unless each is square, :class:`DimensionMismatch`
    unless they have one size."""
    facts = linalg.analysis(t1), linalg.analysis(t2)
    m1, m2 = (a.matrix for a in facts)
    if m1.shape != m2.shape:
        raise DimensionMismatch(f"T1 is {m1.shape[0]}x{m1.shape[1]}, T2 is {m2.shape[0]}x{m2.shape[1]}")
    m_depth = linalg.as_integer(m_depth, "block depth", 2)
    h = m1.shape[0]
    for name, a in zip(("T1", "T2"), facts):
        if a.norm > 1.0 + tols.verify_tol:
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


@dataclass(frozen=True, eq=False)
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
    ``v_matrix`` are built only when read.  Two models are equal only when
    they are one object.
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
        """Certified truncation bounds for verifying ``f`` at budget ``d``:
        the tails of one expansion of ``1/(scale q1 q2)`` at ``d`` and its
        ``tail_bound`` times ``sum |p_k|``, ``inf`` when either is not
        finite, where ``inf * 0`` would read NaN; the series memo keeps its
        data, which :func:`verify_model` then reads as a prefix."""
        series = _model_series(self, f)
        with np.errstate(over="ignore"):  # a sum that overflows gives inf
            cp = float(np.sum(np.abs(f.p_coeffs)))
        bound = cp * series.tail_bound if np.isfinite(cp + series.tail_bound) else np.inf
        return {"q1_tail": series.tail_pos, "q2_tail": series.tail_neg, "bound": bound}


BUDGET_CAP = 24


def default_budget(f: AnnulusRational, tol: float = 1e-10, cap: int = BUDGET_CAP) -> int:
    """Default degree budget for verifying ``f``: twice the truncation order
    that certifies ``tol``, capped.  A capped budget may leave the certified
    bound above ``tol``.

    No order search runs when the cap binds: if the bound at order
    ``ceil(cap/2) - 1`` is above ``tol`` (or NaN), every order that certifies
    ``tol`` doubles to at least ``cap``.  From ``cap = 8195`` the probe would
    pass order ``rational._ORDER_CAP``, so none runs, and a function that
    needs a longer order raises :class:`BudgetExceeded`.
    ``tol`` must be finite and > 0, and ``cap`` an integer >= 1 (numpy's too,
    not a ``bool``), and ``f`` is validated at every cap (:class:`InvalidRational`).
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    cap = linalg.as_integer(cap, "cap", 1)
    rational._checked(f)
    probe = -(-cap // 2) - 1
    if probe < 1 or probe <= rational._ORDER_CAP and not rational._tail_bound_at(f, probe) <= tol:
        return cap
    return min(2 * rational.laurent_order_for(f, tol), cap)


def build_model(t, r: float, d: int, tols: Tolerances = DEFAULT_TOLS) -> ModelTriple:
    """Model for an invertible ``T`` with ``T`` and ``r T^{-1}`` contractions,
    at a budget ``d`` that is an integer >= 1 (numpy's too, not a ``bool``).
    ``T^{-1}`` comes from ``T``'s :func:`linalg.analysis`."""
    m = linalg.as_matrix(t)
    linalg.require_radius(r)
    d = linalg.as_integer(d, "degree budget", 1)
    pair = ando_pair(m, linalg.involution(m, r, tols), m_depth=d + 1, tols=tols)
    return ModelTriple(pair=pair, r=float(r))


def _model_series(model: ModelTriple, f: AnnulusRational) -> rational.LaurentSeries:
    """Laurent series of ``1/(scale q1 q2)`` at the model's budget, for an
    ``f`` on its annulus (:class:`InvalidRational` otherwise).  Its outer
    factor series and tail are those of ``1/(scale q1)``, its inner ones
    those of ``1/q2``."""
    if f.r != model.r:
        raise InvalidRational(f"mismatched radii {f.r} and {model.r}")
    return rational.laurent_expand(replace(f, p_coeffs=(1.0,)), model.d)


def _operand(model: ModelTriple, t) -> np.ndarray:
    """``T`` as a matrix, :class:`DimensionMismatch` unless it acts on ``H``
    and equals the ``T`` the model was built on."""
    m = linalg.as_matrix(t)
    h = model.pair.dim_h
    if m.shape != (h, h):
        raise DimensionMismatch(f"T is {m.shape}, the model acts on H of dimension {h}")
    if not np.array_equal(m, model.pair.t1):
        raise DimensionMismatch("T is not the model's T: the model was built on another matrix")
    return m


def _chain(mat: np.ndarray, x: np.ndarray):
    """``x``, ``mat @ x``, ``mat @ (mat @ x)``, ...: one product per power,
    formed when the next power is read."""
    while True:
        yield x
        x = mat @ x


def _power_sum(powers, coeffs) -> np.ndarray:
    """``sum_k coeffs[k] powers[k]`` up to the last nonzero coefficient,
    accumulated in order with zero terms skipped; ``powers`` is read only
    that far, so a :func:`_chain` stops there too."""
    nonzero = np.flatnonzero(coeffs)
    terms = zip(coeffs[: nonzero[-1] + 1 if nonzero.size else 1], powers)
    c, power = next(terms)
    acc = c * power
    for c, power in terms:
        if c != 0:
            acc = acc + c * power
    return acc


def verify_model(
    model: ModelTriple,
    t,
    f: AnnulusRational,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Residual ``max_h ||f(T) h - V* p(N) q1(N)^-1 q2(FNF)^-1 V h||``.

    The right-hand side follows the series route: the inner factor as
    ``sum_m b_m r^{-m} V2^m`` (the ``d + 1`` weights ``factor_neg_scaled``
    of the expansion that :meth:`ModelTriple.tail_report` reads, a prefix
    of the series memo's data for the same ``f``, with no product formed;
    ``F N F`` acts on the first summand as ``V2``),
    the outer factor and numerator as
    series/polynomial in ``V1``.  Since ``P_H V_i = T_i P_H``, only the rows
    of ``H`` are formed: the inner sum from the pair's table of ``T2^m``
    (:attr:`AndoPair.powers`), then ``h x h`` chains in ``T1``, one product
    per power, each stopping at its series' last nonzero coefficient.  Those
    rows cannot see the carrier, so the pair's generators are checked
    first, from :attr:`AndoPair.generator_bounds`:
    :class:`NotIsometric` or :class:`NotCommuting` when a defect exceeds
    ``verify_tol`` at the pair's scale.  :class:`InvalidRational` is raised
    when ``f.r`` is not the model's ``r``, :class:`DimensionMismatch` when
    ``T`` is not the ``T`` the model was built on.
    """
    rational.validate(f)
    series = _model_series(model, f)
    m = _operand(model, t)
    pair = model.pair
    _check_generators(pair, tols)
    y = _power_sum(pair.powers, series.factor_neg_scaled)
    z = _power_sum(_chain(pair.t1, y), series.factor_pos)
    w = _power_sum(_chain(pair.t1, z), np.array(f.p_coeffs, dtype=complex))
    lhs = calculus.eval_direct(f, m, tols)
    return float(np.max(np.linalg.norm(lhs - w, axis=0)))


def _moment_stack(model: ModelTriple, t, j_max: int, tols: Tolerances) -> np.ndarray:
    """The ``2 (j_max + 1)`` moment residual matrices of :func:`moment_table`,
    ``T1^j - T^j`` then ``T2^j - (r T^-1)^j``, with the table's errors,
    raised in its order; ``ValueError`` when an entry is not finite, as
    :func:`linalg.operator_norm` raises."""
    j_max = linalg.as_integer(j_max, "j_max", 0)
    if j_max > model.d:
        raise BudgetExceeded(f"j_max {j_max} exceeds budget d = {model.d}")
    m = _operand(model, t)
    pair = model.pair
    _check_generators(pair, tols)
    h = m.shape[0]
    inv = linalg.analysis(m).inverse(tols)
    stack = np.empty((2, j_max + 1, h, h), dtype=complex)
    pow_pos = pow_neg = np.eye(h, dtype=complex)
    compressions = zip(_chain(pair.t1, pow_pos), pair.powers[: j_max + 1])
    for j, (t1_power, t2_power) in enumerate(compressions):
        np.subtract(t1_power, pow_pos, out=stack[0, j])
        np.subtract(t2_power, pow_neg, out=stack[1, j])
        if j < j_max:
            pow_pos, pow_neg = pow_pos @ m, model.r * (pow_neg @ inv)
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix has NaN/Inf entries")
    return stack.reshape(-1, h, h)


def moment_table(model: ModelTriple, t, j_max: int, tols: Tolerances = DEFAULT_TOLS) -> list:
    """Moment residuals per degree ``0 <= j <= j_max``, both power directions.

    Row ``j`` holds ``forward_residual = ||V* V1^j V - T^j||`` and
    ``inverse_residual = ||V* V2^j V - (r T^-1)^j||``.  The compressions
    ``T1^j`` are walked by :func:`_chain` and the ``T2^j`` read from the
    pair's :attr:`AndoPair.powers`, the left products of :func:`verify_model`,
    after the same generator check; the powers of ``T`` and of ``r T^-1``
    are right products, the latter formed step by step as ``P <- r (P
    T^-1)``.
    ``V* V_i^j V = T_i^j`` holds by construction, so a row tests only the
    rounding of those two products of powers, never the carrier: that is
    checked by :attr:`AndoPair.generator_defects`, whose failure raises
    here before any row is formed.  Both sides of an inverse row stay at
    the scale of ``T2 = r T^-1``: no ``r^-j``, which would multiply their
    rounding, is formed.  The norms are taken in one batched call.
    :class:`BudgetExceeded` is raised when ``j_max`` exceeds ``d``,
    ``ValueError`` when ``j_max`` is not an integer >= 0 and
    :class:`DimensionMismatch` when ``T`` is not the ``T`` the model was
    built on.  ``T^{-1}`` comes from ``T``'s :func:`linalg.analysis`.
    """
    norms = calculus._spectral_norms(_moment_stack(model, t, j_max, tols)).reshape(2, -1)
    return [
        {"degree": j, "forward_residual": float(fw), "inverse_residual": float(iv)}
        for j, (fw, iv) in enumerate(norms.T)
    ]


def verify_moments(model: ModelTriple, t, j_max: int, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Max moment residual over ``0 <= j <= j_max`` for both power directions:
    the maximum over :func:`moment_table`'s rows, the same float, with its
    errors.

    Every residual matrix is bounded by :func:`calculus._norm_bounds`.  The
    exact norm of the matrix with the largest bound is taken first.  The
    matrices whose bound exceeds it get the tighter
    :func:`calculus._gram_bounds` (the rows are rounding noise, where the
    first bound sits about 2.1 times above the norm and the second 1.07),
    and those whose second bound still exceeds it their exact norms, in one
    batched call, if any.  That rests on the bounds' one assumption, that
    each is at least the norm :func:`calculus._spectral_norms` computes.  As in :func:`moment_table`,
    the residual measures the rounding of two product orders of the powers
    of ``T`` and of ``r T^-1``, each at its own scale; the carrier is
    tested by its generator check."""
    stack = _moment_stack(model, t, j_max, tols)
    bounds = calculus._norm_bounds(stack)
    top = int(np.argmax(bounds))
    best = calculus._spectral_norms(stack[top : top + 1])[0]
    above = bounds > best
    above[top] = False
    rows = np.flatnonzero(above)
    if rows.size:
        rows = rows[calculus._gram_bounds(stack[rows]) > best]
    if rows.size:
        best = max(best, calculus._spectral_norms(stack[rows]).max())
    return float(best)


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
    :class:`NotSquare` unless ``T`` is square; on the ``c/q2`` branch a
    singular ``T`` is :class:`NotInvertible`, as in :func:`build_model`.
    """
    rational.validate(f)
    if f.r != r:
        raise InvalidRational(f"mismatched radii {f.r} and {r}")
    d = linalg.as_integer(d, "degree budget", 1)
    m = linalg.as_matrix(t)
    linalg.analysis(m)  # NotSquare before any carrier is built
    if not f.q2_roots:
        u, e = egervary_dilation(m, d, tols)
        carrier = u
    elif not f.q1_roots and len(f.p_coeffs) == 1:
        u2, e = egervary_dilation(linalg.involution(m, r, tols), d, tols)
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
