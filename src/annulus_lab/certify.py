"""Certification predicates for operators claiming the annulus as spectral set.

The necessary conditions (spectrum location, norm window, simultaneous
contractivity of ``T`` and ``r T^{-1}``) are decidable; membership itself is
not, so :func:`vonneumann_stress` samples random rational test functions and
reports either a violation witness or survival of the battery.  A witness's
ratio divides by the sup of ``|f|`` taken at the computed critical points of
``|f|`` on the boundary, which carry rounding, so a stress ``Refuted``
verdict is strong evidence but not a proof: it becomes one only once that
denominator is an upper bound.  The
normal / completely-non-normal splitting powers an independent refutation
route for norm-one completely-non-normal matrices, for which the closed unit
disk is already a minimal spectral set.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import calculus, linalg, rational
from ._version import __version__
from .errors import NotContraction
from .linalg import DEFAULT_TOLS, Tolerances, involution
from .rational import AnnulusRational


def example_matrix(r: float) -> np.ndarray:
    """Upper-triangular norm-one matrix with spectrum ``{sqrt(r)}``.

    Completely non-normal with ``sigma(T*T) = {1, r^2}``; it satisfies every
    necessary condition yet the annulus is not a spectral set for it.
    """
    linalg.require_radius(r)
    s = np.sqrt(r)
    return np.array([[s, 1.0 - r], [0.0, s]], dtype=complex)


# ---------------------------------------------------------------------------
# Necessary conditions
# ---------------------------------------------------------------------------


def spectrum_in_annulus(t, r: float, tols: Tolerances = DEFAULT_TOLS) -> bool:
    """True iff every eigenvalue modulus lies in ``[r - tol, 1 + tol]``.
    :class:`BadRadius` unless ``0 < r < 1``, before any other check."""
    linalg.require_radius(r)
    mods = np.abs(linalg.analysis(t).spectrum)
    return bool(np.all(mods >= r - tols.verify_tol) and np.all(mods <= 1.0 + tols.verify_tol))


def norm_window(t, r: float, tols: Tolerances = DEFAULT_TOLS) -> tuple[bool, float]:
    """Check ``r - tol <= ||T|| <= 1 + tol``; returns (passes, norm).
    :class:`BadRadius` unless ``0 < r < 1``, then :class:`NotSquare` unless
    ``T`` is square."""
    linalg.require_radius(r)
    norm_t = linalg.analysis(t).norm
    passes = (r - tols.verify_tol) <= norm_t <= (1.0 + tols.verify_tol)
    return passes, norm_t


def double_contraction_check(t, r: float, tols: Tolerances = DEFAULT_TOLS) -> bool:
    """True iff both ``T`` and ``r T^{-1}`` are contractions within tolerance.
    :class:`BadRadius` unless ``0 < r < 1``, before any other check."""
    norm_rtinv = linalg.operator_norm(involution(t, r, tols))
    return linalg.analysis(t).double_contraction(r, norm_rtinv, tols)[0]


# ---------------------------------------------------------------------------
# Randomized von Neumann stress testing
# ---------------------------------------------------------------------------


class Verdict(str, enum.Enum):
    REFUTED = "Refuted"
    PASSED_NECESSARY = "PassedNecessary"
    PASSED_STRESS = "PassedStress"
    WILLIAMS_REFUTED = "WilliamsRefuted"


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a certification run.

    ``max_ratio`` is the largest observed ``||f(T)|| / sup|f|``, over the
    evaluated functions (0.0 when none is), with the sup taken at the
    computed critical points of ``|f|`` on the boundary circles; a
    ``Refuted`` verdict always carries a witness function whose ratio
    exceeds ``1 + verify_tol``.  The sup is exact only up to the rounding
    of those points, so the witness is not a proof that the annulus fails
    to be a spectral set.
    ``stress_route`` records how ``||f(T)||`` was evaluated: ``"spectral"``
    for numerically normal ``T``, ``"factored"`` otherwise.  ``screened``
    counts the battery functions not evaluated because von Neumann's
    inequality already bounds their ratio by 1 (see :func:`vonneumann_stress`).
    ``PassedStress`` means that no witness was found among the evaluated
    functions, not that ``T`` is an ``A_r``-contraction: on
    ``[[0.7, 0.40329], [0, 0.7]]`` at ``r = 0.5`` the battery passes
    (``max_ratio`` 0.9330, 603 functions screened), while a two-Möbius
    function with poles at ``1/0.7`` and ``0.25/0.7`` has ratio 1.235.
    """

    verdict: Verdict
    r: float
    norm_t: float
    norm_rtinv: float
    spectrum_ok: bool
    trials: int
    max_ratio: float
    witness: AnnulusRational | None
    seed: int
    stress_route: str
    screened: int

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "r": self.r,
            "norm_T": self.norm_t,
            "norm_rTinv": self.norm_rtinv,
            "spectrum_ok": self.spectrum_ok,
            "trials": self.trials,
            "max_ratio": self.max_ratio,
            "witness": None if self.witness is None else rational.rational_to_json(self.witness),
            "seed": self.seed,
            "stress_route": self.stress_route,
            "screened": self.screened,
            "version": __version__,
        }


def _draw(r: float, count: int, rngs) -> tuple:
    """``count`` test functions on the annulus of inner radius ``r``, as the
    ``(counts, p, roots)`` that :func:`rational.pack` takes, from the three
    generators ``rngs``, each read in row order, so row ``i`` does not
    depend on ``count``:

    0. ``integers(0, 5, size=(count, 3))``, each row's ``k1``, ``k2`` and
       numerator degree;
    1. ``random``, a (modulus, argument) pair of uniforms ``(u, v)`` per
       root, row by row, outer roots first;
    2. ``standard_normal``, each row's ``deg + 1`` real parts, then its
       imaginary parts, redrawn, next in the stream, while every one is zero.

    The variates are transformed in one vectorized pass: outer moduli
    ``exp((1 - u) ln 4)``, inner moduli ``r exp(-(1 - u) ln 4)``, arguments
    ``2 pi v``, coefficients ``(re + 1j im) / sqrt(2)``.
    """
    ints, uniforms, normals = rngs
    counts = ints.integers(0, 5, size=(count, 3))
    counts[:, 2] += 1
    uniforms = uniforms.random(2 * counts[:, :2].sum())
    lengths = 2 * counts[:, 2]
    stream = normals.standard_normal(lengths.sum())
    # skips[i] values of row i's stream are all-zero draws it passed over;
    # (re + 1j im) / sqrt(2) has a nonzero entry iff re or im has one
    skips = np.zeros(count, dtype=int)
    while True:
        stops = np.cumsum(lengths + skips)
        nonzero = np.concatenate([[0], np.cumsum(stream != 0)])
        zero = nonzero[stops] == nonzero[stops - lengths]
        if not zero.any():
            break
        i = np.argmax(zero)
        skips[i] += lengths[i]
        stream = np.concatenate([stream, normals.standard_normal(lengths[i])])
    normals = stream[np.arange(lengths.sum()) + np.repeat(np.cumsum(skips), lengths)]
    # a row's normals are its deg + 1 real parts, then its imaginary parts,
    # as its roots are its k1 outer ones, then its k2 inner ones
    first = np.tile([True, False], count)
    real = np.repeat(first, np.repeat(counts[:, 2], 2))
    outer = np.repeat(first, counts[:, :2].ravel())
    ln4 = np.log(4.0)
    mod_u, arg_u = uniforms[0::2], uniforms[1::2]
    mods = np.where(outer, np.exp((1.0 - mod_u) * ln4), r * np.exp(-(1.0 - mod_u) * ln4))
    return counts, (normals[real] + 1j * normals[~real]) / np.sqrt(2.0), mods * np.exp(2j * np.pi * arg_u)


def sample_test_function(r: float, rng: np.random.Generator) -> AnnulusRational:
    """One random test function for the stress battery.

    Distribution (fixed so reports are reproducible): root counts uniform on
    {0..4} per denominator factor; outer root moduli log-uniform on (1, 4],
    inner moduli log-uniform on [r/4, r); arguments uniform; numerator degree
    uniform on {0..4} with unit complex Gaussian coefficients; scale 1.  It
    is the one-row case of the battery's draw, ``_draw(r, 1, (rng, rng,
    rng))`` then :func:`rational.pack`: ``rng`` draws the three integers,
    then the uniforms, then the normals.
    :class:`BadRadius` is raised unless ``0 < r < 1``.
    """
    linalg.require_radius(r)
    return rational.pack(r, *_draw(r, 1, (rng, rng, rng))).function(0)


# The battery's lower bounds read the 32 equispaced nodes of each circle,
# _RING (read-only) and r _RING, and the point of each root's own circle
# nearest it.  A lower bound only prunes, so the choice changes no report.
_RING = np.exp(1j * (2.0 * np.pi * np.arange(32) / 32))
_RING.flags.writeable = False


def _toward(roots: np.ndarray, rho) -> np.ndarray:
    """``rho a / |a|`` for each ``a`` in ``roots``, the point of the circle
    ``|z| = rho`` nearest it (``rho`` for ``a = 0``); ``rho`` broadcasts.
    :func:`_check_poles`, :func:`_lower_nodes` and :func:`_critical_points`
    all project with it, so they share these floats bit for bit."""
    mods = np.abs(roots)
    return rho * np.where(mods > 0, roots / np.where(mods > 0, mods, 1.0), 1.0)


def _check_poles(stack: rational.FactoredStack) -> None:
    """:class:`PoleHit`, as :func:`rational.evaluate` would raise it, for
    the first row of ``stack`` with a root ``a`` within ``1e-14 rho`` of a
    circle ``|z| = rho``: :func:`rational.check_clearance` at
    :func:`_toward`, the point of each circle nearest each root."""
    roots = stack.roots
    circles = (_toward(roots, 1.0), _toward(roots, stack.r))
    near = [np.abs(z - roots) <= rational._POLE_TOL * np.abs(z) for z in circles]
    for i in np.flatnonzero((stack.mask & (near[0] | near[1])).any(axis=1))[:1]:
        for j in np.flatnonzero(stack.mask[i]):
            for z in circles:
                rational.check_clearance(z[i, j] - roots[i, j], complex(roots[i, j]), z[i, j])


def _critical_points(p: np.ndarray, q: np.ndarray, roots: np.ndarray, rho: float) -> np.ndarray:
    """Where ``|f| = |p / q|``, ``q = scale prod (z - a)`` over the poles
    ``a`` in ``roots``, can peak on the circle ``|z| = rho``: the roots of
    ``G`` (none if the eigensolve fails) and the poles, projected onto it,
    0 and non-finite ones dropped.

    With ``z = rho w``, ``P(w) = p(rho w)``, ``Q(w) = q(rho w)``, ``A = P *
    reversed(conj P)``, ``B`` the same from ``Q`` and ``m = deg Q - deg
    P``, ``|f|^2 = w^m A / B`` on ``|w| = 1``, whose derivative in the
    angle vanishes at the roots of ``G = w (A' B - A B') + m A B``,
    ``G_j = sum_i (m + 2i - j) A_i B_(j-i)``.  Each ``A_i B_l`` gets its
    integer weight once, so ``G_0 = m A_0 B_0`` and ``G_top = -m A_top
    B_top`` are exactly 0 when ``m = 0``, and :func:`numpy.roots` strips
    them before it builds the companion matrix.  A pole near the circle
    clusters roots of ``G`` that the eigensolve places less accurately;
    ``|f|`` at the point nearest the pole misses its peak there by about
    the square of the clearance.  ``p`` and ``q`` are ascending
    coefficients, ``p`` with no trailing zeros."""
    aw, bw = (np.convolve(c, c[::-1].conj()) for c in (c * rho ** np.arange(c.size) for c in (p, q)))
    i, l = np.arange(aw.size)[:, np.newaxis], np.arange(bw.size)
    terms = ((q.size - p.size + i - l) * np.multiply.outer(aw, bw)).ravel()
    at = (i + l).ravel()
    with np.errstate(all="ignore"):  # a G that is not finite fails the eigensolve
        g = np.bincount(at, terms.real) + 1j * np.bincount(at, terms.imag)
    try:
        w = np.roots(g[::-1])
    except np.linalg.LinAlgError:
        w = np.zeros(0, dtype=complex)
    w = np.concatenate([w, roots])
    return _toward(w[np.isfinite(w) & (w != 0)], rho)


def _critical_sups(stack: rational.FactoredStack) -> np.ndarray:
    """The sup of ``|f_i|`` on the two boundary circles, for each row of
    ``stack``: the max of ``|f_i|`` at ``_RING`` and ``r * _RING``, the
    shared nodes of :func:`_lower_nodes`, and at the
    :func:`_critical_points` of both circles, the poles' projections among
    them, in one :meth:`max_abs_at <rational.FactoredStack.max_abs_at>`
    call on a per-row table padded with node 1.  Every value is :func:`rational.evaluate`'s, bit for bit,
    and each node of :func:`_lower_nodes` is among them, so ``lower <=
    sup`` exactly, and a failed eigensolve leaves the lower bound.  The
    computed roots carry rounding, so the sup is not an upper bound.
    The rows must be valid and clear of the circles, as :func:`_check_poles`
    checks (the battery checks both once, when it is built)."""
    coarse = np.concatenate([_RING, stack.r * _RING])
    points = []
    for i, (k1, k2, lp) in enumerate(stack.counts):
        p = rational._trim_trailing_zeros(stack.p[i, :lp])
        roots = stack.roots[i, : k1 + k2]
        q = stack.scale[i] * rational._poly_from_roots(roots)
        points.append(np.concatenate([coarse, *(_critical_points(p, q, roots, rho) for rho in (1.0, stack.r))]))
    table = np.ones((len(points), max((z.size for z in points), default=0)), dtype=complex)
    for row, z in zip(table, points):
        row[: z.size] = z
    return stack.max_abs_at(table)


def _lower_nodes(stack: rational.FactoredStack) -> tuple[np.ndarray, np.ndarray]:
    """Nodes for the rows of ``stack``: ``_RING`` and ``r * _RING``, shared,
    and a per-row table holding, for each root, the point of its own circle
    (unit for a ``q1`` root, ``r`` for a ``q2`` root) nearest it,
    :func:`_toward`, padded with node 1, a shared node."""
    aimed = np.where(stack.mask, _toward(stack.roots, np.where(stack.outer, 1.0, stack.r)), 1.0)
    return np.concatenate([_RING, stack.r * _RING]), aimed


def _lower_bounds(stack: rational.FactoredStack) -> np.ndarray:
    """The max of ``|f_i|`` over the :func:`_lower_nodes` of each row of
    ``stack``: one :meth:`max_abs_at <rational.FactoredStack.max_abs_at>`
    call at the shared nodes and one on the table of aimed nodes."""
    coarse, aimed = _lower_nodes(stack)
    return np.maximum(stack.max_abs_at(coarse), stack.max_abs_at(aimed))


class _Battery:
    """Test-function battery as arrays: the padded factored stack and memos
    of cheap lower bounds on its sups and of the sups.

    The stack is validated and pole-checked once, at build, and every sup is
    read from it by :func:`_critical_sups`; ``stack.function(i)`` builds row
    ``i`` as a function (the witness).  :attr:`two_sided` selects the rows
    the von Neumann screen evaluates.  :meth:`lower_bounds` gives the lower
    bounds of the rows a call reads, each computed on first read
    (:func:`_lower_bounds`, so a screened call computes none of the
    one-sided rows'), and :meth:`exact_sups` the sups.  ``abs_at`` is
    :func:`rational.evaluate` bit for bit whatever the other rows, so a
    lower bound is the value an eager pass over the whole stack gives, and
    the sup evaluates each of its nodes, the poles' projections among its
    critical points, so ``lower_bounds([i])[0] <= exact_sups([i])[0]``
    exactly.  The memos are :attr:`lower` and
    :attr:`memo`, NaN where not yet computed.  A memo only gains entries,
    each a deterministic value, so which calls filled it never changes a
    result.
    Readers take no lock: each memo is a read-only snapshot, replaced whole
    under ``_lock`` by a copy holding the new entries, so a reader sees
    some earlier snapshot and no update is lost.
    """

    def __init__(self, stack: rational.FactoredStack):
        self.stack = stack
        memo = np.full(stack.p.shape[0], np.nan)
        memo.flags.writeable = False
        self.lower = self.memo = memo
        self._lock = threading.Lock()

    @cached_property
    def two_sided(self) -> tuple[np.ndarray, rational.FactoredStack]:
        """The rows with poles on both sides of the annulus, and their stack.

        The other rows are one-sided: with no inner root (``k2 = 0``) a row
        is analytic on the closed unit disk, and with no outer root and
        ``len(p) - 1 <= k2`` it is analytic outside the disk of radius ``r``,
        at infinity too.  The canonical probes are one-sided.
        """
        k1, k2, lp = self.stack.counts.T
        rows = np.flatnonzero((k2 > 0) & ~((k1 == 0) & (lp - 1 <= k2)))
        return rows, self.stack.take(rows)

    def _memoized(self, name: str, rows: np.ndarray, compute, stack=None) -> np.ndarray:
        """The entries ``rows`` of the memo ``name``, ``compute`` of the
        stack of the rows it lacks filling them in first: ``stack``, the
        stack of ``rows`` if given, when it lacks them all, else a copy of
        those rows."""
        memo = getattr(self, name)
        lacking = np.isnan(memo[rows])
        if lacking.any():
            missing = rows[lacking]
            found = compute(stack if stack is not None and lacking.all() else self.stack.take(missing))
            with self._lock:
                memo = getattr(self, name).copy()
                memo[missing] = found
                memo.flags.writeable = False
                setattr(self, name, memo)
        return memo[rows]

    def lower_bounds(self, rows: np.ndarray, stack: rational.FactoredStack | None = None) -> np.ndarray:
        """:func:`_lower_bounds` of the rows ``rows`` (of stack ``stack``,
        if given), from :attr:`lower` where it holds them."""
        return self._memoized("lower", rows, _lower_bounds, stack)

    def exact_sups(self, rows: np.ndarray) -> np.ndarray:
        """:func:`_critical_sups` of the rows ``rows``, from :attr:`memo`
        where it holds them."""
        return self._memoized("memo", rows, _critical_sups)


# The canonical probes z and r/z as (k1, k2, len(p)) rows; packed flat, their
# coefficients are (0, 1, r) and their one root is 0.
_PROBE_COUNTS = np.array([[0, 0, 2], [0, 1, 1]])


def _check_rows(stack: rational.FactoredStack) -> None:
    """Raise the first error :func:`rational.validate` raises for the rows
    of ``stack``, in row order.  Its radius and root-location comparisons
    run on the whole stack, on the moduli it takes (a draw on an annulus is
    finite, and its numerator and scale are never empty or zero);
    ``validate`` itself runs only on the rows they flag."""
    mods = stack.moduli
    bad = (stack.mask & np.where(stack.outer, mods <= 1.0, mods >= stack.r)).any(axis=1)
    if not 0.0 < stack.r < 1.0:
        bad[:] = True
    for i in np.flatnonzero(bad):
        rational.validate(stack.function(i))


@lru_cache(maxsize=8)
def _stress_battery(r: float, trials: int, seed: int) -> _Battery:
    """Deterministic battery of test functions with lower sup bounds.

    Trials 0 and 1 are the canonical probes ``z`` and ``r/z`` (they expose
    norm-window violations exactly); trials ``2 <= i < trials`` are the rows
    ``0 <= i - 2`` of one :func:`_draw` from the three generators
    ``linalg.seeded_rng(seed, 17, k)``, ``k = 0, 1, 2``, so the first rows
    of a battery are those of any longer one.  The draws are written
    straight into the padded stack (:func:`rational.pack`), so no
    :class:`AnnulusRational` is built here.  Every row is validated
    (:func:`_check_rows`), then :class:`PoleHit` is raised for a root
    within ``1e-14 rho`` of a circle (:func:`_check_poles`).  The build
    evaluates no ``|f|``: the lower bounds and the exact sups are computed for the rows
    a call reads (:meth:`_Battery.lower_bounds`,
    :meth:`_Battery.exact_sups`).  Cached so repeated certifications
    against the same battery (e.g. a corpus sweep) share the draws and the
    memos.
    """
    probes = min(trials, len(_PROBE_COUNTS))
    counts, p, roots = _draw(r, trials - probes, [linalg.seeded_rng(seed, 17, k) for k in range(3)])
    counts = np.concatenate([_PROBE_COUNTS[:probes], counts])
    p = np.concatenate([np.array([0.0, 1.0, r], dtype=complex)[: counts[:probes, 2].sum()], p])
    roots = np.concatenate([np.zeros(counts[:probes, 1].sum(), dtype=complex), roots])
    stack = rational.pack(r, counts, p, roots)
    _check_rows(stack)
    _check_poles(stack)
    return _Battery(stack)


def _stress_ratios(nums, norms, lower, probe, memo, sups, tol: float) -> tuple[float, int | None]:
    """``max_i norm_i / max(sup_i, probe_i)`` and the witness, from upper
    bounds ``nums`` on the norms, asking for norms and sups only as far as
    the comparisons need.

    ``norms(rows)`` returns the norms of the rows ``rows`` (an index array,
    or ``slice(None)`` for every row), and is ``None`` when ``nums`` are
    the norms.  ``lower <= sup`` elementwise; ``memo`` holds the sups
    already known (NaN where not); ``sups(rows)`` returns the sups of
    ``rows``.  ``upper = num / max(bound, probe)``, ``num`` the row's norm
    or else its entry of ``nums`` and ``bound`` its memo entry or else
    ``lower``, bounds its ratio from above (division is monotone); ``best``
    is the largest ratio of a row with both its norm and its sup.  A row
    gets its norm first:

    1. the rows with ``upper > 1 + tol``, or not finite, get their norms,
       in one call with the seed: with ``norms`` and every ``upper``
       finite, the row with the largest ``upper``; the rows still above ``1
       + tol`` get their sups, and the first whose ratio still exceeds it
       is the witness;
    2. the seed gets its sup if it lacks it and its ``upper`` exceeds
       ``best``;
    3. while some row lacking its norm or its sup has ``upper >= best``,
       every such row without its norm gets it, in one call, or, if they
       all have them, the largest of them gets its sup: one sup per call,
       since a sup costs the same alone as in a batch, and the first often
       settles ``best`` above every other bound.

    The seed's sup waits for step 1, so a refuted ``T``'s witness leaves it
    unasked.  No sup is asked for before every bound that is not finite is
    replaced by its norm, so a ``norms`` that raises on a norm that is not
    finite raises before any sup work.  A row left without its norm or sup
    at the end has ``ratio <= upper < best``, so the result is that of computing every
    norm and every sup, whatever the bounds (a row's norm does not depend
    on the rows evaluated with it).  When ``memo`` holds what a call needs,
    no sup is asked for, and without ``norms`` the call is a few passes
    over the arrays.
    """
    nums = np.array(nums, dtype=float)
    exact = np.full(nums.size, norms is None)
    known = ~np.isnan(memo)
    denoms = np.maximum(np.where(known, memo, lower), probe)
    ratios = nums / denoms

    def climb(rows):
        nums[rows] = norms(rows if rows.size < nums.size else slice(None))
        ratios[rows] = nums[rows] / denoms[rows]
        exact[rows] = True

    def refine(rows):
        denoms[rows] = np.maximum(sups(rows), probe[rows])
        ratios[rows] = nums[rows] / denoms[rows]
        known[rows] = True

    def suspect(mask):
        return mask & ~(np.isfinite(ratios) & (ratios <= 1.0 + tol))

    seed = np.argmax(ratios) if norms is not None and np.isfinite(ratios).all() and ratios.size else None
    first = suspect(~exact)
    if seed is not None:
        first[seed] = True
    if (rows := np.flatnonzero(first)).size:
        climb(rows)
    if (rows := np.flatnonzero(suspect(~known))).size:
        refine(rows)
    flagged = np.flatnonzero(ratios > 1.0 + tol)
    witness = int(flagged[0]) if flagged.size else None
    if seed is not None and not known[seed] and ratios[seed] > ratios[exact & known].max(initial=-np.inf):
        refine(np.array([seed]))
    while True:
        done = exact & known
        rows = np.flatnonzero(~done & (ratios >= ratios[done].max(initial=-np.inf)))
        if not rows.size:
            break
        if (pending := rows[~exact[rows]]).size:
            climb(pending)
        else:
            refine(rows[[np.argmax(ratios[rows])]])
    return (float(ratios.max()) if ratios.size else 0.0), witness


# The allowance mu of the eigenvector screen, a multiple of n eps (an
# assumed constant; see _screen_factor).
_SCREEN_ROUNDING = 256


def _screen_factor(facts: linalg.Analysis, tols: Tolerances) -> float:
    """``(1 + mu) kappa``, ``kappa`` the
    :attr:`linalg.Analysis.eigenvector_condition` of ``T``: the factor by
    which the eigenvector screen of :func:`vonneumann_stress` multiplies
    ``max_j |f(r_jj)|``, ``|f|`` at the diagonal of ``T``'s Schur triangle
    ``R``, to bound the norm that :func:`calculus.factored_norms` computes.

    For ``Y`` the eigenvectors of ``R`` in any column scaling, ``f(R) = Y
    f(Lambda) Y^-1`` (Higham, *Functions of Matrices*, SIAM 2008, ch. 1),
    so ``||f(R)|| <= kappa_2(Y) max_j |f(r_jj)|``.  ``mu`` covers, to first
    order, four differences between the computed quantities and the exact
    ones that bound holds for:

    - ``|f(r_jj)|``: ``abs_at`` forms it in under 30 complex operations
      (4 Horner steps and 8 root factors of two each, the scale, the
      quotient and the modulus), each within ``4 eps`` relative, so within
      ``128 eps`` where no sum cancels;
    - ``kappa``: the computed extreme singular values of ``Y`` (unit
      columns, so ``sigma_1 >= 1``) lie within ``32 n eps sigma_1`` of the
      exact ones (the assumption of :func:`calculus._norm_bounds`), which
      moves ``kappa`` by at most ``64 n eps kappa`` relative;
    - the eigenvector residual: each column of the computed ``Y`` is a
      backward stable back-substitution (Higham, *Accuracy and Stability
      of Numerical Algorithms*, 2nd ed., ch. 8), so ``R Y - Y Lambda = F``
      with ``||F||`` of order ``n eps ||R||``, and ``Y`` is the exact
      eigenvector matrix of ``R + G``, ``G = -F Y^-1``, ``||G|| <= ||F||
      kappa``, where the bound holds exactly; from ``R + G`` back to ``R``
      each factor ``(R - aI)^-1`` moves by at most ``cond(R - aI) ||G|| /
      ||R - aI||`` relative;
    - the forward error of the computed ``f(R)``: a Horner pass, then one
      backward stable back-substitution per root ``a``, each adding at
      most about ``n eps cond(R - aI)`` relative.

    :func:`linalg.solve`'s conditioning rule, which the route applies to
    every root before it evaluates any row, caps ``cond(T - aI)``, the
    condition of ``R - aI`` up to the Schur form's backward error, at ``1 /
    rank_tol``.  With at most 8 roots and ``||R||`` of the order of ``||R -
    aI||``, the last two terms come to at most ``9 n eps (1 + kappa) /
    rank_tol`` and the first two to ``128 n eps (1 + kappa)``, so ``mu =
    256 n eps (1 + kappa) / min(rank_tol, 1)`` covers their sum.  As with
    ``linalg._ROUNDING``, pruning rests on an assumption rather than a
    derivation: that these first-order terms dominate, with the rounding of
    each ``n``-term sum of order ``n eps`` (the worst-case constants grow
    faster) and ``||R||`` of the order of each ``||R - aI||``.  ``kappa =
    inf`` gives ``inf``.
    """
    kappa = facts.eigenvector_condition
    eps = np.finfo(float).eps
    mu = _SCREEN_ROUNDING * facts.matrix.shape[0] * eps * (1.0 + kappa) / min(tols.rank_tol, 1.0)
    return (1.0 + mu) * kappa


def _clamp_to_annulus(lams: np.ndarray, r: float) -> np.ndarray:
    mods = np.abs(lams)
    clamped = np.clip(mods, r, 1.0)
    phases = np.where(mods > 0, lams / np.where(mods > 0, mods, 1.0), 1.0)
    return clamped * phases


def vonneumann_stress(
    t,
    r: float,
    trials: int,
    seed: int,
    tols: Tolerances = DEFAULT_TOLS,
) -> CertificationReport:
    """Sample test functions and compare ``||f(T)||`` to the boundary sup.

    The functions are the ``trials`` rows of the battery of ``(r, trials,
    seed)`` (:func:`_stress_battery`): the probes ``z`` and ``r/z``, then
    draws from the three streams of ``seed``.  The denominator of each
    ratio is the boundary maximum of ``|f|`` taken at its critical points
    (:func:`_critical_sups`), or ``|f|`` at the spectrum projected into the
    annulus where that is larger (interior values never exceed the boundary
    sup).  On each circle ``|f|^2`` is a quotient of Laurent polynomials,
    so its maximum lies at a root of one polynomial; ``|f|`` is taken at
    each computed root projected onto the circle, on the battery's packed
    stack, which was validated and pole-checked once when it was built.
    The computed roots carry rounding, so the denominator is the sup up to
    that rounding, not an upper bound on it, and a witness is not yet a
    proof.  On the 2000-function batteries of seed 1 at r = 0.25, 0.5 and
    0.81 these sups exceed those of ``1 << 15`` equispaced nodes per
    circle plus 4096 per pole window by up to 3.0e-5 relative, and are
    never below them by more than one ulp.

    Von Neumann screen: when ``T`` is a strict double contraction
    (:meth:`linalg.Analysis.double_contraction`: its singular values within
    ``[r + delta, 1 - delta]``, ``delta = 64 n eps ||T||``), only the
    battery's two-sided functions are evaluated (:attr:`_Battery.two_sided`).
    A one-sided function is analytic on the closed unit disk, or outside the
    disk of radius ``r`` and at infinity, so von Neumann's inequality (*Math.
    Nachr.* 4, 1951) for ``T`` or ``r T^{-1}`` gives ``||f(T)|| <= sup|f|``:
    it cannot refute.  ``screened`` counts the functions skipped, and
    ``max_ratio`` is the largest ratio over the evaluated ones (0.0 when
    none is).  A ``T`` on the boundary of the window, such as
    :func:`example_matrix` with ``||T|| = 1``, screens nothing.

    Only the ratios that can matter get an exact sup
    (:func:`_stress_ratios`): the battery's lower bounds, ``|f|`` at 32
    equispaced nodes per circle and at the point of its own circle nearest
    each pole, computed for the evaluated functions only
    (:meth:`_Battery.lower_bounds`), bound every ratio from above, and a
    function whose bound can neither exceed ``1 + verify_tol`` nor reach
    the largest ratio found keeps it.  Past the functions whose bound
    exceeds ``1 + verify_tol``, sups are asked for one at a time: a sup
    costs the same alone as in a batch, and the first often prunes the
    rest.  The sups found go into the battery's memo (:meth:`_Battery.exact_sups`); once it holds what a call
    needs, the call makes no sup work at all.  The report is the one that
    every norm and every sup computed would give, bit for bit.

    For numerically normal input the operator norm is evaluated spectrally,
    as ``max |f|`` over the eigenvalues, which agrees with the factored
    evaluation to roundoff; one pass over the evaluated functions gives
    ``|f|`` at the eigenvalues and at their projections, each distinct
    point once: an eigenvalue in the closed annulus is its own projection,
    bit for bit, and is evaluated once for both.  Otherwise they go
    through the factored route (:class:`calculus.FactoredNorms`), which
    evaluates ``f(R)`` at the Schur triangle ``R`` of ``T`` by
    back-substitution, in chunks of about 1 MB; it first checks every
    evaluated function's roots, and raises :class:`Singular` as
    :func:`calculus.eval_direct` would on the first, in battery order, with
    a root on the spectrum.  Norms are lazy on that route as the sups are:
    each function's norm has one upper bound, and :func:`_stress_ratios`
    takes the norm itself only while its ratio can still matter.  The bound
    is the eigenvector screen, ``(1 + mu) kappa_2(Y) max_j |f(r_jj)|``
    (:func:`_screen_factor`), from ``|f|`` at ``R``'s diagonal, taken in the
    one ``abs_at`` call that gives the probes.  Where it leaves no ratio at
    or below ``1 + verify_tol`` it would prune nothing, and the bound is
    the stacked pass's (:meth:`calculus.FactoredNorms.bounds`), taken once
    over every evaluated function: so at ``kappa = inf``, where the
    triangle repeats a diagonal entry (the shear, a Jordan block) and no
    ``|f|`` at the diagonal is taken, and at a ``kappa`` too large to prune.
    Every evaluation reads the same Schur triangle, so a call forms one
    Schur form of ``T``.  :class:`NotContraction` names an overflow: ``|f|``
    at a projected eigenvalue, or some ``||f(T)||`` the route computes, is
    not finite.  A bound that is not finite leaves its ratio above ``1 +
    verify_tol``, and the stacked pass keeps the norm where its bound is
    not finite, so such a function gets its norm, and the error is raised,
    before any sup work.
    :class:`BadRadius` is raised unless ``0 < r < 1``, then ``ValueError``
    naming ``trials`` or ``seed`` unless it is an integer (numpy's too, not
    a ``bool``) and ``>= 0``, before any other work.
    """
    linalg.require_radius(r)
    trials = linalg.as_integer(trials, "trials", 0)
    seed = linalg.as_integer(seed, "seed", 0)
    facts = linalg.analysis(t)
    m = facts.matrix
    norm_t = facts.norm
    norm_rtinv = linalg.operator_norm(involution(m, r, tols))
    lams = facts.spectrum
    spectrum_ok = spectrum_in_annulus(m, r, tols)
    is_normal = facts.is_normal(tols)
    probes = _clamp_to_annulus(lams, r)

    battery = _stress_battery(r, trials, seed)
    if facts.double_contraction(r, norm_rtinv, tols)[1]:
        rows, stack = battery.two_sided
    else:
        rows, stack = np.arange(trials), battery.stack
    screened = trials - rows.size
    lower = battery.lower_bounds(rows, stack)

    def finite(values):
        if not np.isfinite(values).all():
            raise NotContraction(
                f"overflow: ||f(T)|| or |f| at a probe is not finite (||T|| = {norm_t:.6g}, ||r T^-1|| = {norm_rtinv:.6g})"
            )
        return values

    memo = battery.memo[rows]
    with np.errstate(all="ignore"):  # a value that overflows raises NotContraction
        if is_normal:
            # one pass over the stack at each distinct point: an eigenvalue
            # that its projection leaves bitwise in place serves as its own
            # probe; the columns are independent, so each is bit for bit
            # what a separate call gives
            moved = (probes.view(np.int64) != lams.view(np.int64)).reshape(-1, 2).any(axis=1)
            vals = stack.abs_at(np.concatenate([probes[moved], lams]))
            cols = np.where(moved, np.cumsum(moved) - 1, moved.sum() + np.arange(lams.size))
            at_probes = finite(vals[:, cols].max(axis=1))
            nums = finite(vals[:, moved.sum() :].max(axis=1))  # the norms
        else:
            lazy = calculus.FactoredNorms(stack, m, tols)
            factor = _screen_factor(facts, tols)
            diag = lazy.rule.triangle.diagonal() if np.isfinite(factor) else np.zeros(0, dtype=complex)
            vals = stack.abs_at(np.concatenate([probes, diag]))
            at_probes = finite(vals[:, : probes.size].max(axis=1))
            nums = factor * vals[:, probes.size :].max(axis=1) if diag.size else np.full(rows.size, np.inf)
            # a screen that prunes nothing gives way to the stacked bounds
            denoms = np.maximum(np.where(np.isnan(memo), lower, memo), at_probes)
            if rows.size and not (nums / denoms <= 1.0 + tols.verify_tol).any():
                nums = lazy.bounds(slice(None))
        max_ratio, witness = _stress_ratios(
            nums,
            None if is_normal else lambda sel: finite(lazy.norms(sel)),
            lower,
            at_probes,
            memo,
            lambda sel: battery.exact_sups(rows[sel]),
            tols.verify_tol,
        )
    if witness is not None:
        verdict = Verdict.REFUTED
        witness = battery.stack.function(int(rows[witness]))
    elif trials > 0:
        verdict = Verdict.PASSED_STRESS
    else:
        verdict = Verdict.PASSED_NECESSARY
    return CertificationReport(
        verdict=verdict,
        r=float(r),
        norm_t=norm_t,
        norm_rtinv=norm_rtinv,
        spectrum_ok=spectrum_ok,
        trials=trials,
        max_ratio=max_ratio,
        witness=witness,
        seed=seed,
        stress_route="spectral" if is_normal else "factored",
        screened=screened,
    )


# ---------------------------------------------------------------------------
# Normal / completely-non-normal splitting
# ---------------------------------------------------------------------------


def _orth(cols: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the column span, singular values above ``tol``."""
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, : int(np.sum(s > tol))]


def cnn_split(t, tols: Tolerances = DEFAULT_TOLS) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the normal and completely-non-normal parts.

    The completely-non-normal subspace is the smallest subspace containing
    the range of the self-commutator ``[T*, T]`` and invariant under both
    ``T`` and ``T*`` (closed up by alternating Krylov growth), which starts
    from the scaled commutator of ``T``'s :func:`linalg.analysis`.  Both
    ranks are relative to ``||T||``, so ``cT`` splits as ``T`` does.
    :class:`NotSquare` unless ``T`` is square.
    """
    m = linalg.as_matrix(t)
    n = m.shape[0]
    facts = linalg.analysis(m)
    comm, norm = facts.commutator
    basis = _orth(comm, tols.rank_tol * norm**2)
    while 0 < basis.shape[1] < n:
        width = basis.shape[1]
        basis = _orth(np.hstack([basis, m @ basis, m.conj().T @ basis]), tols.rank_tol * facts.norm)
        if basis.shape[1] == width:
            break
    p_cnn = basis @ basis.conj().T
    return np.eye(n) - p_cnn, p_cnn


class WilliamsVerdict(str, enum.Enum):
    NOT_APPLICABLE = "NotApplicable"
    MINIMAL_DISK_REFUTATION = "MinimalDiskRefutation"


def williams_verdict(t, r: float, tols: Tolerances = DEFAULT_TOLS) -> WilliamsVerdict:
    """Refute via complete non-normality at norm one.

    For a completely non-normal matrix of norm one the closed unit disk is a
    minimal spectral set, so no strictly smaller compact (the closed annulus
    in particular) can be one.  The norm is tested first: the splitting runs
    only at norm one, where it can refute.  "Norm one" means within
    ``verify_tol`` of 1, while the theorem needs ``||T|| = 1`` exactly:
    ``example_matrix(0.25) * (1 - 5e-9)`` still gets
    ``MINIMAL_DISK_REFUTATION``, and for such a ``T`` it is not a proof.
    :class:`BadRadius` unless ``0 < r < 1``, then :class:`NotSquare` unless
    ``T`` is square.
    """
    linalg.require_radius(r)
    m = linalg.as_matrix(t)
    if not abs(linalg.analysis(m).norm - 1.0) <= tols.verify_tol:
        return WilliamsVerdict.NOT_APPLICABLE
    _, p_cnn = cnn_split(m, tols)
    if linalg.operator_norm(p_cnn - np.eye(m.shape[0])) <= tols.verify_tol:
        return WilliamsVerdict.MINIMAL_DISK_REFUTATION
    return WilliamsVerdict.NOT_APPLICABLE


def full_certification(
    t,
    r: float,
    trials: int,
    seed: int,
    tols: Tolerances = DEFAULT_TOLS,
) -> tuple[CertificationReport, dict]:
    """Necessary conditions, the minimal-disk route and the stress battery.

    Returns the merged report (stress witness wins over the minimal-disk
    refutation, which wins over a pass) plus a dict of the individual checks.
    The necessary conditions read ``||r T^{-1}||`` and the spectrum test
    from the stress report, and they and the minimal-disk route read
    ``||T||`` from ``T``'s :func:`linalg.analysis`, as the report does: a
    call makes one SVD, one ``eigvals`` and one inverse of ``T``.  Each
    entry equals what its predicate returns.
    """
    m = linalg.as_matrix(t)
    report = vonneumann_stress(m, r, trials, seed, tols)
    details = {
        "spectrum_in_annulus": report.spectrum_ok,
        "norm_window": norm_window(m, r, tols)[0],
        "norm_T": report.norm_t,
        "double_contraction": linalg.analysis(m).double_contraction(r, report.norm_rtinv, tols)[0],
        "williams": williams_verdict(m, r, tols).value,
    }
    if report.verdict is not Verdict.REFUTED and details["williams"] == WilliamsVerdict.MINIMAL_DISK_REFUTATION.value:
        report = replace(report, verdict=Verdict.WILLIAMS_REFUTED, witness=None)
    return report, details


# ---------------------------------------------------------------------------
# Instance generators with provable ground truth
# ---------------------------------------------------------------------------


def normal_annulus_matrix(n: int, r: float, seed: int) -> np.ndarray:
    """Random normal matrix with eigenvalues in the closed annulus.

    Normality plus spectrum location makes these certified positives for the
    stress battery.  ``n`` is checked by :func:`linalg.as_size`, and
    ``seed`` as :func:`linalg.seeded_rng` checks it.
    """
    n = linalg.as_size(n)
    linalg.require_radius(r)
    seed = linalg.as_integer(seed, "seed", 0)
    rng = linalg.seeded_rng(seed, 101)
    mods = r + (1.0 - r) * rng.random(n)
    lams = mods * np.exp(2j * np.pi * rng.random(n))
    q = linalg.random_unitary(n, seed * 2 + 1)
    return (q * lams[np.newaxis, :]) @ q.conj().T


def windowed_matrix(n: int, r: float, seed: int) -> np.ndarray:
    """Random matrix with singular values in ``[r, 1]``.

    Such matrices satisfy the double-contraction necessary condition:
    ``||T|| <= 1`` and ``||r T^{-1}|| = r / min sigma_i <= 1``.  ``n`` is
    checked by :func:`linalg.as_size`, and ``seed`` as
    :func:`linalg.seeded_rng` checks it.
    """
    n = linalg.as_size(n)
    linalg.require_radius(r)
    seed = linalg.as_integer(seed, "seed", 0)
    rng = linalg.seeded_rng(seed, 202)
    svals = r + (1.0 - r) * rng.random(n)
    u = linalg.random_unitary(n, seed * 3 + 1)
    w = linalg.random_unitary(n, seed * 3 + 2)
    return (u * svals[np.newaxis, :]) @ w.conj().T
