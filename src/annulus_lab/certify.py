"""Certification predicates for operators claiming the annulus as spectral set.

The necessary conditions (spectrum location, norm window, simultaneous
contractivity of ``T`` and ``r T^{-1}``) are decidable; membership itself is
not, so :func:`vonneumann_stress` samples random rational test functions and
reports either a violation witness or survival of the battery.  A witness's
ratio divides by a *sampled* sup of ``|f|``, a lower bound on the true sup,
so a stress ``Refuted`` verdict is strong evidence but not a proof: it
becomes one only once that denominator is an upper bound.  The
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
from .errors import NoConvergence, NotContraction, NotInvertible, Singular
from .linalg import DEFAULT_TOLS, Tolerances
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
    """True iff every eigenvalue modulus lies in ``[r - tol, 1 + tol]``."""
    mods = np.abs(linalg.spectrum(t))
    return bool(np.all(mods >= r - tols.verify_tol) and np.all(mods <= 1.0 + tols.verify_tol))


def norm_window(t, r: float, tols: Tolerances = DEFAULT_TOLS) -> tuple[bool, float]:
    """Check ``r - tol <= ||T|| <= 1 + tol``; returns (passes, norm)."""
    norm_t = linalg.operator_norm(t)
    passes = (r - tols.verify_tol) <= norm_t <= (1.0 + tols.verify_tol)
    return passes, norm_t


def involution(t, r: float, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """The annulus involution ``T -> r T^{-1}``; applying it twice returns T."""
    m = linalg.as_matrix(t)
    try:
        return r * linalg.inverse(m, tols)
    except Singular as exc:
        raise NotInvertible(str(exc)) from exc


def double_contraction_check(t, r: float, tols: Tolerances = DEFAULT_TOLS) -> bool:
    """True iff both ``T`` and ``r T^{-1}`` are contractions within tolerance."""
    norm_t = linalg.operator_norm(t)
    norm_rtinv = linalg.operator_norm(involution(t, r, tols))
    return norm_t <= 1.0 + tols.verify_tol and norm_rtinv <= 1.0 + tols.verify_tol


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

    ``max_ratio`` is the largest observed ``||f(T)|| / sup|f|`` against the
    sampled lower bound of the sup norm, over the evaluated functions (0.0
    when none is); a ``Refuted`` verdict always carries
    a witness function whose re-checked ratio exceeds ``1 + verify_tol``.
    The re-check samples more densely but still from below, so the witness
    is not a proof that the annulus fails to be a spectral set.
    ``stress_route`` records how ``||f(T)||`` was evaluated: ``"spectral"``
    for numerically normal ``T``, ``"factored"`` otherwise.  ``screened``
    counts the battery functions not evaluated because von Neumann's
    inequality already bounds their ratio by 1 (see :func:`vonneumann_stress`).
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


def _draw(rngs) -> tuple:
    """The variates of one test function per generator of the iterable
    ``rngs``, in the order the distribution draws them: the root counts
    ``k1`` and ``k2``, a (modulus, argument) pair of uniforms per root, outer
    roots first, the numerator degree, then the real and imaginary parts of
    the coefficients, redrawn while every one is zero.  Each generator is
    done with before the next is taken, as :func:`linalg.seeded_rngs` needs;
    the real and imaginary parts are one ``standard_normal`` call, which
    draws the bits of the two calls in turn.

    Returns ``counts`` (rows of ``(k1, k2, deg + 1)``) and the uniforms,
    real parts and imaginary parts of all rows, each flat in row order.
    """
    counts, uniforms, normals = [], [], []
    for rng in rngs:
        k1 = int(rng.integers(0, 5))
        k2 = int(rng.integers(0, 5))
        uniforms.append(rng.random(2 * (k1 + k2)))
        deg = int(rng.integers(0, 5))
        # (re + 1j im) / sqrt(2) has a nonzero entry iff re or im has one
        pair = rng.standard_normal(2 * (deg + 1))
        while not np.count_nonzero(pair):
            pair = rng.standard_normal(2 * (deg + 1))
        counts.append((k1, k2, deg + 1))
        normals.append(pair)
    counts = np.array(counts, dtype=int).reshape(-1, 3)
    uniforms, normals = (np.concatenate(parts) if parts else np.empty(0) for parts in (uniforms, normals))
    # each row's pair holds its deg + 1 real parts, then its imaginary parts
    lp = counts[:, 2]
    real = _slots(2 * lp)[1] < np.repeat(lp, 2 * lp)
    return counts, uniforms, normals[real], normals[~real]


def _slots(width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, column)`` of each entry of rows holding ``width[i]`` entries
    each, packed flat in row order."""
    row = np.repeat(np.arange(width.size), width)
    return row, np.arange(row.size) - np.repeat(np.cumsum(width) - width, width)


def _transform(r: float, counts: np.ndarray, uniforms, real, imag) -> tuple[np.ndarray, np.ndarray]:
    """Numerator coefficients and roots of :func:`_draw`'s rows, each flat in
    row order: outer moduli ``exp((1 - u) ln 4)``, inner moduli
    ``r exp(-(1 - u) ln 4)``, arguments ``2 pi v``, coefficients
    ``(re + 1j im) / sqrt(2)``."""
    k1 = counts[:, 0]
    row, slot = _slots(k1 + counts[:, 1])
    ln4 = np.log(4.0)
    mod_u, arg_u = uniforms[0::2], uniforms[1::2]
    mods = np.where(slot < k1[row], np.exp((1.0 - mod_u) * ln4), r * np.exp(-(1.0 - mod_u) * ln4))
    return (real + 1j * imag) / np.sqrt(2.0), mods * np.exp(2j * np.pi * arg_u)


def _pack(counts: np.ndarray, p: np.ndarray, roots: np.ndarray) -> rational.FactoredStack:
    """The rows ``(k1, k2, len(p))`` of ``counts``, with their flat
    coefficients and roots, as one zero-padded :class:`rational.FactoredStack`:
    the stack :func:`rational.factored_stack` makes of the same functions."""
    lp, k = counts[:, 2], counts[:, 0] + counts[:, 1]
    n, width = counts.shape[0], k.max(initial=0)
    stack = rational.FactoredStack(
        p=np.zeros((n, lp.max(initial=1)), dtype=complex),
        roots=np.zeros((n, width), dtype=complex),
        mask=np.zeros((n, width), dtype=bool),
        scale=np.ones(n, dtype=complex),
    )
    stack.p[_slots(lp)] = p
    at = _slots(k)
    stack.roots[at] = roots
    stack.mask[at] = True
    return stack


def _row_function(r: float, stack: rational.FactoredStack, counts: np.ndarray, i: int) -> AnnulusRational:
    """Row ``i`` of a stack packed by :func:`_pack`, as an :class:`AnnulusRational`."""
    k1, k2, lp = counts[i]
    return AnnulusRational(
        r=r,
        p_coeffs=tuple(stack.p[i, :lp]),
        q1_roots=tuple(stack.roots[i, :k1]),
        q2_roots=tuple(stack.roots[i, k1 : k1 + k2]),
    )


def sample_test_function(r: float, rng: np.random.Generator) -> AnnulusRational:
    """One random test function for the stress battery.

    Distribution (fixed so reports are reproducible): root counts uniform on
    {0..4} per denominator factor; outer root moduli log-uniform on (1, 4],
    inner moduli log-uniform on [r/4, r); arguments uniform; numerator degree
    uniform on {0..4} with unit complex Gaussian coefficients; scale 1.  It
    is the one-row case of the battery's draw (:func:`_draw`,
    :func:`_transform`, :func:`_pack`), so the battery's functions are
    those this returns for the generators ``linalg.seeded_rng(seed, 17, i)``,
    which the battery takes in bulk from :func:`linalg.seeded_rngs`.
    :class:`BadRadius` is raised unless ``0 < r < 1``.
    """
    linalg.require_radius(r)
    counts, *variates = _draw([rng])
    return _row_function(r, _pack(counts, *_transform(r, counts, *variates)), counts, 0)


# A quarter of calculus._CHUNK_BYTES: abs_at holds four or five arrays of a
# chunk's size at once; the traced peak of a dense sup of one row is 1.4 MiB.
_SUP_CHUNK_BYTES = 1 << 18
# The battery's sampling: equispaced nodes per circle and nodes per pole window.
_BASE_NODES = 4096
_LOCAL_NODES = 512
# The denser sampling that re-checks a candidate witness.
_DENSE_NODES = (1 << 15, 4096)
# Exact sups asked for at a time while the largest ratio is still being found.
_REFINE_ROWS = 16
# The battery's lower bounds read every _LOWER_STRIDE-th of the _BASE_NODES
# per circle, 64 nodes: a subset of the nodes every sampled sup evaluates.  A
# lower bound only prunes, so the stride changes no report.
_LOWER_STRIDE = 64


def _moduli(roots: np.ndarray) -> np.ndarray:
    """``abs`` of each root as :func:`rational.validate` takes it: ``hypot``,
    from which ``np.abs`` can differ in the last bit."""
    return np.hypot(roots.real, roots.imag)


def _pole_windows(r: float, stack: rational.FactoredStack, counts: np.ndarray) -> tuple:
    """``(row, radius, theta0, half_width)`` of the window around each pole
    near a circle of the rows of a stack packed by :func:`_pack`: ~32x the
    pole clearance wide, which keeps the relative deficit of a narrow peak at
    the square of the local spacing over the clearance."""
    mods = _moduli(stack.roots)
    outer = np.arange(mods.shape[1]) < counts[:, :1]
    dist = np.where(outer, mods - 1.0, r - mods)
    near = stack.mask & np.where(outer, dist < 0.2, (0 < dist) & (dist < 0.2 * r))
    row, col = np.nonzero(near)
    dist, outer = dist[row, col], outer[row, col]
    half_width = np.minimum(np.where(outer, 32.0 * dist, 32.0 * dist / r), np.pi / 4)
    return row, np.where(outer, 1.0, r), np.angle(stack.roots[row, col]), half_width


def _window_nodes(radius, theta0, half_width, local_nodes: int) -> np.ndarray:
    """The nodes of each window ``(radius, theta0, half_width)``, one row each."""
    theta = theta0[:, np.newaxis] + np.linspace(-half_width, half_width, local_nodes, axis=-1)
    return radius[:, np.newaxis] * np.exp(1j * theta)


def _chunks(count: int, width: int):
    """Slices of ``count`` rows of ``width`` complex values, ``_SUP_CHUNK_BYTES`` each."""
    step = max(1, _SUP_CHUNK_BYTES // (16 * width))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _circle_values(stack, r: float, nodes: np.ndarray):
    """``|f_i|`` at the points ``nodes`` of the unit circle and at ``r``
    times them, for each row of ``stack``, one chunk of ``_SUP_CHUNK_BYTES``
    at a time: yields the chunk's row slice and its values, of shape
    ``(rows, 2 * nodes.size)``."""
    z = np.concatenate([nodes, r * nodes])
    for sl in _chunks(stack.p.shape[0], z.size):
        yield sl, stack.take(sl).abs_at(z)


@lru_cache(maxsize=8)
def _ring(base_nodes: int) -> np.ndarray:
    """``base_nodes`` equispaced points of the unit circle, from 1, as a
    read-only array cached per node count."""
    if base_nodes < _LOWER_STRIDE or base_nodes % _LOWER_STRIDE:
        raise ValueError(f"need a positive multiple of {_LOWER_STRIDE} nodes per circle")
    ring = np.exp(1j * (2.0 * np.pi * np.arange(base_nodes) / base_nodes))
    ring.flags.writeable = False
    return ring


# A node z has ||z| - rho| <= 4u rho, so only a root this close to a circle
# can come within 1e-14 of one.
_NEAR_CIRCLE = 1e-12


def _check_poles(r: float, stack, counts: np.ndarray, ring: np.ndarray, local_nodes: int) -> None:
    """:class:`PoleHit`, as :func:`rational.evaluate` would raise it, for
    the first row of a stack packed by :func:`_pack` with a node within
    1e-14 of a root: a node of ``ring`` on either circle, or one of
    ``local_nodes`` in a pole window of the row.  Only rows with a root
    within ``_NEAR_CIRCLE`` of a circle can have one."""
    mods = _moduli(stack.roots)
    near = stack.mask & ((np.abs(mods - 1.0) <= _NEAR_CIRCLE) | (np.abs(mods - r) <= _NEAR_CIRCLE))
    for i in np.flatnonzero(near.any(axis=1)):
        _, *window = _pole_windows(r, stack.take(slice(i, i + 1)), counts[i : i + 1])
        for zz in [ring, r * ring, *_window_nodes(*window, local_nodes)]:
            for root in stack.roots[i, stack.mask[i]]:
                rational.check_clearance(zz - root, complex(root))


def _sampled_sups(r: float, stack, counts, base_nodes: int = _BASE_NODES, local_nodes: int = _LOCAL_NODES):
    """Sampled sup-norm lower bounds of the rows of a stack packed by
    :func:`_pack` (rows ``(k1, k2, len(p))`` of ``counts``, all on the
    annulus of inner radius ``r``), with extra nodes clustered near poles:
    for each, the max of ``|evaluate(f, z)|`` over ``base_nodes``
    equispaced nodes on each boundary circle and over ``local_nodes`` in a
    window around each pole near a circle.

    Every node is evaluated, through :meth:`rational.FactoredStack.abs_at`,
    which is :func:`rational.evaluate` bit for bit whatever the padding: the
    pole windows, then the circles in pieces of ``_BASE_NODES`` nodes
    (:func:`_circle_values`), so the dense re-check holds no more at once
    than the battery's sampling.  The max of the pieces' maxima is the max
    over all nodes.  ``base_nodes`` must be a positive multiple of
    ``_LOWER_STRIDE``.  The rows must be valid (the battery validates its
    stack once, when it is built); :class:`PoleHit` is raised first, by
    :func:`_check_poles` on this call's own nodes.
    """
    ring = _ring(base_nodes)
    _check_poles(r, stack, counts, ring, local_nodes)
    sups = np.full(counts.shape[0], -np.inf)
    row, *window = _pole_windows(r, stack, counts)
    for sl in _chunks(row.size, local_nodes):
        vals = stack.take(row[sl]).abs_at(_window_nodes(*(w[sl] for w in window), local_nodes))
        np.maximum.at(sups, row[sl], vals.max(axis=1))
    for lo in range(0, base_nodes, _BASE_NODES):
        for sl, vals in _circle_values(stack, r, ring[lo : lo + _BASE_NODES]):
            sups[sl] = np.maximum(sups[sl], vals.max(axis=1))
    return sups


class _Battery:
    """Test-function battery as arrays: the padded factored stack, each
    row's ``(k1, k2, len(p))``, a cheap lower bound on each sampled sup, and
    memos of exact sups and of their dense re-checks.

    The stack is validated and pole-checked once, at build, and every sup is
    read from it (:meth:`sampled_sups`); :meth:`function` builds row ``i``
    as a function (the witness), :attr:`functions` builds them all, once.
    :attr:`two_sided` selects the rows the von Neumann screen evaluates.
    ``lower[i]`` is the max of ``|f_i|`` at every ``_LOWER_STRIDE``-th node
    of the ``_BASE_NODES`` per circle.  :func:`_sampled_sups` evaluates
    those nodes too, and ``abs_at`` is :func:`rational.evaluate` bit for
    bit, so ``lower[i] <= sampled_sups([i])[0]`` exactly.
    :meth:`exact_sups` computes the sups on demand and keeps them in
    :attr:`memo`, or with ``dense=True`` the ``_DENSE_NODES`` re-checks in
    :attr:`dense`: a refuting row recurs across a corpus, so it is
    re-checked once per battery.  A memo only gains entries, each a
    deterministic value, so which calls filled it never changes a result.
    Readers take no lock: each memo is a read-only snapshot, replaced whole
    under ``_lock`` by a copy holding the new entries, so a reader sees some
    earlier snapshot and no update is lost.
    """

    def __init__(self, r: float, stack: rational.FactoredStack, counts: np.ndarray, lower: np.ndarray):
        self.r = r
        self.stack = stack
        self.counts = counts
        self.lower = lower
        self.lower.flags.writeable = False
        memo = np.full(lower.size, np.nan)
        memo.flags.writeable = False
        self.memo = self.dense = memo
        self._lock = threading.Lock()

    def function(self, i: int) -> AnnulusRational:
        """Row ``i`` as an :class:`AnnulusRational`."""
        return _row_function(self.r, self.stack, self.counts, i)

    @cached_property
    def functions(self) -> tuple:
        """Every row as an :class:`AnnulusRational`, in battery order."""
        return tuple(self.function(i) for i in range(self.lower.size))

    @cached_property
    def two_sided(self) -> tuple[np.ndarray, rational.FactoredStack]:
        """The rows with poles on both sides of the annulus, and their stack.

        The other rows are one-sided: with no inner root (``k2 = 0``) a row
        is analytic on the closed unit disk, and with no outer root and
        ``len(p) - 1 <= k2`` it is analytic outside the disk of radius ``r``,
        at infinity too.  The canonical probes are one-sided.
        """
        k1, k2, lp = self.counts.T
        rows = np.flatnonzero((k2 > 0) & ~((k1 == 0) & (lp - 1 <= k2)))
        return rows, self.stack.take(rows)

    def sampled_sups(self, rows, base_nodes: int = _BASE_NODES, local_nodes: int = _LOCAL_NODES) -> np.ndarray:
        """:func:`_sampled_sups` of the rows ``rows``, read from the stack."""
        return _sampled_sups(self.r, self.stack.take(rows), self.counts[rows], base_nodes, local_nodes)

    def exact_sups(self, rows: np.ndarray, dense: bool = False) -> np.ndarray:
        """:meth:`sampled_sups` of the rows ``rows``, at ``_DENSE_NODES`` if
        ``dense``, from the memo where it holds them (NaN marks an entry not
        yet computed)."""
        name = "dense" if dense else "memo"
        memo = getattr(self, name)
        missing = rows[np.isnan(memo[rows])]
        if missing.size:
            found = self.sampled_sups(missing, *_DENSE_NODES) if dense else self.sampled_sups(missing)
            with self._lock:
                memo = getattr(self, name).copy()
                memo[missing] = found
                memo.flags.writeable = False
                setattr(self, name, memo)
        return memo[rows]


# The canonical probes z and r/z as (k1, k2, len(p)) rows; packed flat, their
# coefficients are (0, 1, r) and their one root is 0.
_PROBE_COUNTS = np.array([[0, 0, 2], [0, 1, 1]])


def _check_rows(r: float, stack: rational.FactoredStack, counts: np.ndarray) -> None:
    """Raise the first error :func:`rational.validate` raises for the rows
    of a stack packed by :func:`_pack`, in row order.  Its radius and
    root-location comparisons run on the whole stack, on the moduli it takes
    (a draw on an annulus is finite, and its numerator and scale are never
    empty or zero); ``validate`` itself runs only on the rows they flag."""
    mods = _moduli(stack.roots)
    outer = np.arange(mods.shape[1]) < counts[:, :1]
    bad = (stack.mask & np.where(outer, mods <= 1.0, mods >= r)).any(axis=1)
    if not 0.0 < r < 1.0:
        bad[:] = True
    for i in np.flatnonzero(bad):
        rational.validate(_row_function(r, stack, counts, i))


@lru_cache(maxsize=8)
def _stress_battery(r: float, trials: int, seed: int) -> _Battery:
    """Deterministic battery of test functions with lower sup bounds.

    Trials 0 and 1 are the canonical probes ``z`` and ``r/z`` (they expose
    norm-window violations exactly); trial ``i >= 2`` is
    ``sample_test_function(r, linalg.seeded_rng(seed, 17, i))``.  The
    generators come from ``linalg.seeded_rngs(seed, 17, 2, trials)``, which
    keys them all in one pass instead of building a SeedSequence per row;
    each makes its own draws (:func:`_draw`), and the variates of all rows
    are transformed in one vectorized pass and written straight into the
    padded stack (:func:`_transform`, :func:`_pack`), so no
    :class:`AnnulusRational` is built here.  Every row is validated
    (:func:`_check_rows`), then :class:`PoleHit` is raised as
    :func:`_sampled_sups` would on the battery's sampling
    (:func:`_check_poles`); the build then evaluates 64 nodes per circle of
    the whole stack, for :attr:`_Battery.lower`, and leaves the exact sups to
    :meth:`_Battery.exact_sups`.  Cached so repeated certifications against
    the same battery (e.g. a corpus sweep) share the draws and the memo.
    """
    probes = min(trials, len(_PROBE_COUNTS))
    counts, *variates = _draw(linalg.seeded_rngs(seed, 17, probes, trials))
    p, roots = _transform(r, counts, *variates)
    counts = np.concatenate([_PROBE_COUNTS[:probes], counts])
    p = np.concatenate([np.array([0.0, 1.0, r], dtype=complex)[: counts[:probes, 2].sum()], p])
    roots = np.concatenate([np.zeros(counts[:probes, 1].sum(), dtype=complex), roots])
    stack = _pack(counts, p, roots)
    ring = _ring(_BASE_NODES)
    _check_rows(r, stack, counts)
    _check_poles(r, stack, counts, ring, _LOCAL_NODES)
    lower = np.empty(trials)
    for sl, vals in _circle_values(stack, float(r), ring[::_LOWER_STRIDE]):
        lower[sl] = vals.max(axis=1)
    return _Battery(float(r), stack, counts, lower)


def _stress_ratios(nums, lower, probe, memo, sups, dense, tol: float) -> tuple[float, int | None]:
    """``max_i nums_i / max(sup_i, probe_i)`` and the witness, asking for
    as few exact sups ``sup_i`` as the comparisons allow.

    ``lower <= sup`` elementwise; ``memo`` holds the sups already known (NaN
    where not); ``sups(rows)`` returns the sups of ``rows`` and
    ``dense(rows)`` a denser re-check of them.  With ``bound`` the memo
    entry or else ``lower``, ``upper = nums / max(bound, probe)`` bounds each
    ratio from above (division is monotone), in this order:

    1. every unknown row with ``upper > 1 + tol``, or not finite, gets its
       sup; the rows whose ratio then exceeds ``1 + tol`` are flagged and
       re-checked by ``dense``, and the first still above it is the witness;
    2. with ``best`` the largest ratio known, every unknown row with
       ``upper >= best`` gets its sup (at most ``_REFINE_ROWS`` at a time,
       the largest ``upper`` first), until none is left.

    The re-check must come first: it can lower a flagged ratio below one
    that step 2 would have pruned against.  An unknown row left at the end
    has ``ratio <= upper < best``, so the result is that of computing every
    sup.  When ``memo`` already holds what a call needs, it is a few passes
    over the arrays, with no sort.
    """
    known = ~np.isnan(memo)
    denoms = np.maximum(np.where(known, memo, lower), probe)
    ratios = nums / denoms

    def refine(rows):
        denoms[rows] = np.maximum(sups(rows), probe[rows])
        ratios[rows] = nums[rows] / denoms[rows]
        known[rows] = True

    refine(np.nonzero(~known & ~(np.isfinite(ratios) & (ratios <= 1.0 + tol)))[0])
    witness = None
    flagged = np.nonzero(ratios > 1.0 + tol)[0]
    if flagged.size:
        for i, sup in zip(flagged, dense(flagged)):
            ratios[i] = nums[i] / max(denoms[i], sup)
            if witness is None and ratios[i] > 1.0 + tol:
                witness = int(i)
    while True:
        rows = np.nonzero(~known & (ratios >= ratios[known].max(initial=-np.inf)))[0]
        if not rows.size:
            break
        if rows.size > _REFINE_ROWS:
            rows = rows[np.argpartition(ratios[rows], -_REFINE_ROWS)[-_REFINE_ROWS:]]
        refine(rows)
    return (float(ratios.max()) if ratios.size else 0.0), witness


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

    The denominator of each ratio is a lower bound on the true sup norm,
    which is the wrong direction for a proof of a violation: the
    node-sampled boundary maximum, improved by pole-adaptive
    refinement and by ``|f|`` at the spectrum projected into the annulus
    (interior values never exceed the boundary sup).  The sampled maxima are
    those of 4096 equispaced nodes per circle plus 512 per pole window, each
    node evaluated by :func:`_sampled_sups` on the battery's packed stack
    (:meth:`_Battery.sampled_sups`), which was validated once when it was
    built; each sampling pole-checks its own nodes.  Candidate violations
    are re-checked together, through the same routine, against a denser
    sampling (``_DENSE_NODES``: ``1 << 15`` nodes plus 4096 per window)
    before one is accepted as a witness, so ``Refuted`` reports replay
    deterministically; the battery memoizes the re-checks as it does the
    sups (:meth:`_Battery.exact_sups`).  That re-check still
    samples, so a witness is not a proof: on the 2000-function batteries
    of seed 1 at r = 0.25 and 0.5, the re-checked sups fall short of a
    refined sup by up to 3.0e-5 relative.

    Von Neumann screen: when ``T`` is a strict double contraction, its
    singular values within ``[r + delta, 1 - delta]`` with the rounding
    margin ``delta = 64 n eps ||T||``, only the battery's two-sided functions
    are evaluated (:attr:`_Battery.two_sided`).  A one-sided function is
    analytic on the closed unit disk, or outside the disk of radius ``r``
    and at infinity, so von Neumann's inequality (*Math. Nachr.* 4, 1951)
    for ``T`` or for ``r T^{-1}`` gives ``||f(T)|| <= sup|f|``: it cannot
    refute.  ``screened`` counts the functions skipped, and ``max_ratio``
    is the largest ratio over the evaluated ones (0.0 when none is).  A
    ``T`` on the boundary of the window, such as :func:`example_matrix`
    with ``||T|| = 1``, screens nothing.

    Only the ratios that can matter get an exact sampled sup
    (:func:`_stress_ratios`): the battery's coarse lower bounds bound every
    ratio from above, and a function whose bound can neither exceed
    ``1 + verify_tol`` nor reach the largest ratio found keeps it.  The
    sups found go into the battery's memo (:meth:`_Battery.exact_sups`);
    once it holds what a call needs, the call makes no sup work at all.  The
    report is the one that every sup computed would give, bit for bit.

    For numerically normal input the operator norm is evaluated spectrally,
    as ``max |f|`` over the eigenvalues, which agrees with the factored
    evaluation to roundoff; one pass over the evaluated functions gives
    ``|f|`` at the eigenvalues and at their projections.  Otherwise they go
    through one stacked factored evaluation (:func:`calculus.factored_norms`)
    at the Schur triangle of ``T``, by back-substitution, in chunks of about
    1 MB; it raises :class:`Singular` as
    :func:`calculus.eval_direct` would on the first evaluated function, in
    battery order, with a root on the spectrum.  :class:`NotContraction`
    names an overflow: some ``||f(T)||``, or ``|f|`` at a projected
    eigenvalue, is not finite.  :class:`BadRadius` is
    raised unless ``0 < r < 1``, then ``ValueError`` naming ``trials`` or
    ``seed`` unless it is an integer (numpy's too, not a ``bool``) and
    ``>= 0``, before any other work.
    """
    linalg.require_radius(r)
    trials = linalg.as_integer(trials, "trials", 0)
    seed = linalg.as_integer(seed, "seed", 0)
    m = linalg.as_matrix(t)
    svals = linalg.singular_values(m)
    norm_t = float(svals[0])
    norm_rtinv = linalg.operator_norm(involution(m, r, tols))
    lams = linalg.spectrum(m)
    mods = np.abs(lams)
    spectrum_ok = bool(np.all(mods >= r - tols.verify_tol) and np.all(mods <= 1.0 + tols.verify_tol))
    is_normal = linalg.is_normal(m, tols, norm_t)
    probes = _clamp_to_annulus(lams, r)

    battery = _stress_battery(r, trials, seed)
    margin = 64 * m.shape[0] * np.finfo(float).eps * norm_t
    if norm_t + margin <= 1.0 and svals[-1] - margin >= r:
        rows, stack = battery.two_sided
    else:
        rows, stack = np.arange(trials), battery.stack
    with np.errstate(all="ignore"):  # a value that overflows raises below
        if is_normal:
            # one pass over the stack; its columns are independent, so each
            # half is bit for bit what a separate call gives
            vals = stack.abs_at(np.concatenate([probes, lams]))
            at_probes = vals[:, : lams.size].max(axis=1)
            nums = vals[:, lams.size :].max(axis=1)
        else:
            at_probes = stack.abs_at(probes).max(axis=1)
            nums = calculus.factored_norms(stack, m, tols)
    if not (np.isfinite(nums).all() and np.isfinite(at_probes).all()):
        raise NotContraction(
            f"overflow: ||f(T)|| or |f| at a probe is not finite (||T|| = {norm_t:.6g}, ||r T^-1|| = {norm_rtinv:.6g})"
        )
    max_ratio, witness = _stress_ratios(
        nums,
        battery.lower[rows],
        at_probes,
        battery.memo[rows],
        lambda sel: battery.exact_sups(rows[sel]),
        lambda sel: battery.exact_sups(rows[sel], dense=True),
        tols.verify_tol,
    )
    if witness is not None:
        verdict = Verdict.REFUTED
        witness = battery.function(int(rows[witness]))
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
        screened=trials - rows.size,
    )


# ---------------------------------------------------------------------------
# Normal / completely-non-normal splitting
# ---------------------------------------------------------------------------


def _orth(cols: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the column span, singular values above ``tol``."""
    if cols.size == 0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    rank = int(np.sum(s > tol))
    return u[:, :rank]


def cnn_split(t, tols: Tolerances = DEFAULT_TOLS) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the normal and completely-non-normal parts.

    The completely-non-normal subspace is the smallest subspace containing
    the range of the self-commutator ``[T*, T]`` and invariant under both
    ``T`` and ``T*`` (closed up by alternating Krylov growth).
    """
    m = linalg.as_matrix(t)
    if m.shape[0] != m.shape[1]:
        raise NoConvergence("cnn_split needs a square matrix")
    n = m.shape[0]
    norm = linalg.operator_norm(m)
    scale = max(1.0, norm**2)
    comm = m.conj().T @ m - m @ m.conj().T
    basis = _orth(comm, tols.rank_tol * scale)
    while basis.shape[1] < n:
        grown = np.hstack([basis, m @ basis, m.conj().T @ basis])
        new_basis = _orth(grown, tols.rank_tol * max(1.0, norm))
        if new_basis.shape[1] == basis.shape[1]:
            basis = new_basis
            break
        basis = new_basis
    p_cnn = basis @ basis.conj().T
    p_normal = np.eye(n) - p_cnn
    return p_normal, p_cnn


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
    """
    m = linalg.as_matrix(t)
    if m.shape[0] != m.shape[1]:
        raise NoConvergence("cnn_split needs a square matrix")
    if not abs(linalg.operator_norm(m) - 1.0) <= tols.verify_tol:
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
    The necessary conditions read ``||T||``, ``||r T^{-1}||`` and the
    spectrum test from the stress report, which measures them once; each
    entry equals what its predicate returns.
    """
    m = linalg.as_matrix(t)
    report = vonneumann_stress(m, r, trials, seed, tols)
    tol = tols.verify_tol
    details = {
        "spectrum_in_annulus": report.spectrum_ok,
        "norm_window": r - tol <= report.norm_t <= 1.0 + tol,
        "norm_T": report.norm_t,
        "double_contraction": report.norm_t <= 1.0 + tol and report.norm_rtinv <= 1.0 + tol,
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
