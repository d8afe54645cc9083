"""Certification predicates for operators claiming the annulus as spectral set.

The necessary conditions (spectrum location, norm window, simultaneous
contractivity of ``T`` and ``r T^{-1}``) are decidable; membership itself is
not, so :func:`vonneumann_stress` samples random rational test functions and
reports either a sound violation witness or survival of the battery.  The
normal / completely-non-normal splitting powers an independent refutation
route for norm-one completely-non-normal matrices, for which the closed unit
disk is already a minimal spectral set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import calculus, linalg, rational
from ._version import __version__
from .errors import NoConvergence, NotInvertible, Singular
from .linalg import DEFAULT_TOLS, Tolerances
from .rational import AnnulusRational


def example_matrix(r: float) -> np.ndarray:
    """Upper-triangular norm-one matrix with spectrum ``{sqrt(r)}``.

    Completely non-normal with ``sigma(T*T) = {1, r^2}``; it satisfies every
    necessary condition yet the annulus is not a spectral set for it.
    """
    if not (0.0 < r < 1.0):
        raise ValueError("r must be in (0, 1)")
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
    sampled lower bound of the sup norm; a ``Refuted`` verdict always carries
    a witness function whose confirmed ratio exceeds ``1 + verify_tol``.
    ``stress_route`` records how ``||f(T)||`` was evaluated: ``"spectral"``
    for numerically normal ``T``, ``"factored"`` otherwise.
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
            "version": __version__,
        }


def sample_test_function(r: float, rng: np.random.Generator) -> AnnulusRational:
    """One random test function for the stress battery.

    Distribution (fixed so reports are reproducible): root counts uniform on
    {0..4} per denominator factor; outer root moduli log-uniform on (1, 4],
    inner moduli log-uniform on [r/4, r); arguments uniform; numerator degree
    uniform on {0..4} with unit complex Gaussian coefficients; scale 1.
    """
    k1 = int(rng.integers(0, 5))
    k2 = int(rng.integers(0, 5))
    ln4 = np.log(4.0)
    q1 = []
    for _ in range(k1):
        mod = float(np.exp((1.0 - rng.random()) * ln4))
        q1.append(mod * np.exp(2j * np.pi * rng.random()))
    q2 = []
    for _ in range(k2):
        mod = float(r * np.exp(-(1.0 - rng.random()) * ln4))
        q2.append(mod * np.exp(2j * np.pi * rng.random()))
    deg = int(rng.integers(0, 5))
    while True:
        p = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) / np.sqrt(2.0)
        if np.any(p != 0):
            break
    return AnnulusRational(r=r, p_coeffs=tuple(p), q1_roots=tuple(q1), q2_roots=tuple(q2))


# Every _COARSE-th equispaced boundary node is evaluated outright; the other
# nodes of its cell only when a Bernstein bound cannot show them below the
# sampled maximum.
_COARSE = 8
# The Bernstein bound is taken once per block of _BLOCK cells: on the battery
# that keeps 4.9 % of the nodes as candidates where per-cell bounds keep 4.8 %,
# at an eighth of the cost.
_BLOCK = 8
_CELL_OFFSETS = np.array([o for o in range(-_COARSE // 2, _COARSE // 2) if o])
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# A quarter of calculus._CHUNK_BYTES: each evaluated row also carries its
# function's coefficients and the bound's temporaries.  With 1 MB chunks the
# traced peak of a cold battery build was 8.7 MiB, against 3.2 MiB with these
# and 1.6 MiB for per-function sampling.
_SUP_CHUNK_BYTES = 1 << 18


def _pole_windows(f: AnnulusRational) -> list:
    """``(radius, theta0, half_width)`` of the window around each pole near a
    circle: ~32x the pole clearance wide, which keeps the relative deficit of
    a narrow peak at the square of the local spacing over the clearance."""
    windows = []
    for a in f.q1_roots:
        dist = abs(a) - 1.0
        if dist < 0.2:
            windows.append((1.0, np.angle(a), min(32.0 * dist, np.pi / 4)))
    for b in f.q2_roots:
        dist = f.r - abs(b)
        if 0 < dist < 0.2 * f.r:
            windows.append((f.r, np.angle(b), min(32.0 * dist / f.r, np.pi / 4)))
    return windows


def _window_nodes(windows, local_nodes: int) -> np.ndarray:
    """The nodes of each window ``(radius, theta0, half_width)``, one row each."""
    radius, theta0, half_width = (np.array(col) for col in zip(*windows))
    theta = theta0[:, np.newaxis] + np.linspace(-half_width, half_width, local_nodes, axis=-1)
    return radius[:, np.newaxis] * np.exp(1j * theta)


def _chunks(count: int, width: int):
    """Slices of ``count`` rows of ``width`` complex values, ``_SUP_CHUNK_BYTES`` each."""
    step = max(1, _SUP_CHUNK_BYTES // (16 * width))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _bernstein_bound(roots: np.ndarray, n_outer: int, excess: int, rho, z: np.ndarray, reach) -> np.ndarray:
    """Bound on ``|df/dθ| / sup_{|w| = rho} |f|`` at the points ``w`` of the
    circle of radius ``rho`` within distance ``reach`` of ``z``, shape of ``z``.

    The rational Bernstein inequality of Borwein & Erdélyi (*Mathematika* 43,
    1996), rescaled to radius ``rho``: ``max(sum_{|a|>rho} (|a|^2-rho^2) /
    |a-w|^2 + excess, sum_{|a|<rho} (rho^2-|a|^2) / |a-w|^2)``.  Row ``i`` of
    ``roots`` holds ``n_outer`` roots outside the circle, then those inside;
    ``excess`` is the numerator degree above the root count (poles at
    infinity).  ``|a - w|`` is bounded below by ``|a - z| - reach`` and by
    ``||a| - rho|``, with slack for rounding.  ``rho`` and ``reach``
    broadcast against ``z``, whose first axis runs over the rows.
    """
    outer = np.full(z.shape, float(excess))
    inner = np.zeros(z.shape)
    tail = (slice(None),) + (np.newaxis,) * (z.ndim - 1)
    for col in range(roots.shape[1]):
        mod = np.abs(roots[:, col])[tail]
        gap = np.abs(mod - rho)
        dist = np.maximum(np.abs(z - roots[:, col][tail]) * (1.0 - 1e-12) - reach, gap * (1.0 - 1e-12))
        with np.errstate(divide="ignore"):
            term = gap * (mod + rho) / dist**2
        if col < n_outer:
            outer += term
        else:
            inner += term
    return np.maximum(outer, inner) * (1.0 + 1e-9)


def _candidate_cells(stack, n_outer: int, rho, z, v, floor, nodes: int) -> np.ndarray:
    """Cells whose uncomputed nodes may reach ``floor``, shape of ``v``.

    ``v[i, c, j]`` is ``|f_i|`` at coarse node ``z[i, c, j]`` of circle ``c``
    (radius ``rho[i, c]``); its cell is the arc ``|θ - θ_j| <= h``.  On that
    arc ``|f(θ)| <= |f(θ_j)| + h B_cell S``, where ``B_cell`` is the Bernstein
    bound over the block of ``_BLOCK`` cells holding the cell and
    ``S <= (M + eta) / (1 - h max B_cell)`` bounds the circle's sup from the
    coarse maximum ``M``.  ``eta`` bounds the rounding of one computed value
    and the offset of a computed node from the circle, from the a-priori bound
    ``F = sum |p_k| rho^k / (|scale| prod ||a| - rho|)`` on ``|f|`` near the
    circle.  A cell is excluded when ``v + eta + h B_cell S < floor - eta``;
    every cell of a circle is kept when ``h max B_cell >= 1/2`` or when
    intermediates could leave the range where that bound on the rounding
    holds.
    """
    h = np.pi * _COARSE / nodes * (1.0 + 1e-6)
    roots, lp, nr = stack.roots, stack.p.shape[1], stack.roots.shape[1]
    mods = np.abs(roots)[:, np.newaxis, :]
    gap = np.abs(mods - rho[:, :, np.newaxis])
    scale = np.abs(stack.scale)[:, np.newaxis]
    num_hi = (np.abs(stack.p)[:, np.newaxis, :] * rho[:, :, np.newaxis] ** np.arange(lp)).sum(axis=2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound = num_hi / (scale * gap.prod(axis=2))
        eta = 32.0 * _UNIT_ROUNDOFF * bound * (lp + nr + 4 + (rho[:, :, np.newaxis] / gap).sum(axis=2))
        # a block centred on coarse node c spans cells c - _BLOCK/2 .. c + _BLOCK/2 - 1
        blocks = z[:, :, _BLOCK // 2 :: _BLOCK]
        reach = ((_BLOCK + 1) * rho * h)[:, :, np.newaxis]
        bern = _bernstein_bound(roots, n_outer, max(lp - 1 - nr, 0), rho[:, :, np.newaxis], blocks, reach)
        bern = np.repeat(bern, _BLOCK, axis=2)
        hb = h * bern.max(axis=2)
        ok = (
            np.isfinite(v).all(axis=2)
            & (hb < 0.5)
            & (bound > 1e-150)
            & (num_hi < 1e150)
            & (scale * np.minimum(gap, 1.0).prod(axis=2) > 1e-150)
            & (scale * np.maximum(mods + rho[:, :, np.newaxis], 1.0).prod(axis=2) < 1e150)
        )
        sup = (v.max(axis=2) + eta) / (1.0 - hb)
        top = (v + 2.0 * eta[:, :, np.newaxis] + h * bern * sup[:, :, np.newaxis]) * (1.0 + 1e-12)
    return ~(ok[:, :, np.newaxis] & (top < floor[:, np.newaxis, np.newaxis]))


def _group_sups(functions, window_rows, windows, ring: np.ndarray, local_nodes: int) -> np.ndarray:
    """Sampled sups of functions sharing ``(len(p), #q1, #q2)``, with the pole
    ``windows`` of rows ``window_rows``."""
    stack = rational.factored_stack(functions)
    n_outer = len(functions[0].q1_roots)
    best = np.full(len(functions), -np.inf)
    window_rows = np.array(window_rows, dtype=int)
    for sl in _chunks(window_rows.size, local_nodes):
        vals = stack.take(window_rows[sl]).abs_at(_window_nodes(windows[sl], local_nodes))
        np.maximum.at(best, window_rows[sl], vals.max(axis=1))
    nodes = ring.size
    coarse = ring[::_COARSE]
    radii = np.array([f.r for f in functions])
    for sl in _chunks(len(functions), 2 * coarse.size):
        rho = np.stack([np.ones(radii[sl].size), radii[sl]], axis=1)
        z = rho[:, :, np.newaxis] * coarse
        sub = stack.take(sl)
        v = sub.abs_at(z.reshape(z.shape[0], -1)).reshape(z.shape)
        best[sl] = np.maximum(best[sl], v.max(axis=(1, 2)))
        row, circle, cell = np.nonzero(_candidate_cells(sub, n_outer, rho, z, v, best[sl], nodes))
        # each candidate cell is one row: its other nodes and its function
        for part in _chunks(row.size, _CELL_OFFSETS.size + stack.p.shape[1] + stack.roots.shape[1]):
            fine = (cell[part, np.newaxis] * _COARSE + _CELL_OFFSETS) % nodes
            pts = rho[row[part], circle[part], np.newaxis] * ring[fine]
            vals = sub.take(row[part]).abs_at(pts)
            np.maximum.at(best, row[part] + sl.start, vals.max(axis=1))
    return best


def _sampled_sups(functions, base_nodes: int = 4096, local_nodes: int = 512) -> np.ndarray:
    """Sampled sup-norm lower bounds of ``functions``, with extra nodes
    clustered near poles: for each, the max of ``|evaluate(f, z)|`` over
    ``base_nodes`` equispaced nodes on each boundary circle and over
    ``local_nodes`` in a window around each pole near a circle.

    Every value is that max bit for bit, but most equispaced nodes are
    excluded by proof instead of evaluated: every ``_COARSE``-th node is
    evaluated, and the rest of its cell only when a Bernstein bound on
    ``|df/dθ|`` cannot show the cell below the function's sampled maximum
    (:func:`_candidate_cells`).  Functions sharing a shape go through
    :meth:`rational.FactoredStack.abs_at` together in chunks of
    ``_SUP_CHUNK_BYTES``.  ``base_nodes`` must be a positive multiple of 64.
    Raises :class:`PoleHit` as :func:`rational.evaluate` would, for the first
    function in order with a node within 1e-14 of a root.
    """
    if base_nodes < 64 or base_nodes % (_COARSE * _BLOCK):
        raise ValueError(f"need a positive multiple of {_COARSE * _BLOCK} nodes per circle")
    theta = 2.0 * np.pi * np.arange(base_nodes) / base_nodes
    ring = np.exp(1j * theta)
    groups: dict = {}
    for i, f in enumerate(functions):
        rational.validate(f)
        windows = _pole_windows(f)
        roots = f.q1_roots + f.q2_roots
        # a node z has ||z| - rho| <= 4u rho, so only a root this close to a
        # circle can come within 1e-14 of one
        if any(abs(abs(a) - rho) <= 1e-12 for a in roots for rho in (1.0, f.r)):
            point_sets = [ring, f.r * ring] + (list(_window_nodes(windows, local_nodes)) if windows else [])
            for zz in point_sets:
                for root in roots:
                    rational.check_clearance(zz - root, root)
        members, window_rows, group_windows = groups.setdefault(
            (len(f.p_coeffs), len(f.q1_roots), len(f.q2_roots)), ([], [], [])
        )
        window_rows += [len(members)] * len(windows)
        group_windows += windows
        members.append(i)
    sups = np.empty(len(functions))
    for members, window_rows, windows in groups.values():
        sups[members] = _group_sups([functions[i] for i in members], window_rows, windows, ring, local_nodes)
    return sups


def _pole_refined_sup(f: AnnulusRational, base_nodes: int = 4096, local_nodes: int = 512) -> float:
    """Sampled sup-norm lower bound with extra nodes clustered near poles:
    the one-function case of :func:`_sampled_sups`."""
    return float(_sampled_sups((f,), base_nodes, local_nodes)[0])


@dataclass(frozen=True)
class _Battery:
    """Test-function battery with sup bounds and its padded factored stack."""

    functions: tuple
    sups: np.ndarray
    stack: rational.FactoredStack


@lru_cache(maxsize=8)
def _stress_battery(r: float, trials: int, seed: int) -> _Battery:
    """Deterministic battery of test functions with precomputed sup bounds.

    Trials 0 and 1 are the canonical probes ``z`` and ``r/z`` (they expose
    norm-window violations exactly); the rest follow the documented random
    distribution.  The sups come from :func:`_sampled_sups`.  Cached so
    repeated certifications against the same battery (e.g. a corpus sweep)
    pay the sampling cost once.
    """
    probes = [
        AnnulusRational(r=r, p_coeffs=(0.0, 1.0)),
        AnnulusRational(r=r, p_coeffs=(r,), q2_roots=(0.0,)),
    ]
    functions = tuple(
        probes[i] if i < len(probes) else sample_test_function(r, linalg.seeded_rng(seed, 17, i))
        for i in range(trials)
    )
    return _Battery(
        functions=functions,
        sups=_sampled_sups(functions),
        stack=rational.factored_stack(functions),
    )


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

    The denominator of each ratio is a certified lower bound on the true sup
    norm: the node-sampled boundary maximum, improved by pole-adaptive
    refinement and by ``|f|`` at the spectrum projected into the annulus
    (interior values never exceed the boundary sup).  The sampled maxima are
    those of 4096 equispaced nodes per circle plus 512 per pole window, found
    by :func:`_sampled_sups` from a coarse pass and a Bernstein bound on the
    cells between its nodes.  Candidate violations are re-checked together,
    through the same routine, against a denser sampling (``1 << 15`` nodes
    plus 4096 per window) before one is accepted as a witness, so
    ``Refuted`` reports replay deterministically.

    For numerically normal input the operator norm is evaluated spectrally,
    as ``max |f|`` over the eigenvalues, which agrees with the factored
    evaluation to roundoff; one pass over the battery gives ``|f|`` at the
    eigenvalues and at their projections.  Otherwise the whole battery goes
    through one stacked factored evaluation (:func:`calculus.factored_norms`)
    in chunks of about 1 MB; it raises :class:`Singular` as
    :func:`calculus.eval_direct` would on the first function, in battery
    order, with a root on the spectrum.  Candidate witnesses then get the dense sup re-check.
    """
    m = linalg.as_matrix(t)
    norm_t = linalg.operator_norm(m)
    norm_rtinv = linalg.operator_norm(involution(m, r, tols))
    lams = linalg.spectrum(m)
    mods = np.abs(lams)
    spectrum_ok = bool(np.all(mods >= r - tols.verify_tol) and np.all(mods <= 1.0 + tols.verify_tol))
    is_normal = linalg.is_normal(m, tols, norm_t)
    probes = _clamp_to_annulus(lams, r)

    battery = _stress_battery(r, int(trials), int(seed))
    if is_normal:
        # one pass over the stack; its columns are independent, so each half
        # is bit for bit what a separate call gives
        vals = battery.stack.abs_at(np.concatenate([probes, lams]))
        denoms = np.maximum(battery.sups, vals[:, : lams.size].max(axis=1))
        nums = vals[:, lams.size :].max(axis=1)
    else:
        denoms = np.maximum(battery.sups, battery.stack.abs_at(probes).max(axis=1))
        nums = calculus.factored_norms(battery.stack, m, tols)
    ratios = nums / denoms
    max_ratio = 0.0
    witness = None
    flagged = np.nonzero(ratios > 1.0 + tols.verify_tol)[0]
    if flagged.size:
        candidates = [battery.functions[i] for i in flagged]
        dense = _sampled_sups(candidates, base_nodes=1 << 15, local_nodes=4096)
        for i, f, sup in zip(flagged, candidates, dense):
            ratios[i] = nums[i] / max(denoms[i], sup)
            if witness is None and ratios[i] > 1.0 + tols.verify_tol:
                witness = f
    max_ratio = float(ratios.max()) if ratios.size else 0.0
    if witness is not None:
        verdict = Verdict.REFUTED
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
        trials=int(trials),
        max_ratio=max_ratio,
        witness=witness,
        seed=int(seed),
        stress_route="spectral" if is_normal else "factored",
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
    scale = max(1.0, linalg.operator_norm(m) ** 2)
    comm = m.conj().T @ m - m @ m.conj().T
    basis = _orth(comm, tols.rank_tol * scale)
    while basis.shape[1] < n:
        grown = np.hstack([basis, m @ basis, m.conj().T @ basis])
        new_basis = _orth(grown, tols.rank_tol * max(1.0, linalg.operator_norm(m)))
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
    in particular) can be one.
    """
    m = linalg.as_matrix(t)
    _, p_cnn = cnn_split(m, tols)
    fully_cnn = linalg.operator_norm(p_cnn - np.eye(m.shape[0])) <= tols.verify_tol
    norm_one = abs(linalg.operator_norm(m) - 1.0) <= tols.verify_tol
    if fully_cnn and norm_one:
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
    """
    m = linalg.as_matrix(t)
    passes_window, norm_t = norm_window(m, r, tols)
    details = {
        "spectrum_in_annulus": spectrum_in_annulus(m, r, tols),
        "norm_window": passes_window,
        "norm_T": norm_t,
        "double_contraction": double_contraction_check(m, r, tols),
        "williams": williams_verdict(m, r, tols).value,
    }
    report = vonneumann_stress(m, r, trials, seed, tols)
    if report.verdict is not Verdict.REFUTED and details["williams"] == WilliamsVerdict.MINIMAL_DISK_REFUTATION.value:
        report = replace(report, verdict=Verdict.WILLIAMS_REFUTED, witness=None)
    return report, details


# ---------------------------------------------------------------------------
# Instance generators with provable ground truth
# ---------------------------------------------------------------------------


def normal_annulus_matrix(n: int, r: float, seed: int) -> np.ndarray:
    """Random normal matrix with eigenvalues in the closed annulus.

    Normality plus spectrum location makes these certified positives for the
    stress battery.
    """
    rng = linalg.seeded_rng(seed, 101)
    mods = r + (1.0 - r) * rng.random(n)
    lams = mods * np.exp(2j * np.pi * rng.random(n))
    q = linalg.random_unitary(n, seed * 2 + 1)
    return (q * lams[np.newaxis, :]) @ q.conj().T


def windowed_matrix(n: int, r: float, seed: int) -> np.ndarray:
    """Random matrix with singular values in ``[r, 1]``.

    Such matrices satisfy the double-contraction necessary condition:
    ``||T|| <= 1`` and ``||r T^{-1}|| = r / min sigma_i <= 1``.
    """
    rng = linalg.seeded_rng(seed, 202)
    svals = r + (1.0 - r) * rng.random(n)
    u = linalg.random_unitary(n, seed * 3 + 1)
    w = linalg.random_unitary(n, seed * 3 + 2)
    return (u * svals[np.newaxis, :]) @ w.conj().T
