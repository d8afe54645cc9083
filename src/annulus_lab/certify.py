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
from dataclasses import dataclass
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


def _pole_refined_sup(f: AnnulusRational, base_nodes: int = 4096, local_nodes: int = 512) -> float:
    """Sampled sup-norm lower bound with extra nodes clustered near poles.

    Equispaced sampling alone misses narrow peaks created by poles close to a
    boundary circle; a local window of width ~32x the pole clearance around
    each projected pole keeps the relative deficit at the square of the local
    spacing over the clearance.
    """
    sup = rational.boundary_sup_norm(f, base_nodes)
    windows = []
    for a in f.q1_roots:
        dist = abs(a) - 1.0
        if dist < 0.2:
            windows.append((1.0, np.angle(a), min(32.0 * dist, np.pi / 4)))
    for b in f.q2_roots:
        dist = f.r - abs(b)
        if 0 < dist < 0.2 * f.r:
            windows.append((f.r, np.angle(b), min(32.0 * dist / f.r, np.pi / 4)))
    for radius, theta0, half_width in windows:
        theta = theta0 + np.linspace(-half_width, half_width, local_nodes)
        vals = np.abs(rational.evaluate(f, radius * np.exp(1j * theta)))
        sup = max(sup, float(vals.max()))
    return sup


@dataclass(frozen=True)
class _Battery:
    """Test-function battery with sup bounds and padded evaluation stacks."""

    functions: tuple
    sups: np.ndarray
    p_pad: np.ndarray
    roots_pad: np.ndarray
    roots_mask: np.ndarray
    scale: np.ndarray

    def eval_abs(self, points: np.ndarray) -> np.ndarray:
        """``|f_i(z_j)|`` for the whole battery at once, shape (n_f, n_z)."""
        z = points[np.newaxis, :]
        num = np.zeros((self.p_pad.shape[0], points.size), dtype=complex)
        for k in range(self.p_pad.shape[1] - 1, -1, -1):
            num = num * z + self.p_pad[:, k : k + 1]
        den = np.repeat(self.scale[:, np.newaxis], points.size, axis=1)
        for k in range(self.roots_pad.shape[1]):
            factor = np.where(
                self.roots_mask[:, k : k + 1], z - self.roots_pad[:, k : k + 1], 1.0
            )
            den = den * factor
        return np.abs(num / den)


@lru_cache(maxsize=8)
def _stress_battery(r: float, trials: int, seed: int) -> _Battery:
    """Deterministic battery of test functions with precomputed sup bounds.

    Trials 0 and 1 are the canonical probes ``z`` and ``r/z`` (they expose
    norm-window violations exactly); the rest follow the documented random
    distribution.  Cached so repeated certifications against the same battery
    (e.g. a corpus sweep) pay the sampling cost once.
    """
    probes = [
        AnnulusRational(r=r, p_coeffs=(0.0, 1.0)),
        AnnulusRational(r=r, p_coeffs=(r,), q2_roots=(0.0,)),
    ]
    functions = []
    sups = []
    for i in range(trials):
        if i < len(probes):
            f = probes[i]
        else:
            f = sample_test_function(r, linalg.seeded_rng(seed, 17, i))
        functions.append(f)
        sups.append(max(rational.boundary_sup_norm(f, 1024), _pole_refined_sup(f)))
    if not functions:
        empty = np.zeros((0, 1))
        return _Battery(
            functions=(),
            sups=np.zeros(0),
            p_pad=empty.astype(complex),
            roots_pad=empty.astype(complex),
            roots_mask=empty.astype(bool),
            scale=np.zeros(0, dtype=complex),
        )
    max_p = max(len(f.p_coeffs) for f in functions)
    max_roots = max(len(f.q1_roots) + len(f.q2_roots) for f in functions)
    p_pad = np.zeros((trials, max_p), dtype=complex)
    roots_pad = np.zeros((trials, max(max_roots, 1)), dtype=complex)
    roots_mask = np.zeros((trials, max(max_roots, 1)), dtype=bool)
    scale = np.empty(trials, dtype=complex)
    for i, f in enumerate(functions):
        p_pad[i, : len(f.p_coeffs)] = f.p_coeffs
        roots = f.q1_roots + f.q2_roots
        roots_pad[i, : len(roots)] = roots
        roots_mask[i, : len(roots)] = True
        scale[i] = f.scale
    return _Battery(
        functions=tuple(functions),
        sups=np.array(sups),
        p_pad=p_pad,
        roots_pad=roots_pad,
        roots_mask=roots_mask,
        scale=scale,
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
    (interior values never exceed the boundary sup).  A candidate violation is
    re-checked against a denser sampling before it is accepted as a witness,
    so ``Refuted`` reports replay deterministically.  For numerically normal
    input the operator norm is evaluated spectrally, which agrees with the
    factored evaluation to roundoff.
    """
    m = linalg.as_matrix(t)
    norm_t = linalg.operator_norm(m)
    norm_rtinv = linalg.operator_norm(involution(m, r, tols))
    lams = linalg.spectrum(m)
    mods = np.abs(lams)
    spectrum_ok = bool(np.all(mods >= r - tols.verify_tol) and np.all(mods <= 1.0 + tols.verify_tol))
    comm = m.conj().T @ m - m @ m.conj().T
    is_normal = linalg.operator_norm(comm) <= tols.eig_tol * max(norm_t**2, np.finfo(float).tiny)
    probes = _clamp_to_annulus(lams, r)

    battery = _stress_battery(r, int(trials), int(seed))
    denoms = np.maximum(battery.sups, battery.eval_abs(probes).max(axis=1))
    if is_normal:
        nums = battery.eval_abs(lams).max(axis=1)
    else:
        nums = np.array(
            [
                linalg.operator_norm(calculus.eval_direct(f, m, tols))
                for f in battery.functions
            ]
        )
    ratios = nums / denoms
    max_ratio = 0.0
    witness = None
    for i in np.nonzero(ratios > 1.0 + tols.verify_tol)[0]:
        f = battery.functions[int(i)]
        denom = max(denoms[i], _pole_refined_sup(f, base_nodes=1 << 15, local_nodes=4096))
        ratios[i] = nums[i] / denom
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
        report = CertificationReport(
            verdict=Verdict.WILLIAMS_REFUTED,
            r=report.r,
            norm_t=report.norm_t,
            norm_rtinv=report.norm_rtinv,
            spectrum_ok=report.spectrum_ok,
            trials=report.trials,
            max_ratio=report.max_ratio,
            witness=None,
            seed=report.seed,
        )
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
