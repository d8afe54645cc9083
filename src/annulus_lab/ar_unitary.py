"""Normal operators with spectrum on the two boundary circles.

Such an operator splits uniquely into a unitary part (eigenvalues of modulus
one) and an ``r``-scaled unitary part (modulus ``r``); both subspaces reduce
it.  :func:`decompose` extracts the split spectrally and cross-checks the
projectors against the resolvent-integral route; :func:`membership_subspaces`
recovers the same subspaces from the norm-preservation conditions
``||N^n h|| = ||h|| = ||N*^n h||`` (and their ``r``-scaled analogues through
``r N^{-1}``), which pins the decomposition without any eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus, linalg
from .errors import NoSpectralGap, NotArUnitary, NotUnitary
from .linalg import DEFAULT_TOLS, Tolerances


def is_ar_unitary(n, r: float, tols: Tolerances = DEFAULT_TOLS) -> bool:
    """True iff ``N`` is normal and every eigenvalue modulus is near 1 or r;
    both read off ``N``'s :func:`linalg.analysis`."""
    linalg.require_radius(r)
    m = linalg.as_matrix(n)
    if m.shape[0] != m.shape[1]:
        return False
    facts = linalg.analysis(m)
    if not facts.is_normal(tols):
        return False
    mods = np.abs(facts.spectrum)
    near = np.minimum(np.abs(mods - 1.0), np.abs(mods - r))
    return bool(np.all(near <= 10 * tols.eig_tol))


def make_ar_unitary(u1, u2, r: float, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Block-diagonal ``diag(U1, r U2)`` from two unitaries (either may be empty)."""
    linalg.require_radius(r)
    m1 = linalg.as_matrix(u1, allow_empty=True)
    m2 = linalg.as_matrix(u2, allow_empty=True)
    for name, mat in (("U1", m1), ("U2", m2)):
        if mat.shape[0] != mat.shape[1]:
            raise NotUnitary(f"{name} is not square")
        if mat.shape[0] and linalg.operator_norm(
            mat.conj().T @ mat - np.eye(mat.shape[0])
        ) > tols.verify_tol:
            raise NotUnitary(f"{name} is not unitary within tolerance")
    k1, k2 = m1.shape[0], m2.shape[0]
    out = np.zeros((k1 + k2, k1 + k2), dtype=complex)
    out[:k1, :k1] = m1
    out[k1:, k1:] = r * m2
    return out


@dataclass(frozen=True, eq=False)
class ArUnitaryDecomposition:
    """Split of an annulus-boundary normal into its two unitary parts.

    ``p1``/``p2`` project onto the modulus-one and modulus-``r`` spectral
    subspaces; ``u1 = basis1* N basis1`` and ``u2 = basis2* N basis2 / r`` are
    the compressed unitaries in the stored orthonormal bases.  ``residual``
    aggregates every invariant defect, including the disagreement with the
    resolvent-integral projector, computed with ``contour_nodes`` trapezoid
    nodes per circle.  Two are equal only when they are one object.
    """

    p1: np.ndarray
    p2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    basis1: np.ndarray
    basis2: np.ndarray
    residual: float
    contour_nodes: int


def decompose(n, r: float, tols: Tolerances = DEFAULT_TOLS) -> ArUnitaryDecomposition:
    """Extract the two-circle split of an annulus-boundary normal matrix."""
    linalg.require_radius(r)
    m = linalg.as_matrix(n)
    if not is_ar_unitary(m, r, tols):
        raise NotArUnitary("input is not normal with spectrum on the two circles")
    if 1.0 - r <= 20 * tols.eig_tol:
        raise NoSpectralGap("inner radius too close to 1 to separate the circles")
    dim = m.shape[0]
    eig = linalg.eig_normal(m, tols)
    mods = np.abs(eig.lambdas)
    outer = np.abs(mods - 1.0) <= np.abs(mods - r)
    basis1 = eig.q[:, outer]
    basis2 = eig.q[:, ~outer]
    p1 = basis1 @ basis1.conj().T
    p2 = basis2 @ basis2.conj().T
    u1 = basis1.conj().T @ m @ basis1
    u2 = basis2.conj().T @ m @ basis2 / r
    defects = [
        eig.residual,
        linalg.operator_norm(p1 + p2 - np.eye(dim)),
        linalg.operator_norm(p1 @ p2),
        linalg.operator_norm(m @ p1 - p1 @ m @ p1),
        linalg.operator_norm(m @ p2 - p2 @ m @ p2),
    ]
    if basis1.shape[1]:
        defects.append(
            linalg.operator_norm(u1.conj().T @ u1 - np.eye(basis1.shape[1]))
        )
    if basis2.shape[1]:
        defects.append(
            linalg.operator_norm(u2.conj().T @ u2 - np.eye(basis2.shape[1]))
        )
    # independent route: resolvent integral around the outer circle; the
    # trapezoid rate degrades with the shrinking gap, so nodes scale with
    # it.  At r <= 0.2 that delta would leave no inner circle (delta >= r),
    # so the integral goes around the inner circle, at delta = r / 2, where
    # every rate is at most 0.6 and the clamp's 512 nodes are plenty.
    nodes = calculus.clamp_nodes(64.0 * (1.0 + r) / (1.0 - r))
    if r > 0.2:
        spec = calculus.ContourSpec(delta=0.25 * (1.0 - r), nodes=nodes)
        p1_contour = calculus.riesz_projection(m, calculus.SpectralPart.OUTER, spec, r, tols)
    else:
        spec = calculus.ContourSpec(delta=0.5 * r, nodes=nodes)
        p1_contour = np.eye(dim) - calculus.riesz_projection(m, calculus.SpectralPart.INNER, spec, r, tols)
    defects.append(linalg.operator_norm(p1 - p1_contour))
    return ArUnitaryDecomposition(
        p1=p1,
        p2=p2,
        u1=u1,
        u2=u2,
        basis1=basis1,
        basis2=basis2,
        residual=float(max(defects)),
        contour_nodes=nodes,
    )


def membership_subspaces(
    n, r: float, n_max: int = 2, tols: Tolerances = DEFAULT_TOLS
) -> tuple[np.ndarray, np.ndarray]:
    """Projectors from the norm-preservation conditions alone.

    ``P1`` projects onto the joint kernel of ``I - N(k)* N(k)`` and
    ``I - N(k) N(k)*`` for ``k = 1..n_max``; ``P2`` does the same with
    ``r N^{-1}`` in place of ``N`` (the equivalent positive-power reading of
    the ``r``-scaled decay conditions).  Must agree with :func:`decompose`.
    ``n_max`` is an integer >= 1 (numpy's too, not a ``bool``).
    """
    n_max = linalg.as_integer(n_max, "n_max", 1)
    m = linalg.as_matrix(n)
    if not is_ar_unitary(m, r, tols):
        raise NotArUnitary("input is not normal with spectrum on the two circles")
    s = linalg.involution(m, r, tols)
    return _norm_kernel(m, n_max, tols), _norm_kernel(s, n_max, tols)


def _norm_kernel(m: np.ndarray, n_max: int, tols: Tolerances) -> np.ndarray:
    dim = m.shape[0]
    eye = np.eye(dim)
    blocks = []
    power = eye
    for _ in range(n_max):
        power = power @ m
        blocks.append(eye - power.conj().T @ power)
        blocks.append(eye - power @ power.conj().T)
    stack = np.vstack(blocks)
    _, svals, vh = np.linalg.svd(stack, full_matrices=True)
    threshold = tols.rank_tol * max(1.0, svals[0] if svals.size else 0.0)
    rank = int(np.sum(svals > threshold))
    kernel = vh.conj().T[:, rank:]
    return kernel @ kernel.conj().T
