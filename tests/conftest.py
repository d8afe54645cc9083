"""Shared generators for the test suite (all seeded, no global state)."""

from __future__ import annotations

import numpy as np

from annulus_lab import linalg, rational
from annulus_lab.rational import AnnulusRational


def normal_with_moduli(moduli, seed):
    """Normal matrix with prescribed eigenvalue moduli and random phases."""
    moduli = np.asarray(moduli, dtype=float)
    rng = linalg.seeded_rng(seed, 7)
    lams = moduli * np.exp(2j * np.pi * rng.random(moduli.size))
    q = linalg.random_unitary(moduli.size, seed + 1000003)
    return (q * lams[np.newaxis, :]) @ q.conj().T, lams


def open_annulus_normal(n, r, seed):
    """Normal matrix with spectrum strictly inside the open annulus."""
    rng = linalg.seeded_rng(seed, 8)
    pad = 0.08 * (1.0 - r)
    moduli = (r + pad) + (1.0 - r - 2 * pad) * rng.random(n)
    return normal_with_moduli(moduli, seed)[0]


def random_function(
    r,
    seed,
    max_roots=3,
    alpha_window=(1.5, 4.0),
    beta_window_div=(4.0, 1.67),
    max_degree=3,
):
    """Random rational with controlled pole clearances (tails reachable)."""
    rng = linalg.seeded_rng(seed, 9)
    k1 = int(rng.integers(0, max_roots + 1))
    k2 = int(rng.integers(0, max_roots + 1))
    lo, hi = alpha_window
    q1 = tuple(
        np.exp(np.log(lo) + (np.log(hi) - np.log(lo)) * rng.random())
        * np.exp(2j * np.pi * rng.random())
        for _ in range(k1)
    )
    blo, bhi = r / beta_window_div[0], r / beta_window_div[1]
    q2 = tuple(
        np.exp(np.log(blo) + (np.log(bhi) - np.log(blo)) * rng.random())
        * np.exp(2j * np.pi * rng.random())
        for _ in range(k2)
    )
    deg = int(rng.integers(0, max_degree + 1))
    p = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) / np.sqrt(2)
    if not np.any(p):
        p = np.array([1.0 + 0j])
    f = AnnulusRational(r=r, p_coeffs=tuple(p), q1_roots=q1, q2_roots=q2)
    rational.validate(f)
    return f


# (outer roots, inner roots, numerator degree) of the benchmark's functions
SHAPES = ((1, 1, 1), (2, 1, 2), (1, 2, 0), (2, 2, 3), (3, 1, 1), (1, 3, 2))


def shaped_function(r, seed, shape):
    """Rational of a fixed shape: outer roots of modulus in [1.5, 4], inner
    roots in [r/4, r/1.67]."""
    rng = np.random.default_rng(seed)
    k1, k2, deg = shape
    q1 = tuple(np.exp(rng.uniform(np.log(1.5), np.log(4.0)) + 2j * np.pi * rng.random()) for _ in range(k1))
    q2 = tuple(r * np.exp(rng.uniform(np.log(1 / 4.0), np.log(1 / 1.67)) + 2j * np.pi * rng.random()) for _ in range(k2))
    p = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) / np.sqrt(2.0)
    f = AnnulusRational(r=r, p_coeffs=tuple(p), q1_roots=q1, q2_roots=q2)
    rational.validate(f)
    return f


def commuting_contraction_pair(n, seed):
    """Commuting contraction pair: a windowed matrix and a polynomial in it."""
    rng = linalg.seeded_rng(seed, 11)
    svals = 0.35 + 0.6 * rng.random(n)
    u = linalg.random_unitary(n, seed * 5 + 1)
    w = linalg.random_unitary(n, seed * 5 + 2)
    t1 = (u * svals[np.newaxis, :]) @ w.conj().T
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    t2 = c[0] * np.eye(n) + c[1] * t1 + c[2] * t1 @ t1
    t2 = t2 / (linalg.operator_norm(t2) * (1.0 + 1e-12))
    return t1, t2
