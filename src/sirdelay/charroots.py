"""Numerical root scan for the transcendental characteristic function.

The characteristic function of the linearized delayed system is

    F(lam) = lam^3 + l*lam^2 + m*lam + n
             + (l1*lam + m1) * exp(-lam*tau) + n1 * exp(-lam*(tau+delta))

This module locates its roots inside a rectangle of the complex plane by
grid evaluation, Newton refinement with the analytic derivative, and
deduplication.  It is the independent oracle against which the closed-form
stability criteria are cross-checked: the sign of the rightmost root's
real part decides local stability.

Roots come back sorted by descending real part; complex conjugates are
implied (only Im >= 0 is reported).
"""

from __future__ import annotations

import cmath
import logging

import numpy as np

__all__ = [
    "char_value",
    "char_deriv",
    "char_roots_scan",
    "max_real_part",
]

log = logging.getLogger(__name__)

#: default search rectangle in the complex plane
DEFAULT_RE_RANGE = (-20.0, 5.0)
DEFAULT_IM_RANGE = (0.0, 50.0)
DEFAULT_GRID = 200

ROOT_ABS_TOL = 1e-9
DEDUP_TOL = 1e-8


def char_value(cc, tau: float, delta: float, lam: complex) -> complex:
    """F(lam) for characteristic coefficients ``cc`` at delays (tau, delta)."""
    return (
        lam**3 + cc.l * lam**2 + cc.m * lam + cc.n
        + (cc.l1 * lam + cc.m1) * cmath.exp(-lam * tau)
        + cc.n1 * cmath.exp(-lam * (tau + delta))
    )


def char_deriv(cc, tau: float, delta: float, lam: complex) -> complex:
    """dF/dlam, analytic."""
    return (
        3.0 * lam**2 + 2.0 * cc.l * lam + cc.m
        + (cc.l1 - tau * (cc.l1 * lam + cc.m1)) * cmath.exp(-lam * tau)
        - cc.n1 * (tau + delta) * cmath.exp(-lam * (tau + delta))
    )


def _grid_candidates(cc, tau, delta, re_range, im_range, grid):
    re = np.linspace(re_range[0], re_range[1], grid)
    im = np.linspace(im_range[0], im_range[1], grid)
    R, I = np.meshgrid(re, im)
    lam = R + 1j * I
    with np.errstate(all="ignore"):
        F = (
            lam**3 + cc.l * lam**2 + cc.m * lam + cc.n
            + (cc.l1 * lam + cc.m1) * np.exp(-lam * tau)
            + cc.n1 * np.exp(-lam * (tau + delta))
        )
        A = np.abs(F)
    A = np.where(np.isfinite(A), A, np.inf)
    # local minima of |F|, boundary cells included via +inf padding
    P = np.pad(A, 1, constant_values=np.inf)
    mins = np.ones_like(A, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            mins &= A <= P[1 + di:1 + di + grid, 1 + dj:1 + dj + grid]
    mins &= np.isfinite(A)
    return [complex(lam[i, j]) for i, j in np.argwhere(mins)]


def _newton(cc, tau, delta, z0, max_iter=80):
    z = z0
    try:
        for _ in range(max_iter):
            d = char_deriv(cc, tau, delta, z)
            if d == 0:
                return None
            step = char_value(cc, tau, delta, z) / d
            z -= step
            # exp(-z*(tau+delta)) overflows once Newton strays far left
            if z.real * (tau + delta) < -600.0:
                return None
            if abs(step) < 1e-13 * (1.0 + abs(z)):
                break
        if abs(char_value(cc, tau, delta, z)) < ROOT_ABS_TOL:
            return z
    except OverflowError:
        return None
    return None


def char_roots_scan(
    cc,
    tau: float,
    delta: float,
    re_range=DEFAULT_RE_RANGE,
    im_range=DEFAULT_IM_RANGE,
    grid: int = DEFAULT_GRID,
):
    """Roots of F inside the given rectangle, descending by real part.

    Grid cells that are local minima of |F| seed Newton iterations (the
    seed plus its immediate neighbours, so nearly coincident roots
    separate).  Converged points with |F| < 1e-9 are kept, deduplicated at
    1e-8, snapped to the real axis when |Im| < 1e-10, and conjugated into
    the upper half plane.
    """
    cells = _grid_candidates(cc, tau, delta, re_range, im_range, grid)
    if not cells:
        log.warning(
            "no root candidates in box Re=%s Im=%s at grid %d; consider a finer grid",
            re_range, im_range, grid,
        )
        return []
    hre = (re_range[1] - re_range[0]) / (grid - 1)
    him = (im_range[1] - im_range[0]) / (grid - 1)
    roots = []
    for z0 in cells:
        seeds = [z0, z0 + hre, z0 - hre, z0 + 1j * him, z0 - 1j * him]
        for seed in seeds:
            z = _newton(cc, tau, delta, seed)
            if z is None:
                continue
            if abs(z.imag) < 1e-10:
                z = complex(z.real, 0.0)
            if z.imag < 0.0:
                z = z.conjugate()
            # keep only roots inside (or a hair outside) the requested box
            if not (re_range[0] - hre <= z.real <= re_range[1] + hre):
                continue
            if z.imag > im_range[1] + him:
                continue
            if not any(abs(z - w) < DEDUP_TOL for w in roots):
                roots.append(z)
    roots.sort(key=lambda w: (-w.real, w.imag))
    return roots


def max_real_part(cc, tau: float, delta: float, **kw):
    """Real part of the rightmost root found in the (default) search box.

    Returns None when the scan yields nothing.
    """
    roots = char_roots_scan(cc, tau, delta, **kw)
    return roots[0].real if roots else None

