"""Certified roots of the characteristic function of the linearized system,

    F(lam) = lam^3 + l*lam^2 + m*lam + n
             + (l1*lam + m1) * exp(-lam*tau) + n1 * exp(-lam*(tau+delta)):

the oracle that checks the closed-form stability criteria.  Without delay
(tau + delta = 0 or l1 = m1 = n1 = 0) the roots are the eigenvalues of the
cubic's companion matrix.  Otherwise the infinitesimal generator of the
companion realization u' = A0 u(t) + Atau u(t-tau) + Ataudelta u(t-tau-delta)
is collocated on N + 1 Chebyshev nodes over [-(tau+delta), 0] (Breda, Maset
& Vermiglio, SIAM J. Sci. Comput. 27, 2005) and Newton on F polishes its
eigenvalues (DDE-BIFTOOL: Engelborghs, Luzyanina & Roose, ACM TOMS 28, 2002).

Contract: every root with Re > -EPS (so lam = 0 too) is returned, certified
by equality, conjugates counted, with the argument-principle count of zeros
in Re > -EPS, |lam| < R, where R bounds all roots there; failing that, N
doubles up to DOUBLINGS times, then DomainError is raised.  A root with
Re <= -EPS is returned only when an eigenvalue lies within RESOLVED_TOL of
it, relative, so the list does not depend on Newton's basins.  Every root
has |F| < 1e-9; roots come by descending real part, with Im >= 0 only.
``certified_sign`` reads the count alone: -1 certifies that no root has
Re > -EPS, so max Re < 0; +1 that a root has Re > EPS, so max Re > 0; 0
certifies nothing (a root within EPS of the axis, or the count refused).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError

__all__ = ["char_value", "char_deriv", "char_roots_scan", "certified_sign", "max_real_part"]

ROOT_ABS_TOL = 1e-9
DEDUP_TOL = 1e-8
EPS = 1e-6
NODES = 12
DOUBLINGS = 3
RESOLVED_TOL = 1e-3
NEWTON_MAX_ITER = 80


def _char_pair(cc, tau, delta, lam):
    """(F(lam), dF/dlam) in one pass that shares the two exponentials."""
    e_tau, e_h = cmath.exp(-lam * tau), cmath.exp(-lam * (tau + delta))
    return (
        lam**3 + cc.l * lam**2 + cc.m * lam + cc.n + (cc.l1 * lam + cc.m1) * e_tau + cc.n1 * e_h,
        3.0 * lam**2 + 2.0 * cc.l * lam + cc.m
        + (cc.l1 - tau * (cc.l1 * lam + cc.m1)) * e_tau - cc.n1 * (tau + delta) * e_h,
    )


def char_value(cc, tau: float, delta: float, lam: complex) -> complex:
    """F(lam) for characteristic coefficients ``cc`` at delays (tau, delta)."""
    return _char_pair(cc, tau, delta, lam)[0]


def char_deriv(cc, tau: float, delta: float, lam: complex) -> complex:
    """dF/dlam, analytic."""
    return _char_pair(cc, tau, delta, lam)[1]


def _newton(cc, tau, delta, z):
    try:
        for _ in range(NEWTON_MAX_ITER):
            value, d = _char_pair(cc, tau, delta, z)
            if d == 0:
                break
            step = value / d
            z -= step
            # exp(-z*(tau+delta)) overflows once Newton strays far left
            if z.real * (tau + delta) < -600.0:
                return None
            if abs(step) < 1e-13 * (1.0 + abs(z)):
                break
        return z if abs(char_value(cc, tau, delta, z)) < ROOT_ABS_TOL else None
    except OverflowError:
        return None


def _generator(cc, tau, delta, n):
    """The generator collocated at theta_k = (tau+delta)(cos(k pi/n) - 1)/2."""
    k = np.arange(n + 1)
    theta = 0.5 * (tau + delta) * (np.cos(np.pi * k / n) - 1.0)
    w = (-1.0) ** k  # barycentric weights
    w[[0, n]] *= 0.5
    D = w[None, :] / w[:, None] / (theta[:, None] - theta[None, :] + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))  # the diagonal, 1 so far, becomes -(off-diagonal row sum)
    gap = -tau - theta
    at_tau = 1.0 * (gap == 0.0) if (gap == 0.0).any() else (w / gap) / (w / gap).sum()
    M = np.kron(D, np.eye(3))
    M[:3] = 0.0
    M[0, 1] = M[1, 2] = 1.0
    M[2, :3] = (-cc.n, -cc.m, -cc.l)
    M[2, 0::3] -= cc.m1 * at_tau
    M[2, 1::3] -= cc.l1 * at_tau
    M[2, 3 * n] -= cc.n1  # theta_n = -(tau+delta)
    return M


def _unstable_count(cc, tau, delta, sigma=-EPS):
    """Zeros of F in Re > sigma >= -EPS, |lam| < R: the winding of F along the
    upper half of the contour (arc from R, then down Re = sigma) over pi, with
    each interval that F turns by more than pi/4 across cut in 8 until none does."""
    h = tau + delta
    R = math.exp(EPS * h) * (1.0 + max(
        abs(cc.l), abs(cc.m) + abs(cc.l1), abs(cc.n) + abs(cc.m1) + abs(cc.n1)))
    top = math.acos(sigma / R)
    if R * h > 1e5:  # the contour takes about 8*R*h samples
        raise DomainError(f"tau + delta = {h:g} is too long to certify the roots")

    def f(s):
        lam = np.where(s < 0.5, R * np.exp(2j * top * s),
                       sigma + 2j * R * math.sin(top) * (1.0 - s))
        return (lam**3 + cc.l * lam**2 + cc.m * lam + cc.n
                + (cc.l1 * lam + cc.m1) * np.exp(-lam * tau) + cc.n1 * np.exp(-lam * h))

    s = np.linspace(0.0, 1.0, 64 + int(8.0 * R * h))
    fs = f(s)
    a, b, fa, fb, winding = s[:-1], s[1:], fs[:-1], fs[1:], 0.0
    for _ in range(64):
        turn = np.angle(fb / fa)
        fine = np.abs(turn) <= np.pi / 4
        winding += turn[fine].sum()
        if fine.all():
            return round(winding / np.pi)
        s = a[~fine, None] + (b - a)[~fine, None] * np.linspace(0.0, 1.0, 9)
        fs = np.column_stack((fa[~fine], f(s[:, 1:-1]), fb[~fine]))
        a, b, fa, fb = s[:, :-1].ravel(), s[:, 1:].ravel(), fs[:, :-1].ravel(), fs[:, 1:].ravel()
    raise DomainError(f"argument principle unresolved at tau={tau:g}, delta={delta:g}")


def _polish(cc, tau, delta, eigs):
    roots = []
    for mu in eigs:
        z = _newton(cc, tau, delta, complex(mu))
        if z is not None:
            z = complex(z.real, 0.0 if abs(z.imag) < 1e-10 else abs(z.imag))
            if not any(abs(z - w) < DEDUP_TOL for w in roots):
                roots.append(z)
    return roots


def char_roots_scan(cc, tau: float, delta: float):
    """Roots of F by descending real part: all with Re > -EPS, certified, and the
    stable ones the collocation resolves.  DomainError if certification fails."""
    if tau + delta == 0.0 or cc.l1 == cc.m1 == cc.n1 == 0.0:
        roots = _polish(cc, tau, delta, np.roots(cc.zero_delay()))
    else:
        count = _unstable_count(cc, tau, delta)
        for n in NODES * 2 ** np.arange(DOUBLINGS + 1):
            eigs = np.linalg.eigvals(_generator(cc, tau, delta, n))
            roots = _polish(cc, tau, delta, eigs[eigs.imag >= 0.0])
            found = sum(1 if z.imag == 0.0 else 2 for z in roots if z.real > -EPS)
            if found == count:
                break
        else:
            raise DomainError(f"root certificate failed: {found} roots found, {count} counted")
        roots = [z for z in roots if z.real > -EPS
                 or np.abs(eigs - z).min() <= RESOLVED_TOL * (1.0 + abs(z))]
    return sorted(roots, key=lambda w: (-w.real, w.imag))


def certified_sign(cc, tau: float, delta: float) -> int:
    """-1, +1 or 0: the sign of max Re that the count alone certifies (module docstring)."""
    try:
        if _unstable_count(cc, tau, delta) == 0:
            return -1
        return 1 if _unstable_count(cc, tau, delta, EPS) > 0 else 0
    except DomainError:
        return 0


def max_real_part(cc, tau: float, delta: float):
    """Real part of the rightmost root ``char_roots_scan`` returns, or None."""
    roots = char_roots_scan(cc, tau, delta)
    return roots[0].real if roots else None
