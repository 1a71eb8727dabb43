"""Real roots of scalar equations: closed-form cubics (and degenerate
lower-degree polynomials), and Brent-Dekker on a sign-changing bracket."""

from __future__ import annotations

import math

from .errors import DomainError, check_finite

__all__ = ["brent", "solve_cubic_real"]


def brent(g, lo, hi):
    """A root of g on [lo, hi] by Brent-Dekker: inverse quadratic or secant
    steps, bisection where they fall short (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4).  Stops only where g is
    exactly 0 or the bracket is narrower than 1e-15 * max(1, hi); None when
    g(lo) and g(hi) are nonzero and share a sign."""
    a, b, fa, fb = lo, hi, g(lo), g(hi)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        return None
    tol = 0.5e-15 * max(1.0, hi)  # half the width bound
    c, fc, d, e = a, fa, b - a, b - a  # d and e: the last two steps
    for _ in range(300):
        if (fb > 0.0) == (fc > 0.0):  # keep the root between b and c
            c, fc, d, e = a, fa, b - a, b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        m = 0.5 * (c - b)
        if fb == 0.0 or abs(m) <= tol:
            return b
        num = den = 0.0
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                num, den = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                num = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                den = (q - 1.0) * (r - 1.0) * (s - 1.0)
            num, den = abs(num), -den if num > 0.0 else den
        if 2.0 * num < min(3.0 * m * den - abs(tol * den), abs(e * den)):
            d, e = num / den, d
        else:
            d = e = m  # bisect: interpolation would leave the bracket or stall
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = g(b)
    return b


def _polish(c3, c2, c1, c0, x):
    # Newton steps push the residual to round-off; repeated roots converge
    # linearly, hence the extra iterations
    for _ in range(6):
        f = ((c3 * x + c2) * x + c1) * x + c0
        fp = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if fp == 0.0:
            break
        x -= f / fp
    return x


def _quadratic(c2, c1, c0, tiny):
    # real roots of c2*x^2 + c1*x + c0, coefficients within tiny taken as zero
    if abs(c2) <= tiny:
        if abs(c1) <= tiny:
            return []  # nonzero constant: no roots
        return [-c0 / c1]
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    if disc <= 1e-15 * c1 * c1:
        # a double root within round-off, where Newton's slope is noise
        return [-0.5 * c1 / c2 if c1 else 0.0]
    sq = math.sqrt(disc)
    # numerically stable split
    q = -0.5 * (c1 + math.copysign(sq, c1)) if c1 != 0.0 else 0.5 * sq
    roots = sorted(set(round(r, 15) for r in (q / c2, c0 / q)))
    return [_polish(0.0, c2, c1, c0, r) for r in roots]


def solve_cubic_real(c3: float, c2: float, c1: float, c0: float):
    """All real roots of c3*x^3 + c2*x^2 + c1*x + c0 = 0, sorted ascending.

    Handles degenerate leading coefficients (quadratic, linear).  Multiple
    roots are collapsed to a single entry.  Raises DomainError for the
    identically zero polynomial.  Each returned root r satisfies
    |p(r)| < 1e-9 * max(1, |c3|, |c2|, |c1|, |c0|); at c3 = 0 it is not checked.
    """
    check_finite("cubic coefficient", c3, c2, c1, c0)
    scale = max(abs(c3), abs(c2), abs(c1), abs(c0))
    if scale == 0.0:
        raise DomainError("identically zero polynomial has no well-defined roots")
    tiny = 1e-14 * scale
    if c3 == 0.0:
        return _quadratic(c2, c1, c0, tiny)

    near = []
    if abs(c3) <= tiny:
        # the cubic term is small next to the others, but not where the
        # roots are large: the rest's roots and the far root it adds (the
        # three sum to -c2/c3), polished on the whole cubic, are candidates
        # next to the closed form's, which loses roots spread too widely
        rest = _quadratic(c2, c1, c0, tiny) + ([c1 / c2 - c2 / c3] if abs(c2) > tiny else [])
        near = [_polish(c3, c2, c1, c0, x) for x in rest] + rest
        if abs(c3) < 1e-50 * scale:  # the closed form would overflow
            return _checked(c3, c2, c1, c0, near)

    if c1 == 0.0 and c0 == 0.0:
        # x^2 * (c3*x + c2): exact, where Newton would converge only linearly
        # to the double root at zero and leave two copies of it
        return sorted({0.0, -c2 / c3})

    # depressed form t^3 + p*t + q with x = t - c2/(3*c3)
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    shift = b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    disc = -4.0 * p**3 - 27.0 * q * q
    # band around zero discriminant: 16 unit round-offs (2**-53) of p's, q's
    # and disc's terms, so a double root lands inside it, and distinct roots
    # only as close as their own round-off (about 6e-8 relative, centred)
    err_p = abs(c) + b * b / 3.0
    err_q = 2.0 * abs(b) ** 3 / 27.0 + abs(b * c) / 3.0 + abs(d)
    disc_tol = 1.78e-15 * (12.0 * p * p * err_p + 54.0 * abs(q) * err_q
                           + 4.0 * abs(p) ** 3 + 27.0 * q * q)
    half_q = q / 2.0
    inner = half_q * half_q + p**3 / 27.0  # -disc / 108
    # multiple roots are not polished: Newton's slope there is round-off
    if abs(p) < 1e-14 * b * b and abs(q) < 1e-14 * max(abs(b) ** 3, abs(d)):
        xs = [-shift]  # a triple root
    elif abs(disc) <= disc_tol and p != 0.0:
        # a double root: the depressed cubic is (t - t2)^2 (t + 2*t2) with
        # t2 = -3q/(2p) (Kahan, "To solve a real cubic equation", 1986;
        # Blinn, IEEE CG&A 2006-07)
        t2 = -1.5 * q / p
        xs = [t2 - shift, _polish(c3, c2, c1, c0, -2.0 * t2 - shift)]
    elif inner < 0.0:
        # three distinct real roots: trigonometric form (p < 0 here)
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = max(-1.0, min(1.0, 3.0 * q / (p * m)))
        theta = math.acos(arg)
        roots = [m * math.cos((theta - 2.0 * math.pi * k) / 3.0) for k in range(3)]
        xs = [_polish(c3, c2, c1, c0, t - shift) for t in roots]
    else:
        s = math.sqrt(inner)
        u = math.copysign(abs(-half_q + s) ** (1.0 / 3.0), -half_q + s)
        v = math.copysign(abs(-half_q - s) ** (1.0 / 3.0), -half_q - s)
        xs = [_polish(c3, c2, c1, c0, u + v - shift)]
    return _checked(c3, c2, c1, c0, xs + near)


def _checked(c3, c2, c1, c0, xs):
    """The candidate roots ``xs`` whose residual is below the documented
    bound, sorted, with roots within 1e-9 of each other, relative to the
    larger, kept once."""
    out = []
    bound = 1e-9 * max(1.0, abs(c3), abs(c2), abs(c1), abs(c0))
    for x in xs:
        if not abs(((c3 * x + c2) * x + c1) * x + c0) < bound:
            continue  # near-degenerate partner that is not actually a root, or NaN
        if not any(abs(x - w) <= 1e-9 * max(abs(x), abs(w)) for w in out):
            out.append(x)
    out.sort()
    return out
