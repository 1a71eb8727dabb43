"""Real roots of scalar equations: closed-form cubics (and degenerate
lower-degree polynomials), and bisection on a sign-changing bracket."""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["bisect", "solve_cubic_real"]


def bisect(g, lo, hi):
    """A root of g on [lo, hi] by bisection, stopping once |g| < 1e-12 or the
    bracket is narrower than 1e-15 * max(1, hi); None when g(lo) and g(hi)
    are nonzero and share a sign."""
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if (glo > 0.0) == (ghi > 0.0):
        return None
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(gm) < 1e-12 or hi - lo < 1e-15 * max(1.0, hi):
            return mid
        if (gm > 0.0) == (glo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def solve_cubic_real(c3: float, c2: float, c1: float, c0: float):
    """All real roots of c3*x^3 + c2*x^2 + c1*x + c0 = 0, sorted ascending.

    Handles degenerate leading coefficients (quadratic, linear).  Multiple
    roots are collapsed to a single entry.  Raises DomainError for the
    identically zero polynomial.  Each returned root r satisfies
    |p(r)| < 1e-9 * max(1, |c3|, |c2|, |c1|, |c0|).
    """
    for v in (c3, c2, c1, c0):
        if not math.isfinite(v):
            raise DomainError(f"non-finite cubic coefficient {v!r}")
    scale = max(abs(c3), abs(c2), abs(c1), abs(c0))
    if scale == 0.0:
        raise DomainError("identically zero polynomial has no well-defined roots")
    tiny = 1e-14 * scale

    if abs(c3) <= tiny:
        # quadratic c2*x^2 + c1*x + c0
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
    # band around zero discriminant: repeated real roots up to round-off
    disc_tol = 1e-10 * max(1.0, abs(p) ** 3, q * q)
    half_q = q / 2.0
    inner = half_q * half_q + p**3 / 27.0  # -disc / 108
    if abs(p) < 1e-14 * max(1.0, b * b) and abs(q) < 1e-14 * max(1.0, abs(d), 1.0):
        roots = [0.0]
    elif disc > disc_tol or inner < 0.0:
        # three real roots, distinct or with a nearly coincident pair:
        # trigonometric form (p < 0 here)
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = max(-1.0, min(1.0, 3.0 * q / (p * m)))
        theta = math.acos(arg)
        roots = [m * math.cos((theta - 2.0 * math.pi * k) / 3.0) for k in range(3)]
    else:
        s = math.sqrt(inner)
        u = math.copysign(abs(-half_q + s) ** (1.0 / 3.0), -half_q + s)
        v = math.copysign(abs(-half_q - s) ** (1.0 / 3.0), -half_q - s)
        roots = [u + v]
        if abs(disc) <= disc_tol and p != 0.0:
            roots.append(-roots[0] / 2.0)  # double-root partner of the single root

    out = []
    bound = 1e-9 * max(1.0, scale)
    for t in roots:
        x = _polish(c3, c2, c1, c0, t - shift)
        if abs(((c3 * x + c2) * x + c1) * x + c0) >= bound:
            continue  # near-degenerate partner that is not actually a root
        if not any(abs(x - w) <= 1e-9 * max(1.0, abs(x)) for w in out):
            out.append(x)
    out.sort()
    return out
