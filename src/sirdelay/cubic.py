"""Real roots of scalar equations: every real root of a polynomial, by Newton
steps on pieces where it is monotone and convex or concave, and Brent-Dekker
on a sign-changing bracket."""

from __future__ import annotations

import math

from .errors import DomainError, check_finite

__all__ = ["brent", "solve_cubic_real"]


def brent(g, lo, hi):
    """A root of g on [lo, hi] by Brent-Dekker: inverse quadratic or secant
    steps, bisection where they fall short (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4).  Stops only where g is
    exactly 0 or the bracket is narrower than 1e-15 * max(1, |lo|, |hi|);
    None when g(lo) and g(hi) are nonzero and share a sign."""
    a, b, fa, fb = lo, hi, g(lo), g(hi)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        return None
    tol = 0.5e-15 * max(1.0, abs(lo), abs(hi))  # half the width bound
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


def _horner(cs, x):
    # p(x) and p'(x) for the coefficients cs, highest power first
    f = fp = 0.0
    for c in cs:
        fp = fp * x + f
        f = f * x + c
    return f, fp


def _newton(cs, x, stop):
    # on a piece where p is monotone and convex or concave, Newton's iterates
    # from the end x where p and p'' share a sign approach the root from x's
    # side (Fourier); round-off that carries one past it narrows the bracket
    # from stop's side, and a step not strictly inside the bracket ends it
    f, fp = _horner(cs, x)
    here, up = x, f > 0.0
    while True:
        nx = x - f / fp if fp else x
        if not (here < nx < stop or stop < nx < here):
            return x
        x = nx
        f, fp = _horner(cs, x)
        here, stop = (x, stop) if (f > 0.0) == up else (here, x)


def _real_roots(cs):
    # real roots, ascending, of the polynomial with coefficients cs, highest
    # power first and cs[0] nonzero; a multiple root comes back once
    n = len(cs) - 1
    if n <= 1:
        return [-cs[1] / cs[0]] if n else []
    if cs[-1] == 0.0:  # x times a polynomial of degree n - 1
        return sorted({0.0, *_real_roots(cs[:-1])})
    d1 = [c * (n - i) for i, c in enumerate(cs[:-1])]
    d2 = [c * (n - 1 - i) for i, c in enumerate(d1[:-1])]
    # cut the line at the real roots of p' and p'' inside Fujiwara's bound on
    # |roots|: on each piece p is monotone and convex or concave
    bound = 2.0 * max(abs(c / cs[0] / (2.0 if k == n else 1.0)) ** (1.0 / k)
                      for k, c in enumerate(cs[1:], 1))
    cuts = {x for x in _real_roots(d1) + _real_roots(d2) if -bound < x < bound}
    xs = [-bound, *sorted(cuts), bound]
    fs = [_horner(cs, x)[0] for x in xs]
    check_finite("polynomial at its root bound", fs[0])
    mags = [abs(c) for c in cs]
    for i, x in enumerate(xs):
        # a cut where |p| is within its round-off is a root, multiple or not;
        # so is an end, where a root may sit, the bound being attained
        if abs(fs[i]) <= 16.0 * 2.0**-53 * _horner(mags, abs(x))[0]:
            fs[i] = 0.0
    # root cuts side by side are one root, p being monotone between them
    roots = [x for i, x in enumerate(xs) if fs[i] == 0.0 and (i == 0 or fs[i - 1] != 0.0)]
    for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:]):
        if fa < 0.0 < fb or fb < 0.0 < fa:  # one simple root inside
            convex = _horner(d2, 0.5 * (a + b))[0] > 0.0
            roots.append(_newton(cs, a, b) if (fa > 0.0) == convex else _newton(cs, b, a))
    return sorted(roots)


def solve_cubic_real(c3: float, c2: float, c1: float, c0: float):
    """All real roots of c3*x^3 + c2*x^2 + c1*x + c0 = 0, sorted ascending.

    Leading coefficients that are exactly zero lower the degree, and a
    multiple root comes back once.  Each root r returned has a residual
    |p(r)|, by Horner's rule, of at most 16 * 2**-53 * sum |c_i| |r|^i:
    relative to the size of p's terms at r, so a far root is kept.  Raises
    DomainError for the identically zero polynomial, or where p overflows at
    its root bound (coefficients some 1e150 apart).
    """
    check_finite("cubic coefficient", c3, c2, c1, c0)
    cs = [c3, c2, c1, c0]
    while cs and cs[0] == 0.0:
        cs.pop(0)
    if not cs:
        raise DomainError("identically zero polynomial has no well-defined roots")
    return _real_roots(cs)
