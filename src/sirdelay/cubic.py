"""Real roots of scalar equations: every real root of a polynomial, by Newton
steps on pieces where it is monotone and convex or concave, and bisection
on a sign-changing bracket."""

from __future__ import annotations

from .errors import DomainError, check_finite

__all__ = ["bisect_root", "solve_cubic_real"]


def bisect_root(g, lo, hi):
    """A root of g on [lo, hi] by bisection, carried down to two adjacent
    floats, of which the one with the smaller |g| is returned; g exactly 0
    at lo, at hi or at a midpoint ends the search there.  None when g(lo)
    and g(hi) are nonzero and share a sign."""
    flo, fhi = g(lo), g(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        return None
    while True:
        mid = 0.5 * lo + 0.5 * hi  # halves first: lo + hi may overflow
        if not lo < mid < hi:
            return lo if abs(flo) <= abs(fhi) else hi
        fmid = g(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid


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
