"""Equilibrium computation: every steady state from the two balance
polynomials, its y a real root of their resultant (or 0) and its x a root of
one of the two."""

from __future__ import annotations

from dataclasses import dataclass

from .cubic import _real_roots
from .model import ModelSpec, State, eval_rhs
from .responses import _ONE, _X, _Y, _Poly

__all__ = ["Equilibrium", "all_equilibria"]

DISEASE_FREE = "disease_free"
ENDEMIC = "endemic"

#: residual bound every equilibrium found satisfies, relative to the largest
#: term of the three balances there (at least 1)
RESIDUAL_TOL = 1e-10
#: endemic points need y above this fraction of yhi = b1*G(0)/(b*d1)
MIN_ENDEMIC_Y = 1e-8
#: relative round-off allowed on the bound a/d of x
X_ROUNDOFF = 1e-14


def _residual(model: ModelSpec, st: State) -> float:
    dx, dy, dz = eval_rhs(model, st, st.x, st.y)
    return max(abs(dx), abs(dy), abs(dz))


def _largest_term(model: ModelSpec, st: State) -> float:
    # the scale of the residual at st; b1*f is left out, as b1 <= b
    p, x, y = model.params, st.x, st.y
    f, rp = model.f.value(x, y), p.r * model.P.value(y)
    return max(abs(t) for t in (
        p.a, p.b * f, p.d * x, p.c * model.V.value(x), p.alpha * st.z, rp, p.d1 * y))


@dataclass(frozen=True)
class Equilibrium:
    """A constant solution of the model with a kind tag."""

    state: State
    kind: str  # "disease_free" | "endemic"
    residual: float


def _susceptible_balance(model: ModelSpec):
    """G(x) = a - d*x - c*V(x), which decreases on [0, a/d] as V does not."""
    p = model.params
    V = model.V.value
    return lambda x: p.a - p.d * x - p.c * V(x)


def _in_x(e):
    # the coefficients of e in x, highest power first, each a polynomial in y
    terms = {key: c for key, c in e.items() if c}
    n = max(i for i, _ in terms)
    out = [_Poly() for _ in range(n + 1)]
    for (i, j), c in terms.items():
        out[n - i][0, j] = c
    return out


def _det(rows):
    # by cofactors along the first row; the Sylvester matrices are at most 4x4
    if not rows:
        return _ONE
    total = _Poly()
    for j, entry in enumerate(rows[0]):
        if entry:
            term = entry * _det([row[:j] + row[j + 1:] for row in rows[1:]])
            total = total + (term if j % 2 == 0 else -term)
    return total


def _balance_polynomials(model: ModelSpec):
    """(e1, e2, R): e1 = the numerator of G(x) - K(y) and e2 that of
    b1*f(x, y) - r*P(y) - d1*y, each by powers of x, and R(y) =
    Res_x(e1, e2) as its coefficients in y, highest power first, with the
    powers of y divided out.  Each response's ``value`` runs on the symbols
    x and y."""
    p = model.params
    rp = p.r * model.P.value(_Y)
    k = (p.b / p.b1) * (rp + p.d1 * _Y) - rp
    e1 = _in_x((_susceptible_balance(model)(_X) - k).num)
    e2 = _in_x((p.b1 * model.f.value(_X, _Y) - rp - p.d1 * _Y).num)
    m, n = len(e1) - 1, len(e2) - 1
    zero = _Poly()
    rows = [[zero] * i + e1 + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + e2 + [zero] * (m - 1 - i) for i in range(m)]
    res = _det(rows)
    cs = [res.get((0, j), 0) for j in range(max(j for _, j in res), -1, -1)]
    while cs[0] == 0:
        cs.pop(0)
    while cs[-1] == 0:
        cs.pop()
    return e1, e2, cs


def _roots_in(e, y, hi):
    # the roots in [0, hi] of e(., y), e by powers of x as from _in_x
    cs = [row.at(0.0, y) for row in e]
    while cs and cs[0] == 0.0:
        cs.pop(0)
    return [x for x in _real_roots(cs) if 0.0 <= x <= hi] if cs else []


def all_equilibria(model: ModelSpec):
    """The disease-free point (xbar, 0, 0), when there is one, then the
    endemic points (y > 0) by (x, y, z).

    At a steady state z = r*P(y)/alpha and b1*f = r*P(y) + d1*y, so the x
    equation reads G(x) = K(y) = (b/b1)*(r*P(y) + d1*y) - r*P(y).
    Contract: V and P do not decrease (``ModelSpec`` checks it), so with
    b1 <= b, G falls and K rises, x lies in [0, a/d] and y in [0, Y], where
    K(Y) = G(0) <= K(yhi), yhi = b1*G(0)/(b*d1).  Every response is
    rational, so the steady states are the common roots of e1 and e2
    (``_balance_polynomials``).  Each candidate y is 0, when the incidence
    vanishes at y = 0, or a real root of R = Res_x(e1, e2) in
    (MIN_ENDEMIC_Y*yhi, yhi].  Its x is the root in [0, a/d], a/d allowed
    its round-off, of e1(., y) or, for y > 0, of e2(., y), whichever leaves
    the smaller residual; ``cubic._real_roots`` finds every root.  A root
    of R where e2 shares e1's other root in x, which is negative, gives no
    point; nor does one whose residual is 1e-10 or more of the largest term
    of the three balances there, or of 1 if that is smaller (a root where a
    denominator vanishes), nor an endemic point within 1e-8 of one found
    before.  Two close roots of R are found as two; a fold, a double root
    of R, is found where the round-off in R's coefficients leaves a real
    root there, and is not certified.
    """
    p = model.params
    e1, e2, cs = _balance_polynomials(model)
    xhi = (1.0 + X_ROUNDOFF) * p.a / p.d
    yhi = p.b1 * _susceptible_balance(model)(0.0) / (p.b * p.d1)
    ys = [0.0] if model.f.zero_when_y_zero else []
    ys += [y for y in _real_roots(cs) if MIN_ENDEMIC_Y * yhi < y <= yhi]
    found = []
    for y in ys:
        z = p.r * model.P.value(y) / p.alpha
        xs = _roots_in(e1, y, xhi) + (_roots_in(e2, y, xhi) if y else [])
        if not xs:
            continue
        res, st = min(((_residual(model, s), s) for s in (State(x, y, z) for x in xs)),
                      key=lambda t: t[0])
        if res >= RESIDUAL_TOL * max(1.0, _largest_term(model, st)):
            continue
        # the disease-free point, first if at all, is no endemic point's twin
        if y and any(e.state.y and st.max_abs_diff(e.state) < 1e-8 for e in found):
            continue
        found.append(Equilibrium(state=st, kind=ENDEMIC if y else DISEASE_FREE, residual=res))
    found.sort(key=lambda e: (e.kind == ENDEMIC, e.state.x, e.state.y, e.state.z))
    return found
