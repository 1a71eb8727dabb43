"""Equilibrium computation: the disease-free root by Brent's method, and the
endemic points as the real roots of one resultant polynomial."""

from __future__ import annotations

from dataclasses import dataclass

from .cubic import _real_roots, brent
from .model import ModelSpec, State, eval_rhs
from .responses import _ONE, _X, _Y, Bilinear, Linear, _Poly

__all__ = [
    "Equilibrium",
    "find_disease_free",
    "find_endemic",
    "all_equilibria",
    "is_bilinear_special_case",
]

DISEASE_FREE = "disease_free"
ENDEMIC = "endemic"

#: residual bound every endemic point found from the resultant satisfies,
#: relative to the largest term of the three balances there (at least 1)
RESIDUAL_TOL = 1e-10
#: boundary band for the strict endemic-existence inequality
BOUNDARY_TOL = 1e-12
#: endemic points need y above this
MIN_ENDEMIC_Y = 1e-8


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


def find_disease_free(model: ModelSpec):
    """Locate the disease-free steady state (xbar, 0, 0), if one exists.

    Solves G(x) = a - d*x - c*V(x) = 0 by ``cubic.brent`` on [0, a/d].
    Returns None when the incidence does not vanish at y = 0 (no disease-free
    state can exist) or when the bracket carries no sign change.
    """
    if not model.supports_disease_free:
        return None
    xbar = brent(_susceptible_balance(model), 0.0, model.params.a / model.params.d)
    if xbar is None:
        return None
    st = State(xbar, 0.0, 0.0)
    return Equilibrium(state=st, kind=DISEASE_FREE, residual=_residual(model, st))


def is_bilinear_special_case(model: ModelSpec) -> bool:
    """True for f = x*y, V = x, P = y: the case with closed-form endemic
    coordinates and a delay-independent global stability criterion."""
    return (
        isinstance(model.f, Bilinear)
        and isinstance(model.V, Linear) and model.V.k == 1.0
        and isinstance(model.P, Linear) and model.P.k == 1.0
    )


def _closed_form_endemic(model: ModelSpec):
    """Endemic point of the bilinear special case, or None.

    x* = (d1+r)/b1, y* = (b1*a - (c+d)(d1+r)) / (b*d1 + r*(b-b1)),
    z* = (r/alpha)*y*.  Exists only under the strict threshold
    (d1+r)/b1 < a/(c+d); the equality boundary counts as nonexistent.
    """
    p = model.params
    xstar = (p.d1 + p.r) / p.b1
    thresh = p.a / (p.c + p.d)
    if xstar >= thresh - BOUNDARY_TOL * max(1.0, abs(thresh)):
        return None
    ystar = (p.b1 * p.a - (p.c + p.d) * (p.d1 + p.r)) / (p.b * p.d1 + p.r * (p.b - p.b1))
    zstar = (p.r / p.alpha) * ystar
    st = State(xstar, ystar, zstar)
    return Equilibrium(state=st, kind=ENDEMIC, residual=_residual(model, st))


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


def _endemic_polynomial(model: ModelSpec):
    """(e1, R): e1 = the numerator of G(x) - K(y) by powers of x, and R(y) =
    Res_x(e1, e2), e2 the numerator of b1*f(x, y) - r*P(y) - d1*y, as its
    coefficients in y, highest power first, with the powers of y divided
    out.  Each response's ``value`` runs on the symbols x and y."""
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
    return e1, cs


def find_endemic(model: ModelSpec):
    """All endemic equilibria (y > 0) of the model.

    The bilinear special case (f = x*y, V = x, P = y) is answered in
    closed form.  Otherwise, with z = r*P(y)/alpha and b1*f = r*P(y) + d1*y,
    the x equation reads G(x) = K(y) = (b/b1)*(r*P(y) + d1*y) - r*P(y).
    Contract: V and P do not decrease (``ModelSpec`` checks it), so with
    b1 <= b, G falls and K rises, and x(y) is one root on [0, a/d] for y in
    (0, Y], where K(Y) = G(0) <= K(b1*G(0)/(b*d1)).  Every response is
    rational in its arguments, so the endemic points are common roots of
    two polynomials: e1, the numerator of G(x) - K(y), and e2, that of
    b1*f(x, y) - r*P(y) - d1*y.  Their y are real roots of the resultant
    R(y) = Res_x(e1, e2) (``_endemic_polynomial``), found by
    ``cubic._real_roots`` in (MIN_ENDEMIC_Y, b1*G(0)/(b*d1)]; each x is a
    root of e1(., y) in [0, a/d], found the same way, so a root of R where
    e2 shares e1's other root in x, which is negative, is dropped; so is a
    point whose residual is 1e-10 or more of the largest term of the three
    balances there, or of 1 if that is smaller (a root where a denominator
    vanishes).  Two close roots of R are found as two; a fold, a double root
    of R, is found where the round-off in R's coefficients leaves a real
    root there, and is not certified.
    """
    if is_bilinear_special_case(model):
        eq = _closed_form_endemic(model)
        return [eq] if eq is not None else []

    p = model.params
    e1, cs = _endemic_polynomial(model)
    yhi = p.b1 * _susceptible_balance(model)(0.0) / (p.b * p.d1)
    found = []
    for y in _real_roots(cs):
        if not MIN_ENDEMIC_Y < y <= yhi:
            continue
        at_y = [row.at(0.0, y) for row in e1]
        while at_y[0] == 0.0:
            at_y.pop(0)
        for x in _real_roots(at_y):
            if not 0.0 <= x <= p.a / p.d:
                continue
            st = State(x, y, p.r * model.P.value(y) / p.alpha)
            res = _residual(model, st)
            if res >= RESIDUAL_TOL * max(1.0, _largest_term(model, st)):
                continue
            if any(st.max_abs_diff(e.state) < 1e-8 for e in found):
                continue
            found.append(Equilibrium(state=st, kind=ENDEMIC, residual=res))
    found.sort(key=lambda e: (e.state.x, e.state.y, e.state.z))
    return found


def all_equilibria(model: ModelSpec):
    """Disease-free equilibrium (when present) followed by endemic ones."""
    eqs = []
    df = find_disease_free(model)
    if df is not None:
        eqs.append(df)
    eqs.extend(find_endemic(model))
    return eqs
