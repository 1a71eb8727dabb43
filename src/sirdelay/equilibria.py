"""Equilibrium computation: disease-free and endemic roots by Brent's method."""

from __future__ import annotations

from dataclasses import dataclass

from .cubic import brent
from .model import ModelSpec, State, eval_rhs
from .responses import Bilinear, Linear

__all__ = [
    "Equilibrium",
    "find_disease_free",
    "find_endemic",
    "all_equilibria",
    "is_bilinear_special_case",
]

DISEASE_FREE = "disease_free"
ENDEMIC = "endemic"

#: residual bound every returned equilibrium satisfies
RESIDUAL_TOL = 1e-10
#: boundary band for the strict endemic-existence inequality
BOUNDARY_TOL = 1e-12
#: equally spaced samples of H(y) over (0, Y] in the endemic search
ENDEMIC_SAMPLES = 400
#: endemic points need y above this; it is also the first sample of H(y)
MIN_ENDEMIC_Y = 1e-8


def _residual(model: ModelSpec, st: State) -> float:
    dx, dy, dz = eval_rhs(model, st, st.x, st.y)
    return max(abs(dx), abs(dy), abs(dz))


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


def find_endemic(model: ModelSpec):
    """All endemic equilibria (y > 0) of the model.

    The bilinear special case (f = x*y, V = x, P = y) is answered in
    closed form.  Otherwise, with z = r*P(y)/alpha and b1*f = r*P(y) + d1*y,
    the x equation reads G(x) = K(y) = (b/b1)*(r*P(y) + d1*y) - r*P(y).
    Contract: V and P do not decrease (``ModelSpec`` checks it), so with
    b1 <= b, G falls and K rises, so x(y) is one root on [0, a/d] for y in
    (0, Y], where K(Y) = G(0), and falls strictly in y.  The endemic points
    are the sign changes of H(y) = b1*f(x(y), y) - r*P(y) - d1*y, sampled
    at MIN_ENDEMIC_Y (so a point just above threshold, next to the
    disease-free root y = 0, is bracketed) and at ENDEMIC_SAMPLES equal
    steps of (0, Y], bracketing x(y) by [0, x(previous sample)] where that
    changes sign.  Each sign change is refined by ``cubic.brent``, x(y) on
    [0, a/d], and verified to residual < 1e-10.  A tangential root at a
    fold (or two roots within one step) changes no sign and is not reported.
    """
    if is_bilinear_special_case(model):
        eq = _closed_form_endemic(model)
        return [eq] if eq is not None else []

    p = model.params
    f, P = model.f.value, model.P.value
    G = _susceptible_balance(model)
    g0 = G(0.0)
    if g0 <= 0.0:  # then G(x) <= 0 < K(y) for all x >= 0 < y
        return []

    def K(y):
        rp = p.r * P(y)
        return (p.b / p.b1) * (rp + p.d1 * y) - rp

    def x_of(y, hi=p.a / p.d):
        k = K(y)
        x = brent(lambda x: G(x) - k, 0.0, hi)
        if x is None and hi < p.a / p.d:  # the warm bracket missed x(y)
            return x_of(y)
        return 0.0 if x is None else x  # K(y) passes G(0) only within Y's tolerance

    def H(y, x):
        return p.b1 * f(x, y) - p.r * P(y) - p.d1 * y

    # K(y) >= (b/b1)*d1*y reaches G(0) by yhi; None means only at yhi, within rounding
    yhi = p.b1 * g0 / (p.b * p.d1)
    ymax = brent(lambda y: K(y) - g0, 0.0, yhi)
    ymax = yhi if ymax is None else ymax
    steps = (ymax * i / ENDEMIC_SAMPLES for i in range(1, ENDEMIC_SAMPLES + 1))
    ys = [MIN_ENDEMIC_Y] + [y for y in steps if y > MIN_ENDEMIC_Y]
    hs, x = [], p.a / p.d
    for y in ys:
        x = x_of(y, x)
        hs.append(H(y, x))
    roots = [y for y, h in zip(ys, hs) if h == 0.0]
    roots += [brent(lambda y: H(y, x_of(y)), y0, y1)
              for y0, y1, h0, h1 in zip(ys, ys[1:], hs, hs[1:]) if h0 * h1 < 0.0]

    found = []
    for y in roots:
        st = State(x_of(y), y, p.r * P(y) / p.alpha)
        if st.y <= MIN_ENDEMIC_Y or st.x < -1e-9 or st.z < -1e-9:
            continue
        res = _residual(model, st)
        if res >= RESIDUAL_TOL:
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
