import math
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from sirdelay import equilibria, responses
from sirdelay.cubic import bisect_root
from sirdelay.equilibria import MIN_ENDEMIC_Y, all_equilibria
from sirdelay.model import ModelSpec, Params, eval_rhs
from sirdelay.presets import PRESET_NAMES, load_preset
from sirdelay.responses import Bilinear, Linear
from sirdelay.stability import is_bilinear_special_case

from test_cross_validation import random_models


def max_diff(state, want):
    return max(abs(a - b) for a, b in zip(state.as_tuple(), want))


def disease_free(model):
    return [e for e in all_equilibria(model) if e.kind == "disease_free"]


def endemic(model):
    return [e for e in all_equilibria(model) if e.kind == "endemic"]


def times_a(model, factor):
    return replace(model, params=replace(model.params, a=factor * model.params.a))


def closed_form(p):
    # the bilinear case's endemic point (f = x*y, V = x, P = y): x* = (d1+r)/b1,
    # y* = (b1*a - (c+d)(d1+r)) / (b*d1 + r*(b-b1)), z* = (r/alpha)*y*
    ystar = (p.b1 * p.a - (p.c + p.d) * (p.d1 + p.r)) / (p.b * p.d1 + p.r * (p.b - p.b1))
    return ((p.d1 + p.r) / p.b1, ystar, (p.r / p.alpha) * ystar)


def test_disease_free_closed_forms():
    cases = {
        "ex5_1": 5.0,
        "ex5_2": 5.0,
        "ex5_3": 2.5,
        "ex5_4": 2.5,
        "ex5_6": (math.sqrt(41.0) - 1.0) / 2.0,
        "ex5_7": (math.sqrt(57.0) - 3.0) / 4.0,
        "sec6_followup": 5.0,
    }
    for name, xbar in cases.items():
        (eq,) = disease_free(load_preset(name).model)
        assert abs(eq.state.x - xbar) < 1e-9, name
        assert eq.state.y == 0.0 and eq.state.z == 0.0
        assert eq.residual < 1e-10


def test_no_disease_free_for_fractional_mix():
    assert disease_free(load_preset("ex5_5").model) == []


@pytest.mark.parametrize("model", [random_models(200, seed=7)[i] for i in (17, 127, 153, 163, 195)],
                         ids=lambda m: m.content_hash())
def test_a_model_without_vaccination_keeps_its_disease_free_point(model):
    # with c*V = 0, G(x) = a - d*x is 0 at a/d, the end of the x range, where
    # a - d*(a/d) may round to either sign
    p = model.params
    assert p.c == 0.0 or model.V.kind == "zero"
    (eq,) = disease_free(model)
    assert abs(eq.state.x - p.a / p.d) <= 2.0 * math.ulp(p.a / p.d)
    assert eq.state.y == 0.0 and eq.state.z == 0.0


def test_an_incidence_vanishing_at_y_zero_gives_one_disease_free_point():
    for model in ([load_preset(name).model for name in PRESET_NAMES]
                  + random_models(15) + random_models(200, seed=7)):
        assert len(disease_free(model)) == int(model.f.zero_when_y_zero), model.content_hash()


def test_endemic_closed_forms():
    cases = {
        "ex5_1": (2.0, 6.0, 6.0),
        "ex5_3": (2.0, 2.0, 2.0),
        "sec6_followup": (5.0 / 3.0, 20.0 / 9.0, 40.0 / 9.0),
    }
    for name, want in cases.items():
        model = load_preset(name).model
        assert closed_form(model.params) == pytest.approx(want, abs=1e-12), name
        eqs = endemic(model)
        assert len(eqs) == 1, name
        assert max_diff(eqs[0].state, closed_form(model.params)) < 1e-9, name
        assert eqs[0].residual < 1e-10


def test_endemic_existence_boundary_is_empty():
    # (d1+r)/b1 equals a/(c+d) exactly for ex5_2 and ex5_4
    assert endemic(load_preset("ex5_2").model) == []
    assert endemic(load_preset("ex5_4").model) == []


def test_no_endemic_for_saturating_presets():
    assert endemic(load_preset("ex5_6").model) == []
    assert endemic(load_preset("ex5_7").model) == []


def test_generic_search_finds_ex5_5_equilibrium():
    eqs = endemic(load_preset("ex5_5").model)
    assert len(eqs) == 1
    want = (200.0 / 21.0, 10.0 / 21.0, 30.0 / 21.0)
    assert max_diff(eqs[0].state, want) < 1e-9


def test_large_rates_keep_their_endemic_points():
    # the residual gate is relative to the balances' largest term: ex5_5
    # with every rate times 1e8 has the same point at a residual near 3e-8,
    # and with a times 1e6 one point at a residual near 1.4e-9
    model = load_preset("ex5_5").model
    p = model.params
    (want,) = endemic(model)
    rates = {k: 1e8 * getattr(p, k) for k in ("a", "b", "b1", "c", "d", "d1", "r", "alpha")}
    (got,) = endemic(replace(model, params=replace(p, **rates)))
    for u, v in zip(got.state.as_tuple(), want.state.as_tuple()):
        assert u == pytest.approx(v, rel=1e-12, abs=0.0)
    assert len(endemic(times_a(model, 1e6))) == 1


@pytest.mark.parametrize("scale", [1e-9, 1e-12])
def test_a_small_inflow_keeps_its_endemic_point(scale):
    # the floor on y is relative to yhi = b1*G(0)/(b*d1): ex5_5 with a times
    # 1e-9 has its point at y near 1e-8, below an absolute floor of 1e-8.
    # With b = b1 = 2, d = d1 = alpha = 1 and c = 0, x = a - y and
    # 2x/(x + y) = (r + 1)*y, so y = 2a/(2 + (r + 1)*a)
    small = times_a(load_preset("ex5_5").model, scale)
    (eq,) = all_equilibria(small)
    a, r = small.params.a, small.params.r
    assert eq.kind == "endemic"
    assert eq.state.y == pytest.approx(2.0 * a / (2.0 + (r + 1.0) * a), rel=1e-12)
    st = eq.state
    assert max(abs(v) for v in eval_rhs(small, st, st.x, st.y)) < 1e-10 * scale


def test_closed_form_agrees_with_generic_search():
    # same dynamics expressed so the special-case detection does not fire:
    # c*V with c=2, V=0.5*x multiplies out to the original c=1, V=x
    for name in ("ex5_1", "ex5_3", "sec6_followup"):
        model = load_preset(name).model
        closed = closed_form(model.params)
        p = model.params
        equivalent = ModelSpec(
            params=Params(a=p.a, b=p.b, b1=p.b1, c=2.0 * p.c, d=p.d, d1=p.d1,
                          r=p.r, alpha=p.alpha, tau=p.tau, delta=p.delta),
            f=Bilinear(), V=Linear(0.5), P=Linear(1.0),
        )
        assert not is_bilinear_special_case(equivalent)
        eqs = endemic(equivalent)
        assert len(eqs) == 1
        assert max_diff(eqs[0].state, closed) < 1e-8


@pytest.mark.parametrize("a", [10.02, 10.0002])
def test_generic_search_finds_a_point_just_above_threshold(a):
    # ex5_2 has x* = 5 and a/(c+d) = a/2, so a = 10.02 puts y* = 0.02 below
    # the first equal step Y/400 = 0.025 of the scan; a = 10.0002 gives 2e-4
    p = replace(load_preset("ex5_2").model.params, a=a)
    bilinear = endemic(ModelSpec(params=p, f=Bilinear(), V=Linear(1.0), P=Linear(1.0)))
    twin = ModelSpec(params=replace(p, c=2.0 * p.c), f=Bilinear(), V=Linear(0.5), P=Linear(1.0))
    eqs = endemic(twin)
    assert len(bilinear) == 1 and len(eqs) == 1
    assert max_diff(bilinear[0].state, closed_form(p)) < 1e-8
    assert max_diff(eqs[0].state, closed_form(p)) < 1e-8
    assert eqs[0].residual < 1e-10


def test_special_case_detection():
    assert is_bilinear_special_case(load_preset("ex5_1").model)
    assert not is_bilinear_special_case(load_preset("ex5_5").model)
    assert not is_bilinear_special_case(load_preset("ex5_7").model)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_all_equilibria_satisfy_rhs(name):
    model = load_preset(name).model
    eqs = all_equilibria(model)
    assert eqs, name
    for eq in eqs:
        st = eq.state
        dx, dy, dz = eval_rhs(model, st, st.x, st.y)
        assert max(abs(dx), abs(dy), abs(dz)) < 1e-10


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_equilibria_deterministic(name):
    model = load_preset(name).model
    first = all_equilibria(model)
    second = all_equilibria(model)
    assert [e.state.as_tuple() for e in first] == [e.state.as_tuple() for e in second]


@pytest.mark.parametrize("name", ["ex5_6", "ex5_7"])
def test_disease_free_root_has_the_exact_residual_of_a_last_bit(name):
    # G(x) = a - d*x - c*V(x) evaluated exactly in Fraction (PowerSum and
    # SaturatingUnary V are rational): the root of e1(., 0) is within a few
    # ulp of G's exact zero
    model = load_preset(name).model
    p, V = model.params, model.V
    exact_V = replace(V, **{f.name: Fraction(getattr(V, f.name)) for f in fields(V)})
    (eq,) = disease_free(model)
    xbar = eq.state.x
    X = Fraction(xbar)
    G = Fraction(p.a) - Fraction(p.d) * X - Fraction(p.c) * exact_V.value(X)
    slope = p.d + p.c * V.partial(0, xbar)
    assert abs(G) <= 4.0 * math.ulp(xbar) * slope


def exact(record):
    # the same record with every number field a Fraction
    return replace(record, **{f.name: Fraction(getattr(record, f.name)) for f in fields(record)})


def infected_bounds(model):
    # (yhi, Y): Y, where K(y) = (b/b1)*(r*P(y) + d1*y) - r*P(y) reaches
    # G(0) = a - c*V(0); K(y) >= (b/b1)*d1*y puts Y at or below
    # yhi = b1*G(0)/(b*d1), and Y is yhi up to rounding where bisect_root
    # finds no sign change
    p, P = model.params, model.P.value
    g0 = p.a - p.c * model.V.value(0.0)
    yhi = p.b1 * g0 / (p.b * p.d1)
    Y = bisect_root(lambda y: (p.b / p.b1) * (p.r * P(y) + p.d1 * y) - p.r * P(y) - g0, 0.0, yhi)
    return yhi, yhi if Y is None else Y


def tarski_query(ps, qs, lo, hi):
    # the sum of sign q(y) over the distinct real roots y of p in (lo, hi],
    # by the signed remainder sequence of p and p'*q in exact arithmetic
    # (Sturm-Tarski; with q = 1 it is Sturm's count); coefficients highest
    # power first
    def value(cs, x):
        out = 0
        for c in cs:
            out = out * x + c
        return out

    def stripped(a):
        while a and a[0] == 0:
            a = a[1:]
        return a

    def remainder(a, b):
        while len(a) >= len(b):
            q = a[0] / b[0]
            a = stripped([u - q * v for u, v in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))])
        return a

    dp = [c * (len(ps) - 1 - i) for i, c in enumerate(ps[:-1])]
    dpq = [0] * (len(dp) + len(qs) - 1)
    for i, u in enumerate(dp):
        for j, v in enumerate(qs):
            dpq[i + j] += u * v
    seq = [ps, stripped(dpq)]
    while seq[-1]:
        seq.append([-c for c in remainder(seq[-2], seq[-1])])

    def sign_changes(x):
        signs = [v > 0 for v in (value(cs, x) for cs in seq) if v != 0]
        return sum(u != v for u, v in zip(signs, signs[1:]))
    return sign_changes(lo) - sign_changes(hi)


def in_y(poly):
    # a polynomial in y alone as its coefficients, highest power first
    return [poly.get((0, j), 0) for j in range(max(j for _, j in poly), -1, -1)]


@pytest.mark.parametrize("model", [load_preset(name).model for name in PRESET_NAMES]
                         + random_models(15) + random_models(200, seed=7)
                         # x from e1 alone loses these three to cancellation in
                         # G(x) - K(y); x from e2 keeps them
                         + [times_a(random_models(15)[i], 1e5) for i in (11, 13, 14)],
                         ids=lambda m: m.content_hash())
def test_endemic_count_is_the_exact_root_count_of_the_resultant(model):
    # R built from the model's numbers as Fractions, so its coefficients
    # carry no round-off, and its distinct roots on (MIN_ENDEMIC_Y*yhi, Y]
    # counted exactly, a fold or two close roots included.  At a root y the
    # common root of e1 and e2 = A(y)*x + B(y) (linear in x for every
    # incidence) is x = -B/A.  e1 is a line or a concave quadratic in x, and
    # positive at x = 0 for y < Y, so its other root is negative and may be
    # the common one: the root is an endemic point exactly when -A*B > 0,
    # and the count is (TaQ(1) + TaQ(-A*B)) / 2
    spec = replace(model, params=exact(model.params), f=exact(model.f), V=exact(model.V),
                   P=exact(model.P))
    _, (A, B), cs = equilibria._balance_polynomials(spec)
    assert all(type(c) is Fraction for c in cs)
    minus_ab = [-c for c in in_y(A * B)]
    yhi, Y = infected_bounds(model)
    lo, hi = Fraction(MIN_ENDEMIC_Y * yhi), Fraction(Y)
    twice = tarski_query(cs, [1], lo, hi) + tarski_query(cs, minus_ab, lo, hi)
    assert twice % 2 == 0  # odd where A*B = 0 at a root, which the count cannot place
    assert len(endemic(model)) == twice // 2


@pytest.mark.parametrize("r", [2.51111, 2.5111107])
def test_two_endemic_points_closer_than_a_grid_step_are_both_found(r):
    # a bistable model whose two endemic points meet at a fold near
    # r = 2.51111071: here they lie closer in y than Y/400, the step of a
    # 400-point scan of (0, Y], which missed both
    model = random_models(500, seed=101)[375]
    model = replace(model, params=replace(model.params, r=r))
    eqs = endemic(model)
    assert len(eqs) == 2
    assert abs(eqs[0].state.y - eqs[1].state.y) < infected_bounds(model)[1] / 400.0
    for eq in eqs:
        st = eq.state
        assert max(abs(v) for v in eval_rhs(model, st, st.x, st.y)) < 1e-10


@pytest.mark.parametrize("kind", sorted(responses._CLASS_BY_KIND))
def test_every_response_kind_is_rational(kind):
    # all_equilibria runs each value on the symbols x and y; a kind that is
    # not rational in its arguments fails here
    cls = responses._CLASS_BY_KIND[kind]
    fn = cls(**{f.name: 0.7 for f in fields(cls)})
    x, y = 1.3, 0.4
    n = fn.arity or 2
    got = responses._ratio(fn.value(*(responses._X, responses._Y)[:n]))
    den = got.den.at(x, y)
    assert den != 0.0
    assert got.num.at(x, y) / den == pytest.approx(fn.value(*(x, y)[:n]), rel=1e-14, abs=0.0)
