import math
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from sirdelay import equilibria
from sirdelay.equilibria import (
    ENDEMIC_SAMPLES,
    all_equilibria,
    find_disease_free,
    find_endemic,
    is_bilinear_special_case,
)
from sirdelay.model import ModelSpec, Params, eval_rhs
from sirdelay.presets import PRESET_NAMES, load_preset
from sirdelay.responses import Bilinear, Linear


def max_diff(state, want):
    return max(abs(a - b) for a, b in zip(state.as_tuple(), want))


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
        eq = find_disease_free(load_preset(name).model)
        assert eq is not None, name
        assert abs(eq.state.x - xbar) < 1e-9, name
        assert eq.state.y == 0.0 and eq.state.z == 0.0
        assert eq.residual < 1e-10


def test_no_disease_free_for_fractional_mix():
    assert find_disease_free(load_preset("ex5_5").model) is None


def test_endemic_closed_forms():
    cases = {
        "ex5_1": (2.0, 6.0, 6.0),
        "ex5_3": (2.0, 2.0, 2.0),
        "sec6_followup": (5.0 / 3.0, 20.0 / 9.0, 40.0 / 9.0),
    }
    for name, want in cases.items():
        eqs = find_endemic(load_preset(name).model)
        assert len(eqs) == 1, name
        assert max_diff(eqs[0].state, want) < 1e-9, name
        assert eqs[0].residual < 1e-10


def test_endemic_existence_boundary_is_empty():
    # (d1+r)/b1 equals a/(c+d) exactly for ex5_2 and ex5_4
    assert find_endemic(load_preset("ex5_2").model) == []
    assert find_endemic(load_preset("ex5_4").model) == []


def test_no_endemic_for_saturating_presets():
    assert find_endemic(load_preset("ex5_6").model) == []
    assert find_endemic(load_preset("ex5_7").model) == []


def test_generic_search_finds_ex5_5_equilibrium():
    eqs = find_endemic(load_preset("ex5_5").model)
    assert len(eqs) == 1
    want = (200.0 / 21.0, 10.0 / 21.0, 30.0 / 21.0)
    assert max_diff(eqs[0].state, want) < 1e-9


def test_closed_form_agrees_with_generic_search():
    # same dynamics expressed so the special-case detection does not fire:
    # c*V with c=2, V=0.5*x multiplies out to the original c=1, V=x
    for name in ("ex5_1", "ex5_3", "sec6_followup"):
        model = load_preset(name).model
        closed = find_endemic(model)[0]
        p = model.params
        equivalent = ModelSpec(
            params=Params(a=p.a, b=p.b, b1=p.b1, c=2.0 * p.c, d=p.d, d1=p.d1,
                          r=p.r, alpha=p.alpha, tau=p.tau, delta=p.delta),
            f=Bilinear(), V=Linear(0.5), P=Linear(1.0),
        )
        assert not is_bilinear_special_case(equivalent)
        eqs = find_endemic(equivalent)
        assert len(eqs) == 1
        assert closed.state.max_abs_diff(eqs[0].state) < 1e-8


@pytest.mark.parametrize("a", [10.02, 10.0002])
def test_generic_search_finds_a_point_just_above_threshold(a):
    # ex5_2 has x* = 5 and a/(c+d) = a/2, so a = 10.02 puts y* = 0.02 below
    # the first equal step Y/400 = 0.025 of the scan; a = 10.0002 gives 2e-4
    p = replace(load_preset("ex5_2").model.params, a=a)
    closed = find_endemic(ModelSpec(params=p, f=Bilinear(), V=Linear(1.0), P=Linear(1.0)))
    twin = ModelSpec(params=replace(p, c=2.0 * p.c), f=Bilinear(), V=Linear(0.5), P=Linear(1.0))
    eqs = find_endemic(twin)
    assert len(closed) == 1 and len(eqs) == 1
    assert closed[0].state.max_abs_diff(eqs[0].state) < 1e-8
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
    # SaturatingUnary V are rational): the solver stops on the bracket
    # width alone, so its root is within a few ulp of G's exact zero
    model = load_preset(name).model
    p, V = model.params, model.V
    exact_V = replace(V, **{f.name: Fraction(getattr(V, f.name)) for f in fields(V)})
    xbar = find_disease_free(model).state.x
    X = Fraction(xbar)
    G = Fraction(p.a) - Fraction(p.d) * X - Fraction(p.c) * exact_V.value(X)
    slope = p.d + p.c * V.partial(0, xbar)
    assert abs(G) <= 4.0 * math.ulp(xbar) * slope


@pytest.mark.parametrize("name", ["ex5_5", "ex5_6", "ex5_7"])
def test_x_of_y_solves_stay_within_an_evaluation_budget(name, monkeypatch):
    # an x(y) solve is a brent call each of whose evaluations evaluates G
    # once (one that evaluates H solves x(y) inside); counting evaluations,
    # not time, keeps the budget deterministic
    g_calls = [0]
    balance = equilibria._susceptible_balance

    def counted_balance(model):
        G = balance(model)

        def counted(x):
            g_calls[0] += 1
            return G(x)
        return counted

    evals = Counter()
    brent = equilibria.brent

    def counting_brent(g, lo, hi):
        def counted(x):
            before = g_calls[0]
            value = g(x)
            if g_calls[0] - before == 1:
                evals[g] += 1
            return value
        return brent(counted, lo, hi)

    monkeypatch.setattr(equilibria, "_susceptible_balance", counted_balance)
    monkeypatch.setattr(equilibria, "brent", counting_brent)
    find_endemic(load_preset(name).model)
    assert len(evals) >= ENDEMIC_SAMPLES
    assert sum(evals.values()) / len(evals) <= 12.0
