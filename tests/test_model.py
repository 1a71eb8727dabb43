import math
import pickle
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from sirdelay.equilibria import all_equilibria
from sirdelay.errors import DomainError
from sirdelay.model import (
    ModelSpec,
    Params,
    State,
    eval_rhs,
    jacobian_coeffs,
    to_jsonable,
)
from sirdelay.presets import PRESET_NAMES, load_preset
from sirdelay.responses import Bilinear, Linear, PowerSum, Zero

from test_cross_validation import jacobian_coeffs_fd


def test_params_validation():
    good = Params(a=10, b=1, b1=1, c=1, d=1, d1=1, r=1, alpha=1)
    assert good.tau == 0.0
    with pytest.raises(DomainError):
        Params(a=10, b=1, b1=2, c=1, d=1, d1=1, r=1, alpha=1)  # b1 > b
    with pytest.raises(DomainError):
        Params(a=-1, b=1, b1=1, c=1, d=1, d1=1, r=1, alpha=1)
    with pytest.raises(DomainError):
        Params(a=10, b=1, b1=1, c=1, d=0, d1=1, r=1, alpha=1)
    with pytest.raises(DomainError):
        Params(a=10, b=1, b1=1, c=1, d=1, d1=1, r=1, alpha=1, tau=math.inf)


@pytest.mark.parametrize("field", ["a", "b", "alpha", "tau", "delta"])
@pytest.mark.parametrize("bad", [pytest.param(10**400, id="10**400"), True, False])
def test_params_refuse_huge_integers_and_booleans(field, bad):
    values = dict(a=10, b=1, b1=1, c=1, d=1, d1=1, r=1, alpha=1)
    with pytest.raises(DomainError, match=f"parameter {field} must be a finite number"):
        Params(**{**values, field: bad})


def test_modelspec_arity_validation():
    p = Params(a=10, b=1, b1=1, c=1, d=1, d1=1, r=1, alpha=1)
    with pytest.raises(DomainError):
        ModelSpec(params=p, f=Linear(1.0), V=Linear(1.0), P=Linear(1.0))  # unary incidence
    with pytest.raises(DomainError):
        ModelSpec(params=p, f=Bilinear(), V=Bilinear(), P=Linear(1.0))  # binary vaccination


def test_modelspec_rejects_decreasing_responses():
    p = Params(a=10, b=1, b1=1, c=1, d=1, d1=1, r=1, alpha=1)
    with pytest.raises(DomainError, match="vaccination"):
        ModelSpec(params=p, f=Bilinear(), V=PowerSum(1.0, -1.0), P=Linear(1.0))
    with pytest.raises(DomainError, match="recovery"):
        ModelSpec(params=p, f=Bilinear(), V=Linear(1.0), P=Linear(-1.0))


def test_rhs_at_ex5_1_equilibrium():
    model = load_preset("ex5_1").model
    out = eval_rhs(model, State(2.0, 6.0, 6.0), 2.0, 6.0)
    assert out == (0.0, 0.0, 0.0)


def test_rhs_at_origin_reduces_to_inflow():
    for name in ("ex5_1", "ex5_4", "ex5_6"):
        model = load_preset(name).model
        dx, dy, dz = eval_rhs(model, State(0.0, 0.0, 0.0), 0.0, 0.0)
        assert dx == model.params.a
        assert dy == 0.0
        assert dz == 0.0


def test_rhs_at_ex5_5_equilibrium():
    model = load_preset("ex5_5").model
    st = State(200.0 / 21.0, 10.0 / 21.0, 30.0 / 21.0)
    dx, dy, dz = eval_rhs(model, st, st.x, st.y)
    assert max(abs(dx), abs(dy), abs(dz)) < 1e-12


def test_rhs_rejects_non_finite():
    model = load_preset("ex5_1").model
    with pytest.raises(DomainError):
        eval_rhs(model, State(math.nan, 1.0, 1.0), 1.0, 1.0)
    with pytest.raises(DomainError):
        eval_rhs(model, State(1.0, 1.0, 1.0), 1.0, math.inf)


def test_one_rhs_per_model():
    model = load_preset("ex5_5").model
    assert model.rhs is model.rhs
    assert eval_rhs(model, State(1.0, 2.0, 3.0), 0.5, 0.25) == model.rhs(1.0, 2.0, 3.0, 0.5, 0.25)
    again = pickle.loads(pickle.dumps(model))  # a used model still pickles
    assert again == model
    assert again.rhs(1.0, 2.0, 3.0, 0.5, 0.25) == model.rhs(1.0, 2.0, 3.0, 0.5, 0.25)


def test_jacobian_ex5_2():
    model = load_preset("ex5_2").model
    eq = all_equilibria(model)[0]
    j = jacobian_coeffs(model, eq)
    assert (j.A, j.B, j.C, j.D, j.E) == (-2.0, -5.0, 0.0, 0.0, 4.0)
    assert j.alpha == 1.0


def test_jacobian_ex5_1_endemic():
    model = load_preset("ex5_1").model
    eq = [e for e in all_equilibria(model) if e.kind == "endemic"][0]
    j = jacobian_coeffs(model, eq)
    assert (j.A, j.B, j.C, j.D, j.E) == (-8.0, -2.0, 0.0, 6.0, 1.0)


def test_jacobian_zero_model():
    # only the linear removal terms survive when every response is zero
    p = Params(a=1.0, b=1.0, b1=1.0, c=0.0, d=2.0, d1=3.0, r=0.0, alpha=1.0)
    model = ModelSpec(params=p, f=Zero(), V=Zero(), P=Zero())
    j = jacobian_coeffs(model, State(0.5, 0.25, 0.125))
    assert (j.A, j.B, j.C, j.D, j.E) == (-2.0, 0.0, -3.0, 0.0, 0.0)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_jacobian_matches_finite_differences(name):
    model = load_preset(name).model
    for eq in all_equilibria(model):
        j = jacobian_coeffs(model, eq)
        fd = jacobian_coeffs_fd(model, eq)
        for attr in "ABCDE":
            exact = getattr(j, attr)
            approx = getattr(fd, attr)
            assert exact == pytest.approx(approx, rel=1e-6, abs=1e-7), (name, attr)


def test_disease_free_infected_column():
    # for incidence with f(x,0)=0, C at a disease-free point is
    # b1*df/dy(xbar,0) - d1 - r*P'(0); bilinear gives b1*xbar - d1 - r
    for name in ("ex5_1", "ex5_2", "ex5_4"):
        model = load_preset(name).model
        eq = [e for e in all_equilibria(model) if e.kind == "disease_free"][0]
        j = jacobian_coeffs(model, eq)
        p = model.params
        assert j.C == pytest.approx(p.b1 * eq.state.x - p.d1 - p.r, abs=1e-12)


@pytest.mark.parametrize("name, state", [
    ("ex5_7", State(-2.0, 1.0, 1.0)),  # x/(x + k) with k = 2
    ("ex5_5", State(-1.0, 1.0, 1.0)),  # x/(x + y)
])
def test_jacobian_at_a_pole_of_the_incidence_is_refused_by_name(name, state):
    with pytest.raises(DomainError, match="response partial df/dx undefined at"):
        jacobian_coeffs(load_preset(name).model, state)


def test_supports_disease_free_flag():
    assert load_preset("ex5_1").model.f.zero_when_y_zero
    assert not load_preset("ex5_5").model.f.zero_when_y_zero


def test_model_dict_round_trip_and_hash():
    model = load_preset("ex5_6").model
    again = ModelSpec.from_dict(to_jsonable(model))
    assert again == model
    assert again.content_hash() == model.content_hash()
    other = load_preset("ex5_7").model
    assert other.content_hash() != model.content_hash()


@pytest.mark.parametrize("value, like", [
    pytest.param(np.int64(10), 10, id="int64"),
    pytest.param(Fraction(10), 10.0, id="Fraction"),
])
def test_other_real_parameters_hash_like_the_number_they_convert_to(value, like):
    model = load_preset("ex5_1").model
    got = to_jsonable(value)
    assert got == like and type(got) is type(like)
    assert (replace(model, params=replace(model.params, a=value)).content_hash()
            == replace(model, params=replace(model.params, a=like)).content_hash())


def test_fraction_response_field_hashes_like_its_float():
    model = load_preset("ex5_1").model
    assert model.V == Linear(1.0)
    assert replace(model, V=Linear(Fraction(1))).content_hash() == model.content_hash()
