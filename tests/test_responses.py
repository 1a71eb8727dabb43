import json
import math

import pytest

from sirdelay.errors import DomainError
from sirdelay.model import ModelSpec, Params, State, eval_rhs, jacobian_coeffs, to_jsonable
from sirdelay.responses import (
    Bilinear,
    FractionalMix,
    Linear,
    PowerSum,
    ResponseFn,
    SaturatingIncidence,
    SaturatingUnary,
    Zero,
    response_from_dict,
)

ALL_VARIANTS = [
    Zero(),
    Linear(1.0),
    Linear(0.25),
    Bilinear(),
    SaturatingIncidence(2.0),
    FractionalMix(),
    SaturatingUnary(1.0),
    SaturatingUnary(2.0),
    PowerSum(0.0, 1.0),
    PowerSum(1.5, 0.5),
]


def sample_args(fn):
    if fn.arity == 2:
        return [(2.0, 6.0), (0.5, 0.25), (3.0, 0.0), (0.0, 4.0), (1.0, 1.0)]
    return [(0.5,), (1.0,), (2.0,), (7.5,)]


def central_diff(fn, index, args, h=1e-6):
    lo = list(args)
    hi = list(args)
    step = h * (1.0 + abs(args[index]))
    lo[index] -= step
    hi[index] += step
    return (fn.value(*hi) - fn.value(*lo)) / (2.0 * step)


def test_bilinear_values():
    f = Bilinear()
    assert f.value(2.0, 6.0) == 12.0
    assert f.partial(0, 2.0, 6.0) == 6.0
    assert f.partial(1, 2.0, 6.0) == 2.0


def test_saturating_incidence_value():
    f = SaturatingIncidence(2.0)
    assert f.value(2.0, 3.0) == pytest.approx(1.5, abs=1e-15)


def test_saturating_unary_value_and_slope():
    p = SaturatingUnary(1.0)
    assert p.value(1.0) == pytest.approx(0.5, abs=1e-15)
    assert p.partial(0, 1.0) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("fn", ALL_VARIANTS, ids=lambda f: f.kind + str(getattr(f, "k", "")))
def test_partials_match_finite_differences(fn):
    for args in sample_args(fn):
        if isinstance(fn, FractionalMix) and args[0] + args[1] < 0.3:
            continue  # finite differences degrade near the excluded corner
        n = 2 if fn.arity == 2 else 1
        for index in range(n):
            approx = central_diff(fn, index, args)
            exact = fn.partial(index, *args)
            assert exact == pytest.approx(approx, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("fn", ALL_VARIANTS, ids=lambda f: f.kind + str(getattr(f, "k", "")))
def test_nonnegative_on_nonnegative_args(fn):
    if isinstance(fn, PowerSum) and (fn.p1 < 0 or fn.p2 < 0):
        pytest.skip("sign depends on coefficients")
    for args in sample_args(fn):
        assert fn.value(*args) >= 0.0


def test_incidence_vanishing_flags():
    assert Bilinear().zero_when_y_zero
    assert SaturatingIncidence(2.0).zero_when_y_zero
    assert Zero().zero_when_y_zero
    assert not FractionalMix().zero_when_y_zero
    # f(x, 0) = 0 holds for the flagged ones
    for x in (0.0, 1.0, 5.0):
        assert Bilinear().value(x, 0.0) == 0.0
        assert SaturatingIncidence(2.0).value(x, 0.0) == 0.0
    # FractionalMix keeps f(0, y) = 0 but not f(x, 0) = 0
    assert FractionalMix().value(0.0, 3.0) == 0.0
    assert FractionalMix().value(3.0, 0.0) == 1.0


def test_fractional_mix_origin_convention():
    f = FractionalMix()
    assert f.value(0.0, 0.0) == 0.0
    assert f.partial(0, 0.0, 0.0) == 0.0
    assert f.partial(1, 0.0, 0.0) == 0.0


def _model_with(fn):
    params = Params(a=10.0, b=1.0, b1=1.0, c=1.0, d=1.0, d1=1.0, r=1.0, alpha=1.0)
    if fn.arity == 1:
        return ModelSpec(params, f=Bilinear(), V=fn, P=fn)
    return ModelSpec(params, f=fn, V=Linear(1.0), P=Linear(1.0))


def test_non_finite_rejected():
    # no response checks its arguments: eval_rhs and jacobian_coeffs check
    # the numbers they are given, even where every partial ignores them
    # (f = Zero, V = P = Linear); an int past the float range and a bool
    # are not finite numbers either
    for fn in ALL_VARIANTS:
        model = _model_with(fn)
        for bad in (math.nan, math.inf, -math.inf, 10**400, True):
            for i in range(5):
                args = [1.0] * 5
                args[i] = bad
                with pytest.raises(DomainError, match="must be a finite number"):
                    eval_rhs(model, State(*args[:3]), *args[3:])
                if i < 3:
                    with pytest.raises(DomainError, match="must be a finite number"):
                        jacobian_coeffs(model, State(*args[:3]))


def test_a_subclass_defining_value_and_partial_works_in_a_model():
    class Half(ResponseFn):
        arity = 1

        def value(self, u):
            return 0.5 * u

        def partial(self, index, u):
            return 0.5

    model = _model_with(Half())
    assert eval_rhs(model, State(2.0, 3.0, 1.0), 2.0, 3.0) == (2.0, 1.5, 0.5)
    assert jacobian_coeffs(model, State(2.0, 3.0, 1.0)).E == 0.5


def test_bad_parameters_rejected():
    with pytest.raises(DomainError):
        SaturatingIncidence(0.0)
    with pytest.raises(DomainError):
        SaturatingUnary(-1.0)
    with pytest.raises(DomainError):
        Linear(math.inf)


@pytest.mark.parametrize("bad", [pytest.param(10**400, id="10**400"), True, False])
@pytest.mark.parametrize("cls, field, others", [
    (Linear, "k", {}),
    (SaturatingIncidence, "k", {}),
    (SaturatingUnary, "k", {}),
    (PowerSum, "p1", {"p2": 1.0}),
    (PowerSum, "p2", {"p1": 0.0}),
], ids=["Linear", "SaturatingIncidence", "SaturatingUnary", "PowerSum.p1", "PowerSum.p2"])
def test_constructors_refuse_huge_integers_and_booleans(cls, field, others, bad):
    # an int too large for a float, and a bool, are not numbers here
    with pytest.raises(DomainError, match=f"{field} must be a finite number"):
        cls(**others, **{field: bad})


@pytest.mark.parametrize("fn", ALL_VARIANTS, ids=lambda f: f.kind + str(getattr(f, "k", "")))
def test_dict_round_trip(fn):
    again = response_from_dict(json.loads(json.dumps(to_jsonable(fn))))
    assert again == fn


def test_variants_cover_every_response_kind():
    tagged = {cls.kind for cls in ResponseFn.__subclasses__()} - {None}
    assert {fn.kind for fn in ALL_VARIANTS} == tagged


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(DomainError):
        response_from_dict({"kind": "sigmoid"})
    with pytest.raises(DomainError):
        response_from_dict({"kind": "linear", "slope": 2.0})
