import json
import math
import sys
from dataclasses import fields

import pytest

from sirdelay.errors import DomainError
from sirdelay.model import ModelSpec, Params, State, eval_rhs, jacobian_coeffs, to_jsonable
from sirdelay.responses import (
    _CLASS_BY_KIND,
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


def _fractional_mix_partial(fn, index, x, y):
    s = x + y
    if s == 0.0:
        return 0.0
    return y / s**2 if index == 0 else -x / s**2


#: the hand-written partial of each kind that the one generic
#: ``ResponseFn.partial`` replaced, kept as its reference
HAND_PARTIALS = {
    "zero": lambda fn, index, *args: 0.0,
    "linear": lambda fn, index, u: fn.k,
    "bilinear": lambda fn, index, x, y: y if index == 0 else x,
    "saturating_incidence": lambda fn, index, x, y: (
        fn.k * y / (x + fn.k) ** 2 if index == 0 else x / (x + fn.k)),
    "fractional_mix": _fractional_mix_partial,
    "saturating_unary": lambda fn, index, u: fn.k / (fn.k + u) ** 2,
    "power_sum": lambda fn, index, u: fn.p1 + 2.0 * fn.p2 * u,
}

#: 0 and every decade from 1e-6 to 1e6
GRID = [0.0] + [10.0**e for e in range(-6, 7)]


@pytest.mark.parametrize("kind", sorted(_CLASS_BY_KIND))
def test_generic_partial_matches_the_hand_written_formula(kind):
    # every parameter at 1e-4 and at 1e3, and PowerSum with a slope that
    # changes sign; FractionalMix's origin takes the 0/0 convention
    cls, hand = _CLASS_BY_KIND[kind], HAND_PARTIALS[kind]
    fns = [cls(**{f.name: v for f in fields(cls)}) for v in (1e-4, 1e3)]
    if cls is PowerSum:
        fns.append(PowerSum(2.0, -0.1))
    for fn in fns:
        for n in ((fn.arity,) if fn.arity else (1, 2)):
            points = [(u,) for u in GRID] if n == 1 else [(x, y) for x in GRID for y in GRID]
            for args in points:
                for index in range(n):
                    want = hand(fn, index, *args)
                    assert fn.partial(index, *args) == pytest.approx(want, rel=1e-15, abs=0.0), \
                        (fn, index, args)


def _at(form, args):
    return form.num.at(*args) / form.den.at(*args)


@pytest.mark.parametrize("fn", ALL_VARIANTS, ids=lambda f: f.kind + str(getattr(f, "k", "")))
def test_second_derivatives_of_the_cached_form_match_central_differences(fn):
    # the cached first derivatives differentiated once more; a central
    # difference of a partial g with step h is off by about h**2/6 * |g'''|
    # (g''' from the form too, with a factor 2 for its change over the
    # step) plus the round-off of two partials over 2h
    eps = sys.float_info.epsilon
    for args in sample_args(fn):
        if isinstance(fn, FractionalMix) and args[0] + args[1] < 0.3:
            continue
        n = len(args)
        for i in range(n):
            for j in range(n):
                second = fn._derivatives()[i].diff(j)
                h = 1e-4 * (1.0 + abs(args[j]))
                lo, hi = list(args), list(args)
                lo[j] -= h
                hi[j] += h
                approx = (fn.partial(i, *hi) - fn.partial(i, *lo)) / (2.0 * h)
                bound = (h * h / 3.0 * abs(_at(second.diff(j).diff(j), args))
                         + 8.0 * eps * (1.0 + abs(fn.partial(i, *args))) / h)
                assert abs(_at(second, args) - approx) <= bound, (fn, i, j, args)
        if n == 2:
            fxy, fyx = fn._derivatives()[0].diff(1), fn._derivatives()[1].diff(0)
            assert _at(fxy, args) == pytest.approx(_at(fyx, args), rel=1e-14, abs=1e-300)


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
    assert not any(fn.zero_when_y_zero for fn in (Linear(1.0), SaturatingUnary(1.0),
                                                  PowerSum(1.0, 0.5)))
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


def test_a_subclass_defining_only_value_gets_its_jacobian():
    class SaturatingInInfected(ResponseFn):
        arity = 2

        def value(self, x, y):
            return x * y / (1.0 + y)

    # f_x = y/(1+y) = 3/4 and f_y = x/(1+y)**2 = 1/8 at (2, 3)
    j = jacobian_coeffs(_model_with(SaturatingInInfected()), State(2.0, 3.0, 1.0))
    assert (j.A, j.B, j.C, j.D, j.E) == (-2.75, -0.125, -1.875, 0.75, 1.0)


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
