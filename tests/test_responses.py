import math

import pytest

from sirdelay.errors import DomainError
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


def test_non_finite_rejected():
    with pytest.raises(DomainError):
        Bilinear().value(math.inf, 1.0)
    with pytest.raises(DomainError):
        Linear(1.0).value(math.nan)
    with pytest.raises(DomainError):
        SaturatingUnary(1.0).partial(0, math.nan)


@pytest.mark.parametrize("fn", ALL_VARIANTS, ids=lambda f: f.kind + str(getattr(f, "k", "")))
def test_formula_is_value_without_the_check(fn):
    args = (0.7, 1.3)[: fn.arity or 2]
    assert fn.formula(*args) == fn.value(*args)


def test_formula_skips_the_check():
    assert math.isnan(Bilinear().formula(math.inf, 0.0))  # inf * 0

    class Half(ResponseFn):
        arity = 1

        def _value(self, u):
            return 0.5 * u

    assert Half().formula(3.0) == 1.5


def test_bad_parameters_rejected():
    with pytest.raises(DomainError):
        SaturatingIncidence(0.0)
    with pytest.raises(DomainError):
        SaturatingUnary(-1.0)
    with pytest.raises(DomainError):
        Linear(math.inf)


@pytest.mark.parametrize("fn", ALL_VARIANTS, ids=lambda f: f.kind + str(getattr(f, "k", "")))
def test_dict_round_trip(fn):
    again = response_from_dict(fn.to_dict())
    assert again == fn


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(DomainError):
        response_from_dict({"kind": "sigmoid"})
    with pytest.raises(DomainError):
        response_from_dict({"kind": "linear", "slope": 2.0})
