"""Catalog of incidence, vaccination and recovery response functions.

Each response function is a small immutable object exposing an analytic
value; its partial derivatives follow from that value.  Two-argument forms
serve as the incidence term f(x, y); one-argument forms serve as the
vaccination term V(x) and the recovery term P(y).

Conventions
-----------
* Each ``value`` is rational in its arguments: it uses only +, -, *, /,
  integer powers and the test ``== 0.0``.  This module's private rational
  type (``_Poly``, ``_Ratio``) runs it unchanged on the symbols x and y
  (where ``== 0.0`` means "identically zero"): ``ResponseFn.partial``
  differentiates that form by the quotient rule, ``zero_when_y_zero``
  reads its numerator, and the equilibrium search in
  ``sirdelay.equilibria`` reads each kind's numerator polynomials from it.
  A kind that needs more (exp, an order comparison, a fractional power)
  cannot join the catalog without new derivatives and a new search.
* A partial derivative whose numerator and denominator are both exactly 0
  at the point is 0.  So ``FractionalMix`` (x/(x+y)), defined as 0 at the
  origin, has zero partials there and the model right-hand side stays
  finite; the point (0, 0) is never reached from positive data.  One whose
  denominator alone is 0 is infinite, which ``jacobian_coeffs`` refuses
  by name.
* ``zero_when_y_zero`` is True for incidence forms with f(x, 0) = 0 for
  all x: no term of the numerator is free of y.  A disease-free steady
  state can only exist when that holds, so the equilibrium search
  consults it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError, check_finite

__all__ = [
    "ResponseFn",
    "Zero",
    "Linear",
    "Bilinear",
    "SaturatingIncidence",
    "FractionalMix",
    "SaturatingUnary",
    "PowerSum",
    "response_from_dict",
]


class _Poly(dict):
    """A polynomial in x and y: {(i, j): coefficient of x**i * y**j}."""

    def __add__(self, other):
        out = _Poly(self)
        for key, c in other.items():
            out[key] = out.get(key, 0) + c
        return out

    def __neg__(self):
        return _Poly({key: -c for key, c in self.items()})

    def __mul__(self, other):
        out = _Poly()
        for (i, j), c in self.items():
            for (k, l), e in other.items():
                out[i + k, j + l] = out.get((i + k, j + l), 0) + c * e
        return out

    def diff(self, index):
        """The partial derivative in x (index 0) or in y (index 1)."""
        di, dj = (1, 0) if index == 0 else (0, 1)
        return _Poly({(i - di, j - dj): c * (i, j)[index]
                      for (i, j), c in self.items() if (i, j)[index]})

    def at(self, x, y=0.0):
        """The value at (x, y); a polynomial in x alone needs no y."""
        return sum(c * x**i * y**j for (i, j), c in self.items())


_ONE = _Poly({(0, 0): 1})


class _Ratio:
    """num / den, two ``_Poly``: a response's ``value`` run on the symbols x
    and y.  ``== 0.0`` asks whether the ratio is identically zero."""

    __hash__ = None

    def __init__(self, num, den=_ONE):
        self.num, self.den = num, den

    def __add__(self, other):
        o = _ratio(other)
        if self.den == o.den:
            return _Ratio(self.num + o.num, self.den)
        return _Ratio(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return _Ratio(-self.num, self.den)

    def __sub__(self, other):
        return self + -_ratio(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = _ratio(other)
        return _Ratio(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _ratio(other)
        return _Ratio(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return _ratio(other) / self

    def __pow__(self, n):
        out = _ratio(1)
        for _ in range(abs(n)):
            out = out * self
        return out if n >= 0 else 1 / out

    def __eq__(self, other):
        return not any((self - other).num.values())

    def diff(self, index):
        """The partial derivative in x (index 0) or in y (index 1) by the
        quotient rule; like terms cancel in the coefficients, and the
        numerator keeps no zero term."""
        num = self.num.diff(index) * self.den + -(self.num * self.den.diff(index))
        return _Ratio(_Poly({key: c for key, c in num.items() if c}), self.den * self.den)


def _ratio(v):
    # a number as a constant ratio; 0 has no terms, so a float 0.0 (``Zero``)
    # leaves exact coefficients exact
    return v if isinstance(v, _Ratio) else _Ratio(_Poly({(0, 0): v} if v else {}))


_X, _Y = _Ratio(_Poly({(1, 0): 1})), _Ratio(_Poly({(0, 1): 1}))


@dataclass(frozen=True)
class ResponseFn:
    """Base class; each concrete variant defines only the formula
    value(*args), rational in its arguments, and ``partial`` and
    ``zero_when_y_zero`` derive from it (a subclass whose formula is not
    rational must define its own).
    ``value`` and ``partial`` check no argument: non-finite numbers are refused where they
    enter (``Params``, each field by ``__post_init__`` below, the histories,
    ``eval_rhs`` and ``jacobian_coeffs``)."""

    #: the tag of the JSON form {kind, k?, p1?, p2?}, one per concrete class
    kind = None
    #: number of arguments the function takes; None means either 1 or 2
    arity = None

    def __post_init__(self):
        for f in fields(self):
            check_finite(f"{type(self).__name__} {f.name}", getattr(self, f.name))

    def _form(self):
        # ``value`` run on the symbols: on x and y, or on x alone (arity 1)
        return _ratio(self.value(*(_X, _Y)[:self.arity or 2]))

    @property
    def zero_when_y_zero(self) -> bool:
        """True when the function vanishes identically at y = 0: no term of
        the numerator of ``value`` run on the symbols is free of y (a
        one-argument form runs on x, so it is True only when identically 0)."""
        return all(j for (_, j), c in self._form().num.items() if c)

    def _derivatives(self):
        # the first partial derivatives of ``value`` run on the symbols, kept
        # on the instance by object.__setattr__: a write through __dict__
        # (as by functools.cached_property) slows later attribute reads
        try:
            return self._first_partials
        except AttributeError:
            n = self.arity or 2
            form = self._form()
            object.__setattr__(self, "_first_partials", tuple(form.diff(i) for i in range(n)))
            return self._first_partials

    def partial(self, index, *args):
        """The partial derivative of ``value`` with respect to argument
        ``index`` at ``args``; 0.0 where the derivative's numerator and
        denominator are both exactly 0, and at a pole, where only the
        denominator (a square) is, an infinity of the numerator's sign."""
        d = self._derivatives()[index]
        num, den = d.num.at(*args), d.den.at(*args)
        if den == 0.0:
            return math.copysign(math.inf, num) if num else 0.0
        return num / den


@dataclass(frozen=True)
class Zero(ResponseFn):
    """Identically zero; usable in place of any response term."""

    kind = "zero"
    arity = None

    def value(self, *args):
        return 0.0


@dataclass(frozen=True)
class Linear(ResponseFn):
    """k * u."""

    kind = "linear"
    k: float = 1.0
    arity = 1

    def value(self, u):
        return self.k * u


@dataclass(frozen=True)
class Bilinear(ResponseFn):
    """Mass-action incidence x * y."""

    kind = "bilinear"
    arity = 2

    def value(self, x, y):
        return x * y


@dataclass(frozen=True)
class SaturatingIncidence(ResponseFn):
    """(x / (x + k)) * y: incidence saturating in the susceptible pool."""

    kind = "saturating_incidence"
    k: float
    arity = 2

    def __post_init__(self):
        super().__post_init__()
        if not self.k > 0:
            raise DomainError("SaturatingIncidence needs k > 0")

    def value(self, x, y):
        return (x / (x + self.k)) * y


@dataclass(frozen=True)
class FractionalMix(ResponseFn):
    """x / (x + y), extended by 0 at the origin.

    Satisfies f(0, y) = 0 but not f(x, 0) = 0, so models using this
    incidence admit no disease-free steady state.
    """

    kind = "fractional_mix"
    arity = 2

    def value(self, x, y):
        s = x + y
        if s == 0.0:
            return 0.0
        return x / s


@dataclass(frozen=True)
class SaturatingUnary(ResponseFn):
    """u / (k + u): saturating one-argument response."""

    kind = "saturating_unary"
    k: float
    arity = 1

    def __post_init__(self):
        super().__post_init__()
        if not self.k > 0:
            raise DomainError("SaturatingUnary needs k > 0")

    def value(self, u):
        return u / (self.k + u)


@dataclass(frozen=True)
class PowerSum(ResponseFn):
    """p1 * u + p2 * u**2 (e.g. quadratic vaccination effort)."""

    kind = "power_sum"
    p1: float
    p2: float
    arity = 1

    def value(self, u):
        return self.p1 * u + self.p2 * u * u


_CLASS_BY_KIND = {cls.kind: cls for cls in (
    Zero, Linear, Bilinear, SaturatingIncidence, FractionalMix, SaturatingUnary, PowerSum)}


def response_from_dict(d: dict) -> ResponseFn:
    """Build a response function from its JSON form {kind, k?, p1?, p2?}."""
    if not isinstance(d, dict) or "kind" not in d:
        raise DomainError(f"response spec must be a dict with a 'kind': {d!r}")
    kind = d["kind"]
    cls = _CLASS_BY_KIND.get(kind)
    if cls is None:
        raise DomainError(f"unknown response kind {kind!r}")
    kwargs = {k: v for k, v in d.items() if k != "kind"}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise DomainError(f"bad parameters for response {kind!r}: {exc}") from exc
