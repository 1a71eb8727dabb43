"""Catalog of incidence, vaccination and recovery response functions.

Each response function is a small immutable object exposing an analytic
value and analytic partial derivatives.  Two-argument forms serve as the
incidence term f(x, y); one-argument forms serve as the vaccination term
V(x) and the recovery term P(y).

Conventions
-----------
* ``FractionalMix`` (x/(x+y)) is defined as 0 with zero partials at the
  origin so the model right-hand side stays finite; the point (0, 0) is
  never reached from positive data.
* ``zero_when_y_zero`` is True for incidence forms with f(x, 0) = 0 for
  all x.  A disease-free steady state can only exist when that holds, so
  the equilibrium search consults this flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

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


@dataclass(frozen=True)
class ResponseFn:
    """Base class; each concrete variant defines the formulas value(*args)
    and partial(index, *args), the analytic partial derivative with respect
    to argument ``index``.  Neither checks its arguments: non-finite numbers
    are refused where they enter (``Params``, the constructors, the
    histories, ``eval_rhs`` and ``jacobian_coeffs``)."""

    #: the tag of the JSON form {kind, k?, p1?, p2?}, one per concrete class
    kind = None
    #: number of arguments the function takes; None means either 1 or 2
    arity = None
    #: True when the function vanishes identically at y = 0 (binary forms)
    zero_when_y_zero = False


@dataclass(frozen=True)
class Zero(ResponseFn):
    """Identically zero; usable in place of any response term."""

    kind = "zero"
    arity = None
    zero_when_y_zero = True

    def value(self, *args):
        return 0.0

    def partial(self, index, *args):
        return 0.0


@dataclass(frozen=True)
class Linear(ResponseFn):
    """k * u."""

    kind = "linear"
    k: float = 1.0
    arity = 1

    def __post_init__(self):
        if not math.isfinite(self.k):
            raise DomainError("Linear slope must be finite")

    def value(self, u):
        return self.k * u

    def partial(self, index, u):
        return self.k


@dataclass(frozen=True)
class Bilinear(ResponseFn):
    """Mass-action incidence x * y."""

    kind = "bilinear"
    arity = 2
    zero_when_y_zero = True

    def value(self, x, y):
        return x * y

    def partial(self, index, x, y):
        return y if index == 0 else x


@dataclass(frozen=True)
class SaturatingIncidence(ResponseFn):
    """(x / (x + k)) * y: incidence saturating in the susceptible pool."""

    kind = "saturating_incidence"
    k: float
    arity = 2
    zero_when_y_zero = True

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise DomainError("SaturatingIncidence needs k > 0")

    def value(self, x, y):
        return (x / (x + self.k)) * y

    def partial(self, index, x, y):
        if index == 0:
            return self.k * y / (x + self.k) ** 2
        return x / (x + self.k)


@dataclass(frozen=True)
class FractionalMix(ResponseFn):
    """x / (x + y), extended by 0 at the origin.

    Satisfies f(0, y) = 0 but not f(x, 0) = 0, so models using this
    incidence admit no disease-free steady state.
    """

    kind = "fractional_mix"
    arity = 2
    zero_when_y_zero = False

    def value(self, x, y):
        s = x + y
        if s == 0.0:
            return 0.0
        return x / s

    def partial(self, index, x, y):
        s = x + y
        if s == 0.0:
            return 0.0
        if index == 0:
            return y / s**2
        return -x / s**2


@dataclass(frozen=True)
class SaturatingUnary(ResponseFn):
    """u / (k + u): saturating one-argument response."""

    kind = "saturating_unary"
    k: float
    arity = 1

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise DomainError("SaturatingUnary needs k > 0")

    def value(self, u):
        return u / (self.k + u)

    def partial(self, index, u):
        return self.k / (self.k + u) ** 2


@dataclass(frozen=True)
class PowerSum(ResponseFn):
    """p1 * u + p2 * u**2 (e.g. quadratic vaccination effort)."""

    kind = "power_sum"
    p1: float
    p2: float
    arity = 1

    def __post_init__(self):
        if not (math.isfinite(self.p1) and math.isfinite(self.p2)):
            raise DomainError("PowerSum coefficients must be finite")

    def value(self, u):
        return self.p1 * u + self.p2 * u * u

    def partial(self, index, u):
        return self.p1 + 2.0 * self.p2 * u


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
