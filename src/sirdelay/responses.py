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


def _require_finite(*args):
    for v in args:
        if not math.isfinite(v):
            raise DomainError(f"non-finite argument {v!r} to response function")


@dataclass(frozen=True)
class ResponseFn:
    """Base class; concrete variants implement the formulas _value() and
    _partial(), and value() and partial() check the arguments first."""

    #: number of arguments the function takes; None means either 1 or 2
    arity = None
    #: True when the function vanishes identically at y = 0 (binary forms)
    zero_when_y_zero = False

    @property
    def kind(self) -> str:
        return _KIND_BY_CLASS[type(self)]

    def value(self, *args: float) -> float:
        _require_finite(*args)
        return self._value(*args)

    def partial(self, index: int, *args: float) -> float:
        """Analytic partial derivative with respect to argument ``index``."""
        _require_finite(*args)
        return self._partial(index, *args)

    @property
    def formula(self):
        """The value without the argument check, for loops that check their
        results."""
        return self._value

    def _value(self, *args: float) -> float:
        raise NotImplementedError

    def _partial(self, index: int, *args: float) -> float:
        raise NotImplementedError

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for name in getattr(self, "__dataclass_fields__", {}):
            d[name] = getattr(self, name)
        return d


@dataclass(frozen=True)
class Zero(ResponseFn):
    """Identically zero; usable in place of any response term."""

    arity = None
    zero_when_y_zero = True

    def _value(self, *args):
        return 0.0

    def _partial(self, index, *args):
        return 0.0


@dataclass(frozen=True)
class Linear(ResponseFn):
    """k * u."""

    k: float = 1.0
    arity = 1

    def __post_init__(self):
        if not math.isfinite(self.k):
            raise DomainError("Linear slope must be finite")

    def _value(self, u):
        return self.k * u

    def _partial(self, index, u):
        return self.k


@dataclass(frozen=True)
class Bilinear(ResponseFn):
    """Mass-action incidence x * y."""

    arity = 2
    zero_when_y_zero = True

    def _value(self, x, y):
        return x * y

    def _partial(self, index, x, y):
        return y if index == 0 else x


@dataclass(frozen=True)
class SaturatingIncidence(ResponseFn):
    """(x / (x + k)) * y: incidence saturating in the susceptible pool."""

    k: float
    arity = 2
    zero_when_y_zero = True

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise DomainError("SaturatingIncidence needs k > 0")

    def _value(self, x, y):
        return (x / (x + self.k)) * y

    def _partial(self, index, x, y):
        if index == 0:
            return self.k * y / (x + self.k) ** 2
        return x / (x + self.k)


@dataclass(frozen=True)
class FractionalMix(ResponseFn):
    """x / (x + y), extended by 0 at the origin.

    Satisfies f(0, y) = 0 but not f(x, 0) = 0, so models using this
    incidence admit no disease-free steady state.
    """

    arity = 2
    zero_when_y_zero = False

    def _value(self, x, y):
        s = x + y
        if s == 0.0:
            return 0.0
        return x / s

    def _partial(self, index, x, y):
        s = x + y
        if s == 0.0:
            return 0.0
        if index == 0:
            return y / s**2
        return -x / s**2


@dataclass(frozen=True)
class SaturatingUnary(ResponseFn):
    """u / (k + u): saturating one-argument response."""

    k: float
    arity = 1

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise DomainError("SaturatingUnary needs k > 0")

    def _value(self, u):
        return u / (self.k + u)

    def _partial(self, index, u):
        return self.k / (self.k + u) ** 2


@dataclass(frozen=True)
class PowerSum(ResponseFn):
    """p1 * u + p2 * u**2 (e.g. quadratic vaccination effort)."""

    p1: float
    p2: float
    arity = 1

    def __post_init__(self):
        if not (math.isfinite(self.p1) and math.isfinite(self.p2)):
            raise DomainError("PowerSum coefficients must be finite")

    def _value(self, u):
        return self.p1 * u + self.p2 * u * u

    def _partial(self, index, u):
        return self.p1 + 2.0 * self.p2 * u


_KIND_BY_CLASS = {
    Zero: "zero",
    Linear: "linear",
    Bilinear: "bilinear",
    SaturatingIncidence: "saturating_incidence",
    FractionalMix: "fractional_mix",
    SaturatingUnary: "saturating_unary",
    PowerSum: "power_sum",
}
_CLASS_BY_KIND = {v: k for k, v in _KIND_BY_CLASS.items()}


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
