"""Delayed three-compartment susceptible/infected/recovered model.

The state (x, y, z) holds susceptible, infected and recovered densities.
With incidence f, vaccination V and recovery P the dynamics are

    x'(t) = a - b*f(x, y) - d*x - c*V(x) + alpha*z
    y'(t) = b1*f(x(t - tau), y) - r*P(y) - d1*y
    z'(t) = r*P(y(t - delta)) - alpha*z

where tau is the incubation delay and delta the recovery delay.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DomainError, check_finite
from .responses import ResponseFn, response_from_dict

__all__ = [
    "Params",
    "State",
    "to_jsonable",
    "ModelSpec",
    "JacCoeffs",
    "eval_rhs",
    "jacobian_coeffs",
    "jacobian_coeffs_fd",
]

#: relative central-difference step of jacobian_coeffs_fd
FD_STEP = 1e-6


@dataclass(frozen=True)
class Params:
    """Model rates and delays.

    a      susceptible inflow rate (>= 0)
    b      contact rate (> 0)
    b1     conversion rate, 0 < b1 <= b
    c      vaccination rate (>= 0; 0 when vaccination absent)
    d      susceptible removal rate (> 0)
    d1     infected removal rate (> 0)
    r      treatment rate (>= 0; 0 when treatment absent)
    alpha  re-susceptibility rate (> 0)
    tau    incubation delay (>= 0)
    delta  recovery delay (>= 0)
    """

    a: float
    b: float
    b1: float
    c: float
    d: float
    d1: float
    r: float
    alpha: float
    tau: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "b1", "c", "d", "d1", "r", "alpha", "tau", "delta"):
            v = getattr(self, name)
            check_finite(f"parameter {name}", v)
            if v < 0:
                raise DomainError(f"parameter {name} must be nonnegative, got {v}")
        for name in ("b", "b1", "d", "d1", "alpha"):
            if getattr(self, name) <= 0:
                raise DomainError(f"parameter {name} must be positive")
        if self.b1 > self.b:
            raise DomainError(f"conversion rate b1={self.b1} must not exceed contact rate b={self.b}")

    def with_delays(self, tau: float, delta: float) -> "Params":
        return replace(self, tau=tau, delta=delta)


@dataclass(frozen=True)
class State:
    """A point (x, y, z) of susceptible/infected/recovered densities."""

    x: float
    y: float
    z: float

    def as_tuple(self):
        return (self.x, self.y, self.z)

    def max_abs_diff(self, other: "State") -> float:
        return max(abs(self.x - other.x), abs(self.y - other.y), abs(self.z - other.z))

    def norm_inf(self) -> float:
        return max(abs(self.x), abs(self.y), abs(self.z))


#: types that ``to_jsonable`` returns as they are, checked first
_PLAIN = (bool, int, float, str)


def to_jsonable(value):
    """The JSON data of a record: dataclasses become dicts in field order,
    led by ``"kind"`` when the class declares a ``kind`` tag that is not a
    field; tuples and lists become lists, states [x, y, z] and complex
    numbers [re, im]; any other integer becomes an int, any other real
    number a float (a numpy integer, a Fraction) and a numpy bool a bool;
    every other value passes through unchanged."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, State):
        return [value.x, value.y, value.z]
    if is_dataclass(value):
        d = {f.name: to_jsonable(getattr(value, f.name)) for f in fields(value)}
        kind = getattr(type(value), "kind", None)
        return {"kind": kind, **d} if isinstance(kind, str) and "kind" not in d else d
    if isinstance(value, (tuple, list)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, np.bool_):  # comparisons of numpy scalars give these
        return bool(value)
    return value


@dataclass(frozen=True)
class ModelSpec:
    """Parameter set plus the three response-function choices.

    ``f`` is the two-argument incidence, ``V`` the one-argument vaccination
    response and ``P`` the one-argument recovery response (with P(0) = 0).
    """

    params: Params
    f: ResponseFn
    V: ResponseFn
    P: ResponseFn

    def __post_init__(self):
        if self.f.arity not in (None, 2):
            raise DomainError(f"incidence must take two arguments, got {self.f.kind}")
        if self.V.arity not in (None, 1):
            raise DomainError(f"vaccination response must take one argument, got {self.V.kind}")
        if self.P.arity not in (None, 1):
            raise DomainError(f"recovery response must take one argument, got {self.P.kind}")
        if abs(self.P.value(0.0)) > 1e-14:
            raise DomainError("recovery response must satisfy P(0) = 0")
        # The equilibrium search needs V evaluable and nondecreasing on the
        # susceptible range [0, a/d], and P nondecreasing on the infected
        # range [0, b1*a/(b*d1)].  Every shipped one-argument kind has a
        # monotone slope, so the slopes at the two ends decide it.
        p = self.params
        for u in (0.0, p.a / p.d):
            check_finite(f"vaccination response at x={u}", self.V.value(u))
            if self.V.partial(0, u) < 0.0:
                raise DomainError(f"vaccination response must not decrease, but does at x={u}")
        for u in (0.0, p.b1 * p.a / (p.b * p.d1)):
            if self.P.partial(0, u) < 0.0:
                raise DomainError(f"recovery response must not decrease, but does at y={u}")

    @cached_property
    def rhs(self):
        """The right-hand side as a function of (x, y, z, x_tau, y_delta).

        Binds the parameters and the three response formulas once and
        checks no argument: :func:`eval_rhs` checks its inputs, and the
        integrator checks the state after every step.
        """
        p = self.params
        a, b, b1, c, d, d1, r, alpha = p.a, p.b, p.b1, p.c, p.d, p.d1, p.r, p.alpha
        f, V, P = self.f.value, self.V.value, self.P.value

        def rhs(x, y, z, x_tau, y_delta):
            return (
                a - b * f(x, y) - d * x - c * V(x) + alpha * z,
                b1 * f(x_tau, y) - r * P(y) - d1 * y,
                r * P(y_delta) - alpha * z,
            )

        return rhs

    def __getstate__(self):
        # the bound right-hand side is a closure: pickle without it, rebuild on use
        return {k: v for k, v in vars(self).items() if k != "rhs"}

    @property
    def supports_disease_free(self) -> bool:
        """True when the incidence vanishes at y = 0, a prerequisite for a
        disease-free steady state."""
        return self.f.zero_when_y_zero

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        for key in ("params", "f", "V", "P"):
            if key not in d:
                raise DomainError(f"model spec missing {key!r}")
        return cls(
            params=Params(**d["params"]),
            f=response_from_dict(d["f"]),
            V=response_from_dict(d["V"]),
            P=response_from_dict(d["P"]),
        )

    def content_hash(self) -> str:
        """Short deterministic hash of the model definition."""
        blob = json.dumps(to_jsonable(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def eval_rhs(model: ModelSpec, now: State, x_tau: float, y_delta: float):
    """Right-hand side of the delayed system.

    ``x_tau`` is the susceptible density at t - tau and ``y_delta`` the
    infected density at t - delta.  Returns the derivative triple
    (dx, dy, dz).
    """
    for v in (now.x, now.y, now.z, x_tau, y_delta):
        if not math.isfinite(v):
            raise DomainError(f"non-finite state passed to eval_rhs: {v!r}")
    return model.rhs(now.x, now.y, now.z, x_tau, y_delta)


@dataclass(frozen=True)
class JacCoeffs:
    """The five partial-derivative aggregates of the linearization.

    At an equilibrium (x*, y*, z*):

        A = -b*f_x - c*V' - d      (current x)
        B = -b*f_y                 (current y)
        C = b1*f_y - d1 - r*P'     (current y)
        D = b1*f_x                 (delayed x argument)
        E = r*P'                   (delayed y argument)

    plus alpha copied from the parameters.
    """

    A: float
    B: float
    C: float
    D: float
    E: float
    alpha: float


def jacobian_coeffs(model: ModelSpec, eq) -> JacCoeffs:
    """Evaluate the linearization coefficients analytically at an equilibrium.

    ``eq`` may be an Equilibrium or a bare State.
    """
    st = getattr(eq, "state", eq)
    if not all(math.isfinite(v) for v in st.as_tuple()):
        raise DomainError(f"non-finite state passed to jacobian_coeffs: {st}")
    p = model.params
    fx = model.f.partial(0, st.x, st.y)
    fy = model.f.partial(1, st.x, st.y)
    vp = model.V.partial(0, st.x)
    pp = model.P.partial(0, st.y)
    for v, label in ((fx, "df/dx"), (fy, "df/dy"), (vp, "dV/dx"), (pp, "dP/dy")):
        if not math.isfinite(v):
            raise DomainError(f"response partial {label} undefined at equilibrium {st}")
    return JacCoeffs(
        A=-p.b * fx - p.c * vp - p.d,
        B=-p.b * fy,
        C=p.b1 * fy - p.d1 - p.r * pp,
        D=p.b1 * fx,
        E=p.r * pp,
        alpha=p.alpha,
    )


def jacobian_coeffs_fd(model: ModelSpec, eq) -> JacCoeffs:
    """Central-finite-difference version of :func:`jacobian_coeffs`.

    Differentiates eval_rhs directly, treating current and delayed
    arguments independently.  Serves as a cross-check for the analytic
    coefficients.
    """
    st = getattr(eq, "state", eq)
    x, y, z = st.as_tuple()
    p = model.params

    def rhs(xc, yc, zc, xt, yd):
        return eval_rhs(model, State(xc, yc, zc), xt, yd)

    hx = FD_STEP * (1.0 + abs(x))
    hy = FD_STEP * (1.0 + abs(y))
    # A: d(dx)/dx with the delayed argument held fixed
    A = (rhs(x + hx, y, z, x, y)[0] - rhs(x - hx, y, z, x, y)[0]) / (2 * hx)
    B = (rhs(x, y + hy, z, x, y)[0] - rhs(x, y - hy, z, x, y)[0]) / (2 * hy)
    C = (rhs(x, y + hy, z, x, y)[1] - rhs(x, y - hy, z, x, y)[1]) / (2 * hy)
    D = (rhs(x, y, z, x + hx, y)[1] - rhs(x, y, z, x - hx, y)[1]) / (2 * hx)
    E = (rhs(x, y, z, x, y + hy)[2] - rhs(x, y, z, x, y - hy)[2]) / (2 * hy)
    return JacCoeffs(A=A, B=B, C=C, D=D, E=E, alpha=p.alpha)
