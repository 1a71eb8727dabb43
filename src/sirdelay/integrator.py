"""Fixed-step method-of-steps integration of the delayed model.

Classical fourth-order Runge-Kutta advances the state; delayed arguments
are read from cubic Hermite dense output over already-computed mesh
intervals (or from the initial history for times at or before zero).
Capping the step at the smallest positive delay keeps every delayed
lookup inside previously computed segments, so no implicit iteration is
needed.  The result is deterministic: identical inputs give a
byte-identical trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError
from .model import ModelSpec, State

__all__ = [
    "ConstantHistory",
    "SampledHistory",
    "HistorySpec",
    "Trajectory",
    "integrate",
    "dense_eval",
    "trajectory_to_csv",
    "default_step",
]

#: states dipping below this trigger a negativity-violation error
NEGATIVITY_TOL = -1e-6


@dataclass(frozen=True)
class ConstantHistory:
    """Constant state on (-inf, 0]."""

    state: State

    def __post_init__(self):
        if self.state.x < 0 or self.state.y < 0 or self.state.z < 0:
            raise ValueError("history states must be nonnegative")

    def value(self, t: float) -> State:
        return self.state

    def span(self) -> float:
        return math.inf

    def to_dict(self):
        s = self.state
        return {"kind": "constant", "state": [s.x, s.y, s.z]}


@dataclass(frozen=True)
class SampledHistory:
    """Piecewise-linear history through time-ordered samples ending at 0."""

    times: tuple
    states: tuple  # of State

    def __post_init__(self):
        if len(self.times) != len(self.states) or len(self.times) < 2:
            raise ValueError("sampled history needs >= 2 aligned samples")
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("sampled history times must increase strictly")
        if self.times[-1] < 0.0:
            raise ValueError("sampled history must reach t = 0")
        if any(s.x < 0 or s.y < 0 or s.z < 0 for s in self.states):
            raise ValueError("history states must be nonnegative")

    def span(self) -> float:
        return -self.times[0]

    def value(self, t: float) -> State:
        ts = self.times
        if t <= ts[0]:
            return self.states[0]
        if t >= ts[-1]:
            return self.states[-1]
        # linear scan is fine: histories are short
        for i in range(len(ts) - 1):
            if ts[i] <= t <= ts[i + 1]:
                w = (t - ts[i]) / (ts[i + 1] - ts[i])
                s0, s1 = self.states[i], self.states[i + 1]
                return State(
                    s0.x + w * (s1.x - s0.x),
                    s0.y + w * (s1.y - s0.y),
                    s0.z + w * (s1.z - s0.z),
                )
        return self.states[-1]

    def to_dict(self):
        return {
            "kind": "sampled",
            "times": list(self.times),
            "states": [[s.x, s.y, s.z] for s in self.states],
        }


HistorySpec = ConstantHistory | SampledHistory


def history_from_dict(d: dict) -> HistorySpec:
    kind = d.get("kind", "constant")
    if kind == "constant":
        x, y, z = d["state"]
        return ConstantHistory(State(float(x), float(y), float(z)))
    if kind == "sampled":
        return SampledHistory(
            times=tuple(float(t) for t in d["times"]),
            states=tuple(State(*map(float, s)) for s in d["states"]),
        )
    raise ValueError(f"unknown history kind {kind!r}")


@dataclass(frozen=True)
class Trajectory:
    """Dense-output solution on a uniform mesh from 0 to the horizon."""

    times: np.ndarray
    states: np.ndarray      # shape (n, 3)
    derivatives: np.ndarray  # shape (n, 3), for Hermite dense output
    step: float
    tau: float
    delta: float
    model_hash: str

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def final_state(self) -> State:
        x, y, z = self.states[-1]
        return State(float(x), float(y), float(z))

    def eval(self, t: float) -> State:
        return dense_eval(self, t)


def _hermite(h, y0, f0, y1, f1, w):
    w2 = w * w
    w3 = w2 * w
    return (
        (2.0 * w3 - 3.0 * w2 + 1.0) * y0
        + (w3 - 2.0 * w2 + w) * h * f0
        + (-2.0 * w3 + 3.0 * w2) * y1
        + (w3 - w2) * h * f1
    )


def dense_eval(traj: Trajectory, t: float) -> State:
    """Cubic Hermite interpolation of the trajectory at time t in [0, horizon].

    Mesh points reproduce the stored states exactly.
    """
    horizon = traj.horizon
    if not 0.0 <= t <= horizon:
        raise ValueError(f"time {t} outside trajectory range [0, {horizon}]")
    h = traj.step
    j = int(round(t / h))
    if 0 <= j < len(traj.times) and abs(t - j * h) <= 1e-9 * h:
        x, y, z = traj.states[j]
        return State(float(x), float(y), float(z))
    i = min(int(t / h), len(traj.times) - 2)
    s = traj.states
    d = traj.derivatives
    x, y, z = _hermite(h, s[i], d[i], s[i + 1], d[i + 1], (t - i * h) / h)
    return State(float(x), float(y), float(z))


def default_step(tau: float, delta: float) -> float:
    """min(0.01, smallest positive delay / 20); 0.01 when both delays vanish."""
    positive = [v for v in (tau, delta) if v > 0.0]
    if not positive:
        return 0.01
    return min(0.01, min(positive) / 20.0)


def integrate(model: ModelSpec, history: HistorySpec, horizon: float,
              step: float | None = None) -> Trajectory:
    """Integrate the delayed system from its history over [0, horizon].

    The step must not exceed the smallest positive delay (so delayed
    lookups never run ahead of computed segments); with both delays zero
    it must not exceed horizon/100.  Raises IntegrationError when a state
    component falls below -1e-6 (negativity violation) or stops being
    finite (blow-up).
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    p = model.params
    tau, delta = p.tau, p.delta
    if step is None:
        step = default_step(tau, delta)
    positive = [v for v in (tau, delta) if v > 0.0]
    if step <= 0.0:
        raise ValueError("step must be positive")
    if positive and step > min(positive) + 1e-15:
        raise ValueError(
            f"step {step} exceeds the smallest positive delay {min(positive)}"
        )
    if not positive and step > horizon / 100.0 + 1e-15:
        raise ValueError("with no delays the step must not exceed horizon/100")
    span_needed = max(tau, delta)
    if history.span() < span_needed - 1e-12:
        raise ValueError(
            f"history covers {history.span()}, but delays need {span_needed}"
        )

    n = max(1, math.ceil(horizon / step - 1e-9))
    h = horizon / n

    a, b, b1, c, d, d1, r, alpha = p.a, p.b, p.b1, p.c, p.d, p.d1, p.r, p.alpha
    fval = model.f.value
    Vval = model.V.value
    Pval = model.P.value
    use_xt = tau > 0.0
    use_yd = delta > 0.0

    if isinstance(history, ConstantHistory):
        hx0, hy0 = history.state.x, history.state.y
        hist_x = lambda t: hx0
        hist_y = lambda t: hy0
    else:
        hist_x = lambda t: history.value(t).x
        hist_y = lambda t: history.value(t).y

    s0 = history.value(0.0)
    xs = [s0.x]
    ys = [s0.y]
    zs = [s0.z]
    dxs = []
    dys = []
    dzs = []

    def past(arr, darr, hist, t):
        if t <= 0.0:
            return hist(t)
        i = int(t / h)
        top = len(arr) - 2
        if i > top:
            i = top
        return _hermite(h, arr[i], darr[i], arr[i + 1], darr[i + 1], (t - i * h) / h)

    def rhs(s, x, y, z):
        xt = past(xs, dxs, hist_x, s - tau) if use_xt else x
        yd = past(ys, dys, hist_y, s - delta) if use_yd else y
        return (
            a - b * fval(x, y) - d * x - c * Vval(x) + alpha * z,
            b1 * fval(xt, y) - r * Pval(y) - d1 * y,
            r * Pval(yd) - alpha * z,
        )

    d0 = rhs(0.0, xs[0], ys[0], zs[0])
    dxs.append(d0[0])
    dys.append(d0[1])
    dzs.append(d0[2])

    half = 0.5 * h
    sixth = h / 6.0
    isfinite = math.isfinite
    for k in range(n):
        t = k * h
        x, y, z = xs[k], ys[k], zs[k]
        tn = t + h
        try:
            k1 = rhs(t, x, y, z)
            k2 = rhs(t + half, x + half * k1[0], y + half * k1[1], z + half * k1[2])
            k3 = rhs(t + half, x + half * k2[0], y + half * k2[1], z + half * k2[2])
            k4 = rhs(t + h, x + h * k3[0], y + h * k3[1], z + h * k3[2])
        except (DomainError, OverflowError, ZeroDivisionError) as exc:
            # finite at step start, non-finite inside a stage: numeric blow-up
            raise IntegrationError(
                f"blow-up: state left the finite range during the step at t = {tn:.6g}",
                time=tn,
            ) from exc
        xn = x + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        yn = y + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        zn = z + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
        if not (isfinite(xn) and isfinite(yn) and isfinite(zn)):
            raise IntegrationError(f"blow-up: non-finite state at t = {tn:.6g}", time=tn)
        if xn < NEGATIVITY_TOL or yn < NEGATIVITY_TOL or zn < NEGATIVITY_TOL:
            raise IntegrationError(
                f"negativity violation at t = {tn:.6g}: state = ({xn:.6g}, {yn:.6g}, {zn:.6g})",
                time=tn,
            )
        xs.append(xn)
        ys.append(yn)
        zs.append(zn)
        try:
            dn = rhs(tn, xn, yn, zn)
        except (DomainError, OverflowError, ZeroDivisionError) as exc:
            raise IntegrationError(
                f"blow-up: state left the finite range during the step at t = {tn:.6g}",
                time=tn,
            ) from exc
        dxs.append(dn[0])
        dys.append(dn[1])
        dzs.append(dn[2])

    times = np.arange(n + 1, dtype=float) * h
    times[-1] = horizon  # n*h can round below the horizon
    states = np.column_stack([xs, ys, zs])
    derivs = np.column_stack([dxs, dys, dzs])
    return Trajectory(
        times=times,
        states=states,
        derivatives=derivs,
        step=h,
        tau=tau,
        delta=delta,
        model_hash=model.content_hash(),
    )


def trajectory_to_csv(traj: Trajectory, fh, stride: float = 0.1) -> None:
    """Write the trajectory as RFC-4180 CSV rows t,x,y,z at the given stride."""
    fh.write("t,x,y,z\r\n")
    horizon = traj.horizon
    count = int(math.floor(horizon / stride + 1e-9))
    ts = [k * stride for k in range(count + 1)]
    if ts[-1] < horizon - 1e-12:
        ts.append(horizon)
    for t in ts:
        s = dense_eval(traj, min(t, horizon))
        fh.write(f"{t:.10g},{s.x:.10g},{s.y:.10g},{s.z:.10g}\r\n")
