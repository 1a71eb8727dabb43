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
from bisect import bisect_left
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
#: most steps one integrate call may take; more fails fast with ValueError
MAX_STEPS = 2_000_000


def _valid_history_state(s: State) -> bool:
    return all(math.isfinite(v) and v >= 0.0 for v in (s.x, s.y, s.z))


@dataclass(frozen=True)
class ConstantHistory:
    """Constant state on (-inf, 0]."""

    state: State

    def __post_init__(self):
        if not _valid_history_state(self.state):
            raise ValueError("history states must be finite and nonnegative")

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
        if not all(map(math.isfinite, self.times)):
            raise ValueError("sampled history times must be finite")
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("sampled history times must increase strictly")
        if self.times[-1] < 0.0:
            raise ValueError("sampled history must reach t = 0")
        if not all(map(_valid_history_state, self.states)):
            raise ValueError("history states must be finite and nonnegative")

    def span(self) -> float:
        return -self.times[0]

    def value(self, t: float) -> State:
        ts = self.times
        if t <= ts[0]:
            return self.states[0]
        if t >= ts[-1]:
            return self.states[-1]
        # the first interval with ts[i] <= t <= ts[i + 1]: at a sample time,
        # the one that ends there
        i = bisect_left(ts, t) - 1
        w = (t - ts[i]) / (ts[i + 1] - ts[i])
        s0, s1 = self.states[i], self.states[i + 1]
        return State(
            s0.x + w * (s1.x - s0.x),
            s0.y + w * (s1.y - s0.y),
            s0.z + w * (s1.z - s0.z),
        )

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

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def final_state(self) -> State:
        x, y, z = self.states[-1]
        return State(float(x), float(y), float(z))


def _hermite(ys, fs, h, t, top):
    """Cubic Hermite interpolation at t > 0 through mesh values ``ys`` with
    slopes ``fs`` on the mesh of step h, in interval int(t/h) capped at ``top``."""
    i = int(t / h)
    if i > top:
        i = top
    w = (t - i * h) / h
    w2 = w * w
    w3 = w2 * w
    return (
        (2.0 * w3 - 3.0 * w2 + 1.0) * ys[i]
        + (w3 - 2.0 * w2 + w) * h * fs[i]
        + (-2.0 * w3 + 3.0 * w2) * ys[i + 1]
        + (w3 - w2) * h * fs[i + 1]
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
    x, y, z = _hermite(traj.states, traj.derivatives, h, t, len(traj.times) - 2)
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
    it must not exceed horizon/100, and it must reach the horizon within
    MAX_STEPS steps.  Raises IntegrationError when a state component falls
    below -1e-6 (negativity violation) or stops being finite (blow-up); its
    ``trajectory`` holds the steps accepted before the failing one.
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
    if n > MAX_STEPS:
        raise ValueError(f"step budget exceeded: {n} steps of {step} to reach {horizon}, "
                         f"more than MAX_STEPS = {MAX_STEPS}")
    h = horizon / n

    rhs = model.rhs
    use_xt = tau > 0.0
    use_yd = delta > 0.0

    hist_x = lambda t: history.value(t).x
    hist_y = lambda t: history.value(t).y

    s0 = history.value(0.0)
    x, y, z = s0.x, s0.y, s0.z
    kx, ky, kz = rhs(x, y, z, hist_x(-tau) if use_xt else x, hist_y(-delta) if use_yd else y)
    xs, ys, zs = [x], [y], [z]
    dxs, dys, dzs = [kx], [ky], [kz]

    half = 0.5 * h
    sixth = h / 6.0
    isfinite = math.isfinite
    failure = cause = None
    try:
        for k in range(n):
            # k1 = (kx, ky, kz) is the derivative stored at t; the delayed
            # arguments of k2 and k3 (mid-step) and of k4 and the next k1
            # (step end) are looked up once each
            t = k * h
            tm = t + half
            tn = t + h
            if use_xt:
                sm, se = tm - tau, tn - tau
                xm = _hermite(xs, dxs, h, sm, k - 1) if sm > 0.0 else hist_x(sm)
                xe = _hermite(xs, dxs, h, se, k - 1) if se > 0.0 else hist_x(se)
            if use_yd:
                sm, se = tm - delta, tn - delta
                ym = _hermite(ys, dys, h, sm, k - 1) if sm > 0.0 else hist_y(sm)
                ye = _hermite(ys, dys, h, se, k - 1) if se > 0.0 else hist_y(se)
            x2, y2, z2 = x + half * kx, y + half * ky, z + half * kz
            k2 = rhs(x2, y2, z2, xm if use_xt else x2, ym if use_yd else y2)
            x3, y3, z3 = x + half * k2[0], y + half * k2[1], z + half * k2[2]
            k3 = rhs(x3, y3, z3, xm if use_xt else x3, ym if use_yd else y3)
            x4, y4, z4 = x + h * k3[0], y + h * k3[1], z + h * k3[2]
            k4 = rhs(x4, y4, z4, xe if use_xt else x4, ye if use_yd else y4)
            x = x + sixth * (kx + 2.0 * (k2[0] + k3[0]) + k4[0])
            y = y + sixth * (ky + 2.0 * (k2[1] + k3[1]) + k4[1])
            z = z + sixth * (kz + 2.0 * (k2[2] + k3[2]) + k4[2])
            # a non-finite stage reaches the new state through its own loss
            # term (d*x, d1*y, alpha*z), so this one check catches it
            if not (isfinite(x) and isfinite(y) and isfinite(z)):
                failure = f"blow-up: non-finite state at t = {tn:.6g}"
                break
            if x < NEGATIVITY_TOL or y < NEGATIVITY_TOL or z < NEGATIVITY_TOL:
                failure = (f"negativity violation at t = {tn:.6g}: "
                           f"state = ({x:.6g}, {y:.6g}, {z:.6g})")
                break
            kx, ky, kz = rhs(x, y, z, xe if use_xt else x, ye if use_yd else y)
            xs.append(x)
            ys.append(y)
            zs.append(z)
            dxs.append(kx)
            dys.append(ky)
            dzs.append(kz)
    except (DomainError, OverflowError, ZeroDivisionError) as exc:
        failure = f"blow-up: state left the finite range during the step at t = {tn:.6g}"
        cause = exc

    # the whole run, or the steps accepted before the failing one
    times = np.arange(len(xs), dtype=float) * h
    if failure is None:
        times[-1] = horizon  # n*h can round below the horizon
    traj = Trajectory(times=times, states=np.column_stack([xs, ys, zs]),
                      derivatives=np.column_stack([dxs, dys, dzs]),
                      step=h, tau=tau, delta=delta)
    if failure is None:
        return traj
    raise IntegrationError(failure, time=tn, trajectory=traj if len(xs) > 1 else None) from cause


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
