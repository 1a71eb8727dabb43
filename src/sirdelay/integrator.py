"""Fixed-step method-of-steps integration of the delayed model.

Classical fourth-order Runge-Kutta advances the state; delayed arguments
are read from cubic Hermite dense output over already-computed mesh
intervals (or from the initial history for times at or before zero).
A step no longer than the smallest positive delay keeps every delayed
lookup inside previously computed segments, so no implicit iteration is
needed.  The result is deterministic: identical inputs give a
byte-identical trajectory.

The mesh.  The solution's derivatives jump at the breaking points
k*tau + j*delta, where the jump at t = 0 between history and solution
propagates through the delays; RK4 stays fourth order only if every
breaking point is a mesh point (Bellen & Zennaro, *Numerical Methods for
Delay Differential Equations*, 2003).  From a requested step s:

* with a constant history and one distinct positive delay d (tau = 0,
  delta = 0 or tau = delta) every breaking point is a multiple k*d, and
  the step is h = d / ceil(d / s), so the mesh holds them all; the
  default s is ALIGNED_STEP;
* with no delay there are no breaking points and h = horizon /
  ceil(horizon / s); the default s is ALIGNED_STEP, at most horizon/100;
* otherwise (a sampled history, which kinks at every sample, or two
  distinct delays) h = horizon / ceil(horizon / s) as well; the
  breaking points then fall inside steps and the order drops to two, so
  the default s is the finer min(FINE_STEP, smallest positive delay / 20).

Every step has length h except the last, which ends on the horizon and
is shorter where h does not divide it; no state is computed past it.

Stated tolerance: with the default step and one delay, ex5_3 (endemic
point (2, 2, 2)) from its constant history stays within 2e-5 of a
step-0.001 reference over [0, 60] at tau = 0.93, 2.37 and 5.37.  Over
longer runs of a sustained oscillation the error grows with the phase
drift (about 1e-3 at tau = 8 over [0, 200]).
"""

from __future__ import annotations

import math
from array import array
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
#: default requested step where every breaking point lies on the mesh
ALIGNED_STEP = 0.04
#: default requested step otherwise, capped at 1/20 of the smallest positive delay
FINE_STEP = 0.01


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
    """Dense-output solution from 0 to the horizon on a mesh of step ``step``;
    the last interval ends on the horizon and may be shorter."""

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
    j = i + 1
    return (
        (2.0 * w3 - 3.0 * w2 + 1.0) * ys[i]
        + (w3 - 2.0 * w2 + w) * h * fs[i]
        + (-2.0 * w3 + 3.0 * w2) * ys[j]
        + (w3 - w2) * h * fs[j]
    )


def dense_eval(traj: Trajectory, t: float) -> State:
    """Cubic Hermite interpolation of the trajectory at time t in [0, horizon].

    Mesh points reproduce the stored states exactly.
    """
    times = traj.times
    horizon = traj.horizon
    if not 0.0 <= t <= horizon:
        raise ValueError(f"time {t} outside trajectory range [0, {horizon}]")
    h = traj.step
    j = int(round(t / h))
    if 0 <= j < len(times) and abs(t - j * h) <= 1e-9 * h:
        x, y, z = traj.states[j]
        return State(float(x), float(y), float(z))
    last = len(times) - 2  # the last interval, which has its own length
    if t < times[last]:
        x, y, z = _hermite(traj.states, traj.derivatives, h, t, last - 1)
    else:
        x, y, z = _hermite(traj.states[last:], traj.derivatives[last:],
                           horizon - times[last], t - times[last], 0)
    return State(float(x), float(y), float(z))


def _aligned_delay(tau: float, delta: float, history: HistorySpec) -> float | None:
    """The delay d whose multiples hold every breaking point (0.0 with no
    delay), or None when a uniform mesh cannot hold them all."""
    positive = {v for v in (tau, delta) if v > 0.0}
    if not positive:
        return 0.0
    if len(positive) == 1 and isinstance(history, ConstantHistory):
        return positive.pop()
    return None


def default_step(tau: float, delta: float, history: HistorySpec, horizon: float) -> float:
    """The step ``integrate`` requests when given none.

    Where the mesh holds every breaking point, ALIGNED_STEP, at most the
    one delay d (a constant history with one distinct positive delay) or
    horizon/100 (no delay).  Elsewhere min(FINE_STEP, smallest positive
    delay / 20).  The mesh step follows from the requested one: h =
    d / ceil(d / s) with the one delay, else horizon / ceil(horizon / s);
    see the module docstring.
    """
    d = _aligned_delay(tau, delta, history)
    if d is None:
        return min(FINE_STEP, min(v for v in (tau, delta) if v > 0.0) / 20.0)
    return min(ALIGNED_STEP, d or horizon / 100.0)


def integrate(model: ModelSpec, history: HistorySpec, horizon: float,
              step: float | None = None) -> Trajectory:
    """Integrate the delayed system from its history over [0, horizon].

    ``step`` is the requested step (default ``default_step``); the mesh
    step follows from it by the rule in the module docstring.  The
    requested step must not exceed the smallest positive delay (so delayed
    lookups never run ahead of computed segments); with both delays zero
    it must not exceed horizon/100, and the mesh must reach the horizon
    within MAX_STEPS steps.  Raises IntegrationError when a state component
    falls below -1e-6 (negativity violation) or stops being finite
    (blow-up); its ``trajectory`` holds the steps accepted before the
    failing one.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    p = model.params
    tau, delta = p.tau, p.delta
    if step is None:
        step = default_step(tau, delta, history, horizon)
    if not 0.0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    positive = [v for v in (tau, delta) if v > 0.0]
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

    # the mesh step divides the one delay, so every breaking point k*d is a
    # mesh point, or else the horizon
    unit = _aligned_delay(tau, delta, history) or horizon
    h = unit / math.ceil(unit / step - 1e-9)
    n = max(1, math.ceil(horizon / h - 1e-9))
    if n > MAX_STEPS:
        raise ValueError(f"step budget exceeded: {n} steps of {h} to reach {horizon}, "
                         f"more than MAX_STEPS = {MAX_STEPS}")
    # the last step ends on the horizon: shorter than h where h does not
    # divide it, h itself where it does up to rounding (so a mesh that
    # divides the horizon takes n equal steps)
    h_last = horizon - (n - 1) * h
    if abs(h_last - h) <= 1e-9 * h:
        h_last = h

    rhs = model.rhs
    use_xt = tau > 0.0
    use_yd = delta > 0.0

    hist_x = lambda t: history.value(t).x
    hist_y = lambda t: history.value(t).y

    s0 = history.value(0.0)
    x, y, z = s0.x, s0.y, s0.z
    kx, ky, kz = rhs(x, y, z, hist_x(-tau) if use_xt else x, hist_y(-delta) if use_yd else y)
    xs, ys, zs = array("d", (x,)), array("d", (y,)), array("d", (z,))
    dxs, dys, dzs = array("d", (kx,)), array("d", (ky,)), array("d", (kz,))
    add_x, add_y, add_z, add_dx, add_dy, add_dz = (
        b.append for b in (xs, ys, zs, dxs, dys, dzs))

    hk = h
    last_k = n - 1
    half = 0.5 * h
    sixth = h / 6.0
    isfinite = math.isfinite
    failure = cause = None
    try:
        for k in range(n):
            # k1 = (kx, ky, kz) is the derivative stored at t; the delayed
            # arguments of k2 and k3 (mid-step) and of k4 and the next k1
            # (step end) are looked up once each
            if k == last_k:
                hk = h_last
                half = 0.5 * hk
                sixth = hk / 6.0
            t = k * h
            top = k - 1  # the last computed interval
            tm = t + half
            tn = t + hk
            if use_xt:
                sm, se = tm - tau, tn - tau
                xm = _hermite(xs, dxs, h, sm, top) if sm > 0.0 else hist_x(sm)
                xe = _hermite(xs, dxs, h, se, top) if se > 0.0 else hist_x(se)
            if use_yd:
                sm, se = tm - delta, tn - delta
                ym = _hermite(ys, dys, h, sm, top) if sm > 0.0 else hist_y(sm)
                ye = _hermite(ys, dys, h, se, top) if se > 0.0 else hist_y(se)
            x2, y2, z2 = x + half * kx, y + half * ky, z + half * kz
            k2x, k2y, k2z = rhs(x2, y2, z2, xm if use_xt else x2, ym if use_yd else y2)
            x3, y3, z3 = x + half * k2x, y + half * k2y, z + half * k2z
            k3x, k3y, k3z = rhs(x3, y3, z3, xm if use_xt else x3, ym if use_yd else y3)
            x4, y4, z4 = x + hk * k3x, y + hk * k3y, z + hk * k3z
            k4x, k4y, k4z = rhs(x4, y4, z4, xe if use_xt else x4, ye if use_yd else y4)
            x = x + sixth * (kx + 2.0 * (k2x + k3x) + k4x)
            y = y + sixth * (ky + 2.0 * (k2y + k3y) + k4y)
            z = z + sixth * (kz + 2.0 * (k2z + k3z) + k4z)
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
            add_x(x)
            add_y(y)
            add_z(z)
            add_dx(kx)
            add_dy(ky)
            add_dz(kz)
    except (DomainError, OverflowError, ZeroDivisionError) as exc:
        failure = f"blow-up: state left the finite range during the step at t = {tn:.6g}"
        cause = exc

    # the whole run, or the steps accepted before the failing one
    times = np.arange(len(xs), dtype=float) * h
    if failure is None:
        times[-1] = horizon  # where the last step ends
    traj = Trajectory(times=times, states=_columns(xs, ys, zs),
                      derivatives=_columns(dxs, dys, dzs),
                      step=h, tau=tau, delta=delta)
    if failure is None:
        return traj
    raise IntegrationError(failure, time=tn, trajectory=traj if len(xs) > 1 else None) from cause


def _columns(*buffers) -> np.ndarray:
    """Stack equal-length array('d') buffers as the columns of one (n, k) array."""
    return np.column_stack([np.frombuffer(b) for b in buffers])


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
