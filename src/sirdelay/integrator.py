"""Method-of-steps integration of the delayed model on a breaking-point mesh.

Classical fourth-order Runge-Kutta advances the state; delayed arguments
are read from cubic Hermite dense output over already-computed mesh
intervals (or from the initial history for times at or before zero).
A step no longer than the smallest positive delay keeps every delayed
lookup inside previously computed segments, so no implicit iteration is
needed.  The result is deterministic: identical inputs give a
byte-identical trajectory.

The mesh.  The solution's derivatives jump at the breaking points
s + k*tau + j*delta: the jump at s propagates through the delays, where
s is 0 (history meets solution) or a sample time <= 0 of a sampled
history (the history kinks there).  A kink at s < 0 reaches the
solution only where s plus the largest delay the point uses is
positive.  RK4 stays fourth order only if every breaking point that
leaves the low derivatives rough is a mesh point (Bellen & Zennaro,
*Numerical Methods for Delay Differential Equations*, 2003).  One rule
builds the mesh for every call: the breaking points in (0, horizon)
with 1 <= k + j <= 4, merged where they lie within 1e-9 * horizon of
each other (or of 0 or the horizon), cut the run into gaps, and each
gap is cut into ceil(gap / step) equal steps.  The requested step defaults to DEFAULT_STEP, at most the
smallest positive delay (or horizon/100 with no delay), and no mesh
step is longer.

Stated tolerance: with the default step, ex5_3 (endemic point (2, 2, 2))
from its constant history stays within 2e-5 of a step-0.001 reference
over [0, 60] at tau = 0.93, 2.37 and 5.37, and ex5_5 at (tau, delta) =
(0.93, 0.61) within 2e-5 from its constant history and from criterion
9's five-sample history.
Over longer runs of a sustained oscillation the error grows with the
phase drift (about 1e-3 at tau = 8 over [0, 200]).
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
    "sample_times",
    "trajectory_to_csv",
]

#: states dipping below this trigger a negativity-violation error
NEGATIVITY_TOL = -1e-6
#: most steps one integrate call may take; more fails fast with ValueError
MAX_STEPS = 2_000_000
#: default requested step, capped at the smallest positive delay (horizon/100 with none)
DEFAULT_STEP = 0.04


def _valid_history_state(s: State) -> bool:
    return all(math.isfinite(v) and v >= 0.0 for v in (s.x, s.y, s.z))


@dataclass(frozen=True)
class ConstantHistory:
    """Constant state on (-inf, 0]."""

    kind = "constant"
    state: State

    def __post_init__(self):
        if not _valid_history_state(self.state):
            raise ValueError("history states must be finite and nonnegative")

    def value(self, t: float) -> State:
        return self.state

    def span(self) -> float:
        return math.inf


@dataclass(frozen=True)
class SampledHistory:
    """Piecewise-linear history through time-ordered samples ending at 0."""

    kind = "sampled"
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


HistorySpec = ConstantHistory | SampledHistory


def history_from_dict(d: dict) -> HistorySpec:
    kind = d.get("kind", ConstantHistory.kind)
    if kind == ConstantHistory.kind:
        x, y, z = d["state"]
        return ConstantHistory(State(float(x), float(y), float(z)))
    if kind == SampledHistory.kind:
        return SampledHistory(
            times=tuple(float(t) for t in d["times"]),
            states=tuple(State(*map(float, s)) for s in d["states"]),
        )
    raise ValueError(f"unknown history kind {kind!r}")


@dataclass(frozen=True)
class Trajectory:
    """Dense-output solution on the mesh ``times``, from 0 to the horizon."""

    times: np.ndarray
    states: np.ndarray      # shape (n, 3)
    derivatives: np.ndarray  # shape (n, 3), for Hermite dense output
    tau: float
    delta: float

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def final_state(self) -> State:
        x, y, z = self.states[-1]
        return State(float(x), float(y), float(z))


def _hermite(ys, fs, ts, i, t):
    """Cubic Hermite interpolation at t on the mesh interval [ts[i], ts[i + 1]]
    through the values ``ys`` and slopes ``fs`` at its ends."""
    t0 = ts[i]
    h = ts[i + 1] - t0
    w = (t - t0) / h
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
    if not 0.0 <= t <= times[-1]:
        raise ValueError(f"time {t} outside trajectory range [0, {traj.horizon}]")
    i = min(int(np.searchsorted(times, t, side="right")) - 1, len(times) - 2)
    x, y, z = _hermite(traj.states, traj.derivatives, times, i, t)
    return State(float(x), float(y), float(z))


def _breaking_points(tau: float, delta: float, history: HistorySpec,
                     horizon: float) -> np.ndarray:
    """0, the breaking points s + k*tau + j*delta in (0, horizon) with
    1 <= k + j <= 4, and the horizon, sorted; s is 0 or a sample time <= 0
    of a sampled history and s plus the largest delay the point uses is
    positive.  Of points within 1e-9 * horizon of each other the first is
    kept, and 0 and the horizon absorb their neighbours.  Counted before
    merging, more than MAX_STEPS of them fail the step budget unbuilt."""
    # each shift k*tau + j*delta with the largest delay it uses
    reach = {(k * tau + j * delta, max((k > 0) * tau, (j > 0) * delta))
             for k in range(5) for j in range(5 - k) if k + j}
    starts = np.asarray(history.times if isinstance(history, SampledHistory) else ())
    starts = np.append(starts[starts < 0.0], 0.0)
    tol = 1e-9 * horizon
    windows = [(shift, np.searchsorted(starts, max(-r, tol - shift), side="right"),
                np.searchsorted(starts, horizon - tol - shift))
               for shift, r in reach]
    count = sum(max(0, int(hi - lo)) for _, lo, hi in windows)
    if count > MAX_STEPS:
        raise ValueError(f"step budget exceeded: {count} breaking points before {horizon}, "
                         f"each a mesh time, more than MAX_STEPS = {MAX_STEPS}")
    points = np.concatenate([starts[lo:hi] + shift for shift, lo, hi in windows])
    points = np.sort(points[(points > tol) & (points < horizon - tol)])
    points = points[np.diff(points, prepend=-math.inf) > tol]
    return np.concatenate(([0.0], points, [horizon]))


def _mesh(points: np.ndarray, counts: np.ndarray) -> array:
    """The mesh times: 0, then each gap between neighbouring ``points`` cut
    into its count of equal steps, the last one ending on the point itself."""
    ends = np.cumsum(counts)
    m = np.arange(1, ends[-1] + 1) - np.repeat(ends - counts, counts)  # 1..n in each gap
    ts = np.repeat(points[:-1], counts) + m * np.repeat(np.diff(points) / counts, counts)
    ts[ends - 1] = points[1:]
    return array("d", np.concatenate(([0.0], ts)).tobytes())


def integrate(model: ModelSpec, history: HistorySpec, horizon: float,
              step: float | None = None) -> Trajectory:
    """Integrate the delayed system from its history over [0, horizon].

    ``step`` is the requested step (default DEFAULT_STEP, capped as the
    module docstring says); the mesh follows from it by the one rule there.
    The requested step must not exceed the smallest positive delay (so
    delayed lookups never run ahead of computed segments); with both
    delays zero it must not exceed horizon/100, and the mesh must reach the
    horizon within MAX_STEPS steps.  Raises IntegrationError when a state
    component falls below -1e-6 (negativity violation) or stops being
    finite (blow-up); its ``trajectory`` holds the steps accepted before
    the failing one.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    p = model.params
    tau, delta = p.tau, p.delta
    positive = [v for v in (tau, delta) if v > 0.0]
    cap = min(positive) if positive else horizon / 100.0
    if step is None:
        step = min(DEFAULT_STEP, cap)
    if not 0.0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    if step > cap + 1e-15:
        raise ValueError(f"step {step} exceeds the smallest positive delay {cap}" if positive
                         else "with no delays the step must not exceed horizon/100")
    span_needed = max(tau, delta)
    if history.span() < span_needed - 1e-12:
        raise ValueError(
            f"history covers {history.span()}, but delays need {span_needed}"
        )

    points = _breaking_points(tau, delta, history, horizon)
    counts = np.maximum(np.ceil(np.diff(points) / step - 1e-9), 1.0).astype(int)
    n = int(counts.sum())
    if n > MAX_STEPS:
        raise ValueError(f"step budget exceeded: {n} steps of at most {step} to reach "
                         f"{horizon}, more than MAX_STEPS = {MAX_STEPS}")

    rhs = model.rhs
    use_xt = tau > 0.0
    use_yd = delta > 0.0

    hist_x = lambda t: history.value(t).x
    hist_y = lambda t: history.value(t).y

    s0 = history.value(0.0)
    x, y, z = s0.x, s0.y, s0.z
    kx, ky, kz = rhs(x, y, z, hist_x(-tau) if use_xt else x, hist_y(-delta) if use_yd else y)
    ts = _mesh(points, counts)
    xs, ys, zs = array("d", (x,)), array("d", (y,)), array("d", (z,))
    dxs, dys, dzs = array("d", (kx,)), array("d", (ky,)), array("d", (kz,))
    add_x, add_y, add_z, add_dx, add_dy, add_dz = (
        b.append for b in (xs, ys, zs, dxs, dys, dzs))

    t = 0.0
    ix = iy = 0
    isfinite = math.isfinite
    failure = cause = None
    try:
        for k in range(n):
            # k1 = (kx, ky, kz) is the derivative stored at t = ts[k]; the
            # delayed arguments of k2 and k3 (mid-step) and of k4 and the next
            # k1 (step end) are looked up once each, in the intervals before
            # t.  Lookup times only grow, so each delay's interval index
            # (ix, iy) walks forward instead of searching the whole mesh.
            tn = ts[k + 1]
            hk = tn - t
            half = 0.5 * hk
            tm = t + half
            top = k - 1
            if use_xt:
                sm, se = tm - tau, tn - tau
                if sm > 0.0:
                    while ts[ix + 1] < sm:
                        ix += 1
                    xm = _hermite(xs, dxs, ts, ix, sm)
                else:
                    xm = hist_x(sm)
                if se > 0.0:
                    while ix < top and ts[ix + 1] < se:
                        ix += 1
                    xe = _hermite(xs, dxs, ts, ix, se)
                else:
                    xe = hist_x(se)
            if use_yd:
                sm, se = tm - delta, tn - delta
                if sm > 0.0:
                    while ts[iy + 1] < sm:
                        iy += 1
                    ym = _hermite(ys, dys, ts, iy, sm)
                else:
                    ym = hist_y(sm)
                if se > 0.0:
                    while iy < top and ts[iy + 1] < se:
                        iy += 1
                    ye = _hermite(ys, dys, ts, iy, se)
                else:
                    ye = hist_y(se)
            x2, y2, z2 = x + half * kx, y + half * ky, z + half * kz
            k2x, k2y, k2z = rhs(x2, y2, z2, xm if use_xt else x2, ym if use_yd else y2)
            x3, y3, z3 = x + half * k2x, y + half * k2y, z + half * k2z
            k3x, k3y, k3z = rhs(x3, y3, z3, xm if use_xt else x3, ym if use_yd else y3)
            x4, y4, z4 = x + hk * k3x, y + hk * k3y, z + hk * k3z
            k4x, k4y, k4z = rhs(x4, y4, z4, xe if use_xt else x4, ye if use_yd else y4)
            sixth = hk / 6.0
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
            t = tn
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
    traj = Trajectory(times=np.frombuffer(ts)[:len(xs)], states=_columns(xs, ys, zs),
                      derivatives=_columns(dxs, dys, dzs), tau=tau, delta=delta)
    if failure is None:
        return traj
    raise IntegrationError(failure, time=tn, trajectory=traj if len(xs) > 1 else None) from cause


def _columns(*buffers) -> np.ndarray:
    """Stack equal-length array('d') buffers as the columns of one (n, k) array."""
    return np.column_stack([np.frombuffer(b) for b in buffers])


def sample_times(horizon: float, stride: float) -> list:
    """The output times k*stride for k = 0, 1, ... while k*stride is at most
    the horizon (within 1e-9 of a stride), then the horizon itself when the
    last of them falls short of it."""
    ts = [k * stride for k in range(int(math.floor(horizon / stride + 1e-9)) + 1)]
    if ts[-1] < horizon - 1e-12:
        ts.append(horizon)
    return ts


def trajectory_to_csv(traj: Trajectory, fh, stride: float = 0.1) -> None:
    """Write the trajectory as RFC-4180 CSV rows t,x,y,z at the sample_times
    of the given stride."""
    fh.write("t,x,y,z\r\n")
    horizon = traj.horizon
    for t in sample_times(horizon, stride):
        s = dense_eval(traj, min(t, horizon))
        fh.write(f"{t:.10g},{s.x:.10g},{s.y:.10g},{s.z:.10g}\r\n")
