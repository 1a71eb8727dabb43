"""Method-of-steps integration of the delayed model between breaking points.

Classical fourth-order Runge-Kutta advances the state; delayed arguments
are read from cubic Hermite dense output over already-computed steps (or
from the initial history for times at or before zero).  A step no longer
than the smallest positive delay keeps every delayed lookup inside
previously computed segments, so no implicit iteration is needed.  The
result is deterministic: identical inputs give a byte-identical trajectory.

Breaking points.  The solution's derivatives jump at the breaking points
s + k*tau + j*delta, where s is 0 (history meets solution) or a sample
time <= 0 of a sampled history (the history kinks there): a jump in the
first derivative at s travels through the delays.  A right-hand side
that reads a jump of order m gives its component a jump of order m + 1:
y' reads x(t - tau) and z' reads y(t - delta), so the jump moves on by
the delay, while x' reads y and z at t, where it stays.  Writing u^(m)
for the m-th derivative (x^(1) and y^(1) jump at s), the jumps of order
<= 4 are y^(2) and x^(3) at s + tau, z^(2) and x^(3) at s + delta,
z^(3), x^(4) and y^(4) at s + tau + delta, and y^(4) at s + 2*tau; at
every other s + k*tau + j*delta only derivatives of order >= 5 jump.  RK4
stays fourth order if every point where a derivative of order <= 4
jumps is a step end (Bellen & Zennaro, *Numerical Methods for Delay
Differential Equations*, 2003).  A kink at s < 0 reaches the solution
only where s plus the largest delay the point uses is positive.  The
breaking points s + tau, s + delta, s + 2*tau and s + tau + delta in
(0, horizon), merged where they lie within 1e-9 * horizon of each other
(or of 0 or the horizon), cut the run into gaps, and every gap end is a
step end.

The steps.  A requested ``step`` gives a fixed mesh: each gap is cut
into ceil(gap / step) equal steps.  The request must not exceed the
smallest positive delay (horizon/100 with no delay), and no mesh step is
longer.  With no step requested (the default) the step is controlled
between the breaking points, as in dde23 (Shampine & Thompson, *Appl.
Numer. Math.* 37, 2001).  The derivative at a step's end, k5, is paid
for anyway: it is the next step's first stage and the stored Hermite
slope.  The weights (1/6, 1/3, 1/3, 0, 1/6) on (k1, ..., k5) give a
third-order companion of RK4, so h/6*(k4 - k5) estimates the local error
at no extra right-hand-side call.  A step is accepted when that
estimate, each component measured in TOL*(1 + |state|), has a Euclidean
norm <= 1; a rejected step writes nothing.  The next step proposed is
h*0.9*norm^(-1/4) (Hairer, Norsett & Wanner, *Solving ODEs I*,
sec. II.4), at least 0.2*h after a rejection and at most 4 times the
last proposal after an acceptance (so a step cut short by a breaking
point does not hold the next one back), and at most 10*DEFAULT_STEP and
the smallest positive delay (horizon/100 with none): at an equilibrium
only round-off drives the estimate, and longer steps would leave RK4's
stability region.  A step takes the equal division of the rest of its
gap at the proposed h, so no sliver step falls before a breaking point.  The first step
proposed is DEFAULT_STEP, capped the same way.  A controlled run stops
with an IntegrationError when a state passes DIVERGENCE_BOUND, or when
it has tried twice the steps of the DEFAULT_STEP mesh (at least
MIN_TRIES), so a stiff run cannot grind on to MAX_STEPS.  The fixed mesh
is the reference that order studies and tests measure against;
scenarios, the CLI and sweeps never request a step.

Stated tolerance: with controlled steps, ex5_3 (endemic point (2, 2, 2))
from its constant history stays within 2e-5 of a step-0.001 reference
over [0, 60] at tau = 0.93, 2.37 and 5.37, and ex5_5 at (tau, delta) =
(0.93, 0.61) within 2e-5 from its constant history and from criterion
9's five-sample history.  The largest error measured is 1.06e-5, at
tau = 5.37; a requested DEFAULT_STEP gives 1.05e-5 there.
Over longer runs of a sustained oscillation the error grows with the
phase drift (about 6e-4 at tau = 8 over [0, 200], 1.1e-3 at a requested
DEFAULT_STEP).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError, check_finite
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
#: the first step a controlled run proposes (at most the smallest positive
#: delay, horizon/100 with none); no controlled step is longer than 10x it
DEFAULT_STEP = 0.04
#: absolute and relative local error tolerance of a controlled step
TOL = 5e-8
#: a controlled run stops with an IntegrationError when a state passes this
DIVERGENCE_BOUND = 1e6
#: fewest steps a controlled run may try, however short its horizon
MIN_TRIES = 10_000


def _check_history_states(*states: State) -> None:
    values = [v for s in states for v in (s.x, s.y, s.z)]
    check_finite("history state", *values)
    if min(values) < 0.0:
        raise DomainError(f"history states must be nonnegative, got {min(values)}")


@dataclass(frozen=True)
class ConstantHistory:
    """Constant state on (-inf, 0]."""

    kind = "constant"
    state: State

    def __post_init__(self):
        _check_history_states(self.state)

    def value(self, t: float) -> State:
        return self.state

    def component(self, j: int):
        """The reader t -> float of state component j (0, 1, 2 for x, y, z):
        the one-sample table of that component."""
        return _linear_reader((0.0,), self.state.as_tuple()[j:j + 1])

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
        check_finite("sampled history time", *self.times)
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("sampled history times must increase strictly")
        if self.times[-1] < 0.0:
            raise ValueError("sampled history must reach t = 0")
        _check_history_states(*self.states)

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

    def component(self, j: int):
        """The reader t -> float of state component j (0, 1, 2 for x, y, z):
        the same float as ``value(t)``'s component j."""
        return _linear_reader(self.times, tuple(s.as_tuple()[j] for s in self.states))


HistorySpec = ConstantHistory | SampledHistory


def _linear_reader(ts: tuple, vs: tuple):
    """The reader t -> float of the piecewise-linear interpolant through the
    points (ts[i], vs[i]), constant beyond the first and last: the clamps,
    interval and arithmetic of ``SampledHistory.value`` on one component."""
    first, last = ts[0], ts[-1]

    def read(t):
        if t <= first:
            return vs[0]
        if t >= last:
            return vs[-1]
        i = bisect_left(ts, t) - 1
        w = (t - ts[i]) / (ts[i + 1] - ts[i])
        v0 = vs[i]
        return v0 + w * (vs[i + 1] - v0)

    return read


def _floats(name, values) -> tuple:
    check_finite(name, *values)
    return tuple(map(float, values))


def history_from_dict(d: dict) -> HistorySpec:
    kind = d.get("kind", ConstantHistory.kind)
    if kind == ConstantHistory.kind:
        return ConstantHistory(State(*_floats("history state", d["state"])))
    if kind == SampledHistory.kind:
        return SampledHistory(
            times=_floats("sampled history time", d["times"]),
            states=tuple(State(*_floats("history state", s)) for s in d["states"]),
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
    rejected: int = 0  # controlled steps that failed the error test

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def final_state(self) -> State:
        x, y, z = self.states[-1]
        return State(float(x), float(y), float(z))


def _hermite(ys, fs, ts, i, t, history=None):
    """The one reader of the past: ``history(t)`` when a history is given and
    t <= 0, else cubic Hermite interpolation at t on the mesh interval
    [ts[i], ts[i + 1]] through the values ``ys`` and slopes ``fs`` at its ends.
    ``history`` is the history's ``component`` reader (t -> float) of the
    component that ``ys`` holds."""
    if t <= 0.0 and history is not None:
        return history(t)
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
    """0, the breaking points s + tau, s + delta, s + 2*tau and
    s + tau + delta in (0, horizon) (where a derivative of order <= 4
    jumps, as the module docstring derives), and the horizon, sorted; s is
    0 or a sample time <= 0 of a sampled history and s plus the largest
    delay the point uses is positive.  Of points within 1e-9 * horizon of
    each other the first is kept, and 0 and the horizon absorb their
    neighbours.  Counted before merging, more than MAX_STEPS of them fail
    the step budget unbuilt."""
    # each shift k*tau + j*delta with the largest delay it uses
    reach = {(k * tau + j * delta, max((k > 0) * tau, (j > 0) * delta))
             for k, j in ((1, 0), (0, 1), (2, 0), (1, 1))}
    # the sample times < 0, then 0 in place of the first one >= 0 (a sampled
    # history reaches 0), in one array so a long history is copied once
    times = history.times if isinstance(history, SampledHistory) else (0.0,)
    starts = np.array(times, dtype=float)[:bisect_left(times, 0.0) + 1]
    starts[-1] = 0.0
    tol = 1e-9 * horizon
    windows = [(shift, np.searchsorted(starts, max(-r, tol - shift), side="right"),
                np.searchsorted(starts, horizon - tol - shift))
               for shift, r in reach]
    count = sum(max(0, int(hi - lo)) for _, lo, hi in windows)
    if count > MAX_STEPS:
        raise ValueError(f"step budget exceeded: {count} breaking points before {horizon}, "
                         f"each a step end, more than MAX_STEPS = {MAX_STEPS}")
    points = np.concatenate([starts[lo:hi] + shift for shift, lo, hi in windows])
    points = np.sort(points[(points > tol) & (points < horizon - tol)])
    points = points[np.diff(points, prepend=-math.inf) > tol]
    return np.concatenate(([0.0], points, [horizon]))


def _counts(gaps: np.ndarray, step: float) -> np.ndarray:
    """Steps of at most ``step`` that cut each gap into equal parts."""
    return np.maximum(np.ceil(gaps / step - 1e-9), 1.0)


def integrate(model: ModelSpec, history: HistorySpec, horizon: float,
              step: float | None = None) -> Trajectory:
    """Integrate the delayed system from its history over [0, horizon].

    ``step`` is the requested step of a fixed mesh; None (the default)
    controls the step by RK4's local error estimate.  Both are as the
    module docstring says.  A requested step must not exceed the smallest
    positive delay (so delayed lookups never run ahead of computed
    segments), nor horizon/100 with both delays zero, and the mesh must
    reach the horizon within MAX_STEPS steps; a controlled run must do so
    at its largest step.  Raises IntegrationError when a state component
    falls below -1e-6 (negativity violation) or, on a fixed mesh, stops
    being finite (blow-up; a controlled step rejects it instead), or when
    a controlled run passes DIVERGENCE_BOUND or uses up its try budget; its
    ``trajectory`` holds the steps accepted before the failing one.

    The history gives the initial state through ``value(0)``; every delayed
    lookup at t <= 0 reads x or y alone through the history's
    ``component`` reader, built once per call after the step budget is
    checked, so no lookup builds a State.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    p = model.params
    tau, delta = p.tau, p.delta
    positive = [v for v in (tau, delta) if v > 0.0]
    cap = min(positive) if positive else horizon / 100.0
    controlled = step is None
    if controlled:
        h, hmax = min(DEFAULT_STEP, cap), min(10.0 * DEFAULT_STEP, cap)
    elif not 0.0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    elif step > cap + 1e-15:
        raise ValueError(f"step {step} exceeds the smallest positive delay {cap}" if positive
                         else "with no delays the step must not exceed horizon/100")
    else:
        h = hmax = step
    span_needed = max(tau, delta)
    if history.span() < span_needed - 1e-12:
        raise ValueError(
            f"history covers {history.span()}, but delays need {span_needed}"
        )

    points = _breaking_points(tau, delta, history, horizon)
    gaps = np.diff(points)
    n = int(_counts(gaps, hmax).sum())
    if n > MAX_STEPS:
        raise ValueError(f"step budget exceeded: {n} steps of at most {hmax} to reach "
                         f"{horizon}, more than MAX_STEPS = {MAX_STEPS}")
    # a fixed mesh takes its n steps; a controlled run may try twice the
    # steps of the mesh at its first step, at least MIN_TRIES, within MAX_STEPS
    budget = n
    if controlled:
        budget = min(max(2 * int(_counts(gaps, h).sum()), MIN_TRIES), MAX_STEPS)
    bound = DIVERGENCE_BOUND if controlled else math.inf

    rhs = model.rhs
    use_xt = tau > 0.0
    use_yd = delta > 0.0

    # built after the budget checks: a long history's sample tuples cost memory
    hist_x, hist_y = history.component(0), history.component(1)

    s0 = history.value(0.0)
    x, y, z = s0.x, s0.y, s0.z
    kx, ky, kz = rhs(x, y, z, hist_x(-tau) if use_xt else x, hist_y(-delta) if use_yd else y)
    ts = array("d", (0.0,))
    xs, ys, zs = array("d", (x,)), array("d", (y,)), array("d", (z,))
    dxs, dys, dzs = array("d", (kx,)), array("d", (ky,)), array("d", (kz,))
    add_t, add_x, add_y, add_z, add_dx, add_dy, add_dz = (
        b.append for b in (ts, xs, ys, zs, dxs, dys, dzs))

    # the current gap ends at ends[g]; its rest from p0 is cut into c equal
    # steps of hgap, and step i of them ends at p0 + i*hgap (at ends[g] for i = c)
    ends = points.tolist()
    last = len(ends) - 1
    g = 1
    end = ends[1]
    t = p0 = 0.0
    c = math.ceil(end / h - 1e-9) or 1
    hgap = end / c
    i = 1
    k = ix = iy = rejected = 0
    scale = 1.0 / (6.0 * TOL) ** 2
    isfinite = math.isfinite
    failure = cause = None
    try:
        for _ in range(budget):
            # k1 = (kx, ky, kz) is the derivative stored at t = ts[k]; the
            # delayed arguments of k2 and k3 (mid-step) and of k4 and k5 (step
            # end) are looked up once each, in the intervals before t.  Lookup
            # times only grow from one accepted step to the next, so each
            # delay's interval index (ix, iy) walks forward instead of
            # searching the whole mesh; a rejected step puts them back.  They
            # stay put while a lookup time is <= 0: _hermite reads the history.
            tn = end if i == c else p0 + i * hgap
            hk = tn - t
            half = 0.5 * hk
            tm = t + half
            top = k - 1
            ix0, iy0 = ix, iy
            if use_xt:
                sm, se = tm - tau, tn - tau
                while ix < top and ts[ix + 1] < sm:
                    ix += 1
                xm = _hermite(xs, dxs, ts, ix, sm, hist_x)
                while ix < top and ts[ix + 1] < se:
                    ix += 1
                xe = _hermite(xs, dxs, ts, ix, se, hist_x)
            if use_yd:
                sm, se = tm - delta, tn - delta
                while iy < top and ts[iy + 1] < sm:
                    iy += 1
                ym = _hermite(ys, dys, ts, iy, sm, hist_y)
                while iy < top and ts[iy + 1] < se:
                    iy += 1
                ye = _hermite(ys, dys, ts, iy, se, hist_y)
            x2, y2, z2 = x + half * kx, y + half * ky, z + half * kz
            k2x, k2y, k2z = rhs(x2, y2, z2, xm if use_xt else x2, ym if use_yd else y2)
            x3, y3, z3 = x + half * k2x, y + half * k2y, z + half * k2z
            k3x, k3y, k3z = rhs(x3, y3, z3, xm if use_xt else x3, ym if use_yd else y3)
            x4, y4, z4 = x + hk * k3x, y + hk * k3y, z + hk * k3z
            k4x, k4y, k4z = rhs(x4, y4, z4, xe if use_xt else x4, ye if use_yd else y4)
            sixth = hk / 6.0
            xn = x + sixth * (kx + 2.0 * (k2x + k3x) + k4x)
            yn = y + sixth * (ky + 2.0 * (k2y + k3y) + k4y)
            zn = z + sixth * (kz + 2.0 * (k2z + k3z) + k4z)
            # a non-finite stage reaches the new state through its own loss
            # term (d*x, d1*y, alpha*z), so this one check catches it
            err = 0.0
            if isfinite(xn) and isfinite(yn) and isfinite(zn):
                # k5, the derivative at the step end, is the next step's k1
                k5x, k5y, k5z = rhs(xn, yn, zn, xe if use_xt else xn, ye if use_yd else yn)
                if controlled:
                    # RK4's weights (1/6, 1/3, 1/3, 0, 1/6) on (k1, ..., k5)
                    # give a third-order companion, so h/6*(k4 - k5) estimates
                    # the local error; err is the square of its Euclidean
                    # norm, each component measured in TOL*(1 + |state|)
                    ex = (k4x - k5x) / (1.0 + (x if x > xn else xn))
                    ey = (k4y - k5y) / (1.0 + (y if y > yn else yn))
                    ez = (k4z - k5z) / (1.0 + (z if z > zn else zn))
                    err = (ex * ex + ey * ey + ez * ez) * hk * hk * scale
            elif controlled:
                err = math.inf
            else:
                failure = f"blow-up: non-finite state at t = {tn:.6g}"
                break
            # the next step is h*0.9*norm^(-1/4), clamped, with err = norm^2
            if not err <= 1.0:  # a controlled step rejected, also when err is NaN
                rejected += 1
                ix, iy = ix0, iy0
                h = hk * (max(0.2, 0.9 * err ** -0.125) if err < math.inf else 0.2)
            else:
                if xn < NEGATIVITY_TOL or yn < NEGATIVITY_TOL or zn < NEGATIVITY_TOL:
                    failure = (f"negativity violation at t = {tn:.6g}: "
                               f"state = ({xn:.6g}, {yn:.6g}, {zn:.6g})")
                    break
                if xn > bound or yn > bound or zn > bound:
                    failure = (f"diverged: state ({xn:.6g}, {yn:.6g}, {zn:.6g}) passed "
                               f"DIVERGENCE_BOUND = {DIVERGENCE_BOUND:g} at t = {tn:.6g}")
                    break
                if controlled:
                    # grow from the proposal, not from a step cut short by
                    # the end of its gap
                    h = min(4.0 * h, hk * 0.9 * err ** -0.125) if err > 0.0 else 4.0 * h
                    if h > hmax:
                        h = hmax
                t, x, y, z, kx, ky, kz = tn, xn, yn, zn, k5x, k5y, k5z
                k += 1
                add_t(t)
                add_x(x)
                add_y(y)
                add_z(z)
                add_dx(kx)
                add_dy(ky)
                add_dz(kz)
                if i == c:
                    if g == last:
                        break
                    g += 1
                    end = ends[g]
                elif not controlled:
                    i += 1
                    continue
            # cut the rest of the gap into equal steps of at most h
            p0, i = t, 1
            c = math.ceil((end - t) / h - 1e-9) or 1
            hgap = (end - t) / c
        else:
            failure = (f"try budget used up: {budget} steps tried ({rejected} rejected) "
                       f"reached t = {t:.6g} of {horizon:g}")
            tn = t
    except (DomainError, OverflowError, ZeroDivisionError) as exc:
        failure = f"blow-up: state left the finite range during the step at t = {tn:.6g}"
        cause = exc

    # the whole run, or the steps accepted before the failing one
    traj = Trajectory(times=np.frombuffer(ts), states=_columns(xs, ys, zs),
                      derivatives=_columns(dxs, dys, dzs), tau=tau, delta=delta,
                      rejected=rejected)
    if failure is None:
        return traj
    raise IntegrationError(failure, time=tn, trajectory=traj if len(xs) > 1 else None) from cause


def _columns(*buffers) -> np.ndarray:
    """Stack equal-length array('d') buffers as the columns of one (n, k) array."""
    return np.column_stack([np.frombuffer(b) for b in buffers])


def sample_times(horizon: float, stride: float) -> list:
    """The output times k*stride for k = 0, 1, ... while k*stride is at most
    the horizon (within 1e-9 of a stride), then the horizon itself when the
    last of them falls short of it.  A stride that is not positive and
    finite, or that gives more than MAX_STEPS times, is a ValueError."""
    if not 0.0 < stride < math.inf or horizon / stride > MAX_STEPS:  # also rejects NaN
        raise ValueError(f"stride {stride!r} must be positive and finite and give at most "
                         f"MAX_STEPS = {MAX_STEPS} times over the horizon {horizon}")
    ts = [k * stride for k in range(int(math.floor(horizon / stride + 1e-9)) + 1)]
    if ts[-1] < horizon - 1e-12:
        ts.append(horizon)
    return ts


def trajectory_to_csv(traj: Trajectory, fh, stride: float = 0.1) -> None:
    """Write the trajectory as RFC-4180 CSV rows t,x,y,z at the sample_times
    of the given stride; a stride sample_times refuses writes nothing."""
    horizon = traj.horizon
    times = sample_times(horizon, stride)
    fh.write("t,x,y,z\r\n")
    for t in times:
        s = dense_eval(traj, min(t, horizon))
        fh.write(f"{t:.10g},{s.x:.10g},{s.y:.10g},{s.z:.10g}\r\n")
