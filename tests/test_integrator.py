import csv
import io
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sirdelay import integrator
from sirdelay.acceptance import EX5_5_SAMPLED_HISTORY
from sirdelay.equilibria import all_equilibria
from sirdelay.errors import IntegrationError
from sirdelay.integrator import (
    ConstantHistory,
    SampledHistory,
    dense_eval,
    history_from_dict,
    integrate,
    trajectory_to_csv,
)
from sirdelay.model import ModelSpec, Params, State, eval_rhs, to_jsonable
from sirdelay.presets import PRESET_NAMES, load_preset
from sirdelay.responses import Linear, ResponseFn, Zero


def linear_reduction(tau=0.0, delta=0.0):
    """x' = 10 - 2x, y' = -y, z' = -z: closed-form exponentials."""
    return ModelSpec(
        params=Params(a=10.0, b=1.0, b1=1.0, c=1.0, d=1.0, d1=1.0, r=0.0,
                      alpha=1.0, tau=tau, delta=delta),
        f=Zero(), V=Linear(1.0), P=Zero(),
    )


def exact_linear(t, x0=8.0, y0=3.0, z0=4.0):
    # z feeds x through alpha*z: x' = 10 - 2x + z0*exp(-t)
    return (5.0 + z0 * math.exp(-t) + (x0 - 5.0 - z0) * math.exp(-2.0 * t),
            y0 * math.exp(-t),
            z0 * math.exp(-t))


def test_default_step():
    # DEFAULT_STEP, capped at the smallest positive delay (horizon/100 with
    # none), for every delay and history; no mesh step is longer
    const = ConstantHistory(State(1.0, 1.0, 1.0))
    sampled = SampledHistory(times=(-1.0, -0.37, 0.0), states=(State(1, 1, 1),) * 3)
    assert integrator.DEFAULT_STEP == 0.04
    for tau, delta, hist, horizon, want in [
        (1.0, 0.0, const, 200.0, 0.04),
        (0.0, 0.1, const, 200.0, 0.04),
        (0.3, 0.3, const, 200.0, 0.04),
        (0.0, 0.0, sampled, 200.0, 0.04),
        (1.0, 0.0, sampled, 200.0, 0.04),
        (1.0, 0.5, const, 200.0, 0.04),
        (0.0, 0.0, const, 2.0, 0.02),  # horizon/100
        (0.01, 0.0, const, 200.0, 0.01),  # the smallest delay
        (0.1, 0.03, sampled, 20.0, 0.03),
    ]:
        model, _ = _ex5_3(tau, delta)
        steps = np.diff(integrate(model, hist, horizon).times)
        assert steps.max() == pytest.approx(want, rel=1e-3), (tau, delta, horizon)
        assert steps.max() <= want * (1.0 + 1e-9)


def test_step_validation():
    model = load_preset("ex5_1").model  # tau = delta = 1
    hist = ConstantHistory(State(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        integrate(model, hist, horizon=10.0, step=2.0)  # step > min delay
    with pytest.raises(ValueError):
        integrate(model, hist, horizon=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon"):
            integrate(model, hist, horizon=bad)
        with pytest.raises(ValueError, match="step"):
            integrate(model, hist, horizon=10.0, step=bad)
    delay_free = linear_reduction()
    with pytest.raises(ValueError):
        integrate(delay_free, hist, horizon=10.0, step=0.5)  # > horizon/100


def test_history_span_checked():
    model = load_preset("ex5_1").model
    short = SampledHistory(times=(-0.5, 0.0),
                           states=(State(1, 1, 1), State(1, 1, 1)))
    with pytest.raises(ValueError):
        integrate(model, short, horizon=10.0)


def test_sampled_history_interpolation():
    h = SampledHistory(
        times=(-2.0, -1.0, 0.0),
        states=(State(0.0, 2.0, 4.0), State(1.0, 1.0, 2.0), State(3.0, 0.0, 0.0)),
    )
    assert h.value(-2.5).as_tuple() == (0.0, 2.0, 4.0)  # clamped left
    assert h.value(-1.5).as_tuple() == (0.5, 1.5, 3.0)
    assert h.value(-0.25).as_tuple() == (2.5, 0.25, 0.5)
    assert h.value(0.0).as_tuple() == (3.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        SampledHistory(times=(0.0, -1.0), states=(State(1, 1, 1), State(1, 1, 1)))
    with pytest.raises(ValueError):
        SampledHistory(times=(-1.0, 0.0), states=(State(-1, 1, 1), State(1, 1, 1)))


@pytest.mark.parametrize("history", [ConstantHistory(State(1.0, 2.5, 0.0)), EX5_5_SAMPLED_HISTORY],
                         ids=lambda h: h.kind)
def test_history_json_round_trip(history):
    data = json.loads(json.dumps(to_jsonable(history)))
    assert data["kind"] == history.kind
    assert history_from_dict(data) == history


def test_closed_form_accuracy_and_dense_midpoints():
    model = linear_reduction()
    traj = integrate(model, ConstantHistory(State(8.0, 3.0, 4.0)), horizon=20.0, step=0.01)
    for t in (0.0, 0.333, 1.7, 5.05, 12.345, 20.0):
        got = dense_eval(traj, t)
        want = exact_linear(t)
        assert max(abs(a - b) for a, b in zip(got.as_tuple(), want)) < 1e-8


def test_dense_eval_exact_at_mesh_points():
    model = load_preset("ex5_1").model
    traj = integrate(model, ConstantHistory(State(1.0, 1.0, 1.0)), horizon=5.0, step=0.01)
    for i in (0, 1, 57, len(traj.times) - 1):
        t = float(traj.times[i])
        got = dense_eval(traj, t)
        assert got.as_tuple() == tuple(traj.states[i])


def test_dense_eval_at_horizon_when_the_step_does_not_divide_it():
    # 200 / 0.00875 is not an integer; n*h used to round to 199.99999999999997
    from dataclasses import replace
    cfg = load_preset("ex5_3")
    model = replace(cfg.model, params=cfg.model.params.with_delays(7.0, 0.0))
    traj = integrate(model, cfg.history, horizon=200.0, step=0.00875)
    assert traj.horizon == 200.0
    assert dense_eval(traj, 200.0) == traj.final_state()


def test_dense_eval_range_error():
    traj = integrate(linear_reduction(), ConstantHistory(State(8.0, 3.0, 4.0)),
                     horizon=10.0, step=0.1)
    with pytest.raises(ValueError):
        dense_eval(traj, -0.1)
    with pytest.raises(ValueError):
        dense_eval(traj, 10.1)


def test_fourth_order_convergence():
    model = linear_reduction()
    hist = ConstantHistory(State(8.0, 3.0, 4.0))
    errors = []
    for step in (0.1, 0.05, 0.025, 0.0125):
        traj = integrate(model, hist, horizon=20.0, step=step)
        err = 0.0
        for i, t in enumerate(traj.times):
            want = exact_linear(float(t))
            err = max(err, max(abs(traj.states[i, k] - want[k]) for k in range(3)))
        errors.append(err)
    for a, b in zip(errors, errors[1:]):
        assert 14.0 <= a / b <= 18.0


def _ex5_3(tau, delta=0.0):
    cfg = load_preset("ex5_3")
    return replace(cfg.model, params=cfg.model.params.with_delays(tau, delta)), cfg.history


def test_fourth_order_with_one_delay_at_misaligned_requested_steps():
    # requested steps tau/(N - 0.63) do not divide tau; the mesh rule cuts
    # each gap between breaking points k*tau into equal steps (tau/N up to
    # 4*tau), so the error ratio per halving is 16, not the 4 of a
    # misaligned mesh
    tau = 0.93
    model, hist = _ex5_3(tau)
    ref = integrate(model, hist, 11.0 * tau, step=tau / 800.0)
    errors = []
    for n in (25, 50, 100):
        traj = integrate(model, hist, 11.0 * tau, step=tau / (n - 0.63))
        np.testing.assert_allclose(np.diff(traj.times[:4 * n + 1]), tau / n, rtol=1e-9)
        errors.append(_max_error(traj, ref))
    for a, b in zip(errors, errors[1:]):
        assert 14.0 <= a / b <= 18.0


def _max_error(traj, ref):
    """Largest deviation of the mesh states of ``traj`` from the dense output of ``ref``."""
    return max(dense_eval(ref, float(t)).max_abs_diff(State(*map(float, st)))
               for t, st in zip(traj.times, traj.states))


def _assert_mesh_holds_the_breaking_points(traj, starts, tau, delta, step):
    """Every s + k*tau + j*delta in (0, horizon) with 1 <= k + j <= 4 that a
    kink at s reaches (s plus the largest delay the point uses is positive)
    is a mesh time up to the rounding of its sum, or was merged into such a
    point (or 0 or the horizon) within 1e-9 * horizon; the mesh runs from 0
    to the horizon, and no step exceeds ``step``."""
    times, horizon = traj.times, traj.horizon
    assert times[0] == 0.0 and times[-1] == horizon
    steps = np.diff(times)
    assert 0.0 < steps.min() and steps.max() <= step * (1.0 + 1e-9)
    points = []
    for s in starts:
        for k in range(5):
            for j in range(5 - k):
                p = s + k * tau + j * delta
                used = max(tau if k else 0.0, delta if j else 0.0)
                if k + j >= 1 and s + used > 0.0 and 0.0 < p < horizon:
                    points.append((p, 1e-12 * (abs(s) + k * tau + j * delta), (s, k, j)))
    held = [0.0, horizon] + [p for p, r, _ in points if np.min(np.abs(times - p)) <= r]
    for p, _, where in points:
        assert min(abs(p - q) for q in held) <= 1e-9 * horizon, where


@pytest.mark.parametrize("tau, delta, horizon, step", [
    (0.93, 0.0, 60.0, None),
    (0.0, 2.37, 60.0, None),
    (0.7, 0.7, 50.0, None),
    (0.93, 0.0, 61.0, 0.05),
    (5.37, 0.0, 200.0, 0.0123),
    (0.93, 0.61, 60.0, None),
    (2.0, 0.3, 30.0, 0.07),
])
def test_mesh_holds_every_multiple_of_the_delay(tau, delta, horizon, step):
    model, hist = _ex5_3(tau, delta)
    traj = integrate(model, hist, horizon, step=step)
    _assert_mesh_holds_the_breaking_points(traj, (0.0,), tau, delta,
                                           step or min(integrator.DEFAULT_STEP, tau or delta))


@pytest.mark.parametrize("tau, delta, step", [(1.0, 0.0, None), (0.93, 0.61, None),
                                              (0.93, 0.61, 0.013)])
def test_mesh_holds_every_breaking_point_of_a_sampled_history(tau, delta, step):
    model, _ = _ex5_3(tau, delta)
    hist = _zigzag_history(n=7, span=1.0)
    traj = integrate(model, hist, 40.0, step=step)
    _assert_mesh_holds_the_breaking_points(traj, hist.times, tau, delta,
                                           step or integrator.DEFAULT_STEP)


def test_kinks_that_no_delay_carries_past_zero_add_no_mesh_time():
    # a kink at s <= -max(tau, delta) lands before 0 through either delay,
    # so s + k*tau + j*delta is no breaking point even where it is positive
    model, const = _ex5_3(0.93, 0.61)
    state = const.state
    hist = SampledHistory(times=(-2.0, -0.95, 0.0), states=(state, State(1.0, 3.0, 2.0), state))
    assert -2.0 + 4 * 0.93 > 0.0 and -0.95 + 2 * 0.93 > 0.0
    np.testing.assert_array_equal(integrate(model, hist, 20.0).times,
                                  integrate(model, const, 20.0).times)


@pytest.mark.parametrize("tau", [0.93, 2.37, 5.37])
def test_default_step_meets_the_stated_tolerance(tau):
    # the bound the integrator's module docstring states for one delay
    model, hist = _ex5_3(tau)
    ref = integrate(model, hist, 60.0, step=0.001)
    traj = integrate(model, hist, 60.0)
    assert _max_error(traj, ref) <= 2e-5
    # dense output inside the last interval
    t = 0.5 * (traj.times[-2] + traj.times[-1])
    assert dense_eval(traj, t).max_abs_diff(dense_eval(ref, t)) <= 2e-5


@pytest.mark.parametrize("sampled", [False, True])
def test_default_step_meets_the_stated_tolerance_with_two_delays(sampled):
    # the bound the module docstring states for ex5_5 at (0.93, 0.61)
    cfg = load_preset("ex5_5")
    model = replace(cfg.model, params=cfg.model.params.with_delays(0.93, 0.61))
    hist = EX5_5_SAMPLED_HISTORY if sampled else cfg.history
    ref = integrate(model, hist, 60.0, step=0.001)
    assert _max_error(integrate(model, hist, 60.0), ref) <= 2e-5


def test_equilibrium_start_is_fixed():
    model = load_preset("ex5_1").model
    eq = [e for e in all_equilibria(model) if e.kind == "endemic"][0]
    traj = integrate(model, ConstantHistory(eq.state), horizon=50.0)
    drift = float(np.max(np.abs(traj.states - np.array(eq.state.as_tuple()))))
    assert drift < 1e-10
    # dense output between mesh points stays on the equilibrium too
    for t in (0.0037, 1.2345, 49.9999):
        assert dense_eval(traj, t).max_abs_diff(eq.state) < 1e-10


def test_zero_delay_matches_reference_rk4():
    model = load_preset("ex5_3").model
    from dataclasses import replace
    model = replace(model, params=model.params.with_delays(0.0, 0.0))
    h = 0.02
    traj = integrate(model, ConstantHistory(State(1.0, 1.0, 1.0)), horizon=10.0, step=h)

    def rhs(x, y, z):
        return (10.0 - x * y - 4.0 * x + z, x * y - 2.0 * y, y - z)

    x, y, z = 1.0, 1.0, 1.0
    worst = 0.0
    for i in range(1, len(traj.times)):
        k1 = rhs(x, y, z)
        k2 = rhs(x + h / 2 * k1[0], y + h / 2 * k1[1], z + h / 2 * k1[2])
        k3 = rhs(x + h / 2 * k2[0], y + h / 2 * k2[1], z + h / 2 * k2[2])
        k4 = rhs(x + h * k3[0], y + h * k3[1], z + h * k3[2])
        x += h / 6 * (k1[0] + 2 * (k2[0] + k3[0]) + k4[0])
        y += h / 6 * (k1[1] + 2 * (k2[1] + k3[1]) + k4[1])
        z += h / 6 * (k1[2] + 2 * (k2[2] + k3[2]) + k4[2])
        worst = max(worst, abs(traj.states[i, 0] - x), abs(traj.states[i, 1] - y),
                    abs(traj.states[i, 2] - z))
    assert worst < 1e-8


def test_determinism():
    model = load_preset("ex5_3").model
    hist = ConstantHistory(State(1.0, 1.0, 1.0))
    a = integrate(model, hist, horizon=20.0)
    b = integrate(model, hist, horizon=20.0)
    assert a.states.tobytes() == b.states.tobytes()
    assert a.derivatives.tobytes() == b.derivatives.tobytes()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_solutions_stay_nonnegative(name):
    cfg = load_preset(name)
    traj = integrate(cfg.model, cfg.history, horizon=50.0)
    assert float(np.min(traj.states)) >= -1e-9


def test_blow_up_raises_with_time():
    # (tau, delta) = (1, 1) destabilizes ex5_1; the growing oscillation
    # eventually overwhelms the fixed step
    model = load_preset("ex5_1").model
    model = replace(model, params=model.params.with_delays(1.0, 1.0))
    for start, when in (((8.0, 5.0, 2.0), 1.59), ((1.0, 1.0, 1.0), 11.98)):
        with pytest.raises(IntegrationError, match="blow-up") as exc:
            integrate(model, ConstantHistory(State(*start)), horizon=100.0, step=0.01)
        assert exc.value.time == pytest.approx(when, abs=1e-9)


def test_blow_up_time_at_the_default_step():
    # the blow-up time belongs to the step: the default 0.04 leaves RK4's
    # stability region at a different y than 0.01 does
    model = load_preset("ex5_1").model
    model = replace(model, params=model.params.with_delays(1.0, 1.0))
    for start, when in (((8.0, 5.0, 2.0), 1.72), ((1.0, 1.0, 1.0), 9.68)):
        with pytest.raises(IntegrationError, match="blow-up") as exc:
            integrate(model, ConstantHistory(State(*start)), horizon=100.0)
        assert exc.value.time == pytest.approx(when, abs=1e-9)


class _ConstantDrain(ResponseFn):
    """Test-only response: constant unit vaccination pressure."""

    arity = 1

    def value(self, u):
        return 1.0

    def partial(self, index, u):
        return 0.0


def _drain_model():
    # constant drain c*V = 5 exceeds the inflow a = 1, so x crosses zero
    return ModelSpec(
        params=Params(a=1.0, b=1.0, b1=1.0, c=5.0, d=1.0, d1=1.0, r=0.0, alpha=1.0),
        f=Zero(), V=_ConstantDrain(), P=Zero(),
    )


def test_negativity_violation_detected():
    model = _drain_model()
    with pytest.raises(IntegrationError) as exc:
        integrate(model, ConstantHistory(State(0.5, 0.0, 0.0)), horizon=10.0, step=0.05)
    assert "negativity" in str(exc.value)


def test_integration_error_carries_the_part_computed_before_the_failing_step():
    model = load_preset("ex5_1").model
    model = replace(model, params=model.params.with_delays(1.0, 1.0))
    with pytest.raises(IntegrationError) as exc:
        integrate(model, ConstantHistory(State(1.0, 1.0, 1.0)), horizon=300.0, step=0.01)
    part = exc.value.trajectory
    assert exc.value.time == pytest.approx(11.98, abs=1e-9)
    assert np.isfinite(part.states).all() and np.isfinite(part.derivatives).all()
    # beyond 4*tau the steps are equal, so the failing one is as long as the last
    last_step = part.times[-1] - part.times[-2]
    assert part.horizon == pytest.approx(exc.value.time - last_step, abs=1e-9)
    assert part.states[0].tolist() == [1.0, 1.0, 1.0]
    # from x = 0 the drain takes x below zero in the first step: nothing was computed
    with pytest.raises(IntegrationError, match="negativity") as exc:
        integrate(_drain_model(), ConstantHistory(State(0.0, 0.0, 0.0)), horizon=10.0, step=0.05)
    assert exc.value.time == pytest.approx(0.05) and exc.value.trajectory is None


def test_trajectory_csv_round_trip():
    traj = integrate(linear_reduction(), ConstantHistory(State(8.0, 3.0, 4.0)),
                     horizon=5.0, step=0.05)
    buf = io.StringIO()
    trajectory_to_csv(traj, buf, stride=0.5)
    buf.seek(0)
    rows = list(csv.reader(buf))
    assert rows[0] == ["t", "x", "y", "z"]
    assert len(rows) == 12  # header + 0.0 .. 5.0 by 0.5
    t, x, y, z = map(float, rows[4])
    assert t == 1.5
    want = exact_linear(1.5)
    assert abs(x - want[0]) < 1e-6 and abs(y - want[1]) < 1e-6


def test_uses_sampled_history_values():
    model = load_preset("ex5_1").model  # tau = delta = 1
    ramp = SampledHistory(
        times=(-1.0, 0.0),
        states=(State(4.0, 2.0, 1.0), State(1.0, 1.0, 1.0)),
    )
    flat = ConstantHistory(State(1.0, 1.0, 1.0))
    a = integrate(model, ramp, horizon=3.0)
    b = integrate(model, flat, horizon=3.0)
    # delayed lookups differ over [0, 1], so the paths must split early
    assert abs(dense_eval(a, 0.5).y - dense_eval(b, 0.5).y) > 1e-4


def test_histories_reject_non_finite_input():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ConstantHistory(State(bad, 1.0, 1.0))
        with pytest.raises(ValueError):
            SampledHistory(times=(bad, 0.0), states=(State(1, 1, 1), State(1, 1, 1)))
        with pytest.raises(ValueError):
            SampledHistory(times=(-1.0, 0.0), states=(State(1, 1, 1), State(1, bad, 1)))
    with pytest.raises(ValueError):
        SampledHistory(times=(-math.inf, 0.0), states=(State(1, 1, 1), State(1, 1, 1)))


def _scan_value(history, t):
    """Reference lookup: a linear scan for the first interval holding t."""
    ts = history.times
    if t <= ts[0]:
        return history.states[0]
    if t >= ts[-1]:
        return history.states[-1]
    for i in range(len(ts) - 1):
        if ts[i] <= t <= ts[i + 1]:
            w = (t - ts[i]) / (ts[i + 1] - ts[i])
            s0, s1 = history.states[i], history.states[i + 1]
            return State(s0.x + w * (s1.x - s0.x), s0.y + w * (s1.y - s0.y),
                         s0.z + w * (s1.z - s0.z))


def _zigzag_history(n=300, span=3.0):
    # x jumps by more than 2x between samples, so s0 + 1.0*(s1 - s0) often
    # differs from s1 in the last bit: picking the other interval at a
    # sample time shows up as a changed value
    times = tuple(float(t) for t in np.linspace(-span, 0.0, n))
    states = tuple(State(0.1 + 3.3 * (i % 2) + 0.01 * math.sin(i), 1.0 + 0.3 * math.cos(t), 1.0 + t * t)
                   for i, t in enumerate(times))
    return SampledHistory(times, states)


def test_sampled_history_lookup_matches_scan_and_interp():
    hist = _zigzag_history()
    ts = np.array(hist.times)
    rows = np.array([s.as_tuple() for s in hist.states])
    probes = list(ts) + list(0.5 * (ts[:-1] + ts[1:])) + [ts[0] - 1.0, 1.0]
    for t in probes:
        got = hist.value(float(t)).as_tuple()
        assert got == _scan_value(hist, float(t)).as_tuple()
        want = [np.interp(t, ts, rows[:, j]) for j in range(3)]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


def test_step_budget_fails_fast(monkeypatch):
    model = load_preset("ex5_1").model
    tiny = replace(model, params=model.params.with_delays(1e-6, 0.0))
    hist = ConstantHistory(State(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="MAX_STEPS"):
        integrate(tiny, hist, horizon=200.0)  # default step 1e-6: 2e8 steps
    monkeypatch.setattr(integrator, "MAX_STEPS", 100)
    assert len(integrate(model, hist, horizon=1.0, step=0.01).times) == 101
    with pytest.raises(ValueError, match="MAX_STEPS"):
        integrate(model, hist, horizon=1.01, step=0.01)


def test_long_sampled_history_fails_the_step_budget_before_the_mesh():
    # 200,000 samples and two delays give about 2.5 million breaking points,
    # each a mesh time: the budget is checked on their count before they or
    # the mesh are built (2.5 million points alone would take 20 MB)
    model, _ = _ex5_3(0.93, 0.61)
    times = np.linspace(-0.93, 0.0, 200_000).tolist()
    hist = SampledHistory(times=tuple(times), states=(State(2.0, 2.0, 2.0),) * len(times))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_STEPS"):
            integrate(model, hist, horizon=200.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _assert_derivatives_are_eval_rhs(model, history, traj):
    tau, delta = model.params.tau, model.params.delta

    def lagged(t, lag):
        return dense_eval(traj, t - lag) if t - lag >= 0.0 else history.value(t - lag)

    for t, st, got in zip(traj.times, traj.states, traj.derivatives):
        now = State(*map(float, st))
        x_tau = lagged(t, tau).x if tau > 0.0 else now.x
        y_delta = lagged(t, delta).y if delta > 0.0 else now.y
        want = eval_rhs(model, now, x_tau, y_delta)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", [*PRESET_NAMES, "ex5_5_sampled"])
def test_stored_derivatives_match_eval_rhs(name):
    # integrate and eval_rhs share one right-hand side
    cfg = load_preset(name.removesuffix("_sampled"))
    history = _zigzag_history() if name.endswith("_sampled") else cfg.history
    traj = integrate(cfg.model, history, horizon=20.0)
    _assert_derivatives_are_eval_rhs(cfg.model, history, traj)


def test_step_equal_to_the_delay():
    # the step may equal the smallest delay: every delayed lookup then
    # lands on a mesh point of the previous step
    model = load_preset("ex5_1").model
    model = replace(model, params=model.params.with_delays(0.2, 0.0))
    hist = ConstantHistory(State(1.0, 1.0, 1.0))
    traj = integrate(model, hist, horizon=10.0, step=0.2)
    assert len(traj.times) == 51
    _assert_derivatives_are_eval_rhs(model, hist, traj)
