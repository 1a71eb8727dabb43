import csv
import io
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from sirdelay.analytics import (
    CONVERGED,
    DAMPED,
    DIVERGED,
    SUSTAINED,
    UNCLASSIFIED,
    TAIL_FRACTION,
    _peak_time,
    classify,
    nearest_equilibrium,
    sweep,
    sweep_to_csv,
    sweep_to_json,
)
from sirdelay.equilibria import all_equilibria
from sirdelay.integrator import ConstantHistory, Trajectory, dense_eval, integrate
from sirdelay.model import State, eval_rhs
from sirdelay.presets import load_preset


def synthetic_trajectory(fn, dfn, horizon=60.0, h=0.02):
    """Trajectory with y(t) = fn(t), x and z constant at 1."""
    n = int(round(horizon / h))
    times = np.arange(n + 1) * h
    ys = np.array([fn(t) for t in times])
    dys = np.array([dfn(t) for t in times])
    states = np.column_stack([np.ones_like(times), ys, np.ones_like(times)])
    derivs = np.column_stack([np.zeros_like(times), dys, np.zeros_like(times)])
    return Trajectory(times=times, states=states, derivatives=derivs,
                      step=h, tau=0.0, delta=0.0)


@pytest.mark.parametrize("target", [(5.0, 0.0, 0.0), (2.0, 6.0, 6.0)])
def test_nearest_equilibrium_follows_the_tail_mean(target):
    eqs = all_equilibria(load_preset("ex5_1").model)
    assert sorted(e.state.as_tuple() for e in eqs) == [(2.0, 6.0, 6.0), (5.0, 0.0, 0.0)]
    other = (2.0, 6.0, 6.0) if target == (5.0, 0.0, 0.0) else (5.0, 0.0, 0.0)
    times = np.arange(201) * 0.5
    # the first half sits at the other point; the tail wobbles by 1.5 about the target
    wobble = np.where(np.arange(201) % 2 == 0, 1.5, -1.5)[:, None]
    states = np.where(times[:, None] < 50.0, np.array(other), np.array(target) + wobble)
    traj = Trajectory(times=times, states=states, derivatives=np.zeros_like(states),
                      step=0.5, tau=0.0, delta=0.0)
    assert nearest_equilibrium(traj, eqs).state.as_tuple() == pytest.approx(target, abs=1e-9)


def test_horizon_precondition():
    traj = synthetic_trajectory(lambda t: 1.0, lambda t: 0.0, horizon=20.0)
    with pytest.raises(ValueError):
        classify(traj)
    short = replace(traj, tau=8.0)
    with pytest.raises(ValueError):
        classify(replace(synthetic_trajectory(lambda t: 1.0, lambda t: 0.0, horizon=60.0),
                         tau=8.0))


def test_converged_on_real_model():
    cfg = load_preset("ex5_1")
    traj = integrate(cfg.model, cfg.history, horizon=100.0)
    eq = [e for e in all_equilibria(cfg.model) if e.kind == "endemic"][0]
    cls = classify(traj, candidate=eq)
    assert cls.kind == CONVERGED
    assert cls.max_deviation < 1e-2 * (1.0 + 6.0)
    # a converged tail really is a steady state of the dynamics
    final = traj.final_state()
    res = eval_rhs(cfg.model, final, final.x, final.y)
    assert max(abs(v) for v in res) < 10.0 * 1e-2 * (1.0 + 6.0)


def test_converged_exact_equilibrium():
    cfg = load_preset("ex5_3")
    eq = [e for e in all_equilibria(cfg.model) if e.kind == "endemic"][0]
    traj = integrate(cfg.model, ConstantHistory(eq.state), horizon=60.0)
    cls = classify(traj, candidate=eq)
    assert cls.kind == CONVERGED
    assert cls.max_deviation < 1e-8


def test_damped_oscillation_synthetic():
    fn = lambda t: 2.0 + math.exp(-0.05 * t) * math.cos(1.3 * t)
    dfn = lambda t: (-0.05 * math.exp(-0.05 * t) * math.cos(1.3 * t)
                     - 1.3 * math.exp(-0.05 * t) * math.sin(1.3 * t))
    cls = classify(synthetic_trajectory(fn, dfn))
    assert cls.kind == DAMPED
    assert cls.decay_ratio < 0.9


def test_sustained_oscillation_synthetic():
    fn = lambda t: 2.0 + 0.8 * math.cos(1.3 * t)
    dfn = lambda t: -0.8 * 1.3 * math.sin(1.3 * t)
    cls = classify(synthetic_trajectory(fn, dfn))
    assert cls.kind == SUSTAINED
    assert cls.period == pytest.approx(2.0 * math.pi / 1.3, rel=0.02)
    assert cls.amplitude == pytest.approx(0.8, rel=0.1)


def test_diverged_synthetic():
    fn = lambda t: 1e3 * math.exp(0.25 * t) * (2.0 + math.cos(1.3 * t))
    dfn = lambda t: (0.25 * fn(t)
                     - 1e3 * 1.3 * math.exp(0.25 * t) * math.sin(1.3 * t))
    cls = classify(synthetic_trajectory(fn, dfn))
    assert cls.kind == DIVERGED


def test_unclassified_when_flat_but_off_target():
    fn = lambda t: 3.0
    dfn = lambda t: 0.0
    cls = classify(synthetic_trajectory(fn, dfn), candidate=State(0.0, 0.0, 0.0))
    assert cls.kind == UNCLASSIFIED


def test_sustained_period_invariant_under_horizon_doubling():
    cfg = load_preset("ex5_3")
    model = replace(cfg.model, params=cfg.model.params.with_delays(7.0, 0.0))
    eq = [e for e in all_equilibria(cfg.model) if e.kind == "endemic"][0]
    p200 = classify(integrate(model, cfg.history, horizon=200.0), candidate=eq)
    p400 = classify(integrate(model, cfg.history, horizon=400.0), candidate=eq)
    assert p200.kind == SUSTAINED and p400.kind == SUSTAINED
    assert p400.period == pytest.approx(p200.period, rel=0.05)


def test_sustained_period_does_not_depend_on_the_step():
    # peaks sit at the maxima of the dense output, not at mesh points, so
    # the period is not quantized to the step (24.34 at 0.01, 24.333 at 0.04)
    cfg = load_preset("ex5_3")
    eq = [e for e in all_equilibria(cfg.model) if e.kind == "endemic"][0]
    for tau in (5.0, 6.0, 7.0, 8.0, 9.0):
        model = replace(cfg.model, params=cfg.model.params.with_delays(tau, 0.0))
        fine, default = (integrate(model, cfg.history, horizon=200.0, step=s)
                         for s in (0.01, None))
        assert default.step == pytest.approx(0.04, rel=0.05)
        periods = [classify(t, candidate=eq).period for t in (fine, default)]
        assert abs(periods[0] - periods[1]) <= 1e-3, (tau, periods)


def test_peak_time_at_a_zero_right_end_slope_is_the_right_end():
    # with y'(t1) = 0 the Hermite slope vanishes at w = 1, where rounding can
    # push its root just past 1 or, for a double root, drop it
    rng = random.Random(20261018)
    for _ in range(2000):
        h, s0, y0 = rng.choice([0.04, 0.5, 1.0]), rng.uniform(0.01, 5.0), rng.uniform(-3.0, 3.0)
        rise = h * s0 * rng.choice([1.0 / 3.0, rng.uniform(1.0 / 3.0, 0.5)])  # 1/3: double root
        t = _peak_time(np.array([0.0, h]), np.array([y0, y0 + rise]), np.array([s0, 0.0]), 1)
        assert t == pytest.approx(h, rel=1e-9)


def test_peak_times_are_the_maxima_of_the_dense_output():
    cfg = load_preset("ex5_3")
    model = replace(cfg.model, params=cfg.model.params.with_delays(7.0, 0.0))
    traj = integrate(model, cfg.history, horizon=200.0)
    sel = traj.times >= traj.horizon * (1.0 - TAIL_FRACTION)
    times, ys, slopes = traj.times[sel], traj.states[sel, 1], traj.derivatives[sel, 1]
    peaks = [i for i in range(1, len(ys) - 1) if ys[i - 1] < ys[i] >= ys[i + 1]]
    assert len(peaks) >= 3
    offsets = np.arange(-100, 101) * 1e-6
    for i in peaks:
        t = _peak_time(times, ys, slopes, i)
        sampled = [dense_eval(traj, t + dt).y for dt in offsets]
        assert abs(offsets[int(np.argmax(sampled))]) <= 1e-5, (i, t)


def test_sweep_rows_and_error_capture():
    cfg = load_preset("ex5_1")
    grid = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
    rows = sweep(cfg.model, grid, cfg.history, horizon=200.0)
    assert [(r.tau, r.delta) for r in rows] == grid
    assert rows[0].classification.kind == CONVERGED
    assert rows[1].classification.kind == CONVERGED
    # the destabilized configuration blows up under the fixed step
    assert rows[2].error is not None and rows[2].classification is None
    assert rows[2].max_re_lambda > 0.0
    # converged rows sit on the endemic point
    for row in rows[:2]:
        assert row.candidate.state.max_abs_diff(State(2.0, 6.0, 6.0)) < 1e-9
        assert row.max_re_lambda < 0.0


def test_sweep_row_whose_step_does_not_suit_its_delays_is_an_error_row():
    cfg = load_preset("ex5_3")
    # a tiny delay forces a default step beyond MAX_STEPS
    rows = sweep(cfg.model, [(1.0, 0.0), (1e-6, 0.0)], cfg.history, horizon=200.0)
    # a fixed step longer than the row's delay
    rows += sweep(cfg.model, [(1.0, 0.0), (0.05, 0.0)], cfg.history, horizon=200.0, step=0.1)
    for first, second in (rows[:2], rows[2:]):
        assert first.error is None and first.classification is not None
        assert second.error is not None and second.classification is None
    assert "MAX_STEPS" in rows[1].error
    assert "smallest positive delay" in rows[3].error


def test_sweep_row_whose_roots_cannot_be_certified_is_an_error_row():
    cfg = load_preset("ex5_3")
    rows = sweep(cfg.model, [(1.0, 0.0), (1.0, 2e4)], cfg.history, horizon=60.0)
    assert rows[0].error is None and rows[0].max_re_lambda is not None
    assert rows[1].max_re_lambda is None and rows[1].error is not None


def test_sweep_rejects_nonpositive_horizon_and_step():
    cfg = load_preset("ex5_1")
    with pytest.raises(ValueError, match="horizon"):
        sweep(cfg.model, [(1.0, 0.0)], cfg.history, horizon=0.0)
    with pytest.raises(ValueError, match="step"):
        sweep(cfg.model, [(1.0, 0.0)], cfg.history, horizon=100.0, step=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon"):
            sweep(cfg.model, [(1.0, 0.0)], cfg.history, horizon=bad)
        with pytest.raises(ValueError, match="step"):
            sweep(cfg.model, [(1.0, 0.0)], cfg.history, horizon=100.0, step=bad)


def test_sweep_empty_grid_rejected():
    cfg = load_preset("ex5_1")
    with pytest.raises(ValueError):
        sweep(cfg.model, [], cfg.history, horizon=100.0)


def test_sweep_csv_and_json_exports():
    cfg = load_preset("ex5_3")
    rows = sweep(cfg.model, [(0.0, 0.0), (7.0, 0.0)], cfg.history, horizon=200.0)
    buf = io.StringIO()
    sweep_to_csv(rows, buf)
    buf.seek(0)
    parsed = list(csv.reader(buf))
    assert parsed[0] == ["tau", "delta", "classification", "period", "amplitude", "max_re_lambda"]
    assert len(parsed) == 3
    assert parsed[1][2] == CONVERGED
    assert parsed[2][2] == SUSTAINED
    assert float(parsed[2][3]) > 0.0  # period column filled for oscillations

    doc = json.loads(sweep_to_json(rows))
    assert doc[0]["classification"] == CONVERGED
    assert doc[1]["classification"] == SUSTAINED
    assert doc[1]["max_re_lambda"] > 0.0
