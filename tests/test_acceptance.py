"""Acceptance criteria, one test per criterion run through ``acceptance.run``
as ``sirdelay verify`` runs it, each printing a pass/fail line.

Criterion 7 reports ex5_1's runs at (tau, delta) = (1, 1) and (5, 2) as
contradicting the published global-stability claim: the oracle finds the
endemic point unstable there, and those subcases pass only while the runs
fail to converge.  The tests below the parametrized one pin that judgement
and the ex5_2 zero-root tail law it falls back on.
"""

import time
from dataclasses import replace

import pytest

from sirdelay import acceptance, integrator
from sirdelay.integrator import ConstantHistory, integrate
from sirdelay.model import State
from sirdelay.presets import load_preset


@pytest.mark.parametrize("index", range(1, len(acceptance.CRITERIA) + 1),
                         ids=lambda i: f"criterion_{i}")
def test_criterion(index):
    res = acceptance.run(index)
    print()
    print(acceptance.format_result(res, verbose=True))
    if not res.passed:
        failing = [s for s in res.subs if not s.passed]
        detail = "\n".join(f"  {s.label} -- {s.info}" for s in failing)
        notes = "\n".join(f"  note: {n}" for n in res.notes)
        pytest.fail(
            f"criterion {res.index} ({res.title}): {len(failing)} subcase(s) failed\n"
            f"{detail}\n{notes}",
            pytrace=False,
        )


def test_a_crashing_criterion_keeps_its_title_index_timing_and_runtime_bound(monkeypatch):
    def sleep_then_crash():
        time.sleep(0.05)
        raise ValueError("boom")

    title, limit, _ = acceptance.CRITERIA[6]
    table = list(acceptance.CRITERIA)
    table[6] = (title, limit, sleep_then_crash)
    monkeypatch.setattr(acceptance, "CRITERIA", tuple(table))
    res = acceptance.run(7)
    assert (res.index, res.title, res.passed) == (7, title, False)
    assert res.elapsed >= 0.05
    crashed, runtime = res.subs
    assert not crashed.passed and crashed.info == "ValueError: boom"
    assert runtime.label == f"runtime < {limit:g} s" and runtime.passed
    assert runtime.info == f"{res.elapsed:.2f} s"


def test_run_all_runs_every_criterion_in_table_order(monkeypatch):
    table = tuple((f"t{i}", None, lambda i=i: ([acceptance.SubCheck(f"s{i}", i != 2)], ()))
                  for i in range(1, 4))
    monkeypatch.setattr(acceptance, "CRITERIA", table)
    results = acceptance.run_all()
    assert [(r.index, r.title, r.passed) for r in results] == [
        (1, "t1", True), (2, "t2", False), (3, "t3", True)]
    assert all(r.elapsed > 0.0 and len(r.subs) == 1 for r in results)


def _model(name, tau, delta):
    model = load_preset(name).model
    return replace(model, params=model.params.with_delays(tau, delta))


def _run(name, tau, delta, horizon):
    return integrate(_model(name, tau, delta), ConstantHistory(State(1.0, 1.0, 1.0)), horizon)


def test_tail_rate_is_one_eighth_for_ex5_2_only():
    ex5_2 = load_preset("ex5_2").model
    assert acceptance._tail_rate(ex5_2, State(5.0, 0.0, 0.0)) == pytest.approx(1.0 / 8.0)
    ex5_1 = load_preset("ex5_1").model
    assert acceptance._tail_rate(ex5_1, State(2.0, 6.0, 6.0)) is None


def test_unstable_judgement_fails_on_a_converged_run():
    # ex5_1 converges at zero delays; claiming instability there must fail
    traj = _run("ex5_1", 0.0, 0.0, 60.0)
    target = State(2.0, 6.0, 6.0)
    ok, _ = acceptance._judge_7(traj, None, target, 0.1, None)
    assert not ok
    ok, _ = acceptance._judge_7(traj, None, target, -0.354, None)
    assert ok


def test_computed_part_stops_one_step_before_the_failure():
    # ex5_1 at (5, 2) from (2, 1.5, 1) passes the divergence bound: the part
    # ends one controlled step (at most the smallest delay, 2) before that
    traj, err = acceptance._computed_part(
        _model("ex5_1", 5.0, 2.0), ConstantHistory(State(2.0, 1.5, 1.0)), 300.0)
    assert err is not None and "diverged" in str(err) and err.time < 300.0
    assert traj.horizon < err.time <= traj.horizon + 2.0
    assert traj.states.max() <= integrator.DIVERGENCE_BOUND


def test_zero_root_tail_law_is_not_vacuous():
    traj = _run("ex5_2", 0.0, 0.0, 300.0)
    target = State(5.0, 0.0, 0.0)
    assert traj.final_state().max_abs_diff(target) >= 1e-2
    ok, _ = acceptance._judge_7(traj, None, target, 0.0, 1.0 / 8.0)
    assert ok
    # no law, or a law twice as fast as the model's: the missed bar stands
    assert not acceptance._judge_7(traj, None, target, 0.0, None)[0]
    assert not acceptance._judge_7(traj, None, target, 0.0, 2.0 / 8.0)[0]
