"""Acceptance suite: ten numbered criteria over the bundled presets.

Each criterion builds only its subchecks and notes; ``run`` gives it its
title and number from ``CRITERIA``, times it, applies its runtime limit and
turns a crash into a failed subcheck.  The command-line ``verify``
subcommand and the test suite both run these through ``run``; a criterion
passes only if every subcase does.

Criterion 7 checks the published delay-independent global-stability claim
for ex5_1 and ex5_2 by simulation, and judges each delay pair by what the
root oracle says about the target equilibrium.  The claim does not hold as
stated: ex5_1's endemic point is linearly unstable at (tau, delta) = (1, 1)
and (5, 2), so those runs are checked *not* to converge and are reported as
contradicting the published claim.  ex5_2 sits on its threshold with a zero
characteristic root, so its runs that miss the absolute 1e-2 bar at horizon
300 are checked against the algebraic centre-manifold tail instead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .analytics import CONVERGED, DAMPED, SUSTAINED, convergence_bar, sweep
from .charroots import char_roots_scan
from .cubic import solve_cubic_real
from .equilibria import all_equilibria
from .errors import IntegrationError
from .integrator import ConstantHistory, SampledHistory, dense_eval, integrate
from .model import ModelSpec, Params, State, jacobian_coeffs
from .presets import PRESET_NAMES, load_preset
from .report import build_stability_report, switch_evidence
from .responses import Linear, Zero
from .stability import STABLE, char_coeffs, is_bilinear_special_case, tau_from_pseudo_delay

__all__ = ["SubCheck", "CriterionResult", "run", "run_all", "CRITERIA", "format_result"]


@dataclass(frozen=True)
class SubCheck:
    label: str
    passed: bool
    info: str = ""


@dataclass(frozen=True)
class CriterionResult:
    index: int
    title: str
    passed: bool
    elapsed: float
    subs: tuple
    notes: tuple = ()


def _eq_of_kind(model, kind):
    for eq in all_equilibria(model):
        if eq.kind == kind:
            return eq
    return None


def criterion_1():
    """Each preset's equilibrium against its published one, within 1e-9.
    sec6_followup's published z = 20/9 conflicts with the steady-state
    equations, which give z = 2y = 40/9; its check expects that conflict."""
    subs = []
    for name in PRESET_NAMES:
        cfg = load_preset(name)
        want = list(cfg.reference["equilibrium"])
        kind = "endemic" if want[1] > 0.0 else "disease_free"
        label = f"{name} {kind}"
        if name == "sec6_followup":
            label += f" with z = 2y, not the published {want[2]:.6g}"
            want[2] = 2.0 * want[1]
        eq = _eq_of_kind(cfg.model, kind)
        if eq is None:
            subs.append(SubCheck(label, False, "no equilibrium found"))
            continue
        err = max(abs(a - b) for a, b in zip(eq.state.as_tuple(), want))
        subs.append(SubCheck(label, err < 1e-9, f"max coordinate error {err:.2e}"))
    return subs, ()


def _preset_report(name, kind):
    """The stability report of preset ``name``'s equilibrium of ``kind``."""
    model = load_preset(name).model
    eqs = all_equilibria(model)
    return build_stability_report(model, next(e for e in eqs if e.kind == kind), eqs)


def criterion_2():
    """Delay-free verdicts: ex5_1 stable; ex5_2/ex5_4 delay-free-equivalent
    with oracle roots {0, -1, -2} and {0, -1, -4} within 1e-9."""
    rep = _preset_report("ex5_1", "endemic")
    subs = [SubCheck("ex5_1 delay-free stable", rep.delay_free.verdict == STABLE,
                     "; ".join(c.describe() for c in rep.delay_free.checks[:3]))]
    for name, want in (("ex5_2", [-2.0, -1.0, 0.0]), ("ex5_4", [-4.0, -1.0, 0.0])):
        rep = _preset_report(name, "disease_free")
        res, jac = rep.delay_free, rep.jac
        subs.append(SubCheck(
            f"{name} delay-free-equivalent flag", res.delay_free_equivalent,
            f"D = {jac.D:.3g}, C = {jac.C:.3g}, A = {jac.A:.3g}"))
        subs.append(SubCheck(
            f"{name} nonzero roots negative", bool(res.nonzero_roots_negative),
            f"verdict {res.verdict}"))
        reals = sorted(r.real for r in rep.oracle_roots if abs(r.imag) < 1e-9)
        ok = len(reals) == 3 and all(abs(a - b) < 1e-9 for a, b in zip(reals, want))
        subs.append(SubCheck(f"{name} oracle roots {{0, {want[1]:g}, {want[0]:g}}}", ok,
                             f"roots {[f'{v:.6g}' for v in reals]}"))
    return subs, ()


def _cubic_text(c3, c2, c1, c0):
    return f"{c3:g}T^3{c2:+g}T^2{c1:+g}T{c0:+g}"


def criterion_3():
    """Cubic solver on the two published pseudo-delay cubics: ex5_3's has
    one positive root, its published T+; ex5_1's has none."""
    subs = []
    ref = load_preset("ex5_3").reference
    cubic = ref["pseudo_delay_cubic"]
    pos = [r for r in solve_cubic_real(*cubic) if r > 0]
    ok = len(pos) == 1 and abs(pos[0] - ref["T_plus"]) <= 0.005
    subs.append(SubCheck(
        f"ex5_3 {_cubic_text(*cubic)}: one positive root = T+ = {ref['T_plus']:g} +- 0.005", ok,
        f"positive roots {[f'{v:.6g}' for v in pos]}"))
    cubic = load_preset("ex5_1").reference["pseudo_delay_cubic"]
    roots = solve_cubic_real(*cubic)
    subs.append(SubCheck(f"ex5_1 {_cubic_text(*cubic)}: no positive root",
                         all(r <= 0 for r in roots), f"real roots {[f'{v:.6g}' for v in roots]}"))
    return subs, ()


def criterion_4():
    """tau+ formula on ex5_3's published (T+, nu+) gives its published tau+."""
    ref = load_preset("ex5_3").reference
    T, nu, want = ref["T_plus"], ref["nu_plus"], ref["tau_plus"]
    tau = tau_from_pseudo_delay(T, nu)
    subs = [SubCheck(f"(2/{nu:g})*arctan({nu:g}*{T:g}) = tau+ = {want:g} +- 0.01",
                     abs(tau - want) <= 0.01, f"got {tau:.6f}")]
    return subs, ()


def criterion_5():
    """The exact crossing of ex5_3 lies in the root scan's bracket [4, 5]."""
    rep = _preset_report("ex5_3", "endemic")
    miss = switch_evidence(rep.cc, 4.0, 5.0, ("tau=4", "tau=5"))
    tau_star = rep.oracle_crossing_tau
    subs = [SubCheck("bracket: max Re < 0 at tau=4 and > 0 at tau=5", miss is None,
                     miss or "certified by the root oracle"),
            SubCheck("exact crossing tau* in [4, 5]",
                     tau_star is not None and 4.0 <= tau_star <= 5.0,
                     f"tau* = {tau_star}")]
    return subs, ()


@cache
def _preset_sweep(preset, grid, horizon):
    """A preset's sweep rows, run once per process (criteria 6 and 10 share ex5_3's)."""
    cfg = load_preset(preset)
    return tuple(sweep(cfg.model, grid, cfg.history, horizon=horizon))


def criterion_6():
    """ex5_3 regime sweep: converged / damped-or-converged / sustained."""
    subs = []
    for row in _preset_sweep("ex5_3", EX5_3_GRID, 200.0):
        if row.error is not None:
            subs.append(SubCheck(f"tau = {row.tau:g}", False, f"integration error: {row.error}"))
            continue
        kind = row.classification.kind
        if row.tau in (0.0, 0.9, 3.0):
            near = row.candidate is not None and row.candidate.state.max_abs_diff(
                State(2.0, 2.0, 2.0)) < 1e-6
            ok = kind == CONVERGED and near
            want = "converged to (2,2,2)"
        elif row.tau == 4.0:
            ok = kind in (DAMPED, CONVERGED)
            want = "damped oscillation or converged"
        else:
            ok = kind == SUSTAINED
            want = "sustained oscillation"
        subs.append(SubCheck(f"tau = {row.tau:g}: {want}", ok,
                             row.classification.describe()))
    return subs, ()


EX5_3_GRID = tuple((tau, 0.0) for tau in (0.0, 0.9, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0))
HISTORIES_7 = (
    (0.1, 0.1, 0.1),
    (0.3, 0.2, 0.4),
    (0.5, 0.5, 0.5),
    (1.0, 1.0, 1.0),
    (2.0, 1.5, 1.0),
)
DELAY_PAIRS_7 = ((0.0, 0.0), (1.0, 1.0), (5.0, 2.0))

#: oracle max Re within +-ORACLE_BAND of zero makes no stability call
ORACLE_BAND = 0.05
#: absolute final-state deviation that counts as converged
CONVERGED_TOL_7 = 1e-2
#: share of the leading-order tail law that a zero-root run must reach
TAIL_LAW_SHARE = 0.8


def _tail_rate(model, target):
    """Leading-order slope of 1/deviation in t along the centre manifold of a
    disease-free point on its threshold, or None where no such law applies.

    In the bilinear special case (f = xy, V = x, P = y) the model reads

        x' = a - b*x*y - (c+d)*x + alpha*z
        y' = y*(b1*x(t - tau) - d1 - r)
        z' = r*y(t - delta) - alpha*z.

    On the threshold b1*x* = d1 + r, with x* = a/(c+d), the characteristic
    roots at (x*, 0, 0) are 0, -(c+d) and -alpha at every delay.  Along the
    zero root y is slow and x, z follow it: z = (r/alpha)*y and

        x = (a + r*y)/(c + d + b*y) = x* - (b*x* - r)/(c+d) * y + O(y^2).

    A delay shifts y by tau*y' = O(y^2), which moves y' only at O(y^3), so
    y' = -kappa*y^2 with
    kappa = b1*(b*x* - r)/(c+d), whence y = 1/(kappa*t) + O(log t / t^2).
    The max-norm deviation is M*y with M = max(1, r/alpha, |b*x* - r|/(c+d)),
    so 1/dev grows like (kappa/M)*t.  For ex5_2 (a = 10, b = b1 = c = d =
    d1 = alpha = 1, r = 4): x* = 5, kappa = 1/2, M = 4, the slope is 1/8
    and dev ~ 8/t, which reaches the 1e-2 bar only near t = 800.
    """
    p = model.params
    if not is_bilinear_special_case(model) or target.y != 0.0 or target.z != 0.0:
        return None
    xs = target.x
    kappa = p.b1 * (p.b * xs - p.r) / (p.c + p.d)
    if kappa <= 0.0:
        return None
    return kappa / max(1.0, p.r / p.alpha, abs(p.b * xs - p.r) / (p.c + p.d))


def _computed_part(model, history, horizon):
    """Integrate over [0, horizon]; returns (trajectory, error).

    On an IntegrationError the trajectory is the part computed before the
    failing step (None if the failure came in the first step).
    """
    try:
        return integrate(model, history, horizon), None
    except IntegrationError as exc:
        return exc.trajectory, exc


def _stays_away(traj, err, target, bar):
    """(passed, info): does the computed part ``traj`` stay at least ``bar``
    from ``target`` over the second half of its span?  This is how a run
    is judged where the oracle finds the target unstable."""
    if traj is None:
        return False, f"no trajectory computed: {err}"
    half = int(np.searchsorted(traj.times, traj.horizon / 2.0))  # steps need not be equal
    dev = np.max(np.abs(traj.states[half:] - np.array(target.as_tuple())), axis=1)
    closest = float(dev.min())
    ran = "ran to the horizon" if err is None else f"integrator stopped: {err}"
    return closest >= bar, (
        f"{ran}; deviation over [{traj.times[half]:.4g}, {traj.horizon:.4g}] "
        f">= {closest:.3g}")


def _judge_7(traj, err, target, max_re, tail_rate):
    """(passed, info) for one criterion-7 run, given the oracle's max Re at
    the target and the zero-root tail slope (None when no law applies)."""
    if traj is None:
        return False, f"no trajectory computed: {err}"
    if max_re > ORACLE_BAND:
        return _stays_away(traj, err, target, CONVERGED_TOL_7)
    if err is not None:
        return False, f"integration failed: {err}"
    final = traj.final_state().max_abs_diff(target)
    if final < CONVERGED_TOL_7:
        return True, f"final deviation {final:.3e}"
    if max_re >= -ORACLE_BAND and tail_rate is not None:
        mid = dense_eval(traj, traj.horizon / 2.0).max_abs_diff(target)
        gain = 1.0 / final - 1.0 / mid
        need = TAIL_LAW_SHARE * tail_rate * traj.horizon / 2.0
        return gain >= need, (
            f"final deviation {final:.3e} misses {CONVERGED_TOL_7:g}; zero-root tail: "
            f"1/dev grew by {gain:.2f} over the second half, law needs >= {need:.2f}")
    return False, f"final deviation {final:.3e}"


def criterion_7():
    """Global stability by simulation for ex5_1 and ex5_2, judged by the oracle.

    Every (preset, delay pair, history) run goes to horizon 300.  Where the
    oracle's max Re at the target is below -0.05 the run must end within
    1e-2 of it.  Above +0.05 the published global claim is contradicted, and
    the run must stay at least 1e-2 away over the second half of what was
    computed.  In the band the 1e-2 bar still applies; a run that misses it
    passes only if the scan has a root at 0 and 1/dev grows over [T/2, T] by
    at least TAIL_LAW_SHARE of the centre-manifold law (see ``_tail_rate``).
    """
    subs = []
    cases = (
        ("ex5_1", "endemic", State(2.0, 6.0, 6.0)),
        ("ex5_2", "disease_free", State(5.0, 0.0, 0.0)),
    )
    for name, kind, target in cases:
        model = load_preset(name).model
        cc = char_coeffs(jacobian_coeffs(model, target))
        for (tau, delta) in DELAY_PAIRS_7:
            row_model = replace(model, params=model.params.with_delays(tau, delta))
            roots = char_roots_scan(cc, tau, delta)
            pair = f"{name} (tau,delta)=({tau:g},{delta:g})"
            if not roots:
                subs.append(SubCheck(pair, False, "no oracle value"))
                continue
            max_re = roots[0].real
            zero_root = any(abs(r) < 1e-6 for r in roots)
            tail_rate = _tail_rate(row_model, target) if zero_root else None
            if max_re > ORACLE_BAND:
                claim = f"max Re = {max_re:+.3f}: published global claim contradicted"
            elif max_re < -ORACLE_BAND:
                claim = f"max Re = {max_re:+.3f}: converges"
            else:
                claim = f"max Re = {max_re:+.3f} in band: converges"
                if tail_rate is not None:
                    claim += f" or follows the 1/dev ~ t*{tail_rate:g} tail"
            for hist in HISTORIES_7:
                traj, err = _computed_part(row_model, ConstantHistory(State(*hist)), 300.0)
                ok, info = _judge_7(traj, err, target, max_re, tail_rate)
                subs.append(SubCheck(f"{pair} history={hist} => {claim}", ok, info))
    notes = (
        "ex5_1's endemic point (2,6,6) is linearly unstable at (1,1) and (5,2): "
        "the root scan finds roots with positive real part and the persistence "
        "coefficient a0 = -36 < 0 predicts the switch, yet global_verdict still "
        "reports it globally stable (b1 = 1 < min(b(d1+r)/r, c+d) = 2).  The "
        "solutions there grow without bound, against the published claim: at "
        "(1,1) from (1,1,1) y peaks at 24.1, 85.7, 967.6 and 86,398 at "
        "t = 3.67, 7.59, 11.31 and 14.91 (the controlled steps and a fixed step "
        "2e-5 agree to 2e-6), so no bound x <= max(x(0), (a + alpha*max z)/(c+d)) "
        "holds.  The controlled steps follow that growth until the try budget is "
        "used up, at t ~ 15-22 at (1,1) and t ~ 11.2-13.6 at (5,2), or until y "
        "passes DIVERGENCE_BOUND, at t ~ 19 at (5,2) from (2,1.5,1).",
        "ex5_2 sits on its threshold a/(c+d) = (d1+r)/b1 = 5 with roots {0, -1, -2} "
        "at every delay; along the zero root dev ~ 8/t, so the 1e-2 bar needs "
        "t ~ 800 and runs that miss it at horizon 300 are held to that tail law.",
    )
    return subs, notes


def criterion_8():
    """ex5_7 converges to its disease-free point for four delay pairs."""
    cfg = load_preset("ex5_7")
    target = State((math.sqrt(57.0) - 3.0) / 4.0, 0.0, 0.0)
    subs = []
    for (tau, delta) in ((1.0, 0.5), (1.0, 1.5), (9.0, 0.5), (9.0, 1.5)):
        row_model = replace(cfg.model, params=cfg.model.params.with_delays(tau, delta))
        traj = integrate(row_model, cfg.history, horizon=200.0)
        dev = traj.final_state().max_abs_diff(target)
        subs.append(SubCheck(f"(tau,delta)=({tau:g},{delta:g})", dev < 1e-2,
                             f"final deviation {dev:.3e}"))
    return subs, ()


def _linear_reduction_model():
    # f and P inactive, V = x: x' = a - (c+d)x, y' = -d1*y, z' = -alpha*z
    return ModelSpec(
        params=Params(a=10.0, b=1.0, b1=1.0, c=1.0, d=1.0, d1=1.0, r=0.0, alpha=1.0),
        f=Zero(), V=Linear(1.0), P=Zero(),
    )


#: a sampled history near ex5_5's endemic point, kinked at five times
EX5_5_SAMPLED_HISTORY = SampledHistory(
    (-0.93, -0.7, -0.41, -0.2, 0.0),
    tuple(State(9.0 + i % 2, 0.5 - 0.05 * i, 1.4 + 0.1 * i) for i in range(5)),
)


def _order_subs(label, model, history, horizon, steps, exact=None):
    """Error ratio per halving of the requested step, in [14, 18] for fourth
    order; each run is measured at its mesh times against ``exact`` (t ->
    State), by default the dense output of a run 8x finer than the finest."""
    if exact is None:
        ref = integrate(model, history, horizon, step=steps[-1] / 8.0)
        exact = lambda t: dense_eval(ref, t)
    errors = [max(exact(float(t)).max_abs_diff(State(*map(float, st)))
                  for t, st in zip(traj.times, traj.states))
              for traj in (integrate(model, history, horizon, step=s) for s in steps)]
    return [SubCheck(f"{label}, step {steps[i]:.4g} -> {steps[i + 1]:.4g}: "
                     f"error ratio in [14, 18]", 14.0 <= errors[i] / errors[i + 1] <= 18.0,
                     f"errors {errors[i]:.3e} -> {errors[i + 1]:.3e}, "
                     f"ratio {errors[i] / errors[i + 1]:.2f}")
            for i in range(len(steps) - 1)]


def criterion_9():
    """Fourth-order convergence on the linear reduction, on ex5_3 with one
    delay and on ex5_5 with two, from a constant and from a sampled history;
    equilibrium-start drift < 1e-8 over horizon 100 on every preset."""
    x0, y0, z0 = 8.0, 3.0, 4.0

    def exact(t):
        # x' = 10 - 2x + z with z = z0*exp(-t)
        return State(5.0 + z0 * math.exp(-t) + (x0 - 5.0 - z0) * math.exp(-2.0 * t),
                     y0 * math.exp(-t), z0 * math.exp(-t))

    subs = _order_subs("linear reduction", _linear_reduction_model(),
                       ConstantHistory(State(x0, y0, z0)), 20.0, (0.1, 0.05, 0.025, 0.0125),
                       exact)

    # with delays RK4 keeps its order only if the mesh holds the breaking
    # points where a derivative of order <= 4 jumps (s + tau, s + delta,
    # s + 2*tau and s + tau + delta; a mesh that misses them gives ratios
    # near 4); the requested steps tau/(N - 0.63) do not divide tau, and the
    # mesh cuts each gap between breaking points into equal steps
    cfg = load_preset("ex5_3")
    tau = 0.93
    delayed = replace(cfg.model, params=cfg.model.params.with_delays(tau, 0.0))
    subs += _order_subs(f"ex5_3 tau = {tau:g}", delayed, cfg.history, 11.0 * tau,
                        tuple(tau / (n - 0.63) for n in (25, 50, 100)))
    cfg = load_preset("ex5_5")
    delayed = replace(cfg.model, params=cfg.model.params.with_delays(0.93, 0.61))
    for history in (cfg.history, EX5_5_SAMPLED_HISTORY):
        subs += _order_subs(f"ex5_5 (tau,delta)=(0.93,0.61) {history.kind} history", delayed,
                            history, 10.0, (0.04, 0.02, 0.01))

    for name in PRESET_NAMES:
        m = load_preset(name).model
        for eq in all_equilibria(m):
            traj = integrate(m, ConstantHistory(eq.state), horizon=100.0)
            drift = float(np.max(np.abs(traj.states - np.array(eq.state.as_tuple()))))
            subs.append(SubCheck(f"{name} {eq.kind} drift < 1e-8", drift < 1e-8,
                                 f"max drift {drift:.2e}"))
    return subs, ()


def criterion_10():
    """Across all sweep rows: oracle max Re < -0.05 implies converged and
    max Re > +0.05 implies not converged.

    A row whose integration failed is judged by what was computed before
    the failure, as in criterion 7: with max Re > +0.05 it passes only if
    that part stays outside classify's convergence bar around the row's
    equilibrium over its second half.
    """
    sweeps = (
        ("ex5_3", EX5_3_GRID, 200.0),
        ("ex5_1", tuple((a, b) for a in (0.0, 1.0, 5.0) for b in (0.0, 1.0, 5.0)), 200.0),
        ("ex5_2", ((0.0, 0.0),), 300.0),
    )
    subs = []
    for preset, grid, horizon in sweeps:
        cfg = load_preset(preset)
        for row in _preset_sweep(preset, grid, horizon):
            mr = row.max_re_lambda
            label = (f"{preset} (tau,delta)=({row.tau:g},{row.delta:g}) "
                     f"max Re = {mr if mr is None else format(mr, '.4f')}")
            kind = None if row.classification is None else row.classification.kind
            classified = f"classified {kind or f'error: {row.error}'}"
            if mr is None:
                subs.append(SubCheck(label, False, "no oracle value"))
            elif mr < -ORACLE_BAND:
                subs.append(SubCheck(f"{label} => converged", kind == CONVERGED, classified))
            elif mr > ORACLE_BAND and row.error is None:
                subs.append(SubCheck(f"{label} => not converged", kind != CONVERGED, classified))
            elif mr > ORACLE_BAND:
                row_model = replace(cfg.model,
                                    params=cfg.model.params.with_delays(row.tau, row.delta))
                traj, err = _computed_part(row_model, cfg.history, horizon)
                target = row.candidate.state
                ok, info = _stays_away(traj, err, target, convergence_bar(target))
                subs.append(SubCheck(f"{label} => not converged", ok, info))
            else:
                subs.append(SubCheck(f"{label} in band: unconstrained", True, classified))
    return subs, ()


#: (title, runtime limit in seconds or None, check), in ``verify``'s order
CRITERIA = (
    ("equilibrium closed forms", 1.0, criterion_1),
    ("delay-free verdicts", None, criterion_2),
    ("cubic solver", None, criterion_3),
    ("critical-delay formula consistency", None, criterion_4),
    ("bifurcation bracket (oracle)", 30.0, criterion_5),
    ("regime sweep (ex5_3)", 60.0, criterion_6),
    ("global stability by simulation, judged by the oracle", 60.0, criterion_7),
    ("nonlinear preset stability (ex5_7)", 30.0, criterion_8),
    ("integrator order and equilibrium drift", None, criterion_9),
    ("theory/simulation agreement", 120.0, criterion_10),
)


def run(index: int) -> CriterionResult:
    """Run criterion ``index`` (1-based) of ``CRITERIA``: time its check,
    apply its runtime limit, and report a crash as a failed subcheck."""
    title, limit, check = CRITERIA[index - 1]
    t0 = time.perf_counter()
    try:
        subs, notes = check()
    except Exception as exc:  # a crash is a failure, not an abort
        subs, notes = [SubCheck("criterion crashed", False, f"{type(exc).__name__}: {exc}")], ()
    elapsed = time.perf_counter() - t0
    if limit is not None:
        subs = [*subs, SubCheck(f"runtime < {limit:g} s", elapsed < limit, f"{elapsed:.2f} s")]
    return CriterionResult(index, title, all(s.passed for s in subs), elapsed, tuple(subs),
                           tuple(notes))


def run_all():
    return [run(i) for i in range(1, len(CRITERIA) + 1)]


def format_result(res: CriterionResult, verbose: bool = False) -> str:
    status = "PASS" if res.passed else "FAIL"
    lines = [f"criterion {res.index:2d}: {status}  {res.title}  ({res.elapsed:.2f} s)"]
    if verbose or not res.passed:
        for s in res.subs:
            mark = "ok " if s.passed else "BAD"
            lines.append(f"    [{mark}] {s.label}" + (f" -- {s.info}" if s.info else ""))
        for n in res.notes:
            lines.append(f"    note: {n}")
    return "\n".join(lines)
