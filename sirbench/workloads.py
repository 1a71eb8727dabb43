"""Workloads, seeded inputs, correctness gates and metrics of the sirdelay benchmark.

Every workload is a closed loop with one caller: the next ``sweep()`` call,
or the next preset's stability run, starts only after the previous one
returned.  Inputs come only from the seed, so the same seed gives the same
inputs and the same output digest.

* ``sweep-hopf``: ``analytics.sweep`` on ex5_3 across the Hopf crossing.
* ``sweep-twodelay``: ``analytics.sweep`` on ex5_5 with both delays live
  and a sampled initial history.
* ``stability-presets``: ``all_equilibria`` plus ``build_stability_report``
  per equilibrium, for each of the 8 presets (what ``sirdelay stability``
  computes for one preset).

The reasons for each choice are in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import random
import resource
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter

from sirdelay import analytics, charroots, equilibria, integrator, model, report, stability
from sirdelay.analytics import CONVERGED, DAMPED, SUSTAINED
from sirdelay.charroots import char_value
from sirdelay.integrator import SampledHistory
from sirdelay.model import State
from sirdelay.presets import PRESET_NAMES, load_preset

from tracer import Tracer

WORKLOADS = ("sweep-hopf", "sweep-twodelay", "stability-presets")

#: unit of every end-to-end metric (``--trace 0``)
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

#: unit of every per-layer metric (``--trace 1``); counts are per traced unit
LAYER_UNITS = {
    "integrator.integrate.calls": "count",
    "integrator.integrate.ms_p50": "ms",
    "integrator.steps": "count",
    "integrator.us_per_step": "us",
    "integrator.errors": "count",
    "integrator.history_value.calls": "count",
    "integrator.history_value.ms": "ms",
    "analytics.classify.calls": "count",
    "analytics.classify.ms_p50": "ms",
    "analytics.sweep.self_ms": "ms",
    "charroots.char_roots_scan.calls": "count",
    "charroots.char_roots_scan.ms_p50": "ms",
    "charroots.scans_per_op": "count/op",
    "charroots.max_real_part.calls": "count",
    "charroots.roots_found": "count",
    "equilibria.all_equilibria.calls": "count",
    "equilibria.all_equilibria.ms_p50": "ms",
    "model.eval_rhs.calls": "count",
    "equilibria.eval_rhs_per_eq": "count/eq",
    "stability.criteria.ms": "ms",
    "report.build_stability_report.self_ms_p50": "ms",
    "trace.overhead_frac": "fraction",
}

HORIZON = 200.0
#: fewest fresh interpreters timed for setup_s in one run
SETUP_PROBES = 9
#: distinct seeded units (sweep calls or preset passes); a long run cycles them
N_UNITS = 64

#: criterion-6 anchors of the ex5_3 regime sweep
HOPF_ANCHORS = (0.0, 0.9, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)
#: sustained-oscillation periods of the anchors, as classified at the seed commit
HOPF_PERIODS = {5.0: 17.412, 6.0: 20.8425, 7.0: 24.34, 8.0: 27.745, 9.0: 30.85}
PERIOD_RTOL = 0.01
#: criterion-10 band: outside it the oracle decides converged / not converged
ORACLE_BAND = 0.05
ROOT_TOL = 1e-9
#: ex5_3's endemic crossing (delta = 0), from the exact modulus/angle formula
EX5_3_CROSSING = 4.5617
CROSSING_TOL = 1e-3
#: half-width of the bracket that must straddle a reported crossing
BRACKET = 1e-3

TWODELAY_PAIRS = 6
TWODELAY_RANGE = (0.5, 6.0)
HISTORY_POINTS = 300
STABILITY_DELAYS = (0.0, 6.0)
#: passes per block; within a block each preset's tau and delta are stratified
#: over STABILITY_DELAYS, so every block of passes does about the same work
STABILITY_BLOCK = 4


# -- inputs ----------------------------------------------------------------

@dataclass(frozen=True)
class SweepCall:
    grid: tuple      # of (tau, delta)
    history: object  # HistorySpec


@dataclass(frozen=True)
class StabilityRun:
    preset: str
    tau: float
    delta: float


@dataclass(frozen=True)
class Inputs:
    workload: str
    units: tuple     # SweepCall per sweep call, or a tuple of StabilityRun per pass
    model: object = None    # swept ModelSpec (sweeps)
    configs: dict = None    # preset name -> ScenarioConfig (stability-presets)


def _strata(rng, n, lo, hi):
    """One uniform draw in each of n equal slices of [lo, hi], shuffled.

    Stratifying keeps the total delay, and so the work, of each call
    nearly the same from seed to seed.
    """
    width = (hi - lo) / n
    vals = [lo + width * (i + rng.random()) for i in range(n)]
    rng.shuffle(vals)
    return vals


def _hopf_call(rng, k, history):
    seeded = [rng.uniform(0.5, 4.75), rng.uniform(4.75, 9.0)]
    # the small delay walks through [0.1, 0.5] in four slices across calls;
    # below 0.2 it caps the step at delay/20
    lo = 0.1 + 0.1 * (k % 4)
    small = rng.uniform(lo, lo + 0.1)
    taus = list(HOPF_ANCHORS) + seeded + [small]
    return SweepCall(grid=tuple((t, 0.0) for t in taus), history=history)


def _sampled_history(rng, span, around: State):
    """Piecewise-linear history of HISTORY_POINTS jittered samples on [-span, 0]."""
    n = HISTORY_POINTS
    gap = span / (n - 1)
    times = [-span + gap * (i + rng.uniform(-0.4, 0.4)) for i in range(n)]
    times[0], times[-1] = -span, 0.0
    states = tuple(
        State(around.x * rng.uniform(0.5, 1.5),
              around.y * rng.uniform(0.5, 1.5),
              around.z * rng.uniform(0.5, 1.5))
        for _ in range(n)
    )
    return SampledHistory(times=tuple(times), states=states)


def _twodelay_call(rng, around):
    taus = _strata(rng, TWODELAY_PAIRS, *TWODELAY_RANGE)
    deltas = _strata(rng, TWODELAY_PAIRS, *TWODELAY_RANGE)
    span = max(taus + deltas)
    return SweepCall(grid=tuple(zip(taus, deltas)),
                     history=_sampled_history(rng, span, around))


def make_inputs(workload: str, seed: int) -> Inputs:
    """Load the presets a workload needs and generate its seeded units."""
    def rng(k):
        return random.Random(f"{workload}:{seed}:{k}")

    if workload == "sweep-hopf":
        cfg = load_preset("ex5_3")
        units = tuple(_hopf_call(rng(k), k, cfg.history) for k in range(N_UNITS))
        return Inputs(workload, units, model=cfg.model)
    if workload == "sweep-twodelay":
        cfg = load_preset("ex5_5")
        endemic = equilibria.all_equilibria(cfg.model)[0].state
        units = tuple(_twodelay_call(rng(k), endemic) for k in range(N_UNITS))
        return Inputs(workload, units, model=cfg.model)
    if workload == "stability-presets":
        configs = {name: load_preset(name) for name in PRESET_NAMES}
        units = []
        for b in range(N_UNITS // STABILITY_BLOCK):
            r = rng(b)
            draws = {name: list(zip(_strata(r, STABILITY_BLOCK, *STABILITY_DELAYS),
                                    _strata(r, STABILITY_BLOCK, *STABILITY_DELAYS)))
                     for name in PRESET_NAMES}
            units += [tuple(StabilityRun(name, *draws[name][i]) for name in PRESET_NAMES)
                      for i in range(STABILITY_BLOCK)]
        return Inputs(workload, tuple(units), configs=configs)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# -- operations ------------------------------------------------------------

@dataclass
class Call:
    """One closed-loop call: its wall time, the operations it holds, its output."""

    seconds: float
    ops: int
    output: object = None
    error: str | None = None


def _stability_run(cfg, run: StabilityRun):
    m = replace(cfg.model, params=cfg.model.params.with_delays(run.tau, run.delta))
    eqs = equilibria.all_equilibria(m)
    return [report.build_stability_report(m, eq, equilibria=eqs, name=run.preset,
                                           reference=cfg.reference)
            for eq in eqs]


def run_unit(inputs: Inputs, k: int, tracer: Tracer | None = None) -> list:
    """Run unit k: one sweep() call, or one pass of stability runs over the presets.

    Calls that raise count as failed operations; the loop goes on.
    """
    unit = inputs.units[k % len(inputs.units)]
    calls = []
    if inputs.model is not None:
        if tracer is not None:
            tracer.op = k
        t0 = perf_counter()
        try:
            rows = analytics.sweep(inputs.model, list(unit.grid), unit.history, HORIZON)
        except Exception as exc:  # a crashing call is a failed call, not an abort
            calls.append(Call(perf_counter() - t0, len(unit.grid), error=repr(exc)))
        else:
            calls.append(Call(perf_counter() - t0, len(rows), output=rows))
        return calls
    for i, run in enumerate(unit):
        if tracer is not None:
            tracer.op = k * len(unit) + i
        t0 = perf_counter()
        try:
            reports = _stability_run(inputs.configs[run.preset], run)
        except Exception as exc:  # a crashing run is a failed run, not an abort
            calls.append(Call(perf_counter() - t0, 1, output=(run, None), error=repr(exc)))
        else:
            calls.append(Call(perf_counter() - t0, 1, output=(run, reports)))
    return calls


# -- correctness gates -----------------------------------------------------

def sweep_row_failures(workload: str, row) -> list:
    """Reasons a sweep row fails its gates (empty when it passes)."""
    out = []
    where = f"{workload} tau={row.tau:.6g} delta={row.delta:.6g}"
    kind = None if row.classification is None else row.classification.kind
    mr = row.max_re_lambda
    if mr is None:
        out.append(f"{where}: no oracle value")
    elif mr < -ORACLE_BAND and kind != CONVERGED:
        out.append(f"{where}: max Re {mr:.4f} says converged, got {row.label()}")
    elif mr > ORACLE_BAND and kind == CONVERGED:
        out.append(f"{where}: max Re {mr:.4f} says not converged, got {kind}")
    if workload == "sweep-hopf" and row.tau in HOPF_ANCHORS:
        tau = row.tau
        if tau <= 3.0:
            near = row.candidate is not None and row.candidate.state.max_abs_diff(
                State(2.0, 2.0, 2.0)) < 1e-6
            if kind != CONVERGED or not near:
                out.append(f"{where}: anchor wants converged to (2,2,2), got {row.label()}")
        elif tau == 4.0:
            if kind not in (DAMPED, CONVERGED):
                out.append(f"{where}: anchor wants damped or converged, got {row.label()}")
        elif kind != SUSTAINED:
            out.append(f"{where}: anchor wants sustained oscillation, got {row.label()}")
        else:
            want = HOPF_PERIODS[tau]
            got = row.classification.period
            if abs(got - want) > PERIOD_RTOL * want:
                out.append(f"{where}: period {got:.6g} is not within 1% of {want:.6g}")
    return out


class CrossingCheck:
    """Does max Re change sign across [c - BRACKET, c + BRACKET]?

    The crossing depends only on the characteristic coefficients, so each
    distinct one is checked once.
    """

    def __init__(self):
        self._seen = {}

    def __call__(self, cc, c) -> bool:
        key = (cc.as_tuple(), c)
        if key not in self._seen:
            lo = charroots.max_real_part(cc, c - BRACKET, 0.0)
            hi = charroots.max_real_part(cc, c + BRACKET, 0.0)
            self._seen[key] = lo is not None and hi is not None and lo < 0.0 < hi
        return self._seen[key]


def stability_failures(run: StabilityRun, reports, crossing_ok) -> list:
    """Reasons one preset's stability run fails its gates."""
    where = f"{run.preset} tau={run.tau:.6g} delta={run.delta:.6g}"
    if not reports:
        return [f"{where}: no equilibria"]
    out = []
    for rep in reports:
        eq = f"{where} {rep.equilibrium.kind}"
        for roots, tau, delta in ((rep.oracle_roots, rep.tau, rep.delta),
                                  (rep.oracle_roots_zero_delay, 0.0, 0.0)):
            worst = max((abs(char_value(rep.cc, tau, delta, r)) for r in roots), default=0.0)
            if worst > ROOT_TOL:
                out.append(f"{eq}: oracle root with |F| = {worst:.3g} at "
                           f"(tau, delta) = ({tau:.6g}, {delta:.6g})")
        c = rep.oracle_crossing_tau
        if c is not None and not crossing_ok(rep.cc, c):
            out.append(f"{eq}: crossing tau {c:.6g} does not bracket a sign change of max Re")
        if run.preset == "ex5_3" and rep.equilibrium.kind == "endemic":
            if c is None or abs(c - EX5_3_CROSSING) > CROSSING_TOL:
                out.append(f"{eq}: crossing {c} is not {EX5_3_CROSSING} +- {CROSSING_TOL}")
    return out


def call_failures(workload: str, call: Call, crossing_ok) -> tuple:
    """(failed operations, reasons) for one call."""
    if workload == "stability-presets":
        run, reports = call.output
        if call.error is not None:
            return 1, [f"{run.preset}: {call.error}"]
        reasons = stability_failures(run, reports, crossing_ok)
        return int(bool(reasons)), reasons
    if call.error is not None:
        return call.ops, [f"{workload}: sweep raised {call.error}"]
    failed, reasons = 0, []
    for row in call.output:
        row_reasons = sweep_row_failures(workload, row)
        failed += bool(row_reasons)
        reasons += row_reasons
    return failed, reasons


def check(workload: str, calls) -> tuple:
    """(attempted, failed, reasons) over every call of a run."""
    crossing_ok = CrossingCheck()
    attempted = failed = 0
    reasons = []
    for call in calls:
        n, why = call_failures(workload, call, crossing_ok)
        attempted += call.ops
        failed += n
        reasons += why
    return attempted, failed, reasons


def digest(workload: str, calls) -> str:
    """Hash of labels, rounded periods, verdicts and crossings of one unit."""
    lines = []
    for call in calls:
        if call.error is not None:
            lines.append(f"error {call.error}")
        elif workload == "stability-presets":
            run, reports = call.output
            for rep in reports:
                c = rep.oracle_crossing_tau
                lines.append(" ".join([
                    run.preset, f"{run.tau:.6f}", f"{run.delta:.6f}", rep.equilibrium.kind,
                    rep.delay_free.verdict, rep.tau_only.verdict, rep.delta_only.verdict,
                    rep.combined.verdict, rep.global_case.verdict,
                    "-" if c is None else f"{c:.4f}",
                ]))
        else:
            for row in call.output:
                cls = row.classification
                period = "-" if cls is None or cls.period is None else f"{cls.period:.3f}"
                lines.append(f"{row.tau:.6f} {row.delta:.6f} {row.label()} {period}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# -- runs ------------------------------------------------------------------

@dataclass
class RunResult:
    metrics: dict      # name -> value
    attempted: int
    failed: int
    reasons: list
    digest: str
    notes: list = field(default_factory=list)  # printed, not gated


def run_timed(inputs: Inputs, seconds: float, setup_probe) -> RunResult:
    """Untraced closed loop for ``seconds``; end-to-end metrics.

    ``setup_probe()`` times one fresh interpreter's set-up.  It runs after
    every unit, untimed by the loop, and at least SETUP_PROBES times;
    ``setup_s`` is the median.  Spreading the probes over the run samples
    the same phases of machine speed as the loop does, where a burst of
    probes before the loop would sample one.

    ``ops_per_s`` is every operation of the run over the summed wall time
    of its calls.  On a shared machine whose speed switches between slow
    and fast phases, this total moves less from run to run than a median
    over units, which jumps to whichever phase holds half the units.  For
    that reason the median and p90 call times are printed as notes, not
    returned as metrics: a sweep run holds only 8-14 calls.
    """
    units, setup = [], []
    start = perf_counter()
    while not units or perf_counter() - start < seconds:
        units.append(run_unit(inputs, len(units)))
        setup.append(setup_probe())
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calls = [c for unit in units for c in unit]
    walls = [c.seconds for c in calls]
    attempted, failed, reasons = check(inputs.workload, calls)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": sum(c.ops for c in calls) / sum(walls),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }
    p50 = statistics.median(walls) * 1e3
    p90 = statistics.quantiles(walls, n=10)[8] * 1e3 if len(walls) >= 2 else walls[0] * 1e3
    return RunResult(metrics, attempted, failed, reasons, digest(inputs.workload, units[0]),
                     notes=[f"call_ms_p50 {p50:.6g} ms, call_ms_p90 {p90:.6g} ms over "
                            f"{len(walls)} calls ({len(walls) // 10} beyond the p90)"])


def _p50(values):
    return statistics.median(values) if values else 0.0


CRITERIA = (stability.delay_free_stable, stability.tau_persistence, stability.tau_critical,
            stability.delta_analysis, stability.general_delay_analysis,
            stability.global_verdict)


def install_tracer() -> Tracer:
    """Wrap the public function of every layer the per-layer metrics read."""
    tr = Tracer()
    tr.span("integrator.integrate", integrator.integrate, summary=lambda t: len(t.times) - 1)
    tr.span_method("integrator.history_value", SampledHistory, "value")
    tr.span("analytics.sweep", analytics.sweep)
    tr.span("analytics.classify", analytics.classify)
    tr.span("charroots.char_roots_scan", charroots.char_roots_scan, summary=len)
    tr.span("charroots.max_real_part", charroots.max_real_part)
    tr.span("equilibria.all_equilibria", equilibria.all_equilibria, summary=len)
    tr.count("model.eval_rhs", model.eval_rhs)
    tr.span("report.build_stability_report", report.build_stability_report)
    for fn in CRITERIA:
        tr.span(f"stability.{fn.__name__}", fn)
    return tr


def layer_metrics(tr: Tracer, ops: int) -> dict:
    """Per-layer metrics from the spans of one traced unit holding ``ops`` operations."""
    def ms(spans):
        return [s.seconds * 1e3 for s in spans]

    integ = tr.named("integrator.integrate")
    steps = sum(s.summary for s in integ if not s.failed)
    history = tr.named("integrator.history_value")
    scans = tr.named("charroots.char_roots_scan")
    eq_spans = tr.named("equilibria.all_equilibria")
    n_eq = sum(s.summary for s in eq_spans if not s.failed)
    rhs_calls = tr.counts["model.eval_rhs"]
    criteria_ms = sum(s.seconds for s in tr.spans
                      if s.name.startswith("stability.")) * 1e3
    return {
        "integrator.integrate.calls": len(integ),
        "integrator.integrate.ms_p50": _p50(ms(integ)),
        "integrator.steps": steps,
        "integrator.us_per_step": (sum(s.seconds for s in integ) * 1e6 / steps
                                   if steps else 0.0),
        "integrator.errors": sum(s.failed for s in integ),
        "integrator.history_value.calls": len(history),
        "integrator.history_value.ms": sum(ms(history)),
        "analytics.classify.calls": len(tr.named("analytics.classify")),
        "analytics.classify.ms_p50": _p50(ms(tr.named("analytics.classify"))),
        "analytics.sweep.self_ms": sum(tr.self_seconds_of("analytics.sweep")) * 1e3,
        "charroots.char_roots_scan.calls": len(scans),
        "charroots.char_roots_scan.ms_p50": _p50(ms(scans)),
        "charroots.scans_per_op": len(scans) / ops,
        "charroots.max_real_part.calls": len(tr.named("charroots.max_real_part")),
        "charroots.roots_found": sum(s.summary for s in scans if not s.failed),
        "equilibria.all_equilibria.calls": len(eq_spans),
        "equilibria.all_equilibria.ms_p50": _p50(ms(eq_spans)),
        "model.eval_rhs.calls": rhs_calls,
        "equilibria.eval_rhs_per_eq": rhs_calls / n_eq if n_eq else 0.0,
        "stability.criteria.ms": criteria_ms,
        "report.build_stability_report.self_ms_p50": _p50(
            [v * 1e3 for v in tr.self_seconds_of("report.build_stability_report")]),
    }


def run_traced(inputs: Inputs, seconds: float, trace_path=None) -> RunResult:
    """Per-layer metrics from traced repetitions of unit 0.

    Each repetition runs unit 0 once untraced and once traced, in
    alternating order, until ``seconds`` have passed.  Counts repeat
    exactly from one repetition to the next; timings are medians over the
    repetitions.  ``trace.overhead_frac`` is the median over repetitions
    of (traced - untraced) / untraced wall time of the unit: the two runs
    of a repetition are adjacent in time, so a change in the machine's
    speed between repetitions cancels.
    """
    plain, traced, per_rep, calls = [], [], [], []
    last = None
    start = perf_counter()
    while not per_rep or perf_counter() - start < seconds:
        for traced_turn in ((False, True) if len(per_rep) % 2 == 0 else (True, False)):
            tr = install_tracer() if traced_turn else None
            t0 = perf_counter()
            try:
                unit = run_unit(inputs, 0, tr)
            finally:
                wall = perf_counter() - t0
                if tr is not None:
                    tr.restore()
            calls += unit
            if tr is None:
                plain.append(wall)
                continue
            traced.append(wall)
            per_rep.append(layer_metrics(tr, sum(c.ops for c in unit)))
            last = tr
    if trace_path is not None:
        last.dump(trace_path)
    metrics = {name: statistics.median(rep[name] for rep in per_rep)
               for name in per_rep[0]}
    metrics["trace.overhead_frac"] = statistics.median(
        (t - p) / p for t, p in zip(traced, plain))
    attempted, failed, reasons = check(inputs.workload, calls)
    return RunResult(metrics, attempted, failed, reasons, digest(inputs.workload, calls[:len(unit)]))

