"""Command-line interface.

Subcommands:

* ``equilibria`` - list the steady states of a preset or config
* ``stability``  - full per-equilibrium stability report
* ``simulate``   - integrate and export a time series (CSV, optional SVG)
* ``sweep``      - classify behavior over a (tau, delta) grid
* ``verify``     - run the acceptance suite over the bundled presets

Exit status: 0 on success, 1 on computation errors, 2 on configuration
errors (unknown preset, malformed config file or reference block, more
than MAX_STEPS grid values, grid rows or CSV rows, an output path that
cannot be written).  Every file is written by ``_write``, into an output
directory made before any work starts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import acceptance
from .analytics import classify, nearest_equilibrium, sweep, sweep_to_csv, sweep_to_json
from .config import ScenarioConfig, dump_scenario, load_scenario
from .equilibria import all_equilibria
from .errors import ConfigError, DomainError, IntegrationError
from .integrator import MAX_STEPS, dense_eval, integrate, sample_times, trajectory_to_csv
from .presets import PRESET_NAMES, load_preset
from .report import build_stability_report, render_report, report_to_json
from .svgchart import line_chart

__all__ = ["main"]


def _parse_values(text: str, what: str):
    """Parse a delay, '2.5' or 'A:B:STEP', into a list of finite, nonnegative floats."""
    try:
        parts = [float(v) for v in text.split(":")]
        if not all(0.0 <= v < math.inf for v in parts):
            raise ValueError("delays must be nonnegative and finite")
        if ":" in text:
            if len(parts) != 3:
                raise ValueError("ranges take the form A:B:STEP")
            lo, hi, step = parts
            if step <= 0 or hi < lo:
                raise ValueError("need A <= B and STEP > 0")
            count = (hi - lo) / step + 1e-9  # a float: inf, not an error, when it overflows
            if count >= MAX_STEPS:
                raise ValueError(f"more than MAX_STEPS = {MAX_STEPS} values")
            return [round(lo + k * step, 12) for k in range(math.floor(count) + 1)]
        return parts
    except ValueError as exc:
        raise ConfigError(f"bad {what} value {text!r}: {exc}", field=what) from exc


def _resolve_scenario(args) -> ScenarioConfig:
    if getattr(args, "preset", None):
        cfg = load_preset(args.preset)
    elif getattr(args, "config", None):
        cfg = load_scenario(args.config)
    else:
        raise ConfigError("one of --preset or --config is required", field="preset")
    if getattr(args, "horizon", None) is not None:
        cfg = replace(cfg, horizon=args.horizon)
    return cfg


def _scenario_name(cfg: ScenarioConfig, args) -> str:
    return cfg.name or args.preset or Path(args.config).stem


def _write(path, fill, field="out"):
    """Open ``path``, let ``fill`` write to it, and say so; an OSError is a
    ConfigError naming ``field``."""
    try:
        with open(path, "w", newline="") as fh:
            fill(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}", field=field) from None
    print(f"wrote {path}")


def _maybe_dump_config(cfg: ScenarioConfig, args):
    if getattr(args, "dump_config", None):
        _write(args.dump_config, lambda fh: dump_scenario(cfg, fh), field="dump-config")


def _outdir(args) -> Path:
    """The output directory, made before any work is done that would be lost."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {out}: {exc}", field="out") from None
    return out


def cmd_equilibria(args) -> int:
    cfg = _resolve_scenario(args)
    _maybe_dump_config(cfg, args)
    model = cfg.model
    eqs = all_equilibria(model)
    if not model.f.zero_when_y_zero:
        print("no disease-free equilibrium: the incidence does not vanish at y = 0")
    if not eqs:
        print("no equilibria found")
    for eq in eqs:
        s = eq.state
        print(f"{eq.kind:13s} ({s.x:.12g}, {s.y:.12g}, {s.z:.12g})  residual {eq.residual:.2e}")
    ref = cfg.reference.get("equilibrium")
    if ref is not None and eqs:
        best = min(max(abs(a - b) for a, b in zip(eq.state.as_tuple(), ref)) for eq in eqs)
        if best > 1e-6:
            print(f"note: published equilibrium {ref} differs from every computed one "
                  f"(closest disagrees by {best:.3g})")
    return 0


def cmd_stability(args) -> int:
    cfg = _resolve_scenario(args)
    out = _outdir(args) if args.out else None
    _maybe_dump_config(cfg, args)
    name = _scenario_name(cfg, args)
    eqs = all_equilibria(cfg.model)
    if not eqs:
        print("no equilibria found; nothing to report")
        return 0
    reports = [
        build_stability_report(cfg.model, eq, equilibria=eqs, name=name,
                               reference=cfg.reference)
        for eq in eqs
    ]
    if args.format != "json":
        for rep in reports:
            print(render_report(rep))
            print()
    if args.format == "json" or args.out:
        doc = json.dumps({"reports": [report_to_json(r) for r in reports]}, indent=2)
        if out:
            _write(out / f"{name}_stability.json", lambda fh: fh.write(doc + "\n"))
        else:
            print(doc)
    return 0


def cmd_simulate(args) -> int:
    cfg = _resolve_scenario(args)
    try:  # the CSV's own stride check, made before anything is integrated or written
        sample_times(cfg.horizon, args.stride)
    except ValueError as exc:
        raise ConfigError(str(exc), field="stride") from None
    model = cfg.model
    if args.tau is not None or args.delta is not None:
        tau = args.tau if args.tau is not None else model.params.tau
        delta = args.delta if args.delta is not None else model.params.delta
        for name, v in (("tau", tau), ("delta", delta)):
            if not 0 <= v < math.inf:
                raise ConfigError("delays must be nonnegative and finite", field=name)
        model = replace(model, params=model.params.with_delays(tau, delta))
        cfg = replace(cfg, model=model)
    out = _outdir(args)
    _maybe_dump_config(cfg, args)
    name = _scenario_name(cfg, args)
    traj = integrate(model, cfg.history, cfg.horizon)
    print(f"steps: {len(traj.times) - 1} accepted, {traj.rejected} rejected")
    _write(out / f"{name}_timeseries.csv",
           lambda fh: trajectory_to_csv(traj, fh, stride=args.stride))
    final = traj.final_state()
    print(f"final state: ({final.x:.8g}, {final.y:.8g}, {final.z:.8g})")
    eqs = all_equilibria(cfg.model)
    try:
        if eqs:
            cls = classify(traj, candidate=nearest_equilibrium(traj, eqs))
            print(f"classification: {cls.describe()}")
    except ValueError as exc:
        print(f"classification skipped: {exc}")
    if args.plot:
        ts = sample_times(traj.horizon, max(traj.horizon / 600.0, args.stride))
        xs, ys, zs = zip(*(dense_eval(traj, min(t, traj.horizon)).as_tuple() for t in ts))
        svg = line_chart(
            ts, [("susceptible x", xs), ("infected y", ys), ("recovered z", zs)],
            title=f"{name}: tau={model.params.tau:g}, delta={model.params.delta:g}",
            x_label="t", y_label="density",
        )
        _write(out / f"{name}_trajectory.svg", lambda fh: fh.write(svg))
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_scenario(args)
    taus = _parse_values(args.tau, "tau") if args.tau else [cfg.model.params.tau]
    deltas = _parse_values(args.delta, "delta") if args.delta else [cfg.model.params.delta]
    if len(taus) * len(deltas) > MAX_STEPS:
        raise ConfigError(f"the tau x delta grid has {len(taus) * len(deltas)} rows, more than "
                          f"MAX_STEPS = {MAX_STEPS}", field="grid")
    out = _outdir(args)
    _maybe_dump_config(cfg, args)
    name = _scenario_name(cfg, args)
    grid = [(t, d) for t in taus for d in deltas]
    rows = sweep(cfg.model, grid, cfg.history, cfg.horizon)
    for row in rows:
        mr = "" if row.max_re_lambda is None else f"  max Re lambda = {row.max_re_lambda:+.4f}"
        print(f"tau = {row.tau:6g}  delta = {row.delta:6g}  {row.label()}{mr}")
    if args.format == "json":
        _write(out / f"{name}_sweep.json", lambda fh: fh.write(sweep_to_json(rows) + "\n"))
    else:
        _write(out / f"{name}_sweep.csv", lambda fh: sweep_to_csv(rows, fh))
    return 0


def cmd_verify(args) -> int:
    results = acceptance.run_all()
    for res in results:
        print(acceptance.format_result(res, verbose=args.verbose))
    passed = sum(1 for r in results if r.passed)
    print(f"\n{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


def _add_source_opts(p):
    p.add_argument("--preset", metavar="NAME",
                   help=f"bundled scenario name ({', '.join(PRESET_NAMES)})")
    p.add_argument("--config", help="path to a scenario JSON file")
    p.add_argument("--dump-config", metavar="PATH",
                   help="write the resolved scenario config to PATH")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sirdelay",
        description="Delayed SIR-type models: equilibria, stability criteria, simulation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser("equilibria", help="list steady states")
    _add_source_opts(p_eq)
    p_eq.set_defaults(fn=cmd_equilibria)

    p_st = sub.add_parser("stability", help="per-equilibrium stability report")
    _add_source_opts(p_st)
    p_st.add_argument("--format", choices=("text", "json"), default="text")
    p_st.add_argument("--out", help="directory for the JSON report")
    p_st.set_defaults(fn=cmd_stability)

    p_sim = sub.add_parser("simulate", help="integrate and export a time series")
    _add_source_opts(p_sim)
    p_sim.add_argument("--horizon", type=float)
    p_sim.add_argument("--tau", type=float, help="override the incubation delay")
    p_sim.add_argument("--delta", type=float, help="override the recovery delay")
    p_sim.add_argument("--stride", type=float, default=0.1, help="CSV output stride")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.add_argument("--plot", action="store_true", help="emit an SVG line chart")
    p_sim.set_defaults(fn=cmd_simulate)

    p_sw = sub.add_parser("sweep", help="classify behavior over a delay grid")
    _add_source_opts(p_sw)
    p_sw.add_argument("--tau", help="single value or range A:B:STEP")
    p_sw.add_argument("--delta", help="single value or range A:B:STEP")
    p_sw.add_argument("--horizon", type=float)
    p_sw.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sw.add_argument("--out", default=".", help="output directory")
    p_sw.set_defaults(fn=cmd_sweep)

    p_vf = sub.add_parser("verify", help="run the acceptance suite")
    p_vf.add_argument("-v", "--verbose", action="store_true",
                      help="print every subcheck, not only failures")
    p_vf.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        field = f" [{exc.field}]" if exc.field else ""
        print(f"config error{field}: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, DomainError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
