"""Long-run trajectory classification and delay sweeps.

Classification reproduces the qualitative regimes the model exhibits:
convergence to an equilibrium, damped oscillation, sustained (periodic)
oscillation, or divergence.  Peak analysis runs on the infected
compartment y(t), whose oscillation is the signature of a delay-induced
stability switch.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .charroots import max_real_part
from .cubic import solve_cubic_real
from .equilibria import Equilibrium, all_equilibria
from .errors import DomainError, IntegrationError
from .integrator import HistorySpec, Trajectory, integrate
from .model import ModelSpec, State, jacobian_coeffs, to_jsonable
from .stability import char_coeffs

__all__ = [
    "Classification",
    "classify",
    "nearest_equilibrium",
    "SweepRow",
    "sweep",
    "sweep_to_csv",
    "sweep_to_json",
    "CONVERGED",
    "DAMPED",
    "SUSTAINED",
    "DIVERGED",
    "UNCLASSIFIED",
]

CONVERGED = "converged"
DAMPED = "damped_oscillation"
SUSTAINED = "sustained_oscillation"
DIVERGED = "diverged"
UNCLASSIFIED = "unclassified"

#: share of the horizon, at its end, that classification looks at
TAIL_FRACTION = 0.5
#: peak-amplitude ratio band separating damped from sustained oscillation
RATIO_BAND = (0.9, 1.1)
MIN_PEAKS = 3
DIVERGENCE_BOUND = 1e6


def convergence_bar(target: State) -> float:
    """Largest tail deviation from ``target`` that still counts as converged."""
    return 1e-2 * (1.0 + target.norm_inf())


@dataclass(frozen=True)
class Classification:
    kind: str
    window: tuple  # (t_start, t_end) analyzed
    target: State | None = None
    max_deviation: float | None = None
    decay_ratio: float | None = None
    period: float | None = None
    amplitude: float | None = None

    def describe(self) -> str:
        if self.kind == CONVERGED:
            t = self.target
            return (f"converged to ({t.x:.6g}, {t.y:.6g}, {t.z:.6g}) "
                    f"max deviation {self.max_deviation:.3g}")
        if self.kind == DAMPED:
            return f"damped oscillation (peak ratio {self.decay_ratio:.3g})"
        if self.kind == SUSTAINED:
            return (f"sustained oscillation (period {self.period:.4g}, "
                    f"amplitude {self.amplitude:.4g})")
        return self.kind


def classify(traj: Trajectory, candidate: Equilibrium | State | None = None) -> Classification:
    """Classify the trailing portion of a trajectory.

    The analysis window is the last TAIL_FRACTION of the horizon.
    Order of tests: convergence to ``candidate`` (within its
    ``convergence_bar``); then successive maxima of y(t) relative to the
    tail mean, with last/first amplitude ratio below RATIO_BAND meaning
    damped and inside it (with >= MIN_PEAKS peaks) meaning sustained; then
    DIVERGENCE_BOUND; else unclassified.  A sustained oscillation's period
    is the mean spacing of its peaks, each placed at the maximum of the
    Hermite dense output (the exact root of its slope, a quadratic) rather
    than at a mesh point, so it does not depend on the step beyond its error.

    Precondition: horizon >= 10x the larger delay and >= 50 time units.
    """
    horizon = traj.horizon
    if horizon < 50.0 or horizon < 10.0 * max(traj.tau, traj.delta):
        raise ValueError(
            f"horizon {horizon} too short to classify: need >= 50 and >= 10x max delay"
        )
    t0 = horizon * (1.0 - TAIL_FRACTION)
    window = (t0, horizon)
    sel = traj.times >= t0
    tail = traj.states[sel]

    target = getattr(candidate, "state", candidate)
    if target is not None:
        dev = float(np.max(np.abs(tail - np.array(target.as_tuple()))))
        if dev < convergence_bar(target):
            return Classification(CONVERGED, window, target=target, max_deviation=dev)

    ys = tail[:, 1]
    mean_y = float(np.mean(ys))
    peak_idx = [
        i for i in range(1, len(ys) - 1)
        if ys[i - 1] < ys[i] >= ys[i + 1] and ys[i] > mean_y
    ]
    amps = [float(ys[i] - mean_y) for i in peak_idx]
    amp_floor = 1e-3 * (1.0 + abs(mean_y))
    if len(peak_idx) >= 2 and amps[0] > amp_floor:
        ratio = amps[-1] / amps[0]
        if ratio < RATIO_BAND[0]:
            return Classification(DAMPED, window, decay_ratio=ratio)
        if ratio <= RATIO_BAND[1] and len(peak_idx) >= MIN_PEAKS:
            times, slopes = traj.times[sel], traj.derivatives[sel, 1]
            first, last = (_peak_time(times, ys, slopes, i) for i in (peak_idx[0], peak_idx[-1]))
            spacing = (last - first) / (len(peak_idx) - 1)
            return Classification(
                SUSTAINED, window,
                period=float(spacing),
                amplitude=float(np.mean(amps)),
            )
    if float(np.max(np.abs(tail))) > DIVERGENCE_BOUND:
        return Classification(DIVERGED, window)
    return Classification(UNCLASSIFIED, window)


def _peak_time(times, ys, slopes, i) -> float:
    """Time of the maximum of y's cubic Hermite interpolant next to the mesh
    maximum ``i``: the zero of its derivative on the interval, either side
    of t_i, where the stored slope y' changes sign (t_i itself if none)."""
    j = i if slopes[i] > 0.0 else i - 1
    if not slopes[j] > 0.0 >= slopes[j + 1]:
        return float(times[i])
    h = times[j + 1] - times[j]
    y0, y1, f0, f1 = ys[j], ys[j + 1], h * slopes[j], h * slopes[j + 1]
    # d/dw of the Hermite cubic on [0, 1] is a*w^2 + b*w + f0, positive at
    # w = 0 and not positive at w = 1; its smallest positive root is the
    # peak, clamped to 1 where rounding moves or drops a root at w = 1
    a = 6.0 * (y0 - y1) + 3.0 * (f0 + f1)
    b = 6.0 * (y1 - y0) - 4.0 * f0 - 2.0 * f1
    w = min([r for r in solve_cubic_real(0.0, a, b, f0) if r > 0.0] + [1.0])
    return float(times[j] + w * h)


@dataclass(frozen=True)
class SweepRow:
    tau: float
    delta: float
    classification: Classification | None
    max_re_lambda: float | None
    candidate: Equilibrium | None
    error: str | None = None

    def label(self) -> str:
        if self.error is not None:
            return f"error: {self.error}"
        return self.classification.kind


def nearest_equilibrium(traj: Trajectory, eqs) -> Equilibrium:
    """The equilibrium nearest, in the max norm, to the mean state over the
    trajectory's last TAIL_FRACTION."""
    mean = np.mean(traj.states[traj.times >= traj.horizon * (1.0 - TAIL_FRACTION)], axis=0)
    return min(eqs, key=lambda e: float(np.max(np.abs(mean - np.array(e.state.as_tuple())))))


def sweep(
    model: ModelSpec,
    delay_grid,
    history: HistorySpec,
    horizon: float,
    step: float | None = None,
) -> list:
    """Integrate and classify the model over a grid of (tau, delta) pairs.

    Rows appear in grid order.  Each row also carries the root-scan
    oracle's rightmost real part at the row's reference equilibrium (the
    equilibrium nearest the trajectory tail; for rows whose integration
    fails, the endemic equilibrium when one exists, else the disease-free
    one).  Integration failures, including a step that does not suit a
    row's delays, and oracle failures are recorded in the row (an oracle
    failure leaves max_re_lambda None) and the sweep continues.
    """
    if not delay_grid:
        raise ValueError("delay grid must be nonempty")
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    if step is not None and not 0.0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    eqs = all_equilibria(model)
    fallback = next((e for e in eqs if e.kind == "endemic"), eqs[0] if eqs else None)
    rows = []
    for tau, delta in delay_grid:
        row_model = replace(model, params=model.params.with_delays(tau, delta))
        cand = fallback
        classification = None
        error = None
        try:
            traj = integrate(row_model, history, horizon, step=step)
        except (IntegrationError, ValueError) as exc:  # ValueError: step vs. this row's delays
            error = str(exc)
        else:
            if eqs:
                cand = nearest_equilibrium(traj, eqs)
            try:
                classification = classify(traj, candidate=cand)
            except ValueError as exc:  # e.g. horizon too short for this row's delays
                error = str(exc)
        max_re = None
        if cand is not None:
            try:
                max_re = max_real_part(char_coeffs(jacobian_coeffs(model, cand)), tau, delta)
            except DomainError as exc:  # e.g. delays too long to certify the roots
                error = error or str(exc)
        rows.append(SweepRow(
            tau=tau, delta=delta,
            classification=classification,
            max_re_lambda=max_re,
            candidate=cand,
            error=error,
        ))
    return rows


def sweep_to_csv(rows, fh) -> None:
    """RFC-4180 CSV with columns tau,delta,classification,period,amplitude,max_re_lambda."""
    w = csv.writer(fh, lineterminator="\r\n")
    w.writerow(["tau", "delta", "classification", "period", "amplitude", "max_re_lambda"])
    for row in rows:
        cls = row.label()
        period = amplitude = ""
        if row.classification is not None:
            if row.classification.period is not None:
                period = f"{row.classification.period:.10g}"
            if row.classification.amplitude is not None:
                amplitude = f"{row.classification.amplitude:.10g}"
        max_re = "" if row.max_re_lambda is None else f"{row.max_re_lambda:.10g}"
        w.writerow([f"{row.tau:.10g}", f"{row.delta:.10g}", cls, period, amplitude, max_re])


def sweep_to_json(rows) -> str:
    out = []
    for row in rows:
        entry = {
            "tau": row.tau,
            "delta": row.delta,
            "classification": None if row.classification is None else row.classification.kind,
            "period": None if row.classification is None else row.classification.period,
            "amplitude": None if row.classification is None else row.classification.amplitude,
            "max_re_lambda": row.max_re_lambda,
        }
        if row.error is not None:
            entry["error"] = row.error
        if row.candidate is not None:
            entry["equilibrium"] = to_jsonable(row.candidate.state)
        out.append(entry)
    return json.dumps(out, indent=2)
