#!/usr/bin/env python3
"""Tour 4: the method-of-steps integrator and its accuracy.

Delayed terms are read from cubic Hermite dense output over segments the
integrator has already computed, so a step no larger than the smallest
positive delay keeps everything causal.  On a model whose response terms
are switched off, the dynamics reduce to linear equations with a
closed-form solution, giving an exact yardstick.  With delays, RK4 keeps
its fourth order only if the breaking points where a derivative of
order <= 4 jumps are step ends: s + tau, s + delta, s + 2*tau and
s + tau + delta for each kink s of the history (0, and the sample times of
a sampled one).  A requested step cuts each gap between them into equal
steps; the order study below requests steps.  With no step requested the
integrator controls it by the error estimate h/6*(k4 - k5), which costs no
extra right-hand-side call, and still ends a step on every breaking point.
"""

import math
from dataclasses import replace

from sirdelay import ConstantHistory, ModelSpec, Params, State, integrate, load_preset
from sirdelay.acceptance import EX5_5_SAMPLED_HISTORY
from sirdelay.integrator import SampledHistory, dense_eval
from sirdelay.equilibria import all_equilibria
from sirdelay.responses import Linear, Zero

# --- closed-form yardstick: x' = 10 - 2x + z, y' = -y, z' = -z -------------
model = ModelSpec(
    params=Params(a=10.0, b=1.0, b1=1.0, c=1.0, d=1.0, d1=1.0, r=0.0, alpha=1.0),
    f=Zero(), V=Linear(1.0), P=Zero(),
)
x0, y0, z0 = 8.0, 3.0, 4.0


def exact(t):
    return (5.0 + z0 * math.exp(-t) + (x0 - 5.0 - z0) * math.exp(-2.0 * t),
            y0 * math.exp(-t),
            z0 * math.exp(-t))


print("step halving on the linear reduction (max error vs closed form):")
prev = None
for step in (0.1, 0.05, 0.025, 0.0125):
    traj = integrate(model, ConstantHistory(State(x0, y0, z0)), horizon=20.0, step=step)
    err = 0.0
    for i, t in enumerate(traj.times):
        w = exact(float(t))
        err = max(err, max(abs(traj.states[i, k] - w[k]) for k in range(3)))
    note = "" if prev is None else f"   ratio {prev / err:5.2f}"
    print(f"  step {step:<7g} max error {err:.3e}{note}")
    prev = err
print("  a ratio of ~16 per halving is the fourth-order signature")
print()

print("with delays (horizon 10; error against a run at step 0.00125):")
ex5_3, ex5_5 = load_preset("ex5_3"), load_preset("ex5_5")
cases = (
    ("ex5_3 tau = 0.93", ex5_3.model.params.with_delays(0.93, 0.0), ex5_3),
    ("ex5_5 (0.93, 0.61)", ex5_5.model.params.with_delays(0.93, 0.61), ex5_5),
)
runs = [(label, replace(cfg.model, params=params), cfg.history) for label, params, cfg in cases]
runs.append(("ex5_5 sampled history", runs[1][1], EX5_5_SAMPLED_HISTORY))
# a rough, jittered 15-sample history at tau > delta: x zigzags by about 5
tau, delta, gap = 4.614, 0.999, 4.614 / 14
rough = SampledHistory(
    (-tau, *(-tau + i * gap + 0.3 * gap * math.sin(2.7 * i) for i in range(1, 14)), 0.0),
    tuple(State(9.0 + 5.0 * (i % 2) + 0.5 * (1.0 + math.sin(1.3 * i)),
                0.5 + 0.4 * (i % 2) + 0.05 * (1.0 + math.cos(i)), 1.4 + 0.5 * math.sin(2.1 * i))
          for i in range(15)))
runs.append(("ex5_5 rough (4.614, 0.999)",
             replace(ex5_5.model, params=ex5_5.model.params.with_delays(tau, delta)), rough))
steps = (0.04, 0.02, 0.01)
errors = []
for label, delayed, history in runs:
    ref = integrate(delayed, history, 10.0, step=steps[-1] / 8.0)
    errors.append([max(dense_eval(ref, float(t)).max_abs_diff(State(*map(float, s)))
                       for t, s in zip(traj.times, traj.states))
                   for traj in (integrate(delayed, history, 10.0, step=h) for h in steps)])
print("  step    " + "".join(f"{label:28s}" for label, _, _ in runs))
for i, step in enumerate(steps):
    cells = (f"{e[i]:.3e}" + ("" if i == 0 else f" ratio {e[i - 1] / e[i]:5.2f}")
             for e in errors)
    print(f"  {step:<6g}  " + "".join(f"{c:28s}" for c in cells))
print("  ~16 per halving (fourth order) with one delay, two delays and sampled")
print("  histories alike: the mesh holds every breaking point where a derivative")
print("  of order <= 4 jumps (s + tau, s + delta, s + 2*tau, s + tau + delta)")
print()

print("controlled steps (no step requested; horizon 10, same reference as above):")
print(f"  {'run':28s}{'steps':>7s}{'rejected':>10s}{'max error':>12s}"
      f"{'steps at 0.04':>16s}{'max error':>12s}")
for label, delayed, history in runs:
    ref = integrate(delayed, history, 10.0, step=steps[-1] / 8.0)
    controlled, fixed = (integrate(delayed, history, 10.0, step=h) for h in (None, 0.04))
    err_c, err_f = (max(dense_eval(ref, float(t)).max_abs_diff(State(*map(float, s)))
                        for t, s in zip(traj.times, traj.states)) for traj in (controlled, fixed))
    print(f"  {label:28s}{len(controlled.times) - 1:7d}{controlled.rejected:10d}{err_c:12.3e}"
          f"{len(fixed.times) - 1:16d}{err_f:12.3e}")
print("  each accepted step keeps its local error estimate within TOL = 5e-8,")
print("  absolute and relative; a rejected step is retried shorter and writes nothing")
print()

print("dense output between mesh points (linear reduction, step 0.01):")
traj = integrate(model, ConstantHistory(State(x0, y0, z0)), horizon=20.0, step=0.01)
for t in (0.335, 2.5005, 12.345):
    got = dense_eval(traj, t)
    want = exact(t)
    err = max(abs(a - b) for a, b in zip(got.as_tuple(), want))
    print(f"  t = {t:<8g} interpolation error {err:.2e}")
print()

print("an equilibrium is a fixed point of the controlled steps (drift over t in [0, 100]):")
for name in ("ex5_1", "ex5_5", "ex5_7"):
    cfg = load_preset(name)
    for eq in all_equilibria(cfg.model):
        traj = integrate(cfg.model, ConstantHistory(eq.state), horizon=100.0)
        drift = max(
            abs(float(traj.states[i, k]) - eq.state.as_tuple()[k])
            for i in range(len(traj.times)) for k in range(3)
        )
        print(f"  {name} {eq.kind:13s} drift {drift:.2e}")
