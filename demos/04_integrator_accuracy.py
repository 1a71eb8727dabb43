#!/usr/bin/env python3
"""Tour 4: the method-of-steps integrator and its accuracy.

Delayed terms are read from cubic Hermite dense output over segments the
integrator has already computed, so a fixed step no larger than the
smallest positive delay keeps everything causal.  On a model whose
response terms are switched off, the dynamics reduce to linear equations
with a closed-form solution, giving an exact yardstick.  With a delay,
RK4 keeps its fourth order only on a mesh that holds the breaking points
k*tau, which is why the mesh step divides the delay.
"""

import math
from dataclasses import replace

from sirdelay import ConstantHistory, ModelSpec, Params, State, integrate, load_preset
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

print("with one delay (ex5_3, tau = 0.93, horizon 11*tau; error against step tau/800):")
cfg = load_preset("ex5_3")
tau = 0.93
delayed = replace(cfg.model, params=cfg.model.params.with_delays(tau, 0.0))
ref = integrate(delayed, cfg.history, 11.0 * tau, step=tau / 800.0)
# the same constant history as a two-sample table takes the general mesh
# rule, h = horizon/ceil(horizon/step), which does not hold k*tau
as_table = SampledHistory(times=(-tau, 0.0), states=(cfg.history.state,) * 2)


def delayed_error(traj):
    return max(dense_eval(ref, float(t)).max_abs_diff(State(*map(float, s)))
               for t, s in zip(traj.times, traj.states))


print("  requested step     aligned mesh tau/N         misaligned mesh")
prev = None
for n in (25, 50, 100):
    errs = (delayed_error(integrate(delayed, cfg.history, 11.0 * tau, step=tau / (n - 0.63))),
            delayed_error(integrate(delayed, as_table, 11.0 * tau, step=tau / (n + 0.37))))
    ratios = ("", "") if prev is None else tuple(f"ratio {a / b:5.2f}" for a, b in zip(prev, errs))
    print(f"  ~tau/{n:<3d}          {errs[0]:.3e} {ratios[0]:11s}   {errs[1]:.3e} {ratios[1]}")
    prev = errs
print("  aligned: ~16 per halving (fourth order); misaligned: ~4 (second order)")
print()

print("dense output between mesh points (linear reduction, step 0.01):")
traj = integrate(model, ConstantHistory(State(x0, y0, z0)), horizon=20.0, step=0.01)
for t in (0.335, 2.5005, 12.345):
    got = dense_eval(traj, t)
    want = exact(t)
    err = max(abs(a - b) for a, b in zip(got.as_tuple(), want))
    print(f"  t = {t:<8g} interpolation error {err:.2e}")
print()

print("an equilibrium is a fixed point of the integrator (drift over t in [0, 100]):")
for name in ("ex5_1", "ex5_5", "ex5_7"):
    cfg = load_preset(name)
    for eq in all_equilibria(cfg.model):
        traj = integrate(cfg.model, ConstantHistory(eq.state), horizon=100.0)
        drift = max(
            abs(float(traj.states[i, k]) - eq.state.as_tuple()[k])
            for i in range(len(traj.times)) for k in range(3)
        )
        print(f"  {name} {eq.kind:13s} drift {drift:.2e}")
