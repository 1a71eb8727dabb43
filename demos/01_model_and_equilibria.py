#!/usr/bin/env python3
"""Tour 1: defining a delayed SIR model and finding its steady states.

The model tracks susceptible (x), infected (y) and recovered (z)
densities.  Susceptibles arrive at rate a, get infected through an
incidence term b*f(x, y) with an incubation delay tau, are vaccinated at
rate c*V(x), and leave at rate d.  Infected recover under treatment at
rate r*P(y) with a recovery delay delta, or leave at rate d1.  Recovered
individuals drift back to susceptibility at rate alpha.
"""

from sirdelay import (
    Bilinear,
    Linear,
    ModelSpec,
    Params,
    State,
    all_equilibria,
    eval_rhs,
    load_preset,
    PRESET_NAMES,
)

# --- a model built by hand: mass-action incidence, linear vaccination and
#     treatment, one time unit of incubation delay ------------------------
model = ModelSpec(
    params=Params(a=10.0, b=1.0, b1=1.0, c=1.0, d=1.0, d1=1.0, r=1.0,
                  alpha=1.0, tau=1.0, delta=0.0),
    f=Bilinear(),      # f(x, y) = x * y
    V=Linear(1.0),     # V(x) = x
    P=Linear(1.0),     # P(y) = y
)

print("hand-built model (this is also the bundled preset ex5_1):")
print("  right-hand side at (2, 6, 6), delayed arguments at their current values:")
print("   ", eval_rhs(model, State(2.0, 6.0, 6.0), 2.0, 6.0), " -> an equilibrium")
print("  right-hand side at (1, 1, 1):")
print("   ", eval_rhs(model, State(1.0, 1.0, 1.0), 1.0, 1.0))
print()

print("steady states (every y is 0 or a real root of one resultant polynomial")
print("of the two balances, and each x a root of one balance at that y):")
for eq in all_equilibria(model):
    s = eq.state
    print(f"  {eq.kind:13s} ({s.x:.10g}, {s.y:.10g}, {s.z:.10g})   residual {eq.residual:.1e}")
print()

# --- the bundled presets ------------------------------------------------
print("every bundled preset and its steady states:")
for name in PRESET_NAMES:
    cfg = load_preset(name)
    eqs = all_equilibria(cfg.model)
    desc = "; ".join(f"{e.kind}({e.state.x:.10g}, {e.state.y:.10g}, {e.state.z:.10g})"
                     for e in eqs) if eqs else "(none)"
    print(f"  {name:14s} {desc}")
print()
print("note ex5_5: its incidence x/(x+y) does not vanish at y = 0, so no")
print("disease-free state can exist; only the endemic point remains.")
