#!/usr/bin/env python3
"""Tour 2: stability criteria, the root-scan oracle, and how disagreements
are surfaced instead of hidden.

Every criterion evaluates closed-form inequalities in the characteristic
coefficients and records each inequality's left/right values.  The
characteristic equation itself is transcendental,

    lam^3 + l lam^2 + m lam + n
        + (l1 lam + m1) e^(-lam tau) + n1 e^(-lam (tau+delta)) = 0,

so an independent numerical oracle acts as the arbiter of record: the
eigenvalues of a Chebyshev collocation of the delay equation, polished by
Newton, with an argument-principle count proving that no root with
Re > -1e-6 is missed.  Wherever a criterion chain, the oracle, or a
bundled published reference value disagree, the report carries an
annotation exposing both sides.
"""

from sirdelay import all_equilibria, load_preset
from sirdelay.report import build_stability_report, render_report

for name in ("ex5_2", "ex5_1", "ex5_3"):
    cfg = load_preset(name)
    eqs = all_equilibria(cfg.model)
    # report on the endemic point when there is one, else the disease-free
    eq = next((e for e in eqs if e.kind == "endemic"), eqs[0])
    rep = build_stability_report(cfg.model, eq, equilibria=eqs, name=name,
                                 reference=cfg.reference)
    print(render_report(rep))
    print()

print("reading the annotations above:")
print(" * ex5_2 - the published roots for its cubic do not solve the printed")
print("   polynomial; the scan returns the actual roots {0, -1, -2}.")
print(" * ex5_1 - the published pseudo-delay cubic disagrees with the")
print("   pipeline expansion, and there is a genuine stability switch at the")
print("   exact crossing tau = 1.374 (delta = 0), checked by the root scan,")
print("   although the published analysis claims delay-independent stability.")
print("   The preset therefore pins the stable configuration (tau, delta) = (1, 0).")
print(" * ex5_3 - the pseudo-delay chain and the published value both miss")
print("   the actual crossing; it lies exactly at tau = 4.562, which the")
print("   delay sweep (tour 3) confirms by direct simulation.")
