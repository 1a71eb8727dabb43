"""Structured stability reports: criteria verdicts plus oracle cross-checks.

A report gathers, for one equilibrium of one model: the linearization and
characteristic coefficients, the verdict of every closed-form criterion,
the root-scan oracle's output, and annotations wherever the criterion
chain, the oracle, or bundled published reference values disagree.  The
oracle is the arbiter of record: annotations never silently overwrite a
criterion verdict, they expose both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charroots import EPS, certified_sign, char_roots_scan, max_real_part
from .equilibria import Equilibrium
from .errors import DomainError
from .model import JacCoeffs, ModelSpec, jacobian_coeffs, to_jsonable
from .stability import (
    ENDEMIC_GAS,
    INCONCLUSIVE,
    INSTABILITY_PERSISTS,
    NOT_ESTABLISHED,
    PRESERVED,
    STABLE,
    SWITCH,
    SWITCH_EXPECTED,
    CharCoeffs,
    CombinedResult,
    DelayFreeResult,
    DeltaResult,
    GlobalResult,
    TauCriticalResult,
    TauPersistenceResult,
    char_coeffs,
    delay_free_stable,
    delta_analysis,
    general_delay_analysis,
    global_verdict,
    tau_critical,
    tau_crossing,
    tau_persistence,
)

__all__ = ["TauOnlySummary", "StabilityReport", "build_stability_report", "switch_evidence",
           "report_to_json", "render_report"]

PRESERVED_STABLE = "preserved_stable"
PRESERVED_UNSTABLE = "preserved_unstable"
SWITCH_AT = "switch_at"

#: offset on each side of the exact crossing at which the root count must
#: certify max Re < 0 before it and > 0 after it
CROSSING_CHECK = 1e-3


@dataclass(frozen=True)
class TauOnlySummary:
    """Combined incubation-delay verdict from the persistence test and the
    pseudo-delay critical-delay computation."""

    verdict: str  # preserved_stable | preserved_unstable | switch_at | inconclusive
    tau_plus: float | None
    nu_plus: float | None
    T_plus: float | None
    persistence: TauPersistenceResult
    critical: TauCriticalResult | None


@dataclass(frozen=True)
class StabilityReport:
    name: str | None
    model_hash: str
    tau: float
    delta: float
    equilibrium: Equilibrium
    jac: JacCoeffs
    cc: CharCoeffs
    delay_free: DelayFreeResult
    tau_only: TauOnlySummary
    delta_only: DeltaResult
    combined: CombinedResult
    global_case: GlobalResult
    oracle_roots: tuple           # at the model's (tau, delta); empty if refused
    oracle_roots_zero_delay: tuple
    oracle_crossing_tau: float | None  # exact first crossing in tau (delta = 0)
    crossing_checked: bool  # the root count certifies the sign change across it
    annotations: tuple


def _synthesize_tau_only(delay_free, persistence, critical) -> TauOnlySummary:
    # critical is None only when the delay-free verdict is not stable
    stable0 = delay_free.verdict == STABLE
    if delay_free.delay_free_equivalent or persistence.verdict == PRESERVED:
        verdict = PRESERVED_STABLE if stable0 else PRESERVED_UNSTABLE
    elif not stable0:
        unstable = persistence.verdict in (SWITCH_EXPECTED, INSTABILITY_PERSISTS)
        verdict = PRESERVED_UNSTABLE if unstable else INCONCLUSIVE
    else:
        verdict = {PRESERVED: PRESERVED_STABLE, SWITCH: SWITCH_AT}.get(
            critical.verdict, INCONCLUSIVE)
    cand = critical.primary if verdict == SWITCH_AT else None
    tau, nu, T = (cand.tau, cand.nu, cand.T) if cand else (None, None, None)
    return TauOnlySummary(verdict, tau, nu, T, persistence, critical)


def switch_evidence(cc, lo: float, hi: float, where: tuple[str, str]) -> str | None:
    """None exactly when the root count certifies max Re at delta = 0 < 0 at tau = lo
    and > 0 at tau = hi (``certified_sign`` -1, +1); otherwise the root scans explain
    the miss as 'max Re = L at <where[0]> and R at <where[1]>', with an empty scan
    printing what the count certified and a refused one (DomainError) its reason."""
    if certified_sign(cc, lo, 0.0) < 0 < certified_sign(cc, hi, 0.0):
        return None
    ends = []
    for tau in (lo, hi):
        try:
            top = max_real_part(cc, tau, 0.0)
            ends.append(f"(no root with Re > {-EPS:g})" if top is None else f"{top:.4g}")
        except DomainError as exc:
            ends.append(f"(uncertified: {exc})")
    return f"max Re = {ends[0]} at {where[0]} and {ends[1]} at {where[1]}"


def _fmt_poly(coeffs) -> str:
    return "[" + ", ".join(f"{c:.6g}" for c in coeffs) + "]"


def build_stability_report(
    model: ModelSpec,
    eq: Equilibrium,
    equilibria,
    name: str | None = None,
    reference: dict | None = None,
) -> StabilityReport:
    """Assemble the full stability report for one equilibrium.

    ``equilibria`` lists all of the model's equilibria; the global verdict
    needs the endemic ones.  ``reference`` may carry published values
    (char_poly, pseudo_delay_cubic, tau_plus, roots, note); any disagreement
    with the computed pipeline is annotated rather than resolved.  When the
    zero-delay scan finds every root stable, the exact first crossing in tau
    (delta = 0) is computed and checked on both sides of it by the root
    count alone (``switch_evidence``); it audits the pseudo-delay
    prediction.  A scan refused at the model's own (tau, delta)
    leaves ``oracle_roots`` empty and is annotated with its reason.
    """
    p = model.params
    jac = jacobian_coeffs(model, eq)
    cc = char_coeffs(jac)
    annotations = []

    delay_free = delay_free_stable(jac)
    persistence = tau_persistence(cc)
    critical = tau_critical(cc) if delay_free.verdict == STABLE else None
    tau_only = _synthesize_tau_only(delay_free, persistence, critical)
    delta_only = delta_analysis(cc)
    combined = general_delay_analysis(cc, p.tau, p.delta)

    glob = global_verdict(model, [e for e in equilibria if e.kind == "endemic"])

    try:
        roots_here = tuple(char_roots_scan(cc, p.tau, p.delta))
    except DomainError as exc:
        roots_here = ()
        annotations.append(f"root scan at (tau, delta) = ({p.tau:g}, {p.delta:g}) refused: {exc}")
    roots_zero = tuple(char_roots_scan(cc, 0.0, 0.0))

    # consistency: zero-delay oracle vs the delay-free criterion
    if roots_zero:
        top = roots_zero[0].real
        if delay_free.verdict == STABLE and top > 1e-9:
            annotations.append(
                f"delay-free criterion says stable but the zero-delay root scan "
                f"finds max Re = {top:.6g} > 0"
            )
        if delay_free.verdict == NOT_ESTABLISHED and abs(top) > 1e-9:
            annotations.append(
                f"delay-free criterion inconclusive; zero-delay root scan finds "
                f"{'all roots stable' if top < 0.0 else 'an unstable root'} (max Re = {top:.6g})"
            )

    # the exact first crossing in tau, checked on both sides (see switch_evidence)
    crossing = miss = exact = None
    if roots_zero and roots_zero[0].real < 0.0:
        crossing = tau_crossing(cc)
    if crossing is not None:
        miss = switch_evidence(cc, crossing - CROSSING_CHECK, crossing + CROSSING_CHECK,
                               (f"tau - {CROSSING_CHECK:g}", f"tau + {CROSSING_CHECK:g}"))
        if miss is not None:
            annotations.append(f"exact crossing tau = {crossing:.6g} (delta = 0) is not "
                               f"certified by the root count: {miss}")
        checked = "" if miss else ", checked by the root count,"
        exact = f"the exact crossing{checked} is at tau = {crossing:.4g}"

    # audit a predicted switch against the oracle
    if tau_only.verdict == SWITCH_AT:
        tp = tau_only.tau_plus
        wrong = switch_evidence(cc, tp * 0.9, tp * 1.1, ("0.9*tau", "1.1*tau"))
        if wrong is not None:
            annotations.append(f"pseudo-delay chain predicts a switch at tau = {tp:.6g}, but "
                               f"the root count does not certify it: {wrong}"
                               + (f"; {exact}" if exact else ""))
    elif tau_only.verdict == PRESERVED_STABLE and exact:
        annotations.append(f"criteria report preservation for all incubation delays, "
                           f"but {exact} (delta = 0)")

    # global claim vs local switch evidence
    if glob.verdict == ENDEMIC_GAS and eq.kind == "endemic":
        if tau_only.verdict == SWITCH_AT or crossing is not None:
            annotations.append(
                "global criterion asserts delay-independent stability, yet the "
                "incubation-delay analysis indicates a stability switch; trust the root scan"
            )

    # published reference values, when bundled
    reference = reference or {}
    for key, label, got in (
        ("pseudo_delay_cubic", "pseudo-delay cubic", None if critical is None else critical.cubic),
        ("char_poly", "characteristic polynomial", cc.zero_delay()),
    ):
        if key not in reference or got is None:
            continue
        pub = tuple(float(v) for v in reference[key])
        if any(abs(a - b) > 1e-6 * max(1.0, abs(a), abs(b)) for a, b in zip(pub, got)):
            annotations.append(
                f"published {label} {_fmt_poly(pub)} differs from the computed {_fmt_poly(got)}"
            )
    if "tau_plus" in reference and tau_only.tau_plus is not None:
        pub = float(reference["tau_plus"])
        if abs(pub - tau_only.tau_plus) > 1e-3 * max(1.0, abs(pub)):
            annotations.append(
                f"published critical delay {pub:.6g} differs from the computed "
                f"{tau_only.tau_plus:.6g}"
            )
    if "roots" in reference and roots_zero:
        pub = sorted(float(v) for v in reference["roots"])
        got = sorted(r.real for r in roots_zero if abs(r.imag) < 1e-9)
        if len(pub) != len(got) or any(abs(a - b) > 1e-6 * max(1.0, abs(a)) for a, b in zip(pub, got)):
            annotations.append(
                f"published roots {[f'{v:.6g}' for v in pub]} differ from the scanned "
                f"roots {[f'{v:.6g}' for v in got]}"
            )
    if "note" in reference:
        annotations.append(f"reference note: {reference['note']}")

    return StabilityReport(
        name=name,
        model_hash=model.content_hash(),
        tau=p.tau,
        delta=p.delta,
        equilibrium=eq,
        jac=jac,
        cc=cc,
        delay_free=delay_free,
        tau_only=tau_only,
        delta_only=delta_only,
        combined=combined,
        global_case=glob,
        oracle_roots=roots_here,
        oracle_roots_zero_delay=roots_zero,
        oracle_crossing_tau=crossing,
        crossing_checked=crossing is not None and miss is None,
        annotations=tuple(annotations),
    )


def report_to_json(rep: StabilityReport) -> dict:
    """JSON-serializable dict with every inequality's left/right values."""
    roots, roots_zero = rep.oracle_roots, rep.oracle_roots_zero_delay
    return {
        "name": rep.name, "model_hash": rep.model_hash,
        "tau": rep.tau, "delta": rep.delta,
        "equilibrium": to_jsonable(rep.equilibrium),
        "linearization": to_jsonable(rep.jac),
        "char_coeffs": to_jsonable(rep.cc),
        "delay_free": to_jsonable(rep.delay_free),
        "incubation_delay": to_jsonable(rep.tau_only),
        "recovery_delay": to_jsonable(rep.delta_only),
        "combined_delays": to_jsonable(rep.combined),
        "global_case": to_jsonable(rep.global_case),
        "oracle": {
            "roots": to_jsonable(roots),
            "roots_zero_delay": to_jsonable(roots_zero),
            "max_re": roots[0].real if roots else None,
            "max_re_zero_delay": roots_zero[0].real if roots_zero else None,
            "crossing_tau": rep.oracle_crossing_tau,
        },
        "annotations": list(rep.annotations),
    }


def _poly_str(cc: CharCoeffs) -> str:
    out = "lam^3"  # zero_delay() is monic
    for coef, mono in zip(cc.zero_delay()[1:], ("*lam^2", "*lam", "")):
        if coef != 0.0:
            body = mono[1:] if abs(coef) == 1.0 and mono else f"{abs(coef):.6g}{mono}"
            out += (" + " if coef > 0 else " - ") + body
    return out


def render_report(rep: StabilityReport) -> str:
    """Human-readable table, one line per stability criterion."""
    st = rep.equilibrium.state
    lines = []
    head = f"equilibrium {rep.equilibrium.kind} ({st.x:.10g}, {st.y:.10g}, {st.z:.10g})"
    if rep.name:
        head = f"{rep.name}: {head}"
    lines.append(head)
    lines.append(f"  delays: tau = {rep.tau:.6g}, delta = {rep.delta:.6g}   model {rep.model_hash}")
    j = rep.jac
    lines.append(
        f"  linearization: A={j.A:.6g} B={j.B:.6g} C={j.C:.6g} D={j.D:.6g} "
        f"E={j.E:.6g} alpha={j.alpha:.6g}"
    )
    c = rep.cc
    lines.append(
        f"  char coeffs:   l={c.l:.6g} m={c.m:.6g} n={c.n:.6g} "
        f"l1={c.l1:.6g} m1={c.m1:.6g} n1={c.n1:.6g}"
    )
    lines.append(
        f"  char polynomial at zero delay: {_poly_str(c)} = 0"
        + ("  (no delayed terms)" if rep.delay_free.delay_free_equivalent else "")
    )
    rows = [
        ("delay-free", rep.delay_free.verdict
            + (" [delay-free-equivalent]" if rep.delay_free.delay_free_equivalent else "")),
        ("incubation delay (tau only)", rep.tau_only.verdict
            + (f" at tau+ = {rep.tau_only.tau_plus:.6g} (nu+ = {rep.tau_only.nu_plus:.6g}, "
               f"T+ = {rep.tau_only.T_plus:.6g})" if rep.tau_only.verdict == SWITCH_AT else "")),
        ("recovery delay (delta only)", rep.delta_only.verdict
            + (f", delta candidates {[f'{x.delta:.4g}' for x in rep.delta_only.candidates]}"
               if rep.delta_only.candidates else "")),
        ("combined delays", rep.combined.verdict
            + (f", critical tau+delta = {rep.combined.theta_smallest_positive:.6g}"
               if rep.combined.theta_smallest_positive is not None else "")),
        ("global (bilinear case)", rep.global_case.verdict
            + (" [boundary]" if rep.global_case.boundary else "")),
    ]
    width = max(len(r[0]) for r in rows)
    lines.append("  criteria:")
    for label, text in rows:
        lines.append(f"    {label.ljust(width)}  {text}")
    if rep.oracle_roots:
        shown = ", ".join(
            f"{r.real:.6g}" + (f"+{r.imag:.6g}i" if r.imag else "") for r in rep.oracle_roots[:6]
        )
        lines.append(f"  oracle roots (tau,delta as configured): {shown}")
        lines.append(f"  oracle max Re: {rep.oracle_roots[0].real:.6g}")
    if rep.oracle_crossing_tau is not None:
        lines.append(f"  exact stability crossing (delta=0): tau = {rep.oracle_crossing_tau:.4g}"
                     + (", checked by the root count" if rep.crossing_checked else ""))
    for a in rep.annotations:
        lines.append(f"  ! {a}")
    return "\n".join(lines)
