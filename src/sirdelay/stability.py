"""Stability criteria for the delayed model's characteristic equation.

Every criterion evaluates closed-form inequalities in the six
characteristic coefficients (l, m, n, l1, m1, n1) and returns a structured
result whose ``checks`` list records each inequality with its left/right
values, so verdicts are auditable.  Strict inequalities are evaluated with
a 1e-12 equality band; values inside the band raise a ``boundary`` flag
instead of silently picking a side.

The criteria are sufficient conditions only.  The numerical root scan in
:mod:`sirdelay.charroots` is the independent arbiter whenever a criterion
chain and the actual root locations disagree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .cubic import brent, solve_cubic_real
from .equilibria import is_bilinear_special_case
from .errors import DomainError, check_finite
from .model import JacCoeffs, ModelSpec

__all__ = [
    "CharCoeffs",
    "Check",
    "char_coeffs",
    "delay_free_stable",
    "tau_persistence",
    "tau_crossing",
    "pseudo_delay_cubic",
    "tau_from_pseudo_delay",
    "tau_critical",
    "delta_analysis",
    "general_delay_analysis",
    "global_verdict",
    "STABLE",
    "NOT_ESTABLISHED",
    "PRESERVED",
    "SWITCH",
    "SWITCH_EXPECTED",
    "SWITCH_POSSIBLE",
    "INSTABILITY_PERSISTS",
    "SECOND_BIFURCATION",
    "INCONCLUSIVE",
    "ENDEMIC_GAS",
    "DISEASE_FREE_GAS",
    "NOT_APPLICABLE",
]

EQ_TOL = 1e-12

STABLE = "stable"
NOT_ESTABLISHED = "not_established"
PRESERVED = "preserved"
SWITCH = "switch"
SWITCH_EXPECTED = "switch_expected"
SWITCH_POSSIBLE = "switch_possible"
INSTABILITY_PERSISTS = "instability_persists"
SECOND_BIFURCATION = "second_bifurcation_possible"
INCONCLUSIVE = "inconclusive"
ENDEMIC_GAS = "endemic_gas"
DISEASE_FREE_GAS = "disease_free_gas"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class CharCoeffs:
    """Coefficients of F(lam) = lam^3 + l*lam^2 + m*lam + n
    + (l1*lam + m1) e^(-lam*tau) + n1 e^(-lam*(tau+delta))."""

    l: float
    m: float
    n: float
    l1: float
    m1: float
    n1: float

    def as_tuple(self):
        return (self.l, self.m, self.n, self.l1, self.m1, self.n1)

    def zero_delay(self):
        """Coefficients of the characteristic cubic at tau = delta = 0,
        lam^3 + l*lam^2 + (l1 + m)*lam + (n + m1 + n1), highest power first."""
        return (1.0, self.l, self.l1 + self.m, self.n + self.m1 + self.n1)


def char_coeffs(j: JacCoeffs) -> CharCoeffs:
    """Map linearization coefficients to characteristic coefficients:

    l = alpha - (A + C), m = A*C - alpha*(A + C), n = alpha*C*A,
    l1 = -B*D, m1 = -B*alpha*D, n1 = -D*alpha*E.
    """
    check_finite("linearization coefficient", j.A, j.B, j.C, j.D, j.E, j.alpha)
    # + 0.0 normalizes negative zeros out of products like alpha*C*A
    return CharCoeffs(
        l=j.alpha - (j.A + j.C) + 0.0,
        m=j.A * j.C - j.alpha * (j.A + j.C) + 0.0,
        n=j.alpha * j.C * j.A + 0.0,
        l1=-j.B * j.D + 0.0,
        m1=-j.B * j.alpha * j.D + 0.0,
        n1=-j.D * j.alpha * j.E + 0.0,
    )


@dataclass(frozen=True)
class Check:
    """One audited inequality: lhs <op> rhs."""

    name: str
    lhs: float
    op: str
    rhs: float
    holds: bool
    boundary: bool

    def describe(self) -> str:
        flag = " [boundary]" if self.boundary else ""
        return f"{self.name}: {self.lhs:.6g} {self.op} {self.rhs:.6g} -> {self.holds}{flag}"


def _scale(lhs, rhs):
    return max(1.0, abs(lhs), abs(rhs))


def check(name: str, lhs: float, op: str, rhs: float = 0.0) -> Check:
    boundary = abs(lhs - rhs) <= EQ_TOL * _scale(lhs, rhs)
    if op == ">":
        holds = lhs > rhs and not boundary
    elif op == ">=":
        holds = lhs >= rhs or boundary
    elif op == "<":
        holds = lhs < rhs and not boundary
    elif op == "<=":
        holds = lhs <= rhs or boundary
    elif op == "!=":
        holds = not boundary
    else:
        raise ValueError(f"unknown op {op!r}")
    return Check(name=name, lhs=lhs, op=op, rhs=rhs, holds=holds, boundary=boundary)


# ---------------------------------------------------------------------------
# delay-free criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelayFreeResult:
    verdict: str  # stable | not_established
    delay_free_equivalent: bool  # no delayed terms reach the linearization
    nonzero_roots_negative: bool | None
    boundary: bool
    checks: tuple


def _cubic_nonzero_roots_negative(l, m, n):
    """True when every nonzero root of lam^3 + l*lam^2 + m*lam + n has
    negative real part (a zero root itself is tolerated)."""
    tol = EQ_TOL * max(1.0, abs(l), abs(m), abs(n))
    if n < -tol:
        return False  # p(0) < 0 with p(+inf) > 0 forces a positive real root
    if n > tol:
        return l > tol and m > tol and l * m - n > tol
    # zero root present; remaining factor lam^2 + l*lam + m
    if m > tol:
        return l > tol
    if m < -tol:
        return False
    return l > tol  # double zero root, third root -l


def delay_free_stable(cc: CharCoeffs, jac: JacCoeffs | None = None) -> DelayFreeResult:
    """Zero-delay stability of the characteristic cubic.

    Stable when l > 0, l1 + m > 0 and n + m1 + n1 > 0 all hold strictly,
    the coefficients of ``cc.zero_delay()``.  These are necessary but not
    sufficient: Routh-Hurwitz also needs l*(l1 + m) > n + m1 + n1, which is
    not checked, so lam^3 + lam^2 + lam + 10, with roots at Re = +0.68,
    passes; the report's zero-delay root scan annotates such a verdict.
    Additionally reports the no-delayed-terms reduction: when D = 0 (so no
    delayed term survives) with C <= 0 and A <= 0, the equation is an
    ordinary cubic whose roots are {A, C, -alpha}; the verdict is then
    stable provided the nonzero roots all have negative real part, even if
    a zero root puts the three-coefficient test on its boundary.
    """
    _, l, lm, nmn = cc.zero_delay()
    checks = [
        check("l > 0", l, ">"),
        check("l1 + m > 0", lm, ">"),
        check("n + m1 + n1 > 0", nmn, ">"),
    ]
    three_way = all(c.holds for c in checks)

    if jac is not None:
        checks.append(check("D = 0 (no delayed terms)", abs(jac.D), "<=", 0.0))
        tol = EQ_TOL * max(1.0, abs(jac.A), abs(jac.C))
        equivalent = checks[-1].holds and jac.C <= tol and jac.A <= tol
    else:
        equivalent = max(abs(cc.l1), abs(cc.m1), abs(cc.n1)) <= EQ_TOL * max(
            1.0, abs(cc.l), abs(cc.m), abs(cc.n)
        )

    nonzero_neg = None
    if equivalent:
        nonzero_neg = _cubic_nonzero_roots_negative(cc.l, cc.m, cc.n)

    verdict = STABLE if (three_way or (equivalent and nonzero_neg)) else NOT_ESTABLISHED
    boundary = any(c.boundary for c in checks)
    return DelayFreeResult(
        verdict=verdict,
        delay_free_equivalent=equivalent,
        nonzero_roots_negative=nonzero_neg,
        boundary=boundary,
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# incubation delay only: persistence and critical delay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauPersistenceResult:
    """Outcome of the incubation-delay persistence test.

    a0 = n^2 - (m1+n1)^2, a1 = m^2 - 2*l*n - l1^2, a2 = l^2 - 2*m are the
    coefficients of the crossing-frequency cubic in nu^2; their signs decide
    whether the zero-delay stability status can ever change as tau grows.
    """

    verdict: str  # preserved | instability_persists | switch_expected | inconclusive
    a0: float
    a1: float
    a2: float
    checks: tuple


def _crossing_cubic(cc: CharCoeffs):
    """(a0, a1, a2) with |P(i nu)|^2 - |Q(i nu)|^2 = s^3 + a2*s^2 + a1*s + a0,
    s = nu^2, where F = P(lam) + Q(lam) e^(-lam*tau) at delta = 0."""
    a0 = cc.n**2 - (cc.m1 + cc.n1) ** 2
    a1 = cc.m**2 - 2.0 * cc.l * cc.n - cc.l1**2
    a2 = cc.l**2 - 2.0 * cc.m
    return a0, a1, a2


def tau_persistence(cc: CharCoeffs) -> TauPersistenceResult:
    a0, a1, a2 = _crossing_cubic(cc)
    checks = [check("a0 > 0", a0, ">"), check("a1 >= 0", a1, ">=")]
    if checks[0].holds and checks[1].holds:
        return TauPersistenceResult(PRESERVED, a0, a1, a2, tuple(checks))
    if checks[0].holds:
        disc = a2 * a2 - 3.0 * a1
        if disc < 0.0:
            # monotone cubic with positive value at 0: no positive root
            checks.append(check("a2^2 - 3*a1 >= 0", disc, ">="))
            return TauPersistenceResult(PRESERVED, a0, a1, a2, tuple(checks))
        lhs = 2.0 * a2**3 - 9.0 * a1 * a2 + 27.0 * a0
        rhs = 2.0 * disc**1.5
        c3 = check("2*a2^3 - 9*a1*a2 + 27*a0 > 2*(a2^2-3*a1)^(3/2)", lhs, ">", rhs)
        checks.append(c3)
        verdict = PRESERVED if c3.holds else INCONCLUSIVE
        return TauPersistenceResult(verdict, a0, a1, a2, tuple(checks))
    neg = check("a0 < 0", a0, "<")
    checks.append(neg)
    verdict = SWITCH_EXPECTED if neg.holds else INSTABILITY_PERSISTS
    return TauPersistenceResult(verdict, a0, a1, a2, tuple(checks))


def tau_crossing(cc: CharCoeffs) -> float | None:
    """Smallest incubation delay (delta = 0) at which a characteristic root
    lies on the imaginary axis, or None when no delay puts one there.

    With F = P(lam) + Q(lam) e^(-lam*tau), a root lam = i*nu needs
    |P(i nu)| = |Q(i nu)|, a cubic in s = nu^2 (see ``_crossing_cubic``),
    and e^(-i nu tau) = -P/Q, so each positive root s gives
    tau = ((-arg(-P/Q)) mod 2pi) / nu; frequencies with |Q| ~ 0 are
    skipped (Cooke & van den Driessche, Funkcial. Ekvac. 29, 1986).  For an
    equilibrium stable at zero delay, this is the first delay at which
    stability can be lost.
    """
    a0, a1, a2 = _crossing_cubic(cc)
    l, m, n, l1, m1, n1 = cc.as_tuple()
    taus = []
    for s in solve_cubic_real(1.0, a2, a1, a0):
        if s <= 1e-12:
            continue
        nu = math.sqrt(s)
        P = complex(n - l * s, nu * (m - s))
        Q = complex(m1 + n1, l1 * nu)
        if abs(Q) < 1e-12:
            continue
        taus.append((-cmath.phase(-P / Q)) % (2.0 * math.pi) / nu)
    return min(taus, default=None)


def pseudo_delay_cubic(cc: CharCoeffs):
    """Coefficients (A, B, C, D) of the pseudo-delay cubic A*T^3 + B*T^2 + C*T + D = 0.

    T is the pseudo delay of the bilinear-transform substitution
    e^(-lam*tau) = (1 - lam*T)/(1 + lam*T); positive roots T mark candidate
    stability switches, mapped back through
    tau = (2/nu) * (arctan(nu*T) + k*pi).
    """
    l, m, n, l1, m1, n1 = cc.as_tuple()
    u = l1 + m
    v = n - m1 - n1
    w = n + m1 + n1
    A = -l * v * (m - l1)
    B = v * v - ((m * m - l1 * l1) * l + l * l * v - v * (m - l1)) + l * l * w
    C = 2.0 * u * v - (u * l * l + l * v + (m * m - l1 * l1)) + 2.0 * l * w
    D = u * u - l * u + w
    return (A, B, C, D)


def tau_from_pseudo_delay(T: float, nu: float, k: int = 0) -> float:
    """Map a pseudo delay T and crossing frequency nu to the true delay:
    tau = (2/nu) * (arctan(nu*T) + k*pi)."""
    if nu <= 0.0:
        raise DomainError("crossing frequency must be positive")
    return (2.0 / nu) * (math.atan(nu * T) + k * math.pi)


@dataclass(frozen=True)
class TauCandidate:
    T: float
    nu: float
    tau: float        # principal branch (k = 0)
    tau_next: float   # k = 1 branch


@dataclass(frozen=True)
class TauCriticalResult:
    verdict: str  # preserved | switch | inconclusive
    cubic: tuple
    candidates: tuple  # sorted by T
    checks: tuple
    diagnostics: tuple

    @property
    def primary(self) -> TauCandidate | None:
        """The candidate with the smallest pseudo-delay root T, if any."""
        return self.candidates[0] if self.candidates else None


def tau_critical(cc: CharCoeffs) -> TauCriticalResult:
    """Critical incubation delay from the pseudo-delay cubic.

    Assumes the equilibrium is stable at zero delays.  Preservation holds
    when either (case 1) l*(n-m1-n1) > 0, l*(l1+m) + (n-m1-n1) > 0 and
    l1+m > 0, or (case 2) every cubic coefficient is >= 0.  Otherwise the
    smallest positive root T+ with nu^2 = (l1+m + (n-m1-n1)T+)/(1 + l*T+)
    positive determines tau+ = (2/nu+) * arctan(nu+ * T+).
    """
    l, m, n, l1, m1, n1 = cc.as_tuple()
    u = l1 + m
    v = n - m1 - n1
    cubic = pseudo_delay_cubic(cc)
    case1 = [
        check("l*(n-m1-n1) > 0", l * v, ">"),
        check("l*(l1+m) + (n-m1-n1) > 0", l * u + v, ">"),
        check("l1 + m > 0", u, ">"),
    ]
    case2 = [check(f"cubic[{i}] >= 0", cubic[i], ">=") for i in range(4)]
    checks = case1 + case2
    if all(c.holds for c in case1) or all(c.holds for c in case2):
        return TauCriticalResult(PRESERVED, cubic, (), tuple(checks), ())

    diagnostics = []
    try:
        roots = solve_cubic_real(*cubic)
    except DomainError as exc:
        return TauCriticalResult(INCONCLUSIVE, cubic, (), tuple(checks), (str(exc),))
    candidates = []
    for T in roots:
        if T <= 1e-14:
            continue
        denom = 1.0 + l * T
        if abs(denom) < 1e-14:
            diagnostics.append(f"degenerate frequency denominator at T={T:.6g}")
            continue
        nu_sq = (u + v * T) / denom
        if nu_sq <= 0.0:
            diagnostics.append(f"nu^2 = {nu_sq:.6g} <= 0 at T = {T:.6g}")
            continue
        nu = math.sqrt(nu_sq)
        candidates.append(TauCandidate(
            T=T, nu=nu,
            tau=tau_from_pseudo_delay(T, nu, 0),
            tau_next=tau_from_pseudo_delay(T, nu, 1),
        ))
    candidates.sort(key=lambda cand: cand.T)
    if candidates:
        return TauCriticalResult(SWITCH, cubic, tuple(candidates), tuple(checks),
                                 tuple(diagnostics))
    diagnostics.append("no positive pseudo-delay root with nu^2 > 0")
    return TauCriticalResult(INCONCLUSIVE, cubic, (), tuple(checks), tuple(diagnostics))


# ---------------------------------------------------------------------------
# recovery delay only
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaCandidate:
    nu: float
    T: float
    delta: float       # k = 0 branch, when positive
    delta_next: float  # k = 1 branch


@dataclass(frozen=True)
class DeltaResult:
    verdict: str  # preserved | switch | second_bifurcation_possible | inconclusive
    freq_cubic: tuple  # cubic in s = nu^2
    candidates: tuple
    checks: tuple
    diagnostics: tuple


def delta_analysis(cc: CharCoeffs) -> DeltaResult:
    """Stability under a recovery delay alone (incubation delay zero).

    Builds the crossing-frequency equation in s = nu^2,

        s^3 + (l^2 - 2(l1+m)) s^2 + ((l1+m)^2 - 2l(n+m1)) s
            + (n+m1)^2 - n1^2 = 0,

    and the pseudo-delay relation T = (s - (l1+m)) / (n+m1-n1 - l*s).
    Preservation: l(l1+m) != n+m1-n1 together with all three coefficient
    inequalities nonnegative.  A single admissible frequency gives a switch
    with delta = (2/nu)(arctan(nu*T) + k*pi); two or more admissible
    frequencies open the possibility of a second bifurcation.
    """
    l, m, n, l1, m1, n1 = cc.as_tuple()
    u = l1 + m
    nm1 = n + m1
    eq_neq = check("l*(l1+m) != n+m1-n1", l * u, "!=", nm1 - n1)
    cond = [
        check("l^2 - 2*(l1+m) >= 0", l * l - 2.0 * u, ">="),
        check("(l1+m)^2 - 2*l*(n+m1) >= 0", u * u - 2.0 * l * nm1, ">="),
        check("(n+m1)^2 - n1^2 >= 0", nm1 * nm1 - n1 * n1, ">="),
    ]
    # sign patterns over the three coefficients: an odd number of negatives
    # signals one admissible frequency, the specific (<, >, <) ... variants
    # with a negative constant term signal two; the cubic's actual positive
    # roots below are the arbiter either way
    negatives = sum(1 for c in cond if not c.holds)
    one_freq = check("one-frequency sign pattern (odd negatives)", float(negatives % 2), ">=", 1.0)
    two_freq = check(
        "two-frequency pattern: l^2 < 2(l1+m), (l1+m)^2 > 2l(n+m1), (n+m1)^2 < n1^2",
        float((l * l < 2.0 * u) and (u * u > 2.0 * l * nm1) and (nm1 * nm1 < n1 * n1)),
        ">=", 1.0,
    )
    checks = [eq_neq] + cond + [one_freq, two_freq]

    freq_cubic = (1.0, l * l - 2.0 * u, u * u - 2.0 * l * nm1, nm1 * nm1 - n1 * n1)
    diagnostics = []
    if eq_neq.holds and all(c.holds for c in cond):
        return DeltaResult(PRESERVED, freq_cubic, (), tuple(checks), ())

    roots = [s for s in solve_cubic_real(*freq_cubic) if s > 1e-14]
    candidates = []
    for s in roots:
        nu = math.sqrt(s)
        denom = nm1 - n1 - l * s
        if abs(denom) < 1e-14:
            diagnostics.append(f"degenerate pseudo-delay denominator at nu^2={s:.6g}")
            continue
        T = (s - u) / denom
        if T <= 0.0:
            diagnostics.append(f"pseudo delay T = {T:.6g} <= 0 at nu^2 = {s:.6g}")
            continue
        candidates.append(DeltaCandidate(
            nu=nu, T=T,
            delta=tau_from_pseudo_delay(T, nu, 0),
            delta_next=tau_from_pseudo_delay(T, nu, 1),
        ))
    candidates.sort(key=lambda cand: cand.delta)
    if not roots:
        diagnostics.append("no positive crossing frequency")
        return DeltaResult(PRESERVED, freq_cubic, (), tuple(checks), tuple(diagnostics))
    if not candidates:
        diagnostics.append("crossing frequencies exist but none yields T > 0")
        return DeltaResult(INCONCLUSIVE, freq_cubic, (), tuple(checks), tuple(diagnostics))
    if len(candidates) >= 2:
        return DeltaResult(SECOND_BIFURCATION, freq_cubic, tuple(candidates),
                           tuple(checks), tuple(diagnostics))
    return DeltaResult(SWITCH, freq_cubic, tuple(candidates), tuple(checks), tuple(diagnostics))


# ---------------------------------------------------------------------------
# both delays positive
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CombinedResult:
    verdict: str  # preserved | switch_possible | inconclusive
    theta: float | None           # critical total delay tau + delta (principal branch)
    theta_smallest_positive: float | None
    nu: float | None
    checks: tuple
    diagnostics: tuple


def _psi(cc: CharCoeffs, theta: float, nu: float) -> float:
    l, m, n, l1, m1, n1 = cc.as_tuple()
    s = nu * nu
    return (
        s**3 + (l * l - 2.0 * m) * s**2 + (m * m - 2.0 * l * n - l1 * l1) * s
        + (n * n + n1 * n1 - m1 * m1)
        + 2.0 * (n - l * s) * math.cos(nu * theta)
        + 2.0 * (m * nu - nu**3) * math.sin(nu * theta)
    )


def general_delay_analysis(cc: CharCoeffs, tau: float, delta: float) -> CombinedResult:
    """Stability criterion when both delays are positive.

    Preserved when n1^2 > m1^2 + 2 together with

        ((|l1| + sqrt(l1^2 + 4l(n + |n1| + |m1|))) / (2l))^2
            <= (n1^2 - (m1^2 + 2)) / l1^2.

    A switch is possible when n^2 + 2n + n1^2 < m1^2; then the smallest
    positive root nu+ of Psi(nu) = 0 (with theta = tau + delta fixed at the
    given delays) satisfies theta = (1/nu+) * arctan((m*nu+ - nu+^3)/(n - l*nu+^2)).
    Degenerate l or l1 makes the preservation bound undefined: inconclusive.
    """
    l, m, n, l1, m1, n1 = cc.as_tuple()
    diagnostics = []
    checks = []
    if l <= EQ_TOL or abs(l1) <= EQ_TOL:
        diagnostics.append("criterion undefined for l <= 0 or l1 = 0")
        return CombinedResult(INCONCLUSIVE, None, None, None, (), tuple(diagnostics))

    inner = l1 * l1 + 4.0 * l * (n + abs(n1) + abs(m1))
    cond_a = check("n1^2 > m1^2 + 2", n1 * n1, ">", m1 * m1 + 2.0)
    checks.append(cond_a)
    if inner >= 0.0:
        bound = (abs(l1) + math.sqrt(inner)) / (2.0 * l)
        cond_b = check(
            "frequency bound^2 <= (n1^2 - (m1^2 + 2)) / l1^2",
            bound * bound, "<=", (n1 * n1 - (m1 * m1 + 2.0)) / (l1 * l1),
        )
        checks.append(cond_b)
        if cond_a.holds and cond_b.holds:
            return CombinedResult(PRESERVED, None, None, None, tuple(checks), ())
    else:
        diagnostics.append("frequency bound undefined (negative radicand)")

    switch = check("n^2 + 2n + n1^2 < m1^2", n * n + 2.0 * n + n1 * n1, "<", m1 * m1)
    checks.append(switch)
    if not switch.holds:
        return CombinedResult(INCONCLUSIVE, None, None, None, tuple(checks), tuple(diagnostics))

    theta_given = tau + delta
    # bracket the smallest positive root of Psi on a log-spaced grid
    nu_max = 10.0 + 2.0 * max(abs(l), abs(m), abs(n), abs(l1), abs(m1), abs(n1))
    stepw = (math.log10(nu_max) + 6) / 599
    prev_nu, prev_val = 0.0, _psi(cc, theta_given, 0.0)
    for nu in (10.0 ** (-6 + i * stepw) for i in range(600)):
        val = _psi(cc, theta_given, nu)
        if prev_val < 0.0 <= val:
            break
        prev_nu, prev_val = nu, val
    else:
        diagnostics.append("Psi has no sign change on the search grid")
        return CombinedResult(INCONCLUSIVE, None, None, None, tuple(checks), tuple(diagnostics))
    nu_plus = brent(lambda nu: _psi(cc, theta_given, nu), prev_nu, nu)

    num = m * nu_plus - nu_plus**3
    den = n - l * nu_plus * nu_plus
    if den == 0.0:
        q = math.copysign(math.pi / 2.0, num)
    else:
        q = math.atan(num / den)
    theta = q / nu_plus
    q_pos = q % math.pi
    if q_pos <= 0.0:
        q_pos += math.pi
    theta_pos = q_pos / nu_plus
    return CombinedResult(SWITCH_POSSIBLE, theta, theta_pos, nu_plus,
                          tuple(checks), tuple(diagnostics))


# ---------------------------------------------------------------------------
# global stability of the bilinear special case
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GlobalResult:
    verdict: str  # endemic_gas | disease_free_gas | not_applicable | inconclusive
    boundary: bool
    checks: tuple


def global_verdict(model: ModelSpec, endemics) -> GlobalResult:
    """Delay-independent global stability for the bilinear special case
    (f = x*y, V = x, P = y); any other response choice is out of the
    criterion's reach.

    Endemic globally stable: an endemic point exists and
    b1 < min(b*(d1+r)/r, c+d).  Disease-free globally stable:
    a/(c+d) < (d1+r)/b1 strictly.  Sitting exactly on the threshold
    (within the equality band) is flagged as a boundary case and left
    inconclusive.
    """
    if not is_bilinear_special_case(model):
        return GlobalResult(NOT_APPLICABLE, False, ())
    p = model.params
    treat_bound = p.b * (p.d1 + p.r) / p.r if p.r > 0 else math.inf
    endemic_cond = check("b1 < min(b*(d1+r)/r, c+d)", p.b1, "<", min(treat_bound, p.c + p.d))
    df_cond = check("a/(c+d) < (d1+r)/b1", p.a / (p.c + p.d), "<", (p.d1 + p.r) / p.b1)
    checks = (endemic_cond, df_cond)
    boundary = endemic_cond.boundary or df_cond.boundary
    if endemics and endemic_cond.holds:
        return GlobalResult(ENDEMIC_GAS, boundary, checks)
    if df_cond.holds:
        return GlobalResult(DISEASE_FREE_GAS, boundary, checks)
    return GlobalResult(INCONCLUSIVE, boundary, checks)
