import math
import random
from dataclasses import replace

import pytest

from sirdelay.charroots import certified_sign, char_roots_scan, char_value, max_real_part
from sirdelay.cubic import solve_cubic_real
from sirdelay.equilibria import all_equilibria
from sirdelay.model import JacCoeffs, jacobian_coeffs
from sirdelay.presets import PRESET_NAMES, load_preset
from sirdelay.stability import (
    DISEASE_FREE_GAS,
    ENDEMIC_GAS,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    NOT_ESTABLISHED,
    PRESERVED,
    SECOND_BIFURCATION,
    STABLE,
    SWITCH,
    SWITCH_EXPECTED,
    SWITCH_POSSIBLE,
    CharCoeffs,
    char_coeffs,
    check,
    crossing_cubic,
    crossings,
    delay_free_stable,
    delta_analysis,
    general_delay_analysis,
    global_verdict,
    pseudo_delay_cubic,
    tau_critical,
    tau_from_pseudo_delay,
    tau_persistence,
)


def jac_of(name, kind):
    model = load_preset(name).model
    eq = [e for e in all_equilibria(model) if e.kind == kind][0]
    return jacobian_coeffs(model, eq)


def cc_of(name, kind):
    return char_coeffs(jac_of(name, kind))


# ---------------------------------------------------------------------------
# characteristic coefficients
# ---------------------------------------------------------------------------

def test_char_coeffs_ex5_2():
    cc = cc_of("ex5_2", "disease_free")
    assert cc.as_tuple() == (3.0, 2.0, 0.0, 0.0, 0.0, 0.0)


def test_char_coeffs_ex5_1():
    cc = cc_of("ex5_1", "endemic")
    assert cc.as_tuple() == (9.0, 8.0, 0.0, 12.0, 12.0, -6.0)


def test_char_coeffs_all_zero_jacobian():
    cc = char_coeffs(JacCoeffs(A=0.0, B=0.0, C=0.0, D=0.0, E=0.0, alpha=1.0))
    assert cc.as_tuple() == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_m1_proportional_to_l1():
    rng = random.Random(7)
    for _ in range(100):
        j = JacCoeffs(
            A=rng.uniform(-5, 5), B=rng.uniform(-5, 5), C=rng.uniform(-5, 5),
            D=rng.uniform(-5, 5), E=rng.uniform(-5, 5), alpha=rng.uniform(0.1, 4.0),
        )
        cc = char_coeffs(j)
        assert cc.m1 == pytest.approx(j.alpha * cc.l1, rel=1e-12, abs=1e-12)


def test_check_boundary_band():
    c = check("x > 0", 1e-13, ">", 0.0)
    assert c.boundary and not c.holds
    c2 = check("x >= 0", -1e-14, ">=", 0.0)
    assert c2.boundary and c2.holds


# ---------------------------------------------------------------------------
# delay-free criterion
# ---------------------------------------------------------------------------

def test_delay_free_ex5_1_stable():
    jac = jac_of("ex5_1", "endemic")
    assert char_coeffs(jac).zero_delay() == (1.0, 9.0, 20.0, 6.0)
    res = delay_free_stable(jac)
    assert res.verdict == STABLE
    values = {c.name: c.lhs for c in res.checks}
    assert values["l > 0"] == 9.0
    assert values["l1 + m > 0"] == 20.0
    assert values["n + m1 + n1 > 0"] == 6.0


def test_delay_free_ex5_2_equivalent_branch():
    model = load_preset("ex5_2").model
    eq = all_equilibria(model)[0]
    jac = jacobian_coeffs(model, eq)
    res = delay_free_stable(jac)
    assert res.verdict == STABLE
    assert res.delay_free_equivalent
    assert res.nonzero_roots_negative
    assert res.boundary  # n + m1 + n1 sits exactly at zero


def test_delay_free_d_check_does_not_hold_for_nonzero_d():
    model = load_preset("ex5_3").model
    eq = [e for e in all_equilibria(model) if e.kind == "endemic"][0]
    jac = jacobian_coeffs(model, eq)
    assert jac.D == pytest.approx(2.0)
    res = delay_free_stable(jac)
    d_check = next(c for c in res.checks if c.name == "D = 0 (no delayed terms)")
    assert (d_check.lhs, d_check.op, d_check.rhs) == (abs(jac.D), "<=", 0.0)
    assert not d_check.holds and not res.delay_free_equivalent


def test_delay_free_flag_follows_its_d_check_at_a_large_scale():
    # |D| = 1e-11 is within 1e-12 of the larger |A| = 100, but not of zero;
    # the flag and the recorded "D = 0" check must give one answer
    jac = JacCoeffs(A=-100.0, B=-1.0, C=-1.0, D=1e-11, E=0.0, alpha=1.0)
    res = delay_free_stable(jac)
    d_check = next(c for c in res.checks if c.name == "D = 0 (no delayed terms)")
    assert not d_check.holds and not res.delay_free_equivalent
    assert res.nonzero_roots_negative is None
    exact = replace(jac, D=0.0)
    res = delay_free_stable(exact)
    assert res.checks[-1].holds and res.delay_free_equivalent and res.nonzero_roots_negative


def test_delay_free_fails_on_negative_l():
    # l = alpha - (A + C) = -1, and D != 0 leaves no delay-free reduction
    res = delay_free_stable(JacCoeffs(A=1.0, B=-1.0, C=1.0, D=1.0, E=0.0, alpha=1.0))
    assert res.checks[0].name == "l > 0" and res.checks[0].lhs == -1.0
    assert not res.checks[0].holds and not res.delay_free_equivalent
    assert res.verdict == NOT_ESTABLISHED


def test_delay_free_checks_miss_the_hurwitz_product():
    # lam^3 + lam^2 + lam + 10 passes l > 0, l1 + m > 0 and n + m1 + n1 > 0,
    # but not l*(l1 + m) > n + m1 + n1: two roots have Re = +0.6825.  The
    # verdict keeps the criterion's three checks.
    jac = JacCoeffs(A=-1.0, B=1.0, C=1.0, D=-2.0, E=4.5, alpha=1.0)
    cc = char_coeffs(jac)
    assert cc.zero_delay() == (1.0, 1.0, 1.0, 10.0)
    assert delay_free_stable(jac).verdict == STABLE
    assert max_real_part(cc, 0.0, 0.0) == pytest.approx(0.6825094972787, rel=1e-9)
    # with D = 0 the cubic's roots are {A, C, -alpha}; C = 1 is unstable
    res = delay_free_stable(replace(jac, D=0.0))
    assert res.verdict == NOT_ESTABLISHED
    assert res.delay_free_equivalent and res.nonzero_roots_negative is False


# ---------------------------------------------------------------------------
# incubation-delay persistence
# ---------------------------------------------------------------------------

def test_persistence_ex5_3_switch_expected():
    res = tau_persistence(cc_of("ex5_3", "endemic"))
    assert res.verdict == SWITCH_EXPECTED
    assert res.a0 == -4.0
    assert res.a1 == 20.0
    assert res.a2 == 37.0


def test_persistence_first_branch():
    res = tau_persistence(CharCoeffs(l=1.0, m=3.0, n=2.0, l1=0.0, m1=0.0, n1=0.0))
    assert res.verdict == PRESERVED
    assert res.a0 == 4.0
    assert res.a1 == 5.0


def test_persistence_second_branch_with_oracle():
    # a0 = 6 > 0, a1 = -1 < 0, and the strict resolvent inequality holds;
    # the coefficients keep an unstable root for every incubation delay
    cc = CharCoeffs(l=2.0, m=1.0, n=-2.5, l1=2.0 * math.sqrt(3.0), m1=0.3, n1=0.2)
    res = tau_persistence(cc)
    assert res.verdict == PRESERVED
    assert res.a0 == pytest.approx(6.0, abs=1e-12)
    assert res.a1 == pytest.approx(-1.0, abs=1e-12)
    for tau in (0.0, 1.0, 3.0, 7.0):
        assert max_real_part(cc, tau, 0.0) > 0.05


def test_persistence_inconclusive_branch_with_oracle():
    # the delta = 0 cubic is (1, 2, -13, 10) = (s - 1)(s - 2)(s + 5): a0 > 0
    # and a1 < 0, and the resolvent inequality fails.  The point is unstable
    # at zero delay, stable between the crossings at nu = 1 and nu = sqrt(2),
    # then unstable again, so "preserved" would be wrong
    cc = CharCoeffs(l=2.0, m=1.0, n=3.5, l1=0.0, m1=1.5, n1=0.0)
    res = tau_persistence(cc)
    assert res.verdict == INCONCLUSIVE
    assert (res.a2, res.a1, res.a0) == (2.0, -13.0, 10.0)
    assert [c.holds for c in res.checks] == [True, False, False]
    found = crossings(*cc.one_delay("tau"))
    assert [x for c in found for x in c] == pytest.approx(
        [1.0, math.pi, math.sqrt(2.0), 3.57246], rel=1e-6)
    assert certified_sign(cc, 0.0, 0.0) == 1
    assert [[certified_sign(cc, f * h0, 0.0) for f in (0.999, 1.001)]
            for _, h0 in found] == [[1, -1], [-1, 1]]


# ---------------------------------------------------------------------------
# pseudo-delay cubic and critical delay
# ---------------------------------------------------------------------------

def test_pseudo_delay_cubic_unit_coefficients():
    # hand expansion with l = m = n = 1 and no delayed coefficients
    cc = CharCoeffs(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    assert pseudo_delay_cubic(cc) == (-1.0, 1.0, 1.0, 1.0)


def test_pseudo_delay_cubic_ex5_1():
    assert pseudo_delay_cubic(cc_of("ex5_1", "endemic")) == (-216.0, 1752.0, -1618.0, 226.0)


def test_pseudo_delay_cubic_ex5_3():
    assert pseudo_delay_cubic(cc_of("ex5_3", "endemic")) == (28.0, 56.0, -508.0, 32.0)


def test_tau_formula_published_values():
    tau = tau_from_pseudo_delay(2.325, 0.2125)
    assert abs(tau - 4.32) <= 0.01
    assert tau == pytest.approx((2.0 / 0.2125) * math.atan(0.2125 * 2.325), rel=1e-12)
    # next branch adds 2*pi/nu
    assert tau_from_pseudo_delay(2.325, 0.2125, k=1) == pytest.approx(
        tau + 2.0 * math.pi / 0.2125, abs=1e-9)


def test_tau_critical_preserved_case1():
    res = tau_critical(CharCoeffs(1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
    assert res.verdict == PRESERVED


def test_tau_critical_ex5_3_switch_values():
    res = tau_critical(cc_of("ex5_3", "endemic"))
    assert res.verdict == SWITCH
    # smallest positive cubic root near 0.06346 (hand bisection of the cubic),
    # nu^2 = (10 - 2T)/(1 + 7T), tau = (2/nu) atan(nu T)
    assert res.primary.T == pytest.approx(0.06346, abs=2e-4)
    assert res.primary.nu == pytest.approx(2.6146, abs=2e-3)
    assert res.primary.tau == pytest.approx(0.12579, abs=2e-4)
    assert res.primary.tau_next > res.primary.tau


# ---------------------------------------------------------------------------
# recovery-delay analysis
# ---------------------------------------------------------------------------

def test_delta_ex5_1_preserved_values():
    res = delta_analysis(cc_of("ex5_1", "endemic"))
    assert res.verdict == PRESERVED
    values = {c.name: c.lhs for c in res.checks}
    assert values["l^2 - 2*(l1+m) >= 0"] == 41.0
    assert values["(l1+m)^2 - 2*l*(n+m1) >= 0"] == 184.0
    assert values["(n+m1)^2 - n1^2 >= 0"] == 108.0


def test_delta_trivial_no_delay_terms():
    res = delta_analysis(CharCoeffs(3.0, 3.0, 1.0, 0.0, 0.0, 0.0))
    assert res.verdict == PRESERVED


def test_delta_switch_confirmed_by_oracle():
    cc = CharCoeffs(l=2.0, m=1.0, n=0.1, l1=0.0, m1=0.0, n1=1.0)
    res = delta_analysis(cc)
    assert res.verdict == SWITCH
    assert len(res.candidates) == 1
    cand = res.candidates[0]
    assert cand.delta == pytest.approx(0.49116, abs=2e-4)
    # a root sits on the imaginary axis at the critical recovery delay
    roots = char_roots_scan(cc, 0.0, cand.delta)
    assert min(abs(r.real) for r in roots) < 1e-6
    assert max_real_part(cc, 0.0, cand.delta * 0.9) < 0.0
    assert max_real_part(cc, 0.0, cand.delta * 1.1) > 0.0


def test_delta_second_bifurcation_cascade_confirmed_by_oracle():
    # stable -> unstable -> stable again as the recovery delay grows: the
    # first two candidates mark the destabilization and the restabilization
    cc = CharCoeffs(l=0.5, m=3.0, n=0.2, l1=0.5, m1=0.0, n1=1.5)
    assert max_real_part(cc, 0.0, 0.0) < 0.0
    res = delta_analysis(cc)
    assert res.verdict == SECOND_BIFURCATION
    assert len(res.candidates) >= 2
    d0 = res.candidates[0].delta
    d1 = res.candidates[1].delta
    assert d0 == pytest.approx(0.101963, abs=2e-4)
    assert d1 == pytest.approx(0.207754, abs=2e-4)
    assert max_real_part(cc, 0.0, 0.05) < 0.0
    assert max_real_part(cc, 0.0, 0.5 * (d0 + d1)) > 0.0
    assert max_real_part(cc, 0.0, 0.4) < 0.0
    # roots sit on the axis at both computed crossings
    for d in (d0, d1):
        assert min(abs(r.real) for r in char_roots_scan(cc, 0.0, d)) < 1e-6


def test_delta_keeps_the_crossings_past_nu_delta_pi():
    # on the tau = 0 slice P = lam^3 + lam^2 + 1.5*lam + 1 and Q = -0.5, so the
    # crossing cubic is (s - 1)(s - 1.5)(s + 0.5): nu = sqrt(1.5) crosses at
    # delta = pi/sqrt(1.5), where nu*delta = pi, and nu = 1 at delta = 3pi/2
    cc = CharCoeffs(l=1.0, m=1.0, n=0.5, l1=0.5, m1=0.5, n1=-0.5)
    res = delta_analysis(cc)
    assert res.verdict == SECOND_BIFURCATION
    assert [c.delta for c in res.candidates] == pytest.approx(
        [math.pi / math.sqrt(1.5), 1.5 * math.pi], rel=1e-12)
    signs = [[certified_sign(cc, 0.0, f * c.delta) for f in (0.999, 1.001)]
             for c in res.candidates]
    assert signs == [[-1, 1], [1, -1]]


@pytest.mark.parametrize("k", [1e-6, 1e-3, 1e3, 1e6])
@pytest.mark.parametrize("coeffs,slice_,want", [
    # ex5_3's endemic point on delta = 0, the tau = 0 slice whose crossing
    # cubic is (s - 1)(s - 1.5)(s + 0.5), and a delta = 0 slice with a root
    # lam = 0 at every delay, whose cubic s(s^2 - s - 3) has the root s = 0
    ((7.0, 6.0, 0.0, 4.0, 4.0, -2.0), "tau", [(0.393996, 4.561670)]),
    ((1.0, 1.0, 0.5, 0.5, 0.5, -0.5), "delta",
     [(math.sqrt(1.5), 2.565100), (1.0, 1.5 * math.pi)]),
    ((1.0, 1.0, 0.0, 2.0, 0.5, -0.5), "tau", [(1.517490, 0.567638)]),
])
def test_crossings_do_not_depend_on_the_time_unit(coeffs, slice_, want, k):
    # in time unit 1/k, lam becomes k*lam: each coefficient gains k to the
    # power its term lacks, the frequencies scale by k and the delays by 1/k
    l, m, n, l1, m1, n1 = coeffs
    base = sorted(crossings(*CharCoeffs(*coeffs).one_delay(slice_)), key=lambda c: c[1])
    scaled = CharCoeffs(l * k, m * k**2, n * k**3, l1 * k**2, m1 * k**3, n1 * k**3)
    got = sorted(crossings(*scaled.one_delay(slice_)), key=lambda c: c[1])
    assert [x for c in base for x in c] == pytest.approx([x for c in want for x in c], abs=1e-6)
    assert len(got) == len(base)
    assert [x for nu, h0 in got for x in (nu / k, h0 * k)] == pytest.approx(
        [x for c in base for x in c], rel=1e-9)


def test_every_crossing_puts_a_root_on_the_imaginary_axis():
    rng = random.Random(3)
    found = 0
    for _ in range(300):
        cc = CharCoeffs(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3),
                        rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 3))
        for slice_, delays in (("tau", lambda h: (h, 0.0)), ("delta", lambda h: (0.0, h))):
            for nu, h0 in crossings(*cc.one_delay(slice_)):
                for h in (h0, h0 + 2.0 * math.pi / nu):
                    assert abs(char_value(cc, *delays(h), 1j * nu)) < 1e-9, (cc, slice_, h)
                    found += 1
    assert found > 300


def test_close_crossings_beside_a_far_root_are_kept():
    # the tau = 0 slice P = lam^3 + p2*lam^2 + p0, Q = q0 with p2^2 = 2e8 - 5,
    # -2*p2*p0 = 6 - 1e9 and p0^2 - q0^2 = 1.2e9 has the crossing cubic
    # (s - 2)(s - 3)(s + 2e8), whose roots 2 and 3 lie close beside the far one
    p2 = math.sqrt(2e8 - 5.0)
    p0 = (1e9 - 6.0) / (2.0 * p2)
    cc = CharCoeffs(l=p2, m=0.0, n=p0, l1=0.0, m1=0.0, n1=math.sqrt(p0 * p0 - 1.2e9))
    found = crossings(*cc.one_delay("delta"))
    assert [nu for nu, _ in found] == pytest.approx([math.sqrt(2.0), math.sqrt(3.0)], rel=1e-9)
    for nu, h0 in found:
        assert abs(char_value(cc, 0.0, h0, 1j * nu)) < 1e-9


def test_a_far_root_of_the_crossing_cubic_is_kept():
    # ex5_1 with a = 1e5 and b = b1 = 300: the endemic point's delta = 0 cubic
    # has the roots -0.30 and 3.30 and one near -9e14, where the round-off in
    # p alone is far above its coefficients; the three sum to -a2
    model = load_preset("ex5_1").model
    model = replace(model, params=replace(model.params, a=1e5, b=300.0, b1=300.0))
    eq = [e for e in all_equilibria(model) if e.kind == "endemic"][0]
    cubic = crossing_cubic(*char_coeffs(jacobian_coeffs(model, eq)).one_delay("tau"))
    roots = solve_cubic_real(*cubic)
    assert roots[1:] == pytest.approx([-0.302775646, 3.302775112], rel=1e-8)
    assert roots[0] == pytest.approx(-cubic[1] - roots[1] - roots[2], rel=1e-12)
    assert roots[0] == pytest.approx(-9e14, rel=1e-6)


# ---------------------------------------------------------------------------
# combined-delay criterion
# ---------------------------------------------------------------------------

def test_combined_ex5_3_switch_possible():
    res = general_delay_analysis(cc_of("ex5_3", "endemic"), 1.0, 0.0)
    assert res.verdict == SWITCH_POSSIBLE
    sw = [c for c in res.checks if c.name.startswith("n^2 + 2n")][0]
    assert sw.lhs == 4.0 and sw.rhs == 16.0
    assert res.nu is not None and res.nu > 0.0
    assert res.theta_smallest_positive is not None and res.theta_smallest_positive > 0.0


def test_combined_undefined_for_zero_l1():
    res = general_delay_analysis(CharCoeffs(3.0, 2.0, 1.0, 0.0, 0.0, 0.0), 1.0, 1.0)
    assert res.verdict == INCONCLUSIVE


def test_combined_preserved_with_oracle_grid():
    cc = CharCoeffs(l=10.0, m=30.0, n=20.0, l1=0.1, m1=0.0, n1=2.5)
    res = general_delay_analysis(cc, 1.0, 1.0)
    assert res.verdict == PRESERVED
    for tau in (0.0, 1.0, 5.0, 10.0):
        for delta in (0.0, 1.0, 5.0, 10.0):
            assert max_real_part(cc, tau, delta) < 0.0


def test_combined_preservation_criterion_is_sufficient_only_in_name():
    # the printed preservation bound can hold while roots still cross; the
    # verdict reports the criterion, the oracle exposes the truth
    cc = CharCoeffs(l=10.0, m=5.0, n=1.0, l1=0.1, m1=0.0, n1=2.0)
    res = general_delay_analysis(cc, 1.0, 1.0)
    assert res.verdict == PRESERVED
    assert max_real_part(cc, 10.0, 0.0) > 0.0


# ---------------------------------------------------------------------------
# global stability of the bilinear case
# ---------------------------------------------------------------------------

def global_of(name):
    model = load_preset(name).model
    eqs = all_equilibria(model)
    return global_verdict(model, [e for e in eqs if e.kind == "endemic"])


def test_global_ex5_1_endemic():
    res = global_of("ex5_1")
    assert res.verdict == ENDEMIC_GAS
    cond = res.checks[0]
    assert cond.lhs == 1.0 and cond.rhs == 2.0


def test_global_ex5_2_boundary_inconclusive():
    res = global_of("ex5_2")
    assert res.verdict == INCONCLUSIVE
    assert res.boundary


def test_global_sec6_inconclusive():
    res = global_of("sec6_followup")
    assert res.verdict == INCONCLUSIVE
    assert not res.boundary


def test_global_not_applicable_outside_special_case():
    assert global_of("ex5_5").verdict == NOT_APPLICABLE
    assert global_of("ex5_7").verdict == NOT_APPLICABLE


def test_global_disease_free_branch():
    # raise the treatment rate so a/(c+d) < (d1+r)/b1 strictly
    model = load_preset("ex5_2").model
    model = replace(model, params=replace(model.params, r=6.0))
    res = global_verdict(model, [])
    assert res.verdict == DISEASE_FREE_GAS


# ---------------------------------------------------------------------------
# consistency across criteria for coefficient sets without delayed terms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lmn", [(3.0, 3.0, 1.0), (5.0, 2.0, 0.5), (1.0, 5.5, 2.0)])
def test_no_delay_terms_consistency(lmn):
    l, m, n = lmn
    cc = CharCoeffs(l, m, n, 0.0, 0.0, 0.0)
    assert max_real_part(cc, 0.0, 0.0) < 0.0
    pers = tau_persistence(cc)
    crit = tau_critical(cc)
    delt = delta_analysis(cc)
    comb = general_delay_analysis(cc, 1.0, 1.0)
    # nobody claims a switch when no delayed terms exist
    assert pers.verdict != SWITCH_EXPECTED
    assert crit.verdict != SWITCH
    assert delt.verdict not in (SWITCH, SECOND_BIFURCATION)
    assert comb.verdict != SWITCH_POSSIBLE


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_delay_free_verdict_agrees_with_oracle(name):
    model = load_preset(name).model
    p = model.params
    for eq in all_equilibria(model):
        jac = jacobian_coeffs(model, eq)
        cc = char_coeffs(jac)
        res = delay_free_stable(jac)
        top = max_real_part(cc, 0.0, 0.0)
        if res.verdict == STABLE:
            assert top <= 1e-9, (name, eq.kind, top)
        if top > 1e-9:
            assert res.verdict != STABLE, (name, eq.kind, top)
