import cmath
import math

import pytest

from sirdelay.charroots import (
    _char_pair,
    certified_sign,
    char_roots_scan,
    char_value,
    max_real_part,
)
from sirdelay.equilibria import all_equilibria
from sirdelay.errors import DomainError
from sirdelay.model import jacobian_coeffs
from sirdelay.report import switch_evidence
from sirdelay.stability import (
    CharCoeffs,
    char_coeffs,
    crossing_cubic,
    general_delay_analysis,
    tau_crossing,
)
from test_cross_validation import endemic_cc, random_models
from test_report import report_for

CC_EX5_2 = CharCoeffs(l=3.0, m=2.0, n=0.0, l1=0.0, m1=0.0, n1=0.0)
CC_EX5_3 = CharCoeffs(l=7.0, m=6.0, n=0.0, l1=4.0, m1=4.0, n1=-2.0)


@pytest.mark.parametrize("tau,delta", [(0.0, 0.0), (1.0, 1.0), (3.0, 2.0), (7.0, 0.5)])
def test_ex5_2_roots_are_delay_independent(tau, delta):
    roots = char_roots_scan(CC_EX5_2, tau, delta)
    reals = sorted(r.real for r in roots)
    assert len(reals) == 3
    for got, want in zip(reals, (-2.0, -1.0, 0.0)):
        assert abs(got - want) < 1e-9
    assert all(abs(r.imag) < 1e-9 for r in roots)


def test_all_zero_coefficients_collapse_to_origin():
    roots = char_roots_scan(CharCoeffs(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.0, 0.0)
    assert len(roots) == 1
    assert abs(roots[0]) < 1e-6


def test_polynomial_roots_with_complex_pair():
    # (lam + 4)(lam^2 - 2 lam + 10): roots -4 and 1 +- 3i
    cc = CharCoeffs(l=2.0, m=2.0, n=40.0, l1=0.0, m1=0.0, n1=0.0)
    roots = char_roots_scan(cc, 0.0, 0.0)
    assert len(roots) == 2  # conjugate implied
    assert roots[0] == pytest.approx(1.0 + 3.0j, abs=1e-9)
    assert roots[1] == pytest.approx(-4.0 + 0.0j, abs=1e-9)
    assert roots[0].imag >= 0.0


def test_roots_sorted_by_descending_real_part():
    roots = char_roots_scan(CC_EX5_3, 2.0, 0.0)
    assert all(a.real >= b.real - 1e-12 for a, b in zip(roots, roots[1:]))


def test_residuals_below_tolerance():
    for tau, delta in ((0.0, 0.0), (2.0, 1.0)):
        for root in char_roots_scan(CC_EX5_3, tau, delta):
            assert abs(char_value(CC_EX5_3, tau, delta, root)) < 1e-9


def test_no_delay_terms_means_delay_invariant_roots():
    cc = CharCoeffs(l=4.0, m=5.0, n=2.0, l1=0.0, m1=0.0, n1=0.0)
    base = char_roots_scan(cc, 0.0, 0.0)
    for tau, delta in ((1.0, 0.0), (3.0, 2.0), (9.0, 9.0)):
        other = char_roots_scan(cc, tau, delta)
        assert len(other) == len(base)
        for a, b in zip(base, other):
            assert abs(a - b) < 1e-8


def test_char_deriv_matches_complex_difference():
    tau, delta = 1.5, 0.7
    h = 1e-7
    for z in (0.3 + 1.2j, -1.0 + 0.4j, -0.2 + 3.0j):
        numeric = (char_value(CC_EX5_3, tau, delta, z + h)
                   - char_value(CC_EX5_3, tau, delta, z - h)) / (2.0 * h)
        exact = _char_pair(CC_EX5_3, tau, delta, z)[1]
        assert exact == pytest.approx(numeric, rel=1e-6)


def test_ex5_3_crossing_bracket():
    g4 = max_real_part(CC_EX5_3, 4.0, 0.0)
    g5 = max_real_part(CC_EX5_3, 5.0, 0.0)
    assert g4 < 0.0 < g5
    assert 4.5 < tau_crossing(CC_EX5_3) < 4.65  # the exact switch lies inside


def test_tangential_crossing_at_a_double_root_of_the_crossing_cubic():
    # choose l, l1 and the crossing cubic (s - s0)^2 (s - s1) in s = nu^2,
    # then solve a2 = l^2 - 2m, a1 = m^2 - 2ln - l1^2, a0 = n^2 - m1^2 for
    # m, n, m1 (n1 = 0): the rounded coefficients give a cubic whose double
    # root s0 is double only within round-off
    l, l1, s0, s1 = 3.0, 0.7, 2.3, -0.4
    a2, a1, a0 = -(2.0 * s0 + s1), s0 * s0 + 2.0 * s0 * s1, -s0 * s0 * s1
    m = (l * l - a2) / 2.0
    n = (m * m - l1 * l1 - a1) / (2.0 * l)
    cc = CharCoeffs(l=l, m=m, n=n, l1=l1, m1=math.sqrt(n * n - a0), n1=0.0)
    assert crossing_cubic(*cc.one_delay("tau")) == pytest.approx((1.0, a2, a1, a0), rel=1e-14)
    nu0 = math.sqrt(s0)
    P = complex(n - l * s0, nu0 * (m - s0))
    Q = complex(cc.m1, l1 * nu0)
    want = (-cmath.phase(-P / Q)) % (2.0 * math.pi) / nu0
    tau = tau_crossing(cc)
    assert tau == pytest.approx(want, rel=1e-12)
    assert abs(char_value(cc, tau, 0.0, 1j * nu0)) < 1e-9


def test_roots_without_delayed_terms_do_not_depend_on_the_delay():
    # ex5_3's disease-free point: F = (lam - 0.5)(lam + 1)(lam + 4) at every delay
    cc = CharCoeffs(l=4.5, m=1.5, n=-2.0, l1=0.0, m1=0.0, n1=0.0)
    for tau in (0.0, 500.0, 1000.0):
        roots = char_roots_scan(cc, tau, 0.0)
        assert [z.real for z in roots] == pytest.approx([0.5, -1.0, -4.0], rel=1e-12)


def test_a_large_root_without_delayed_terms_is_kept():
    # the disease-free point of ex5_1 with a = 1e5 and b = b1 = 300:
    # F = (lam + 1)(lam + 2)(lam - 14999998), whose round-off alone at the
    # large root exceeds an absolute residual bound of 1e-9
    cc = CharCoeffs(l=-14999995.0, m=-44999992.0, n=-29999996.0, l1=0.0, m1=0.0, n1=0.0)
    roots = char_roots_scan(cc, 1.0, 0.0)
    assert [z.real for z in roots] == pytest.approx([14999998.0, -1.0, -2.0], rel=1e-12)


def random_ccs():
    for model in random_models(200, seed=7):
        for eq in all_equilibria(model):
            yield char_coeffs(jacobian_coeffs(model, eq))


def test_a_nonzero_certified_sign_is_the_sign_of_max_re():
    probes = nonzero = 0
    for cc in random_ccs():
        at = [(0.3, 0.0), (1.0, 0.5), (2.5, 0.0), (4.0, 2.0), (7.0, 0.0)]
        c = tau_crossing(cc)
        if c is not None:
            at += [(c - 1e-3, 0.0), (c + 1e-3, 0.0)]
        for tau, delta in at:
            sign = certified_sign(cc, tau, delta)
            probes += 1
            if sign:
                nonzero += 1
                assert sign == math.copysign(1.0, max_real_part(cc, tau, delta)), (cc, tau, delta)
    assert nonzero > 0.95 * probes  # the count decides almost every probe


def test_certified_sign_is_zero_on_the_crossing():
    crossings = [(cc, tau_crossing(cc)) for cc in random_ccs()]
    crossings = [(cc, c) for cc, c in crossings if c is not None][:10]
    for cc, c in [(CC_EX5_3, tau_crossing(CC_EX5_3))] + crossings:
        assert certified_sign(cc, c - 1e-3, 0.0) == -1
        assert certified_sign(cc, c, 0.0) == 0  # a root lies on the imaginary axis
        assert certified_sign(cc, c + 1e-3, 0.0) == 1


def test_certified_sign_is_zero_where_the_count_is_refused():
    # R ~ 11 for ex5_3, so R * (tau + delta) passes 1e5 long before tau = 1e5
    with pytest.raises(DomainError, match="too long"):
        char_roots_scan(CC_EX5_3, 1e5, 0.0)
    assert certified_sign(CC_EX5_3, 1e5, 0.0) == 0
    assert certified_sign(CC_EX5_3, 5e3, 5e3) == 0


@pytest.mark.parametrize("fn", [char_roots_scan, max_real_part, certified_sign,
                                general_delay_analysis])
@pytest.mark.parametrize("tau,delta,name", [
    (math.nan, 0.0, "tau"), (math.inf, 0.0, "tau"), (-1.0, 0.0, "tau"),
    (1.0, -0.5, "delta"), (1.0, math.nan, "delta"),
])
def test_a_delay_that_is_not_a_delay_is_refused_by_name(fn, tau, delta, name):
    # certified_sign refuses before its count, so misuse is not read as "0: uncertified"
    with pytest.raises(DomainError, match=f"delay {name} must be"):
        fn(endemic_cc("ex5_3"), tau, delta)


def test_brackets_the_signs_do_not_confirm_print_the_root_scans_values():
    # ex5_3's pseudo-delay chain predicts tau+ = 0.126, where every root is stable
    cc = endemic_cc("ex5_3")
    rep = report_for("ex5_3", "endemic")
    tp = rep.tau_only.tau_plus
    left, right = max_real_part(cc, 0.9 * tp, 0.0), max_real_part(cc, 1.1 * tp, 0.0)
    evidence = f"max Re = {left:.4g} at 0.9*tau and {right:.4g} at 1.1*tau"
    assert switch_evidence(cc, 0.9 * tp, 1.1 * tp, ("0.9*tau", "1.1*tau")) == evidence
    assert any(evidence in a for a in rep.annotations)
