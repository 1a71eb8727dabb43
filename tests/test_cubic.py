import math
import random

import pytest

from sirdelay.cubic import _real_roots, bisect_root, solve_cubic_real
from sirdelay.errors import DomainError


def poly(c3, c2, c1, c0, x):
    return ((c3 * x + c2) * x + c1) * x + c0


def assert_residuals(coeffs, roots):
    scale = max(1.0, *(abs(c) for c in coeffs))
    for r in roots:
        assert abs(poly(*coeffs, r)) < 1e-9 * scale


def assert_relative_residuals(coeffs, roots):
    # the residual against the size of p's terms at the root, which at a
    # far root is far above the coefficients
    for r in roots:
        size = sum(abs(c) * abs(r) ** k for c, k in zip(coeffs, (3, 2, 1, 0)))
        assert abs(poly(*coeffs, r)) <= 16.0 * 2.0**-53 * size


def test_factored_cubic():
    roots = solve_cubic_real(1.0, -6.0, 11.0, -6.0)
    assert roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)
    assert_residuals((1.0, -6.0, 11.0, -6.0), roots)


def test_published_pseudo_delay_cubics():
    roots = solve_cubic_real(42.0, -46.0, -117.0, -8.0)
    positive = [r for r in roots if r > 0]
    assert len(positive) == 1
    assert abs(positive[0] - 2.325) <= 0.005
    roots2 = solve_cubic_real(756.0, 1488.0, 500.0, 84.0)
    assert all(r <= 0 for r in roots2)
    assert_residuals((756.0, 1488.0, 500.0, 84.0), roots2)


def test_degenerate_degrees():
    assert solve_cubic_real(0.0, 1.0, -3.0, 2.0) == pytest.approx([1.0, 2.0], abs=1e-12)
    assert solve_cubic_real(0.0, 0.0, 2.0, -4.0) == pytest.approx([2.0], abs=1e-12)
    assert solve_cubic_real(0.0, 0.0, 0.0, 5.0) == []
    assert solve_cubic_real(0.0, 1.0, 0.0, 1.0) == []  # x^2 + 1
    with pytest.raises(DomainError):
        solve_cubic_real(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        solve_cubic_real(math.nan, 1.0, 1.0, 1.0)


def test_small_leading_coefficient_keeps_the_cubic_term():
    # c3 = 1 is below 1e-14 of c0, yet at roots of size 1e5 to 4e7 the cubic
    # term is as large as the others: the quadratic part alone gave two roots
    # whose residuals broke the bound by factors of 1e3 and 1e8
    coeffs = (1.0, 3.7e7, 2e13, -4e18)
    roots = solve_cubic_real(*coeffs)
    assert roots == pytest.approx(
        [-36448266.083677328, -706966.90959174124, 155232.99326906928], rel=1e-12)
    assert_residuals(coeffs, roots)
    # where the cubic term is negligible at the near roots, they are kept,
    # a double one too, and so is the far root where the cubic term balances
    # the others: the three sum to -c2/c3
    for coeffs in ((1e-30, 1.0, -3.0, 2.0), (1e-60, 1.0, -3.0, 2.0)):
        roots = solve_cubic_real(*coeffs)
        assert roots == pytest.approx([-1.0 / coeffs[0] - 3.0, 1.0, 2.0], rel=1e-12)
        assert_residuals(coeffs, roots[1:])
        assert_relative_residuals(coeffs, roots[:1])
    roots = solve_cubic_real(1e-20, 1.0, -2.0, 1.0)
    assert roots == pytest.approx([-1e20 - 2.0, 1.0], rel=1e-12)


def test_repeated_roots_collapse():
    roots = solve_cubic_real(1.0, -3.0, 3.0, -1.0)  # (x-1)^3
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0, abs=1e-6)
    roots = solve_cubic_real(1.0, -5.0, 7.0, -3.0)  # (x-1)^2 (x-3)
    assert roots == pytest.approx([1.0, 3.0], abs=1e-7)


def test_one_real_root_case():
    # (x - 2)(x^2 + x + 1)
    roots = solve_cubic_real(1.0, -1.0, -1.0, -2.0)
    assert roots == pytest.approx([2.0], abs=1e-12)


def test_near_degenerate_double_roots():
    # (x-1)^2 (x-3) with the constant term nudged around the exact value;
    # the local shape at the double root is -2(x-1)^2, so a positive nudge
    # splits it into two real roots and a negative one lifts it off the axis
    for eps in (0.0, 1e-13, 1e-11, -1e-13, -1e-11):
        roots = solve_cubic_real(1.0, -5.0, 7.0, -3.0 + eps)
        assert 1 <= len(roots) <= 3
        assert any(abs(r - 3.0) < 1e-5 for r in roots)
        if eps > 0:
            assert any(abs(r - 1.0) < 1e-4 for r in roots)
        assert_residuals((1.0, -5.0, 7.0, -3.0 + eps), roots)


def test_random_root_reconstruction():
    rng = random.Random(20260808)
    for _ in range(200):
        r = sorted(rng.uniform(-8.0, 8.0) for _ in range(3))
        if min(abs(a - b) for a, b in ((r[0], r[1]), (r[1], r[2]))) < 1e-3:
            continue
        c3 = rng.choice([1.0, -2.0, 0.5])
        c2 = -c3 * (r[0] + r[1] + r[2])
        c1 = c3 * (r[0] * r[1] + r[0] * r[2] + r[1] * r[2])
        c0 = -c3 * r[0] * r[1] * r[2]
        roots = solve_cubic_real(c3, c2, c1, c0)
        assert len(roots) == 3
        for got, want in zip(roots, r):
            assert got == pytest.approx(want, rel=1e-7, abs=1e-7)
        assert_residuals((c3, c2, c1, c0), roots)


def test_double_root_at_zero_is_one_root():
    # x^2 * (c3*x - c3*a): Newton reaches a double root only linearly, and
    # left to it the two copies at zero stay just over the dedup bar apart
    assert len(solve_cubic_real(1.0, 9.553557779573524, 0.0, 0.0)) == 2
    assert len(solve_cubic_real(1.0, -8.602050298899076, 0.0, 0.0)) == 2
    rng = random.Random(20261018)
    for _ in range(10000):
        a = rng.uniform(-10.0, 10.0)
        c3 = rng.choice([1.0, -1.0, 2.0, 0.5])
        roots = solve_cubic_real(c3, -c3 * a, 0.0, 0.0)
        assert len(roots) == 2
        assert min(abs(r) for r in roots) <= 1e-9
        assert max(roots, key=abs) == pytest.approx(a, rel=1e-12)


def test_quadratic_double_root_is_not_polished_away():
    # at a double root Newton's slope is round-off, and a step from it once
    # landed 2% away from the root
    rng = random.Random(20261019)
    for _ in range(2000):
        r = rng.uniform(-10.0, 10.0)
        k = rng.choice([1.0, -1.0, 2.0, 0.5, 3.7])
        roots = solve_cubic_real(0.0, k, -2.0 * k * r, k * r * r)
        assert len(roots) <= 1
        assert all(abs(x - r) <= 1e-12 * max(1.0, abs(r)) for x in roots)


@pytest.mark.parametrize("scale", [1.0, 1e-2])
def test_double_root_is_kept_once(scale):
    # k*(x - r)^2*(x - s): Newton polish started at the double root used to
    # jump away from it (losing r) or split it (three roots); a pair within
    # 1e-3 is nearly a triple root, whose roots move by the cube root of the
    # coefficients' rounding, and is skipped
    assert solve_cubic_real(1.0, -16.118863200181774, 60.570197077576324,
                            35.91199907127776) == pytest.approx([-0.5189, 8.3189], abs=1e-4)
    rng = random.Random(0)
    for _ in range(10000):
        r, s = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
        k = rng.choice([1.0, -1.0, 2.0, 0.5])
        if abs(r - s) < 1e-3:
            continue
        r, s = r * scale, s * scale
        coeffs = (k, -k * (2.0 * r + s), k * (r * r + 2.0 * r * s), -k * r * r * s)
        roots = solve_cubic_real(*coeffs)
        assert len(roots) == 2
        assert len([x for x in roots if abs(x - r) <= 1e-6 * abs(r)]) == 1, (r, s, k, roots)
        assert any(abs(x - s) <= 1e-6 * abs(s) for x in roots)
        assert_residuals(coeffs, roots)


def test_close_roots_of_a_small_cubic_stay_distinct():
    # the double-root band is relative to the coefficients' rounding, so
    # roots 0.01 apart are three roots whatever the cubic's scale
    assert solve_cubic_real(1.0, 0.0, -1e-4, 0.0) == pytest.approx([-0.01, 0.0, 0.01], abs=1e-15)
    assert solve_cubic_real(1.0, 0.0, -1e-16, 0.0) == pytest.approx([-1e-8, 0.0, 1e-8],
                                                                   abs=1e-20)
    for e in (1e-3, 1e-5):
        r1, r2, s = 0.01 * (1.0 - e), 0.01 * (1.0 + e), -0.02
        roots = solve_cubic_real(1.0, -(r1 + r2 + s), r1 * r2 + r1 * s + r2 * s, -r1 * r2 * s)
        assert roots == pytest.approx([s, r1, r2], rel=1e-9)


def test_triple_root_is_kept():
    # Newton polish started at a triple root used to jump away from it, and
    # the residual filter then dropped it
    rng = random.Random(2)
    for _ in range(10000):
        a = rng.uniform(-10.0, 10.0)
        k = rng.choice([1.0, -1.0, 2.0, 0.5])
        roots = solve_cubic_real(k, -3.0 * k * a, 3.0 * k * a * a, -k * a ** 3)
        assert roots == pytest.approx([a], rel=1e-12), (a, k)


def _losses(cubics):
    # the count of real roots missing from cubics that each have three
    lost = 0
    for r in cubics:
        coeffs = (1.0, -(r[0] + r[1] + r[2]), r[0] * r[1] + r[0] * r[2] + r[1] * r[2],
                  -r[0] * r[1] * r[2])
        lost += 3 - len(solve_cubic_real(*coeffs))
    return lost


def _uniform_roots(rng, scale, count=20000):
    return ([rng.uniform(-1.0, 1.0) * scale for _ in range(3)] for _ in range(count))


def _close_pairs(rng, scale, count=2000):
    # two roots 1e-6 * scale apart, and the third 0.3 * scale to scale away
    for _ in range(count):
        r = rng.uniform(-1.0, 1.0) * scale
        far = r + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0) * scale
        yield r, r + 1e-6 * scale, far


def test_small_cubics_lose_no_more_roots_than_unit_ones():
    # duplicates are merged relative to the roots' size, so three-root
    # families shrunk to 1e-4 keep every root, as at scale 1; merging roots
    # closer than an absolute 1e-9 would lose every close pair at 1e-4
    for scale in (1.0, 1e-4):
        assert _losses(_close_pairs(random.Random(7), scale)) == 0, scale
        assert _losses(_uniform_roots(random.Random(5), scale)) == 0, scale


def from_roots(k, r1, r2, r3):
    return (k, -k * (r1 + r2 + r3), k * (r1 * r2 + r1 * r3 + r2 * r3), -k * r1 * r2 * r3)


def test_close_roots_beside_a_far_root_are_kept():
    # roots 2 and 3 lie 5e-9 of the far root apart, and the closed form's
    # double-root band, relative to the largest root, merged them
    roots = solve_cubic_real(*from_roots(1.0, 2.0, 3.0, -2e8))
    assert roots == pytest.approx([-2e8, 2.0, 3.0], rel=1e-12)


def test_far_roots_are_kept():
    # at a root of size 1e8 to 9e15 the round-off in p alone is far above the
    # coefficients, and an absolute residual bound dropped every such root
    rng = random.Random(2)
    for _ in range(2000):
        want = [rng.uniform(0.5, 3.0), rng.uniform(3.0, 6.0), rng.uniform(1e8, 9e15)]
        coeffs = from_roots(1.0, *want)
        roots = solve_cubic_real(*coeffs)
        assert roots == pytest.approx(want, rel=1e-9), coeffs
        assert_relative_residuals(coeffs, roots)


def test_mixed_scale_roots_are_all_found():
    # three real roots 1e-6 to 1e12 in size and at least 1e-3 apart relative
    # to the larger, or one real root and a complex pair, under a leading
    # coefficient 1e-6 to 1e6 in size: the count is exact, every root found
    # to 1e-9 and its residual within round-off of p's terms there
    rng = random.Random(24)
    for _ in range(5000):
        k = rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-6.0, 6.0)
        r = [rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-6.0, 12.0) for _ in range(3)]
        if rng.random() < 0.5:
            want = sorted(r)
            if any(abs(a - b) < 1e-3 * max(abs(a), abs(b)) for a, b in zip(want, want[1:])):
                continue
            coeffs = from_roots(k, *want)
        else:
            # (x - r0)(x^2 - 2*re*x + |z|^2) with z = re + i*im, |im| >= 0.05|z|
            angle = rng.uniform(0.05, math.pi - 0.05)
            re, mod2 = abs(r[1]) * math.cos(angle), r[1] * r[1]
            want = [r[0]]
            coeffs = (k, -k * (r[0] + 2.0 * re), k * (mod2 + 2.0 * re * r[0]), -k * r[0] * mod2)
        roots = solve_cubic_real(*coeffs)
        assert roots == pytest.approx(want, rel=1e-9), coeffs
        assert_relative_residuals(coeffs, roots)


def test_a_root_at_or_just_inside_fujiwaras_bound_is_kept():
    # the outermost pieces end at Fujiwara's bound 2*max|c_k/c_0|^(1/k), with
    # c_n halved, which x^n - t*x^(n-1) - ... - t^(n-1)*x - 2*t^n attains at
    # its root 2t, so the root is the end itself; (x - s)(x^2 + t*x + t^2)
    # with s = 1.98t has the bound 1.9933t, so s lies 0.67% inside
    rng = random.Random(11)
    for _ in range(2000):
        t = rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
        roots = solve_cubic_real(1.0, -t, -t * t, -2.0 * t**3)
        assert roots == pytest.approx([2.0 * t], rel=1e-12), t
        s = 1.98 * t
        coeffs = (1.0, t - s, t * t - s * t, -s * t * t)
        assert solve_cubic_real(*coeffs) == pytest.approx([s], rel=1e-12), t
        assert_relative_residuals(coeffs, [s])
        # the degree 7 of the endemic resultant
        cs = [1.0] + [-t**k for k in range(1, 7)] + [-2.0 * t**7]
        assert [x for x in _real_roots(cs) if x * t > 0.0] == pytest.approx([2.0 * t], rel=1e-12), t


def test_bisect_root_needs_a_sign_change():
    assert bisect_root(lambda x: x * x + 1.0, -1.0, 2.0) is None
    assert bisect_root(lambda x: x - 3.0, 0.0, 2.0) is None


def test_bisect_root_returns_exact_endpoint_zeros():
    assert bisect_root(lambda x: x - 1.0, 1.0, 4.0) == 1.0
    assert bisect_root(lambda x: x - 4.0, 1.0, 4.0) == 4.0
    assert bisect_root(lambda x: 0.0, -2.0, 5.0) == -2.0


@pytest.mark.parametrize("hi", [1.0, 7.5])
def test_bisect_root_converges_to_a_jump_within_the_width_bound(hi):
    # g is never 0 at a discontinuous sign change, so only carrying the
    # bracket down to adjacent floats puts the root within 1e-15 * max(1, hi)
    jump = 0.3 * hi
    root = bisect_root(lambda x: -1.0 if x < jump else 2.0, 0.0, hi)
    assert abs(root - jump) <= 1e-15 * max(1.0, hi)


def test_bisect_root_does_not_depend_on_the_brackets_sign():
    # the bracket mirrored through 0 gives the mirrored root, and costs no
    # more evaluations
    def evaluations(g, lo, hi):
        calls = []
        root = bisect_root(lambda x: calls.append(x) or g(x), lo, hi)
        return root, len(calls)

    root, positive = evaluations(lambda x: x**3 - 1000.5, 0.0, 20.0)
    mirrored, negative = evaluations(lambda x: -x**3 - 1000.5, -20.0, 0.0)
    assert mirrored == pytest.approx(-root, rel=1e-15)
    assert negative <= positive


def test_bisect_root_finds_smooth_roots_to_the_last_bits():
    root = bisect_root(lambda x: x ** 3 - 2.0, 0.0, 3.0)
    assert abs(root - 2.0 ** (1.0 / 3.0)) <= 4.0 * math.ulp(2.0 ** (1.0 / 3.0))
    assert bisect_root(math.cos, 1.0, 2.0) == pytest.approx(math.pi / 2.0, abs=2e-15)
