import math
import random

import pytest

from sirdelay.cubic import solve_cubic_real
from sirdelay.errors import DomainError


def poly(c3, c2, c1, c0, x):
    return ((c3 * x + c2) * x + c1) * x + c0


def assert_residuals(coeffs, roots):
    scale = max(1.0, *(abs(c) for c in coeffs))
    for r in roots:
        assert abs(poly(*coeffs, r)) < 1e-9 * scale


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
