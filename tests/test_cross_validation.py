"""Cross-validation of the numerical machinery against independent routes.

The root scan arbitrates every criterion disagreement, so it gets checked
here against methods that share none of its code: numpy's eigenvalue-based
polynomial roots for delay-free cases, and the exact modulus/angle
crossing delay (``tau_crossing``) for the delayed case.  The analytic
linearization is checked against central differences of the right-hand
side (``jacobian_coeffs_fd``, which ``test_model`` shares).
"""

import math
import random

import numpy as np
import pytest

from sirdelay.charroots import EPS, char_roots_scan, char_value, max_real_part
from sirdelay.equilibria import all_equilibria
from sirdelay.model import JacCoeffs, ModelSpec, Params, State, eval_rhs, jacobian_coeffs
from sirdelay.presets import PRESET_NAMES, load_preset
from sirdelay.responses import (
    Bilinear,
    FractionalMix,
    Linear,
    PowerSum,
    SaturatingIncidence,
    SaturatingUnary,
    Zero,
)
from sirdelay.stability import STABLE, CharCoeffs, char_coeffs, delay_free_stable, tau_crossing

#: relative central-difference step of jacobian_coeffs_fd
FD_STEP = 1e-6


def jacobian_coeffs_fd(model: ModelSpec, eq) -> JacCoeffs:
    """Central-finite-difference version of :func:`jacobian_coeffs`.

    Differentiates eval_rhs directly, treating current and delayed
    arguments independently.  Serves as a cross-check for the analytic
    coefficients.
    """
    st = getattr(eq, "state", eq)
    x, y, z = st.as_tuple()
    p = model.params

    def rhs(xc, yc, zc, xt, yd):
        return eval_rhs(model, State(xc, yc, zc), xt, yd)

    hx = FD_STEP * (1.0 + abs(x))
    hy = FD_STEP * (1.0 + abs(y))
    # A: d(dx)/dx with the delayed argument held fixed
    A = (rhs(x + hx, y, z, x, y)[0] - rhs(x - hx, y, z, x, y)[0]) / (2 * hx)
    B = (rhs(x, y + hy, z, x, y)[0] - rhs(x, y - hy, z, x, y)[0]) / (2 * hy)
    C = (rhs(x, y + hy, z, x, y)[1] - rhs(x, y - hy, z, x, y)[1]) / (2 * hy)
    D = (rhs(x, y, z, x + hx, y)[1] - rhs(x, y, z, x - hx, y)[1]) / (2 * hx)
    E = (rhs(x, y, z, x, y + hy)[2] - rhs(x, y, z, x, y - hy)[2]) / (2 * hy)
    return JacCoeffs(A=A, B=B, C=C, D=D, E=E, alpha=p.alpha)


def fold_upper(roots, tol=1e-7):
    """Fold a root multiset into the upper half plane and dedup."""
    out = []
    for r in roots:
        z = complex(r)
        if abs(z.imag) < 1e-9:
            z = complex(z.real, 0.0)
        if z.imag < 0:
            z = z.conjugate()
        if not any(abs(z - w) < tol for w in out):
            out.append(z)
    return sorted(out, key=lambda w: (-w.real, w.imag))


def test_scan_matches_numpy_roots_on_random_cubics():
    rng = random.Random(42)
    # roots reach Re ~ 11
    coeffs = [tuple(rng.uniform(-10.0, 10.0) for _ in range(3)) for _ in range(60)]
    for name in PRESET_NAMES:  # the zero-delay cubics, with ex5_7's -1.2032 and sec6's 10
        model = load_preset(name).model
        for eq in all_equilibria(model):
            cc = char_coeffs(jacobian_coeffs(model, eq))
            coeffs.append((cc.l, cc.m + cc.l1, cc.n + cc.m1 + cc.n1))
    for l, m, n in coeffs:
        cc = CharCoeffs(l, m, n, 0.0, 0.0, 0.0)
        want = fold_upper(np.roots([1.0, l, m, n]))
        got = char_roots_scan(cc, 0.0, 0.0)
        assert len(got) == len(want), (l, m, n)
        for a, b in zip(got, want):
            assert abs(a - b) < 1e-6, (l, m, n, got, want)


def endemic_cc(name):
    model = load_preset(name).model
    eq = [e for e in all_equilibria(model) if e.kind == "endemic"][0]
    return char_coeffs(jacobian_coeffs(model, eq))


def test_ex5_3_crossing_agrees_across_three_routes():
    cc = endemic_cc("ex5_3")
    analytic = tau_crossing(cc)
    assert analytic == pytest.approx(4.561670, abs=1e-5)
    # the scan changes sign across it
    assert max_real_part(cc, analytic - 1e-3, 0.0) < 0.0 < max_real_part(cc, analytic + 1e-3, 0.0)
    # and simulation (the regime sweep) brackets the same value: stable
    # behavior at tau=4, oscillation at tau=5
    assert 4.0 < analytic < 5.0


def test_ex5_1_crossing_agrees_with_modulus_angle():
    cc = endemic_cc("ex5_1")
    analytic = tau_crossing(cc)
    assert analytic == pytest.approx(1.374026, abs=1e-5)
    assert max_real_part(cc, analytic * 0.95, 0.0) < 0.0
    assert max_real_part(cc, analytic * 1.05, 0.0) > 0.0


def random_models(count, seed=20260808):
    rng = random.Random(seed)
    incidences = [
        lambda: Bilinear(),
        lambda: SaturatingIncidence(rng.uniform(0.5, 3.0)),
        lambda: FractionalMix(),
    ]
    vaccinations = [
        lambda: Zero(),
        lambda: Linear(1.0),
        lambda: SaturatingUnary(rng.uniform(0.5, 3.0)),
        lambda: PowerSum(0.0, rng.uniform(0.2, 1.5)),
    ]
    recoveries = [
        lambda: Linear(1.0),
        lambda: SaturatingUnary(rng.uniform(0.5, 3.0)),
    ]
    out = []
    for _ in range(count):
        b = rng.uniform(0.5, 3.0)
        params = Params(
            a=rng.uniform(1.0, 15.0),
            b=b,
            b1=b * rng.uniform(0.3, 1.0),
            c=rng.choice([0.0, rng.uniform(0.2, 3.0)]),
            d=rng.uniform(0.3, 2.0),
            d1=rng.uniform(0.3, 2.0),
            r=rng.choice([0.0, rng.uniform(0.2, 4.0)]),
            alpha=rng.uniform(0.3, 2.0),
            tau=rng.uniform(0.0, 2.0),
            delta=rng.uniform(0.0, 2.0),
        )
        out.append(ModelSpec(
            params=params,
            f=rng.choice(incidences)(),
            V=rng.choice(vaccinations)(),
            P=rng.choice(recoveries)(),
        ))
    return out


@pytest.mark.parametrize("model", random_models(15), ids=lambda m: m.content_hash())
def test_random_models_equilibria_and_criteria_consistency(model):
    eqs = all_equilibria(model)
    for eq in eqs:
        assert eq.residual < 1e-10
        jac = jacobian_coeffs(model, eq)
        fd = jacobian_coeffs_fd(model, eq)
        for attr in "ABCDE":
            assert getattr(jac, attr) == pytest.approx(
                getattr(fd, attr), rel=2e-6, abs=1e-6)
        cc = char_coeffs(jac)
        assert cc.m1 == pytest.approx(model.params.alpha * cc.l1, rel=1e-12, abs=1e-12)
        res = delay_free_stable(jac)
        top = max_real_part(cc, 0.0, 0.0)
        if res.verdict == STABLE:
            assert top <= 1e-9
        if top is not None and top > 1e-9:
            assert res.verdict != STABLE


def test_delay_free_reduction_reads_the_roots_a_c_minus_alpha():
    # with D = 0 no delayed term survives, so the flag holds, and the
    # zero-delay cubic's roots are {A, C, -alpha}: nonzero_roots_negative
    # must say what the oracle's nonzero roots say
    models = [load_preset(name).model for name in PRESET_NAMES] + random_models(15)
    seen = 0
    for model in models:
        for eq in all_equilibria(model):
            jac = jacobian_coeffs(model, eq)
            if jac.D != 0.0:
                continue
            seen += 1
            res = delay_free_stable(jac)
            roots = char_roots_scan(char_coeffs(jac), 0.0, 0.0)
            want = all(r.real < 0.0 for r in roots if abs(r) > 1e-9)
            assert res.delay_free_equivalent, (model.content_hash(), eq.kind)
            assert res.nonzero_roots_negative == want, (model.content_hash(), eq.kind)
    assert seen >= 10


def test_random_model_with_two_endemic_points():
    # quadratic vaccination and saturating recovery give H(y) two sign
    # changes; the points are pinned from an independent Newton solve
    model = random_models(200, seed=7)[128]
    endemic = [e for e in all_equilibria(model) if e.kind == "endemic"]
    want = [
        (1.2517287779320598, 3.1746820981809827, 1.280775853210122),
        (2.1233269535489216, 0.724878218398547, 0.8634894426532931),
    ]
    assert len(endemic) == 2
    for eq, point in zip(endemic, want):
        assert max(abs(u - v) for u, v in zip(eq.state.as_tuple(), point)) < 1e-8
        assert eq.residual < 1e-10


@pytest.mark.parametrize(
    "model",
    [load_preset(name).model for name in PRESET_NAMES] + random_models(15),
    ids=lambda m: m.content_hash(),
)
def test_exact_crossing_is_where_the_scan_changes_sign(model):
    for eq in all_equilibria(model):
        cc = char_coeffs(jacobian_coeffs(model, eq))
        top = max_real_part(cc, 0.0, 0.0)
        if top is None or top >= 0.0:
            continue
        c = tau_crossing(cc)
        if c is None:
            for tau in (1.0, 5.0, 20.0):
                assert max_real_part(cc, tau, 0.0) < 0.0, (eq, tau)
        else:
            assert max_real_part(cc, c - 1e-3, 0.0) < 0.0 < max_real_part(cc, c + 1e-3, 0.0), eq


def winding_count(cc, tau, delta, eps):
    """Zeros of F in Re > -eps, from the winding of F along the upper half
    of the rectangle [-eps, R] x [-R, R] at fixed dense samples (clustered
    near the real axis for a root at lam = 0).  R = e^(eps*(tau+delta)) times
    the Cauchy-type bound 1 + max |coefficient| holds every such root."""
    R = math.exp(eps * (tau + delta)) * (1.0 + max(
        abs(cc.l), abs(cc.m) + abs(cc.l1), abs(cc.n) + abs(cc.m1) + abs(cc.n1)))
    up = np.unique(np.concatenate([np.linspace(0.0, R, 40001), np.geomspace(1e-12, 1e-2, 400)]))
    path = np.concatenate([R + 1j * np.linspace(0.0, R, 4001),
                           np.linspace(R, -eps, 4001) + 1j * R,
                           -eps + 1j * up[::-1]])
    F = (path**3 + cc.l * path**2 + cc.m * path + cc.n
         + (cc.l1 * path + cc.m1) * np.exp(-path * tau) + cc.n1 * np.exp(-path * (tau + delta)))
    turn = np.angle(F[1:] / F[:-1])
    assert np.abs(turn).max() < np.pi / 2, "contour under-sampled"
    return round(turn.sum() / np.pi)


@pytest.mark.parametrize(
    "model",
    [load_preset(name).model for name in PRESET_NAMES] + random_models(15),
    ids=lambda m: m.content_hash(),
)
def test_oracle_returns_every_root_right_of_minus_eps(model):
    """The root list's contract: every root has |F| <= 1e-9, and the roots
    with Re > -EPS, conjugates counted, are as many as the winding number."""
    own = (model.params.tau, model.params.delta)
    for eq in all_equilibria(model):
        cc = char_coeffs(jacobian_coeffs(model, eq))
        for tau, delta in (own, (7.0, 0.0), (3.0, 2.0)):
            roots = char_roots_scan(cc, tau, delta)
            assert max(abs(char_value(cc, tau, delta, z)) for z in roots) <= 1e-9
            found = sum(1 if z.imag == 0.0 else 2 for z in roots if z.real > -EPS)
            assert found == winding_count(cc, tau, delta, EPS), (eq, tau, delta, roots)
