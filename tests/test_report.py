import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sirdelay import charroots, report, stability
from sirdelay.charroots import certified_sign, char_roots_scan, max_real_part
from sirdelay.cli import main
from sirdelay.equilibria import all_equilibria
from sirdelay.model import JacCoeffs
from sirdelay.presets import PRESET_NAMES, load_preset
from sirdelay.report import (
    build_stability_report,
    render_report,
    report_to_json,
    switch_evidence,
)
from sirdelay.responses import Linear
from sirdelay.stability import STABLE, CharCoeffs


def report_for(name, kind, **kw):
    cfg = load_preset(name)
    eqs = all_equilibria(cfg.model)
    eq = [e for e in eqs if e.kind == kind][0]
    return build_stability_report(cfg.model, eq, equilibria=eqs, name=name,
                                  reference=cfg.reference, **kw)


def test_ex5_2_report():
    rep = report_for("ex5_2", "disease_free")
    assert rep.delay_free.verdict == STABLE
    assert rep.delay_free.delay_free_equivalent
    assert rep.tau_only.verdict == "preserved_stable"
    reals = sorted(r.real for r in rep.oracle_roots)
    assert reals == pytest.approx([-2.0, -1.0, 0.0], abs=1e-9)
    assert any("published roots" in a for a in rep.annotations)
    text = render_report(rep)
    assert "delay-free-equivalent" in text
    assert "lam^3 + 3*lam^2 + 2*lam" in text


def test_ex5_3_report_switch_and_oracle():
    rep = report_for("ex5_3", "endemic")
    assert rep.tau_only.verdict == "switch_at"
    # the pseudo-delay chain disagrees with the scan; both sides are exposed
    assert rep.oracle_crossing_tau is not None
    assert 4.0 < rep.oracle_crossing_tau < 5.0
    assert any("pseudo-delay chain predicts" in a for a in rep.annotations)
    assert any("published pseudo-delay cubic" in a for a in rep.annotations)
    assert any("published critical delay" in a for a in rep.annotations)
    # the global criterion conflicts with the observed switch
    assert rep.global_case.verdict == "endemic_gas"
    assert any("global criterion" in a for a in rep.annotations)


def test_ex5_3_endemic_report_takes_four_root_scans(monkeypatch):
    # at tau and at zero delay, and at 0.9 and 1.1 times the pseudo-delay
    # tau+, whose signs do not confirm a switch; the exact crossing is
    # confirmed by its certified signs alone
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return char_roots_scan(*args)

    monkeypatch.setattr(charroots, "char_roots_scan", counted)
    monkeypatch.setattr(report, "char_roots_scan", counted)
    rep = report_for("ex5_3", "endemic")
    assert rep.oracle_crossing_tau == pytest.approx(4.56167, abs=1e-5)
    assert len(calls) == 4, calls


def test_reports_solve_a_one_delay_slice_only_for_a_crossing(monkeypatch):
    # the criteria read each slice's crossing cubic without solving it: the
    # delta = 0 roots are solved once, for the exact crossing, and the
    # tau = 0 roots only where the paper's checks do not preserve stability
    callers = []
    solve = stability.crossings

    def counted(P, Q):
        callers.append(sys._getframe(1).f_code.co_name)
        return solve(P, Q)

    monkeypatch.setattr(stability, "crossings", counted)
    total = 0
    for name in PRESET_NAMES:
        cfg = load_preset(name)
        eqs = all_equilibria(cfg.model)
        for eq in eqs:
            callers.clear()
            rep = build_stability_report(cfg.model, eq, eqs)
            assert len([c for c in callers if c != "delta_analysis"]) <= 1, (name, callers)
            if all(c.holds for c in rep.delta_only.checks[:4]):
                assert "delta_analysis" not in callers, (name, eq.kind)
            total += len(callers)
    assert total == 6


def test_switch_evidence_is_none_only_where_max_re_switches_sign():
    rep = report_for("ex5_3", "endemic")
    c = rep.oracle_crossing_tau
    assert switch_evidence(rep.cc, c - 1e-3, c + 1e-3, ("left", "right")) is None
    assert switch_evidence(rep.cc, 4.0, 5.0, ("tau=4", "tau=5")) is None
    g4, g5 = max_real_part(rep.cc, 4.0, 0.0), max_real_part(rep.cc, 5.0, 0.0)
    assert (switch_evidence(rep.cc, 5.0, 4.0, ("tau=5", "tau=4"))
            == f"max Re = {g5:.4g} at tau=5 and {g4:.4g} at tau=4")
    assert rep.crossing_checked
    assert f"tau = {c:.4g}, checked by the root count" in render_report(rep)


# stable at zero delay and crossing at tau* = 38.06, where max Re moves
# only 4.2e-7 either side of 0 within 1e-3 of the crossing: the root count
# certifies neither sign there, and the root scans' values alone do not
# confirm the switch
NEAR_MISS = CharCoeffs(2.2558845475884883, 2.2138554619080217, 0.026191409309933356,
                       1.4923913887258085, -1.4885618499603372, 1.593819249016355)


def test_root_scan_values_alone_do_not_confirm_a_switch(monkeypatch):
    c = stability.tau_crossing(NEAR_MISS)
    assert c == pytest.approx(38.06258, abs=1e-5)
    lo, hi = c - 1e-3, c + 1e-3
    assert certified_sign(NEAR_MISS, lo, 0.0) == certified_sign(NEAR_MISS, hi, 0.0) == 0
    evidence = "max Re = -4.2e-07 at tau - 0.001 and 4.2e-07 at tau + 0.001"
    assert switch_evidence(NEAR_MISS, lo, hi, ("tau - 0.001", "tau + 0.001")) == evidence

    monkeypatch.setattr(report, "char_coeffs", lambda jac: NEAR_MISS)
    rep = report_for("ex5_3", "endemic")
    assert rep.oracle_crossing_tau == c
    assert not rep.crossing_checked
    assert (f"exact crossing tau = {c:.6g} (delta = 0) is not certified by the root "
            f"count: {evidence}") in rep.annotations
    text = render_report(rep)
    assert "checked by the root count" not in text
    assert f"exact stability crossing (delta=0): tau = {c:.4g}\n" in text


def test_a_stable_delay_free_verdict_the_zero_delay_scan_contradicts_is_annotated(monkeypatch):
    # lam^3 + lam^2 + lam + 10 passes the three sign checks, but l * m < n
    jac = JacCoeffs(A=0.0, B=-1.0, C=0.0, D=1.0, E=-9.0, alpha=1.0)
    monkeypatch.setattr(report, "jacobian_coeffs", lambda model, eq: jac)
    rep = report_for("ex5_3", "endemic")
    assert rep.cc.zero_delay() == (1.0, 1.0, 1.0, 10.0)
    assert rep.delay_free.verdict == STABLE
    top = rep.oracle_roots_zero_delay[0].real
    assert top == pytest.approx(0.6825, abs=1e-4)
    assert (f"delay-free criterion says stable but the zero-delay root scan finds "
            f"max Re = {top:.6g} > 0") in rep.annotations
    assert rep.oracle_crossing_tau is None


@pytest.mark.parametrize("jac,persistence,verdict", [
    (JacCoeffs(A=-0.5, B=-1.0, C=0.5, D=-1.0, E=3.0, alpha=1.0),
     "switch_expected", "preserved_unstable"),
    (JacCoeffs(A=0.5, B=-2.0, C=2.0, D=-0.5, E=0.0, alpha=1.0),
     "instability_persists", "preserved_unstable"),
    (JacCoeffs(A=-1.0, B=-2.0, C=0.5, D=1.0, E=2.0, alpha=1.0),
     "inconclusive", "inconclusive"),
])
def test_a_point_unstable_at_zero_delay_takes_its_tau_verdict_from_persistence(
        monkeypatch, jac, persistence, verdict):
    monkeypatch.setattr(report, "jacobian_coeffs", lambda model, eq: jac)
    rep = report_for("ex5_3", "endemic")
    assert rep.delay_free.verdict == "not_established"
    assert not rep.delay_free.delay_free_equivalent
    assert rep.tau_only.persistence.verdict == persistence
    assert rep.tau_only.verdict == verdict
    assert rep.tau_only.critical is None and rep.tau_only.tau_plus is None
    if verdict == "preserved_unstable":
        for tau in (0.5, 2.0, 8.0):
            assert certified_sign(rep.cc, tau, 0.0) == 1, tau


def test_ex5_4_report_flags_polynomial_discrepancy():
    rep = report_for("ex5_4", "disease_free")
    assert rep.delay_free.delay_free_equivalent
    assert any("characteristic polynomial" in a for a in rep.annotations)
    # pipeline polynomial is lam^3 + 5 lam^2 + 4 lam
    assert rep.cc.l == 5.0 and rep.cc.m == 4.0 and rep.cc.n == 0.0


def test_ex5_1_report():
    rep = report_for("ex5_1", "endemic")
    assert rep.delay_free.verdict == STABLE
    assert rep.delta_only.verdict == "preserved"
    # published cubic (756, 1488, 500, 84) differs from the pipeline values
    assert any("published pseudo-delay cubic" in a for a in rep.annotations)
    # tau switch is predicted by the pipeline and audited against the scan
    assert rep.tau_only.verdict == "switch_at"
    assert rep.oracle_crossing_tau == pytest.approx(1.3745, abs=0.02)


@pytest.mark.parametrize("name,top", [("sec6_followup", 10.0), ("ex5_1", 3.0), ("ex5_3", 0.5)])
def test_inconclusive_delay_free_point_flags_its_unstable_root(name, top):
    rep = report_for(name, "disease_free")
    assert rep.delay_free.verdict == "not_established"
    # no delayed terms, so the unstable root is there at every delay pair
    for tau, delta in ((0.0, 0.0), (7.0, 0.0), (3.0, 2.0)):
        assert max_real_part(rep.cc, tau, delta) == pytest.approx(top, abs=1e-9)
    assert (f"delay-free criterion inconclusive; zero-delay root scan finds an unstable "
            f"root (max Re = {top:g})") in rep.annotations
    assert not any("all roots stable" in a for a in rep.annotations)


def test_report_json_serializes():
    rep = report_for("ex5_5", "endemic")
    doc = report_to_json(rep)
    text = json.dumps(doc)
    back = json.loads(text)
    assert back["char_coeffs"]["l"] == pytest.approx(6.2, abs=1e-9)
    assert back["global_case"]["verdict"] == "not_applicable"
    checks = back["delay_free"]["checks"]
    assert all({"name", "lhs", "op", "rhs", "holds", "boundary"} <= set(c) for c in checks)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_reports_build_for_every_preset_equilibrium(name):
    cfg = load_preset(name)
    eqs = all_equilibria(cfg.model)
    for eq in eqs:
        rep = build_stability_report(cfg.model, eq, equilibria=eqs, name=name,
                                     reference=cfg.reference)
        assert not any("not certified by the root count" in a for a in rep.annotations)
        json.dumps(report_to_json(rep))
        text = render_report(rep)
        assert "criteria:" in text


def _reports_json(model):
    eqs = all_equilibria(model)
    docs = [json.loads(json.dumps(report_to_json(build_stability_report(model, eq, eqs))))
            for eq in eqs]
    return [{k: v for k, v in doc.items() if k != "model_hash"} for doc in docs]


@pytest.mark.parametrize("change", [
    pytest.param(lambda m: replace(m, params=replace(m.params, a=Fraction(10))),
                 id="a-Fraction"),
    pytest.param(lambda m: replace(m, params=replace(m.params, a=np.int64(10))),
                 id="a-int64"),
    pytest.param(lambda m: replace(m, V=Linear(Fraction(1))), id="V-Linear-Fraction"),
])
def test_reports_serialize_models_with_other_real_numbers(change):
    model = load_preset("ex5_1").model
    assert _reports_json(change(model)) == _reports_json(model)


GOLDEN = Path(__file__).parent / "golden"


def assert_same_json(got, want, path="$"):
    """Strings, booleans, None, key order and list lengths match exactly;
    numbers agree to a relative 1e-12 (with a 1e-12 floor for rounding-noise
    values such as Newton residuals)."""
    num = (int, float)
    if isinstance(want, num) and not isinstance(want, bool):
        assert isinstance(got, num) and not isinstance(got, bool), path
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_same_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_json(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_stability_json_matches_golden(name, capsys):
    """Each preset's stability JSON is pinned.  A golden file is rewritten,
    from the repository root, with

        PYTHONPATH=src python -m sirdelay stability --preset NAME --format json > tests/golden/NAME.json
    """
    assert main(["stability", "--preset", name, "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert_same_json(got, want)
