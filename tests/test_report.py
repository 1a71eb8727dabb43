import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sirdelay import charroots, report
from sirdelay.charroots import char_roots_scan, max_real_part
from sirdelay.cli import main
from sirdelay.equilibria import all_equilibria
from sirdelay.presets import PRESET_NAMES, load_preset
from sirdelay.report import build_stability_report, render_report, report_to_json
from sirdelay.responses import Linear
from sirdelay.stability import STABLE


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
        assert not any("not confirmed by the root scan" in a for a in rep.annotations)
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
