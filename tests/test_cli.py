import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from sirdelay import acceptance, cli
from sirdelay.cli import _parse_values, main
from sirdelay.config import load_scenario
from sirdelay.integrator import integrate
from sirdelay.model import to_jsonable
from sirdelay.presets import load_preset


def test_equilibria_command(capsys):
    assert main(["equilibria", "--preset", "ex5_1"]) == 0
    out = capsys.readouterr().out
    assert "disease_free" in out and "endemic" in out
    assert "(2, 6, 6)" in out


def test_equilibria_flags_published_mismatch(capsys):
    assert main(["equilibria", "--preset", "sec6_followup"]) == 0
    out = capsys.readouterr().out
    assert "published equilibrium" in out


def test_equilibria_says_when_the_incidence_has_no_disease_free_point(capsys):
    assert main(["equilibria", "--preset", "ex5_5"]) == 0
    out = capsys.readouterr().out
    assert "no disease-free equilibrium: the incidence does not vanish at y = 0" in out


@pytest.mark.parametrize("command", ["equilibria", "stability"])
def test_a_model_without_equilibria_is_reported_not_refused(tmp_path, capsys, command):
    # fractional-mix incidence with no recruitment (a = 0) has no steady state
    blob = to_jsonable(load_preset("ex5_5"))
    blob["model"]["params"]["a"] = 0.0
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(blob))
    assert main([command, "--config", str(path)]) == 0
    assert "no equilibria found" in capsys.readouterr().out


def test_unknown_preset_exits_2(capsys):
    assert main(["equilibria", "--preset", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown preset" in err and "ex5_1" in err


def test_missing_source_exits_2(capsys):
    assert main(["equilibria"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    blob = to_jsonable(load_preset("ex5_1"))
    del blob["model"]["params"]["alpha"]
    path.write_text(json.dumps(blob))
    assert main(["equilibria", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "model" in err and "alpha" in err
    blob = to_jsonable(load_preset("ex5_1"))
    blob["history"]["state"][0] = float("nan")
    path.write_text(json.dumps(blob))
    assert main(["simulate", "--config", str(path), "--horizon", "5"]) == 2
    assert "[history]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["equilibria", "stability"])
@pytest.mark.parametrize("reference", [
    {"roots": 5}, {"char_poly": [1, "x", 2, 3]}, {"tau_plus": [1, 2]},
    {"pseudo_delay_cubic": None}, {"equilibrium": "abc"},
    # one coordinate used to be compared alone and pass
    {"equilibrium": [1]}, {"nu_plus": True}, {"note": 3},
])
def test_malformed_reference_exits_2(tmp_path, capsys, command, reference):
    blob = to_jsonable(load_preset("ex5_3"))
    blob["reference"] = reference
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(blob))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error [reference]: reference ")
    assert next(iter(reference)) in captured.err
    assert captured.out == ""


def test_unread_reference_keys_are_kept(tmp_path, capsys):
    blob = to_jsonable(load_preset("ex5_3"))
    blob["reference"]["source"] = {"table": 2}
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(blob))
    assert load_scenario(path).reference["source"] == {"table": 2}
    assert main(["equilibria", "--config", str(path)]) == 0


def test_decreasing_response_config_exits_2(tmp_path, capsys):
    path = tmp_path / "decreasing.json"
    blob = to_jsonable(load_preset("ex5_1"))
    blob["model"]["V"] = {"kind": "power_sum", "p1": 1.0, "p2": -1.0}
    path.write_text(json.dumps(blob))
    assert main(["equilibria", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error [model]" in err and "must not decrease" in err


def test_stability_text_and_json(tmp_path, capsys):
    assert main(["stability", "--preset", "ex5_2"]) == 0
    out = capsys.readouterr().out
    assert "delay-free-equivalent" in out
    assert "lam^3 + 3*lam^2 + 2*lam" in out

    assert main(["stability", "--preset", "ex5_2", "--format", "json",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "ex5_2_stability.json"
    doc = json.loads(path.read_text())
    assert doc["reports"][0]["delay_free"]["verdict"] == "stable"


def test_stability_names_an_oracle_refusal_in_the_report(tmp_path, capsys):
    # the endemic point's exact crossing tau* = 0.9934 lies where the root count
    # is refused (R * tau > 1e5), and at 0.9 * tau+ = 1.2e-7 the root scan is empty
    blob = to_jsonable(load_preset("ex5_1"))
    blob["model"]["params"].update(a=1e5, b=300.0, b1=300.0, tau=0.0)
    path = tmp_path / "large.json"
    path.write_text(json.dumps(blob))
    assert main(["stability", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "equilibrium disease_free" in out and "equilibrium endemic" in out
    assert ("exact crossing tau = 0.993394 (delta = 0) is not certified by the root count: "
            "max Re = (uncertified: tau + delta = 0.992394 is too long to certify the roots) "
            "at tau - 0.001 and (uncertified: tau + delta = 0.994394 is too long to certify "
            "the roots) at tau + 0.001") in out
    assert "max Re = (no root with Re > -1e-06) at 0.9*tau" in out
    assert "exact stability crossing (delta=0): tau = 0.9934\n" in out
    assert "checked by the root count" not in out
    assert main(["stability", "--config", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    want = json.loads((Path(__file__).parent / "golden" / "ex5_1.json").read_text())
    assert [list(rep) for rep in doc["reports"]] == [list(rep) for rep in want["reports"]]
    assert doc["reports"][1]["oracle"]["crossing_tau"] == pytest.approx(0.993394, rel=1e-6)


def test_stability_reports_every_equilibrium_when_a_scan_is_refused(tmp_path, capsys):
    # at tau = 1 the endemic point's root scan is refused (R * tau > 1e5), while
    # the disease-free point has no delayed terms and needs no count
    blob = to_jsonable(load_preset("ex5_1"))
    blob["model"]["params"].update(a=1e5, b=300.0, b1=300.0, tau=1.0)
    path = tmp_path / "large.json"
    path.write_text(json.dumps(blob))
    assert main(["stability", "--config", str(path)]) == 0
    disease_free, endemic = capsys.readouterr().out.split("\n\n")[:2]
    assert "oracle max Re: 1.5e+07" in disease_free
    assert "refused" not in disease_free
    assert ("! root scan at (tau, delta) = (1, 0) refused: tau + delta = 1 is too long "
            "to certify the roots") in endemic
    assert "oracle roots" not in endemic


def test_simulate_outputs(tmp_path, capsys):
    assert main(["simulate", "--preset", "ex5_2", "--horizon", "60",
                 "--out", str(tmp_path), "--plot"]) == 0
    out = capsys.readouterr().out
    assert "final state" in out
    csv_path = tmp_path / "ex5_2_timeseries.csv"
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y", "z"]
    assert len(rows) == 602  # header + 0 .. 60 by 0.1
    svg_path = tmp_path / "ex5_2_trajectory.svg"
    tree = ET.parse(svg_path)  # well-formed XML
    assert tree.getroot().tag.endswith("svg")


def test_simulate_reports_its_step_counts(tmp_path, capsys):
    # controlled steps take fewer than the fixed mesh's 200/0.04 on ex5_3's
    # convergence, and count the ones they reject
    cfg = load_preset("ex5_3")
    fixed = len(integrate(cfg.model, cfg.history, cfg.horizon, step=0.04).times) - 1
    assert fixed == 5000
    assert main(["simulate", "--preset", "ex5_3", "--out", str(tmp_path)]) == 0
    accepted, rejected = map(int, re.search(r"steps: (\d+) accepted, (\d+) rejected\n",
                                            capsys.readouterr().out).groups())
    assert 0 < rejected < accepted < fixed


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_scenario_file_with_a_step_exits_2_before_writing(tmp_path, capsys, command):
    # an old file that asked for a fixed mesh is refused, not run another way
    blob = to_jsonable(load_preset("ex5_3"))
    blob["step"] = 0.04
    path = tmp_path / "stepped.json"
    path.write_text(json.dumps(blob))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error [step]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_the_parser_refuses_a_step(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--preset", "ex5_3", "--step", "0.04", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--step" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_plot_samples_the_csv_times(tmp_path, capsys, monkeypatch):
    charted = []
    monkeypatch.setattr(cli, "line_chart", lambda ts, series, **kw: charted.extend(ts) or "<svg/>")
    assert main(["simulate", "--preset", "ex5_3", "--horizon", "7", "--stride", "0.3",
                 "--out", str(tmp_path), "--plot"]) == 0
    with open(tmp_path / "ex5_3_timeseries.csv", newline="") as fh:
        written = [float(row[0]) for row in list(csv.reader(fh))[1:]]
    assert written[-1] == charted[-1] == 7.0
    assert charted == pytest.approx(written, abs=1e-12)


def test_grid_values_are_indexed_not_summed():
    taus = _parse_values("0:100:0.01", "tau")
    assert len(taus) == 10_001 and taus[2111] == 21.11 and taus[-1] == 100.0
    assert all(t == round(t, 2) for t in taus)
    fine = _parse_values("0:1000:0.001", "tau")
    assert len(fine) == 1_000_001 and fine[-1] == 1000.0
    assert _parse_values("0.5:2:0.5", "delta") == [0.5, 1.0, 1.5, 2.0]


def test_simulate_delay_overrides(tmp_path, capsys):
    assert main(["simulate", "--preset", "ex5_3", "--tau", "2", "--delta", "0.5",
                 "--horizon", "60", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "final state" in out


def test_simulate_blowup_exits_1(tmp_path, capsys):
    # ex5_1's endemic point is unstable at (1, 1); the growing oscillation
    # takes ever smaller controlled steps until the try budget is used up,
    # and the integrator reports it
    rc = main(["simulate", "--preset", "ex5_1", "--tau", "1", "--delta", "1",
               "--horizon", "100", "--out", str(tmp_path)])
    assert rc == 1
    assert "computation error" in capsys.readouterr().err


@pytest.mark.parametrize("tau", ["1:2", "0:1:0"])
def test_malformed_range_exits_2_before_writing(tmp_path, capsys, tau):
    assert main(["sweep", "--preset", "ex5_3", "--tau", tau, "--out", str(tmp_path)]) == 2
    assert "config error [tau]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stride", ["0", "-1"])
def test_simulate_nonpositive_stride_exits_2_before_writing(tmp_path, capsys, stride):
    rc = main(["simulate", "--preset", "ex5_2", "--horizon", "60", "--stride", stride,
               "--out", str(tmp_path)])
    assert rc == 2
    assert "config error [stride]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, field", [
    (["simulate", "--preset", "ex5_2", "--horizon", "nan"], "horizon"),
    (["simulate", "--preset", "ex5_2", "--horizon", "inf"], "horizon"),
    (["sweep", "--preset", "ex5_3", "--horizon", "nan"], "horizon"),
    (["simulate", "--preset", "ex5_2", "--tau", "nan"], "tau"),
    (["simulate", "--preset", "ex5_2", "--delta", "inf"], "delta"),
    (["sweep", "--preset", "ex5_3", "--tau", "0:1:nan", "--delta", "0", "--horizon", "60"], "tau"),
    (["sweep", "--preset", "ex5_3", "--tau", "nan:1:0.5", "--delta", "0", "--horizon", "60"],
     "tau"),
    (["sweep", "--preset", "ex5_3", "--tau", "1", "--delta", "inf", "--horizon", "60"], "delta"),
])
def test_non_finite_input_exits_2_before_writing(tmp_path, capsys, argv, field):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert f"config error [{field}]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, field", [
    (["sweep", "--preset", "ex5_3", "--tau=-1", "--horizon", "60"], "tau"),
    (["sweep", "--preset", "ex5_3", "--tau=-1:1:1", "--horizon", "60"], "tau"),
    (["sweep", "--preset", "ex5_3", "--tau", "1", "--delta=-0.5", "--horizon", "60"], "delta"),
    (["simulate", "--preset", "ex5_3", "--tau=-1", "--horizon", "60"], "tau"),
    (["simulate", "--preset", "ex5_3", "--delta=-0.5", "--horizon", "60"], "delta"),
])
def test_negative_delay_exits_2_before_writing(tmp_path, capsys, argv, field):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert f"config error [{field}]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, field", [
    (["sweep", "--preset", "ex5_3", "--tau", "0:1000:1e-6"], "tau"),
    (["sweep", "--preset", "ex5_3", "--tau", "0:1e308:1e-300"], "tau"),
    (["sweep", "--preset", "ex5_3", "--tau", "1", "--delta", "0:1:1e-7"], "delta"),
    (["sweep", "--preset", "ex5_3", "--tau", "0:1:1e-3", "--delta", "0:2.5:1e-3"], "grid"),
    (["simulate", "--preset", "ex5_3", "--horizon", "100", "--stride", "1e-9"], "stride"),
])
def test_oversized_request_exits_2_before_building_or_writing(tmp_path, capsys, argv, field):
    # each asks for more than MAX_STEPS grid values, grid rows or CSV rows;
    # the count is checked before any list of them is built
    tracemalloc.start()
    try:
        rc = main(argv + ["--out", str(tmp_path / "out"),
                          "--dump-config", str(tmp_path / "resolved.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert f"config error [{field}]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert peak < 8e6


def _refuse(*args, **kwargs):
    raise AssertionError("ran before the output path was checked")


@pytest.mark.parametrize("argv, field", [
    (["stability", "--preset", "ex5_3", "--out", "{file}/sub"], "out"),
    (["sweep", "--preset", "ex5_3", "--tau", "5", "--horizon", "100", "--out", "{file}"], "out"),
    (["simulate", "--preset", "ex5_3", "--horizon", "10", "--out", "{file}"], "out"),
    (["equilibria", "--preset", "ex5_3", "--dump-config", "{tmp}/nodir/x.json"], "dump-config"),
    (["stability", "--preset", "ex5_3", "--dump-config", "{tmp}/nodir/x.json"], "dump-config"),
    (["sweep", "--preset", "ex5_3", "--tau", "5", "--out", "{tmp}",
      "--dump-config", "{file}/x.json"], "dump-config"),
    (["simulate", "--preset", "ex5_3", "--out", "{tmp}",
      "--dump-config", "{tmp}/nodir/x.json"], "dump-config"),
])
def test_unwritable_output_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                        argv, field):
    file = tmp_path / "file"
    file.write_text("")
    for name in ("all_equilibria", "sweep", "integrate"):
        monkeypatch.setattr(cli, name, _refuse)
    argv = [a.format(file=file, tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error [{field}]: cannot ")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [file]


#: a JSON integer literal (401 digits) too large to convert to a float
HUGE = 10**400


@pytest.mark.parametrize("edit, field", [
    (lambda b: b.update(horizon=HUGE), "horizon"),
    (lambda b: b.update(step=HUGE), "step"),
    (lambda b: b["model"]["params"].update(a=HUGE), "model"),
    (lambda b: b["model"]["params"].update(tau=HUGE), "model"),
    (lambda b: b["model"]["V"].update(k=HUGE), "model"),
    (lambda b: b.update(history={"kind": "constant", "state": [HUGE, 1, 1]}), "history"),
    (lambda b: b.update(history={"kind": "sampled", "times": [-HUGE, 0],
                                 "states": [[1, 1, 1], [1, 1, 1]]}), "history"),
], ids=["horizon", "step", "params.a", "params.tau", "V.k", "constant_state", "sampled_times"])
def test_integer_too_large_for_a_float_exits_2_before_writing(tmp_path, capsys, edit, field):
    blob = to_jsonable(load_preset("ex5_1"))
    edit(blob)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(blob))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error [{field}]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("name", ["sub/dir", "../x", "a\\b", "a\0b", "", ".", "..", 42])
def test_scenario_name_that_is_not_a_file_name_exits_2(tmp_path, capsys, name):
    blob = to_jsonable(load_preset("ex5_2"))
    blob["name"] = name
    path = tmp_path / "named.json"
    path.write_text(json.dumps(blob))
    assert main(["simulate", "--config", str(path), "--horizon", "5",
                 "--out", str(tmp_path / "out")]) == 2
    assert "config error [name]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_sweep_csv(tmp_path, capsys):
    assert main(["sweep", "--preset", "ex5_3", "--tau", "0:7:7", "--delta", "0",
                 "--horizon", "200", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "converged" in out and "sustained_oscillation" in out
    with open(tmp_path / "ex5_3_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "tau"
    assert len(rows) == 3


def test_sweep_keeps_a_failed_row_in_csv_and_json(tmp_path, capsys):
    # ex5_1 at (tau, delta) = (1, 1) grows without bound (see
    # test_simulate_blowup_exits_1) until the try budget is used up; the
    # sweep keeps that row, with its error in place of a classification
    argv = ["sweep", "--preset", "ex5_1", "--tau", "0:1:1", "--delta", "0:1:1",
            "--horizon", "60", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert main(argv + ["--format", "json"]) == 0
    error = "try budget used up: 10000 steps tried (10 rejected) reached t = 14.8017 of 60"
    assert f"error: {error}" in capsys.readouterr().out
    with open(tmp_path / "ex5_1_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5
    assert rows[4][:5] == ["1", "1", f"error: {error}", "", ""]
    assert float(rows[4][5]) == pytest.approx(0.106218594, rel=1e-9)
    doc = json.loads((tmp_path / "ex5_1_sweep.json").read_text())
    assert [r["classification"] for r in doc] == [
        "converged", "converged", "damped_oscillation", None]
    assert all("error" not in r for r in doc[:3])
    failed = doc[3]
    assert (failed["tau"], failed["delta"], failed["error"]) == (1.0, 1.0, error)
    assert failed["period"] is None and failed["amplitude"] is None
    assert failed["equilibrium"] == [2.0, 6.0, 6.0]
    assert failed["max_re_lambda"] == pytest.approx(0.10621859395932774, rel=1e-9)


def test_simulate_names_an_unnamed_config_after_its_file(tmp_path, capsys):
    blob = to_jsonable(load_preset("ex5_2"))
    del blob["name"]
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(blob))
    assert main(["simulate", "--config", str(path), "--horizon", "5",
                 "--out", str(tmp_path / "out")]) == 0
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["plain_timeseries.csv"]


def test_dump_config_round_trip(tmp_path):
    dump = tmp_path / "resolved.json"
    assert main(["simulate", "--preset", "ex5_7", "--horizon", "55",
                 "--out", str(tmp_path), "--dump-config", str(dump)]) == 0
    cfg = load_scenario(dump)
    base = load_preset("ex5_7")
    assert cfg.model == base.model
    assert cfg.horizon == 55.0
    assert cfg.history == base.history
    assert cfg.reference == base.reference


def test_verify_exit_status_follows_results(monkeypatch, capsys):
    ok = acceptance.CriterionResult(index=1, title="fake", passed=True,
                                    elapsed=0.0, subs=())
    bad = acceptance.CriterionResult(index=2, title="fake2", passed=False,
                                     elapsed=0.0, subs=())
    monkeypatch.setattr(acceptance, "run_all", lambda: [ok, ok])
    assert main(["verify"]) == 0
    monkeypatch.setattr(acceptance, "run_all", lambda: [ok, bad])
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "criteria passed" in out


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sirdelay", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: sirdelay")
