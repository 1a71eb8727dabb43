import csv
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from sirdelay import acceptance, cli
from sirdelay.cli import _parse_values, main
from sirdelay.config import load_scenario
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
    # drives fixed-step RK4 out of its stability region (h*(b*y + c + d)
    # passes ~2.79 near t = 10 at the default step) and the integrator
    # reports a blow-up
    rc = main(["simulate", "--preset", "ex5_1", "--tau", "1", "--delta", "1",
               "--horizon", "100", "--out", str(tmp_path)])
    assert rc == 1
    assert "computation error" in capsys.readouterr().err


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
    (["simulate", "--preset", "ex5_2", "--step", "nan"], "step"),
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
