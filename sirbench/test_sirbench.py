"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest sirbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as wl  # noqa: E402
from sirdelay import analytics, charroots, integrator, report  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root, workload, trace, seed=1):
    return subprocess.run(
        [sys.executable, str(root / "sirbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_planted_wrong_classification_counts_as_failure(monkeypatch):
    real = analytics.classify
    planted = []

    def wrong_once(traj, *args, **kwargs):
        cls = real(traj, *args, **kwargs)
        if cls.kind == analytics.CONVERGED and not planted:
            planted.append(traj.tau)
            return dataclasses.replace(cls, kind=analytics.DAMPED)
        return cls

    monkeypatch.setattr(analytics, "classify", wrong_once)
    res = wl.run_timed(wl.make_inputs("sweep-hopf", 1), 0, setup_probe=lambda: 1.0)
    assert planted
    assert res.failed == 1
    assert res.metrics["ok_frac"] == (res.attempted - 1) / res.attempted


def test_same_seed_same_inputs_and_digest():
    assert wl.make_inputs("sweep-twodelay", 3) == wl.make_inputs("sweep-twodelay", 3)
    first = wl.run_timed(wl.make_inputs("stability-presets", 7), 0, setup_probe=lambda: 1.0)
    again = wl.run_timed(wl.make_inputs("stability-presets", 7), 0, setup_probe=lambda: 1.0)
    other = wl.run_timed(wl.make_inputs("stability-presets", 8), 0, setup_probe=lambda: 1.0)
    assert first.digest == again.digest != other.digest


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (integrator.integrate, charroots.max_real_part, integrator.SampledHistory.value)
    tr = wl.install_tracer()
    try:
        assert analytics.integrate is integrator.integrate is not originals[0]
        assert report.max_real_part is charroots.max_real_part is not originals[1]
        assert integrator.SampledHistory.value is not originals[2]
    finally:
        tr.restore()
    assert (integrator.integrate, charroots.max_real_part,
            integrator.SampledHistory.value) == originals
    assert analytics.integrate is originals[0] and report.max_real_part is originals[1]


def test_exits_nonzero_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "sirbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "sweep-hopf", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
