"""Smoke test: every demo script, and README's Quickstart, runs to completion."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: the warnings tier-1's filterwarnings turns into errors, which do not
#: reach a subprocess
WARNINGS_AS_ERRORS = [f"-Werror::{w}" for w in (
    "RuntimeWarning", "DeprecationWarning", "FutureWarning", "ResourceWarning")]


def _run(script, cwd):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # run a copy, so files a demo writes beside itself land in tmp_path
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    _run(script, tmp_path)


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    quickstart = readme[readme.index("\n## Quickstart\n"):]
    block = re.search(r"```python\n(.*?)```", quickstart, re.DOTALL).group(1)
    script = tmp_path / "quickstart.py"
    script.write_text(block)
    assert "converged to (2, 2, 2)" in _run(script, tmp_path)
