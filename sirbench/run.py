"""Run one workload of the sirdelay benchmark and print its metrics.

    python3 sirbench/run.py --workload sweep-hopf --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout: it imports sirdelay from ``src/`` of
the same checkout and exits non-zero, without a result, when that source is
missing.  ``--trace 0`` prints the end-to-end metrics of an untraced closed
loop; ``--trace 1`` prints the per-layer metrics of a traced run and writes
its spans to ``.sirbench/``.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".sirbench"


def _import_workloads():
    if not (SRC / "sirdelay" / "__init__.py").is_file():
        sys.exit(f"sirbench: no sirdelay source at {SRC}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    loaded = Path(workloads.analytics.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        sys.exit(f"sirbench: imported sirdelay from {loaded}, not from {SRC}")
    return workloads


def _setup_probe(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import sirdelay, load the presets
    and generate the inputs."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.split()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # one thread for numpy's BLAS pool, set before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    t0 = perf_counter()
    wl = _import_workloads()
    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    inputs = wl.make_inputs(args.workload, args.seed)
    if args.setup_probe:
        print(perf_counter() - t0)
        return 0

    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        res = wl.run_traced(inputs, args.seconds, trace_path)
        units = wl.LAYER_UNITS
    else:
        res = wl.run_timed(inputs, args.seconds,
                           lambda: _setup_probe(args.workload, args.seed))
        units = wl.E2E_UNITS

    for name, unit in units.items():
        print(f"{name:44s} {res.metrics[name]:14.6g} {unit}")
    for note in res.notes:
        print(note)
    print(f"attempted {res.attempted} failed {res.failed} "
          f"failed_frac {res.failed / res.attempted:.6g}")
    for reason in res.reasons[:20]:
        print(f"FAILED {reason}")
    print(f"digest {res.digest}")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": res.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
