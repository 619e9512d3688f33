#!/usr/bin/env python3
"""Benchmark of transjump: three workloads run through ``transjump.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload toy-coverage --seed 1 --seconds 30 --trace 0

Workloads: toy-coverage, scenario2-run, spam-probit-run (see bench/README.md).
The run repeats whole rounds of the workload's commands until the next round
would end after ``--seconds``. Diagnostics go to stderr; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones. With
``--trace 1`` every second round runs with every layer probed, the metrics are
the per-layer ones, and the tracing overhead compares the probed rounds' wall
time with the others'.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread: within the 2-core limit, and steadier than one per core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "out"
IMPORT_PROBES = 3


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import transjump.cli"], env=env,
                       cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(values, scale):
    """Median and the highest percentile with ten samples beyond it (n >= 40)."""
    import numpy as np

    v = np.asarray(values) * scale
    text = f"n={v.size} p50={np.median(v):.4g}"
    if v.size >= 40:
        q = 100.0 * (1.0 - 10.0 / v.size)
        text += f" p{q:.0f}={np.percentile(v, q):.4g}"
    return text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["toy-coverage", "scenario2-run", "spam-probit-run"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke check only")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "transjump" / "cli.py").is_file():
        print(f"transjump sources not found under {SRC}", file=sys.stderr)
        return 2

    import_s = import_seconds()
    sys.path.insert(0, str(SRC))
    import transjump
    from probes import Probes, layer_metrics
    from workloads import WORKLOADS

    if Path(transjump.__file__).resolve().parent != SRC / "transjump":
        print(f"imported transjump from {transjump.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(f"blas threads {BLAS_THREADS} (OPENBLAS/OMP/MKL_NUM_THREADS); "
          f"import probe median {import_s:.3f} s", file=sys.stderr)

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed, args.tiny)
        light, full = Probes(), Probes()
        light.install(full=False)
        rounds = []  # (Round, command wall seconds, traced, round seconds)
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            if traced:
                light.uninstall()
                full.install(full=True)
            t0 = time.perf_counter()
            rnd, wall = workload.run_round(full if traced else light, len(rounds))
            rounds.append((rnd, wall, traced, time.perf_counter() - t0))
            if traced:
                full.uninstall()
                light.install(full=False)
            elapsed = time.perf_counter() - start
            typical = statistics.median(r[3] for r in rounds)
            if len(rounds) >= 1 + args.trace and elapsed + typical > args.seconds:
                break
        light.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r[0].attempted for r in rounds)
    failed = sum(r[0].failed for r in rounds)
    checks = [c for r in rounds for c in r[0].checks]
    for name, ok, detail in checks:
        if not ok:
            print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr)
    correct = all(ok for _, ok, _ in checks)

    if args.trace:
        walls = {t: [r[1] for r in rounds if r[2] == t] for t in (False, True)}
        overhead = 100.0 * (statistics.median(walls[True]) / statistics.median(walls[False]) - 1)
        metrics = layer_metrics(full, len(walls[True]), overhead)
        print(f"rounds {len(walls[False])} plain, {len(walls[True])} traced; "
              f"tracing overhead {overhead:.1f}%", file=sys.stderr)
    else:
        setups = [s for r in rounds for s in r[0].setups]
        rates = [steps / secs for _, steps, secs, _ in light.chains]
        cis = light.durations["uq.simultaneous_cis"]
        walls = [r[1] for r in rounds]
        values = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "chain_steps_per_s": (statistics.median(rates), "steps/s"),
            "ci_ms": (statistics.median(cis) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
        print(f"rounds {len(rounds)}; setup after import {tail(setups, 1)} s; "
              f"wall {tail(walls, 1)} s; chain rate {tail(rates, 1)} steps/s; "
              f"ci {tail(cis, 1e3)} ms", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
