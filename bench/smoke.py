#!/usr/bin/env python3
"""Smoke check of the benchmark at tiny size.

Runs every workload named in BENCHMARK.json once untraced and once traced,
with the smallest inputs (``--tiny``), and exits 1 when a run fails, when its
last stdout line is not the result object, or when any metric BENCHMARK.json
names is missing, is not a number, or is printed with another unit.

    python3 bench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def problems_of(spec: dict, workload: str, trace: int) -> list[str]:
    argv = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{where}: last stdout line is not JSON"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return [f"{where}: result keys {sorted(result)}"]
    print(f"{where}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    out = []
    for metric in wanted:
        entry = got.get(metric["name"])
        if entry is None:
            out.append(f"{where}: metric {metric['name']} not printed")
        elif entry.get("unit") != metric["unit"]:
            out.append(f"{where}: {metric['name']} unit {entry.get('unit')!r}, "
                       f"expected {metric['unit']!r}")
        elif not isinstance(entry.get("value"), (int, float)):
            out.append(f"{where}: {metric['name']} value {entry.get('value')!r}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        out.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += problems_of(spec, workload["name"], trace)
    for p in problems:
        print("SMOKE FAILED:", p)
    print("smoke ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
