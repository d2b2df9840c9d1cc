#!/usr/bin/env python3
"""Smoke test of the benchmark, run from anywhere:

    python3 bench/smoke.py

Every workload in BENCHMARK.json runs one short untraced pass and the traced
suite runs once; each must exit 0, pass its checks and emit exactly the
metrics BENCHMARK.json names, with their units.  A copy of the benchmark
without the library beside it must exit non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7


def run(spec, cwd, workload, trace):
    return subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(SEED),
                           "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_result(spec, workload, trace, done) -> list[str]:
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stdout[-1500:]}{done.stderr[-1500:]}"]
    result = last_json(done.stdout)
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{where}: last line is not the result object"]
    errors = []
    if result["correct"] is not True or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        wrong_units = sorted(k for k in got if k in wanted and got[k] != wanted[k])
        errors.append(f"{where}: missing {sorted(set(wanted) - set(got))}, "
                      f"unexpected {sorted(set(got) - set(wanted))}, "
                      f"unit mismatches {wrong_units}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        errors.append(f"{where}: a metric value is not a number")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    errors = []
    for workload, trace in [(w, 0) for w in workloads] + [(workloads[0], 1)]:
        errors += check_result(spec, workload, trace, run(spec, ROOT, workload, trace))
        print(f"ran {workload} --trace {trace}", flush=True)

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run(spec, bare, workloads[0], 0)
        if done.returncode == 0 or last_json(done.stdout) is not None:
            errors.append("without the library the benchmark must exit non-zero "
                          "and print no result")
    for error in errors:
        print(f"FAIL: {error}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
