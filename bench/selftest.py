"""Self-test of the benchmark at minimum input size.

Usage (from the repository root): python3 bench/selftest.py

For every workload it checks that
- the untraced run prints every end-to-end metric of BENCHMARK.json, and
  the traced run every per-layer metric, each with its unit;
- the traced run's self times sum to its wall time, within
  ``trace.overhead_frac`` of the untraced wall time;
- two traced runs print the same digest and the same value for every
  count metric.
It also checks that the benchmark refuses to run, and prints no result,
in a directory that holds only BENCHMARK.json and the benchmark.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metrics(workload: str, trace: int, out: dict) -> list[str]:
    listed = SPEC["per_layer" if trace else "end_to_end"]
    problems = []
    if set(out) != {"correct", "attempted", "failed", "metrics"} or not out["correct"]:
        problems.append(f"{workload}: result {sorted(out)} correct={out.get('correct')}")
    for metric in listed:
        got = out["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append(f"{workload}: {metric['name']} printed as {got}, unit {metric['unit']}")
        elif not isinstance(got["value"], (int, float)):
            problems.append(f"{workload}: {metric['name']} value {got['value']!r} is not a number")
    extra = set(out["metrics"]) - {m["name"] for m in listed}
    if extra:
        problems.append(f"{workload}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def check_self_times(workload: str, m: dict) -> list[str]:
    value = {name: entry["value"] for name, entry in m.items()}
    untraced, traced = value["trace.untraced_wall_s"], value["trace.traced_wall_s"]
    slack = max(value["trace.overhead_frac"], 0.05) * untraced
    if abs(value["trace.self_sum_s"] - traced) > slack:
        return [f"{workload}: self times sum to {value['trace.self_sum_s']:.4f} s, traced wall "
                f"{traced:.4f} s, allowed difference {slack:.4f} s"]
    return []


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        code, lines = bench(ROOT, workload, 0)
        if code != 0:
            problems.append(f"{workload}: untraced run exited {code}")
            continue
        problems += check_metrics(workload, 0, json.loads(lines[-1]))
        traced = []
        for _ in range(2):
            code, lines = bench(ROOT, workload, 1)
            if code != 0:
                problems.append(f"{workload}: traced run exited {code}")
                break
            out = json.loads(lines[-1])
            problems += check_metrics(workload, 1, out)
            problems += check_self_times(workload, out["metrics"])
            digest = next(line for line in lines if line.startswith("sim_digest"))
            counts = {name: entry["value"] for name, entry in out["metrics"].items()
                      if entry["unit"] == "count"}
            traced.append((digest, counts))
        if len(traced) == 2 and traced[0] != traced[1]:
            problems.append(f"{workload}: digest or counts differ between traced runs")
        print(f"{workload}: checked", flush=True)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench(bare, WORKLOADS[0], 0)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"without sources the benchmark exited {code} and printed {lines}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
