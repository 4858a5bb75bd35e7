"""gossipsim benchmark: one command, three workloads, outputs checked.

Usage (from the repository root):

    python3 bench/run.py --workload fuzz_cw|cycle_large|async_gossip|all
                         [--seed N] [--seconds S] [--trace 0|1]

The program is run from ``src/`` of the checkout this file sits in.
Each workload's passes run in a fresh worker process (``worker.py``), so
its peak memory is its own; set-up time is the median of several fresh
interpreters (``probe.py``).  With ``--trace 0`` the last line of output
is a JSON object with the end-to-end metrics, with ``--trace 1`` one with
the per-layer metrics.  Lines before it name the output digest and every
run whose verdict fails.  Exit code 1 means an output check failed,
2 that the benchmark could not run.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("fuzz_cw", "cycle_large", "async_gossip")
PROBES = 9  # measured set-up probes, after one warm-up that fills the bytecode cache
TIME_LIMIT_S = 175.0  # one workload, probes included


class BenchError(Exception):
    pass


def _run(cmd: list[str], env: dict, timeout: float) -> dict:
    """Run a benchmark child to completion; return its last output line as JSON."""
    if timeout <= 0:
        raise BenchError(f"no time left for {cmd[1]}")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int, smoke: list[str], env: dict, deadline: float) -> float:
    """Median seconds from starting an interpreter to its first simulated round,
    ``fuzz_config`` excluded."""
    samples = []
    for probe in range(PROBES + 1):
        started = time.monotonic()
        out = _run([sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(OUT)] + smoke,
                   env, deadline - started)
        if probe:
            samples.append(out["first_round"] - started - out["fuzz_config_s"])
    return statistics.median(samples)


def run_workload(args, workload: str, env: dict) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + TIME_LIMIT_S
    smoke = ["--smoke"] if args.smoke else []
    setup = None if args.trace else setup_seconds(workload, args.seed, smoke, env, deadline)
    rep = _run([sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out-dir", str(OUT)] + smoke,
               env, deadline - time.monotonic())
    passes = len(rep["walls"]) if not args.trace else 3
    lines = [f"sim_digest {workload} seed={args.seed} {rep['digest']}",
             f"{workload}: {passes} passes of {rep['runs']} runs, pass walls "
             + " ".join(f"{w:.3f}" for w in rep["walls"]) + " s"]
    lines += [f"verdict_failed {workload} {label}" for label in rep["failed_labels"]]
    lines += [f"error {workload} {err}" for err in rep["errors"]]
    if args.trace:
        metrics = rep["per_layer"]
        metrics.update({
            "verdict.runs": {"value": rep["runs"], "unit": "count"},
            "verdict.failed_runs": {"value": rep["runs"] - rep["ok"], "unit": "count"},
            "verdict.failed_frac": {"value": 1 - rep["ok"] / rep["runs"], "unit": "ratio"},
            "sim.answer_rounds": {"value": rep["answer_rounds"], "unit": "count"},
        })
    else:
        # the fastest pass: interference from other work on the host only
        # ever slows a pass down
        wall = min(rep["walls"])
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "rounds_per_s": {"value": rep["answer_rounds"] / wall, "unit": "1/s"},
            "runs_per_s": {"value": rep["runs"] / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": rep["peak_rss_kb"] / 1024, "unit": "MB"},
            "ok_frac": {"value": rep["ok"] / rep["runs"], "unit": "ratio"},
        }
    result = {
        "correct": not rep["errors"],
        "attempted": rep["runs"] * passes,
        "failed": rep["crashed"] * passes,
        "metrics": metrics,
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum-size inputs, for the self-test")
    args = parser.parse_args()
    if not (SRC / "gossipsim" / "__init__.py").is_file():
        print(f"error: no gossipsim sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        try:
            result, lines = run_workload(args, workload, env)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines), flush=True)
        results[workload] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
