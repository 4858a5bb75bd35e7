"""Set-up probe: a fresh interpreter runs a workload up to its first round.

Usage: probe.py WORKLOAD SEED OUT_DIR [--smoke]

Imports gossipsim, builds the workload's graphs (for fuzz_cw: the CLI
parses, validates and loads the graph) and starts the first run.  The
first call of a simulated round raises ``FirstRound``.  Prints one JSON
line: the monotonic clock at that moment and the seconds spent in
``fuzz_config``, which set-up time leaves out because every run pays it.
``run.py`` subtracts its own clock reading taken before it started this
process.
"""

import json
import sys
import time

import workloads
from gossipsim import harness, scheduler


class FirstRound(BaseException):
    """Stops the run; a BaseException so the benchmark's crash handling lets it through."""


def main() -> int:
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    smoke = "--smoke" in sys.argv[4:]
    fuzz_s = [0.0]

    def timed_fuzz_config(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                fuzz_s[0] += time.perf_counter() - t0
        return wrapper

    def first_round(*args, **kwargs):
        raise FirstRound(time.monotonic())

    if workload == "fuzz_cw":
        from gossipsim import cli

        cli.fuzz_config = timed_fuzz_config(cli.fuzz_config)
    harness.fuzz_config = timed_fuzz_config(harness.fuzz_config)
    harness.sync_round = first_round
    scheduler.async_step = first_round

    work = workloads.items(workload, seed, smoke)
    ctx = workloads.prepare(workload, work, seed, f"{out_dir}/probe-{workload}.jsonl")
    try:
        workloads.run_item(ctx, work[0])
    except FirstRound as stop:
        print(json.dumps({"first_round": stop.args[0], "fuzz_config_s": fuzz_s[0]}))
        return 0
    print("the first run ended without simulating a round", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
