"""What the benchmark in ``bench/`` reads from the package.

The benchmark drives gossipsim from outside: its tracer replaces
functions at the names their callers bind and its hooks read fields of
their arguments and results (``CycleReport.records``,
``StepMeta.released``, the scheduler's ``_STEP_FNS``, ...).  One smoke
item per workload, plus one walk-enumerator item, run here under the
counting tracer, so a change to the package that drops something the
benchmark reads fails a test instead of a benchmark run.  The set-up
probe, which replaces the round functions at the names their callers
bind, runs once per workload in a fresh interpreter as the benchmark
starts it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gossipsim.model import PROGRAM_PATH_ENUM

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    return tracer, workloads


def test_every_hook_fires_and_no_item_fails(bench, tmp_path):
    tracer, workloads = bench
    picked = [(w, workloads.items(w, 1, True)[0]) for w in workloads.WORKLOADS]
    picked.append(("async_gossip", next(item for item in workloads.items("async_gossip", 1, True)
                                        if item[0] == PROGRAM_PATH_ENUM)))
    spans = tracer.Tracer(record_spans=False)
    outcomes = []
    spans.install()
    try:
        for workload, item in picked:
            ctx = workloads.prepare(workload, [item], 1, str(tmp_path / f"{workload}.jsonl"))
            outcomes.append(workloads.run_item(ctx, item))
    finally:
        spans.uninstall()
    for outcome in outcomes:
        assert outcome.results
        assert not [r.label for r in outcome.results if r.status.startswith("crash:")]
        assert outcome.errors == []
        if outcome.recheck is not None:
            assert workloads.recheck_cycle(*outcome.recheck) == []
    wanted = set(tracer.HOOKS) | {name for _, name in tracer.STEP_WRAPS}
    assert not [name for name in sorted(wanted) if not spans.calls[name]]


def test_probe_reaches_the_first_round(bench, tmp_path):
    _, workloads = bench
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload, "1",
                               str(tmp_path), "--smoke"], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, (workload, proc.stderr)
        assert "first_round" in json.loads(proc.stdout.splitlines()[-1]), workload
