"""Run one workload's passes in a fresh process and print one JSON line.

Started by ``run.py`` so that each workload's peak memory is its own.

Untraced (``--trace 0``): repeat the pass until ``--seconds`` have gone
by, at least twice; every repetition must give the same digest.  The
cycle_large runs of the last pass are re-checked afterwards.

Traced (``--trace 1``): one untraced pass, one pass with spans, and one
pass that only counts (with tracemalloc around ``detect_cycle``).  All
three must give the same digest and the two traced passes the same call
counts.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time
from pathlib import Path

import gossipsim
import workloads
from tracer import ROOT, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def run_pass(workload: str, work: list, seed: int, out_dir: Path, tracer: Tracer | None = None):
    """One pass over the workload's items: results, program seconds, errors, rechecks."""
    ctx = workloads.prepare(workload, work, seed, str(out_dir / f"{workload}.jsonl"))
    results, errors, rechecks = [], [], []
    seconds = 0.0
    for run_id, item in enumerate(work):
        call = functools.partial(workloads.run_item, ctx, item)
        try:
            outcome = tracer.root(run_id, call) if tracer else call()
        except Exception as exc:  # a crash fails the run and is reported, not raised
            label = "/".join(str(x) for x in item)
            results.append(workloads.Result(label, f"crash:{type(exc).__name__}",
                                            None, None, None, None, None, False, 0))
            continue
        seconds += outcome.seconds
        results.extend(outcome.results)
        errors.extend(outcome.errors)
        if outcome.recheck is not None:
            rechecks.append(outcome.recheck)
    return results, seconds, errors, rechecks


def summary(results) -> dict:
    return {
        "digest": workloads.digest(results),
        "runs": len(results),
        "ok": sum(r.ok for r in results),
        "crashed": sum(r.status.startswith("crash") for r in results),
        "answer_rounds": sum(r.answer_rounds for r in results),
        "failed_labels": [r.label for r in results if not r.ok],
    }


def untraced(args, work, out_dir: Path) -> dict:
    walls, errors = [], []
    first = None
    began = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - began < args.seconds:
        results, seconds, errs, rechecks = run_pass(args.workload, work, args.seed, out_dir)
        walls.append(seconds)
        errors.extend(errs)
        if first is None:
            first = summary(results)
        elif workloads.digest(results) != first["digest"]:
            errors.append(f"repetition {len(walls)}: digest {workloads.digest(results)} "
                          f"!= {first['digest']}")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for cfg, period, label in rechecks:
        errors.extend(workloads.recheck_cycle(cfg, period, label))
    # a deterministic defect repeats in every pass; report it once
    return {**first, "walls": walls, "peak_rss_kb": peak_kb, "errors": list(dict.fromkeys(errors))}


def per_layer(spans: Tracer, counts: Tracer, wall_u: float, wall_t: float) -> dict:
    self_s, self_sum = spans.self_times()
    calls, c = spans.calls, counts.counts

    def ratio(num, den):
        return num / den if den else 0.0

    state_key_s = self_s.get("model.state_key", 0.0)
    metrics = {
        "topology.graph_builds": (calls["topology.build"], "count"),
        "topology.build_s": (self_s.get("topology.build", 0.0), "s"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.self_s": (self_s.get("cli.main", 0.0), "s"),
        "harness.fuzz_config.calls": (calls["harness.fuzz_config"], "count"),
        "harness.fuzz_config_s": (self_s.get("harness.fuzz_config", 0.0), "s"),
        "harness.detect_cycle.calls": (calls["harness.detect_cycle"], "count"),
        "harness.detect_cycle_self_s": (self_s.get("harness.detect_cycle", 0.0), "s"),
        "harness.detect_cycle.states_stored": (c["harness.detect_cycle.states_stored"], "count"),
        "harness.detect_cycle.records_kept": (c["harness.detect_cycle.records_kept"], "count"),
        "harness.detect_cycle.bytes_per_round": (
            ratio(c["harness.detect_cycle.peak_bytes"], c["harness.detect_cycle.records_kept"]),
            "B"),
        "harness.audit_move_bounds.calls": (calls["harness.audit_move_bounds"], "count"),
        "harness.audit_move_bounds_s": (self_s.get("harness.audit_move_bounds", 0.0), "s"),
        "harness.gossip_complete.calls": (calls["harness.gossip_complete"], "count"),
        "harness.gossip_complete_s": (self_s.get("harness.gossip_complete", 0.0), "s"),
        "model.state_key.calls": (calls["model.state_key"], "count"),
        "model.state_key_s": (state_key_s, "s"),
        "model.state_key.us_per_call": (ratio(state_key_s * 1e6, calls["model.state_key"]), "us"),
        "model.merge_gossip.calls": (calls["model.merge_gossip"], "count"),
        "model.merge_gossip.useful": (c["model.merge_gossip.useful"], "count"),
        "model.merge_gossip_s": (self_s.get("model.merge_gossip", 0.0), "s"),
        "model.merge_gossip.useful_ratio": (
            ratio(c["model.merge_gossip.useful"], calls["model.merge_gossip"]), "ratio"),
        "protocol_dft.dft_agent_step.calls": (calls["protocol_dft.dft_agent_step"], "count"),
        "protocol_dft.dft_agent_step_s": (self_s.get("protocol_dft.dft_agent_step", 0.0), "s"),
        "protocol_dft.timeout_check.calls": (calls["protocol_dft.timeout_check"], "count"),
        "protocol_dft.timeout_check_s": (self_s.get("protocol_dft.timeout_check", 0.0), "s"),
        "protocol_dft.timeout_check.release_ratio": (
            ratio(c["protocol_dft.releases"], calls["protocol_dft.timeout_check"]), "ratio"),
        "protocol_dft.parks": (c["protocol_dft.parks"], "count"),
        "protocol_dft.releases": (c["protocol_dft.releases"], "count"),
        "protocol_dft.repairs": (c["protocol_dft.repairs"], "count"),
        "protocol_suite.fw_dft_step.calls": (calls["protocol_suite.fw_dft_step"], "count"),
        "protocol_suite.fw_dft_step_s": (self_s.get("protocol_suite.fw_dft_step", 0.0), "s"),
        "protocol_suite.anon_path_enum_step.calls": (
            calls["protocol_suite.anon_path_enum_step"], "count"),
        "protocol_suite.anon_path_enum_step_s": (
            self_s.get("protocol_suite.anon_path_enum_step", 0.0), "s"),
        "protocol_suite.cursor_resets": (c["protocol_suite.cursor_resets"], "count"),
        "scheduler.sync_round.calls": (calls["scheduler.sync_round"], "count"),
        "scheduler.sync_round_self_s": (self_s.get("scheduler.sync_round", 0.0), "s"),
        "scheduler.resolve_duplex.calls": (calls["scheduler.resolve_duplex"], "count"),
        "scheduler.resolve_duplex_s": (self_s.get("scheduler.resolve_duplex", 0.0), "s"),
        "scheduler.move_intents": (c["scheduler.move_intents"], "count"),
        "scheduler.moves_rejected": (c["scheduler.moves_rejected"], "count"),
        "scheduler.moves_rejected_ratio": (
            ratio(c["scheduler.moves_rejected"], c["scheduler.move_intents"]), "ratio"),
        "scheduler.async_step.calls": (calls["scheduler.async_step"], "count"),
        "scheduler.async_step_self_s": (self_s.get("scheduler.async_step", 0.0), "s"),
        "scheduler.run.calls": (calls["scheduler.run"], "count"),
        "scheduler.run_self_s": (self_s.get("scheduler.run", 0.0), "s"),
        "trace.spans": (len(spans.start), "count"),
        "trace.untraced_wall_s": (wall_u, "s"),
        "trace.traced_wall_s": (wall_t, "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.overhead_frac": (wall_t / wall_u - 1.0, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def traced(args, work, out_dir: Path) -> dict:
    results_u, wall_u, errors, _ = run_pass(args.workload, work, args.seed, out_dir)
    base = summary(results_u)
    passes = {}
    for mode in ("spans", "counts"):
        tracer = Tracer(record_spans=mode == "spans")
        tracer.install()
        try:
            results, wall, errs, _ = run_pass(args.workload, work, args.seed, out_dir, tracer)
        finally:
            tracer.uninstall()
        errors.extend(errs)
        if workloads.digest(results) != base["digest"]:
            errors.append(f"{mode} pass: digest {workloads.digest(results)} != {base['digest']}")
        passes[mode] = (tracer, wall)
    spans, wall_t = passes["spans"]
    counts = passes["counts"][0]
    span_calls = {k: v for k, v in spans.calls.items() if k != ROOT}
    if span_calls != dict(counts.calls):
        errors.append(f"call counts differ between traced passes: {span_calls} != {dict(counts.calls)}")
    spans.write_spans(str(out_dir / f"spans-{args.workload}.tsv"))
    return {**base, "walls": [wall_u], "errors": list(dict.fromkeys(errors)),
            "per_layer": per_layer(spans, counts, wall_u, wall_t)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    if Path(gossipsim.__file__).resolve().parent.parent != SRC:
        print(f"gossipsim imported from {gossipsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    work = workloads.items(args.workload, args.seed, args.smoke)
    report = traced(args, work, out_dir) if args.trace else untraced(args, work, out_dir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
