"""Spans and counts around gossipsim's public functions, from outside.

``Tracer.install`` replaces each function in ``WRAPS`` at the name its
callers bind (a module attribute, or an entry of the scheduler's step
table) and ``uninstall`` puts the originals back.  Nothing in ``src/``
changes.

A span records name, parent, start and end; all spans of one benchmark
run share that run's id.  Spans stay in memory in flat arrays and are
written out by ``write_spans`` when the pass ends.  A span's self time is
its duration minus the time its child spans cover.

With ``record_spans=False`` the tracer only counts calls and runs the
``HOOKS``, which read the arguments and results of a call to count what
the call did (parks, useful merges, rejected moves, bytes kept per round).
The hooks run only in that mode, so their cost never enters a span.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from array import array
from collections import Counter

from gossipsim.model import PROGRAM_DFT, PROGRAM_FW_DFT, PROGRAM_PATH_ENUM

ROOT = "bench.run"

# (module, attribute, span name).  Both the CLI's bindings and the
# harness/scheduler bindings are wrapped: the CLI calls the former, the
# direct workloads and the harness's own loops call the latter.
WRAPS = (
    ("gossipsim.cli", "main", "cli.main"),
    ("gossipsim.cli", "build_ring", "topology.build"),
    ("gossipsim.cli", "build_grid", "topology.build"),
    ("gossipsim.cli", "random_connected_graph", "topology.build"),
    ("gossipsim.cli", "parse_graph", "topology.build"),
    ("gossipsim.topology", "build_ring", "topology.build"),
    ("gossipsim.topology", "build_grid", "topology.build"),
    ("gossipsim.topology", "random_connected_graph", "topology.build"),
    ("gossipsim.cli", "fuzz_config", "harness.fuzz_config"),
    ("gossipsim.harness", "fuzz_config", "harness.fuzz_config"),
    ("gossipsim.cli", "detect_cycle", "harness.detect_cycle"),
    ("gossipsim.harness", "detect_cycle", "harness.detect_cycle"),
    ("gossipsim.cli", "audit_move_bounds", "harness.audit_move_bounds"),
    ("gossipsim.harness", "audit_move_bounds", "harness.audit_move_bounds"),
    ("gossipsim.harness", "gossip_complete", "harness.gossip_complete"),
    ("gossipsim.harness", "state_key", "model.state_key"),
    ("gossipsim.harness", "sync_round", "scheduler.sync_round"),
    ("gossipsim.scheduler", "run", "scheduler.run"),
    ("gossipsim.scheduler", "async_step", "scheduler.async_step"),
    ("gossipsim.scheduler", "merge_gossip", "model.merge_gossip"),
    ("gossipsim.scheduler", "timeout_check_and_execute", "protocol_dft.timeout_check"),
    ("gossipsim.scheduler", "resolve_duplex", "scheduler.resolve_duplex"),
)

# the step functions the scheduler dispatches to through its step table
STEP_WRAPS = (
    (PROGRAM_DFT, "protocol_dft.dft_agent_step"),
    (PROGRAM_FW_DFT, "protocol_suite.fw_dft_step"),
    (PROGRAM_PATH_ENUM, "protocol_suite.anon_path_enum_step"),
)


def _merge_size(args) -> int:
    cfg, node = args[0], args[1]
    known = sum(len(a.known) for a in cfg.agents if a.pos == node)
    return known + len(cfg.boards[node].store)


def _merge_after(counts, args, result, before):
    # merges only add tokens, so a merge changed a known set or the store
    # exactly when the total size grew
    counts["model.merge_gossip.useful"] += _merge_size(args) > before


def _detect_before(args):
    tracemalloc.start()
    return None


def _detect_after(counts, args, rep, _):
    counts["harness.detect_cycle.peak_bytes"] += tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    rounds = rep.prefix_len + rep.period
    counts["harness.detect_cycle.states_stored"] += rounds if rep.period else rounds + 1
    counts["harness.detect_cycle.records_kept"] += len(rep.records)


def _timeout_after(counts, args, result, _):
    counts["protocol_dft.releases"] += sum(meta.released for _, meta in result)


def _dft_step_after(counts, args, result, _):
    meta = result[1]
    counts["protocol_dft.parks"] += meta.joined_waiting
    counts["protocol_dft.repairs"] += meta.repaired


def _anon_step_after(counts, args, result, _):
    counts["protocol_suite.cursor_resets"] += result[1].reset


def _duplex_after(counts, args, accepted, _):
    counts["scheduler.move_intents"] += len(accepted)
    counts["scheduler.moves_rejected"] += accepted.count(False)


# span name -> (before(args) -> state, after(counts, args, result, state))
HOOKS = {
    "model.merge_gossip": (_merge_size, _merge_after),
    "harness.detect_cycle": (_detect_before, _detect_after),
    "protocol_dft.timeout_check": (None, _timeout_after),
    "protocol_dft.dft_agent_step": (None, _dft_step_after),
    # fw_async_dft walks with protocol_dft's traversal, repair rule included
    "protocol_suite.fw_dft_step": (None, _dft_step_after),
    "protocol_suite.anon_path_enum_step": (None, _anon_step_after),
    "scheduler.resolve_duplex": (None, _duplex_after),
}


class Tracer:
    def __init__(self, record_spans: bool):
        self.record_spans = record_spans
        self.names: list[str] = []
        self.calls: Counter = Counter()  # span name -> calls
        self.counts: Counter = Counter()  # hook counters
        self.parent = array("q")
        self.name = array("q")
        self.run = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.run_id = -1
        self._saved: list[tuple] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        calls = self.calls
        if not self.record_spans:
            before, after = HOOKS.get(name, (None, None))
            counts = self.counts

            def counted(*args, **kwargs):
                calls[name] += 1
                state = before(args) if before else None
                result = fn(*args, **kwargs)
                if after:
                    after(counts, args, result, state)
                return result

            return counted

        ix = self._name_index(name)
        parent, names, runs = self.parent, self.name, self.run
        start, end, stack, clock = self.start, self.end, self.stack, time.perf_counter_ns

        def spanned(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(ix)
            runs.append(self.run_id)
            start.append(0)
            end.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
                calls[name] += 1

        return spanned

    def install(self) -> None:
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        table = importlib.import_module("gossipsim.scheduler")._STEP_FNS
        for program, name in STEP_WRAPS:
            self._saved.append((table, program, table[program]))
            table[program] = self.wrap(name, table[program])

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._saved.clear()

    def root(self, run_id: int, fn):
        """Run ``fn()`` as benchmark run ``run_id``, under one root span."""
        self.run_id = run_id
        if not self.record_spans:
            return fn()
        return self.wrap(ROOT, fn)()

    def self_times(self) -> tuple[dict[str, float], float]:
        """Per span name: self seconds.  Also the self seconds of all
        program spans inside benchmark runs (root spans excluded)."""
        n = len(self.start)
        child = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        per_name = [0] * len(self.names)
        in_runs = 0
        root_ix = self.names.index(ROOT) if ROOT in self.names else -1
        for sid in range(n):
            own = self.end[sid] - self.start[sid] - child[sid]
            ix = self.name[sid]
            per_name[ix] += own
            if self.run[sid] >= 0 and ix != root_ix:
                in_runs += own
        return {name: per_name[i] / 1e9 for i, name in enumerate(self.names)}, in_runs / 1e9

    def write_spans(self, path: str) -> None:
        """One line per span: run, span id, parent id, name, start and end in ns."""
        t_base = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.start)):
                fh.write(f"{self.run[sid]}\t{sid}\t{self.parent[sid]}\t"
                         f"{self.names[self.name[sid]]}\t{self.start[sid] - t_base}\t"
                         f"{self.end[sid] - t_base}\n")
