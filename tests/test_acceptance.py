"""Acceptance gate: the ten headline properties, one pass/fail line each.

Campaign scale is deliberately small (desk scale): exact claims are
checked exactly, statistical ones over fixed seed ranges.  Two checks
(steady-state traversal period and the per-traversal move bounds) state
idealized tree-shaped quantities that the next-port traversal does not
achieve on graphs with cycles; they are asserted as stated and are
expected to fail.  See the project decision notes outside this package.
"""

import time

import pytest

from gossipsim.cli import main
from gossipsim.harness import (
    CYCLE,
    FuzzSpec,
    audit_move_bounds,
    detect_cycle,
    fuzz_config,
    gossip_complete,
    witness_mirror,
    witness_symmetry,
    CLEAN_SPEC,
)
from gossipsim import scheduler
from gossipsim.model import CW, FW, NW, PROGRAM_DFT, snapshot_hash, state_key
from gossipsim.scheduler import (
    ASYNC_RANDOM_FAIR,
    FULL,
    HALF,
    SchedulePolicy,
    run,
)
from gossipsim.topology import build_grid, build_ring, random_connected_graph
from test_harness import flip_steps

CORPUS = [build_ring(6)] + [
    random_connected_graph(6 + s % 3, 2, seed=s) for s in range(10)
]
SEEDS = range(100)


def verdict(num, name, ok, detail=""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _diameter(graph) -> int:
    """The largest hop distance between two nodes: a BFS from every node."""
    widest = 0
    for start in range(graph.node_count):
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u, _ in graph.adjacency[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        widest = max(widest, max(dist.values()))
    return widest


def _cycle_gaps(flips, prefix, period):
    """Cyclic gaps between the mover's flip rounds inside the cycle."""
    inside = [s for s in flips if prefix <= s < prefix + period]
    if not inside:
        return None
    gaps = [b - a for a, b in zip(inside, inside[1:])]
    gaps.append(inside[0] + period - inside[-1])
    return gaps


def _run_corpus(board_class):
    runs = []
    for graph in CORPUS:
        m = graph.edge_count
        for duplex in (HALF, FULL):
            for seed in SEEDS:
                cfg = fuzz_config(graph, 3, FuzzSpec(), seed, board_class=board_class)
                idents = [a.ident for a in cfg.agents]
                rep = detect_cycle(cfg, duplex)
                audit = audit_move_bounds(rep.records, graph)
                movers = rep.movers
                mover_ok = (
                    rep.status == CYCLE
                    and len(movers) == 1
                    and idents[movers[0]] == min(idents)
                )
                gaps = (
                    _cycle_gaps(flip_steps(rep.records, cfg.k)[movers[0]], rep.prefix_len, rep.period)
                    if len(movers) == 1
                    else None
                )
                runs.append(
                    {
                        "m": m,
                        "n": graph.node_count,
                        "status": rep.status,
                        "quiescent": len(rep.quiescent),
                        "mover_ok": mover_ok,
                        "prefix": rep.prefix_len,
                        "period": rep.period,
                        "gaps": gaps,
                        "releases": rep.releases_in_cycle,
                        "gossip_step": rep.gossip_step,
                        "gossip_now": gossip_complete(cfg),
                        "violations": len(audit.violations),
                        "fwd_max": audit.fwd_max,
                        "back_max": audit.back_max,
                    }
                )
    return runs


@pytest.fixture(scope="module")
def campaign():
    t0 = time.perf_counter()
    runs = _run_corpus(CW)
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def campaign_fw():
    return _run_corpus(FW)


def test_criterion_01_quiescence(campaign):
    runs = campaign["runs"]
    bad = [
        r for r in runs
        if r["status"] != CYCLE or r["quiescent"] != 2 or not r["mover_ok"]
    ]
    in_time = campaign["elapsed"] < 60.0
    verdict(
        1,
        "(k-1)-quiescence with the minimum id as sole mover",
        not bad and in_time,
        f"{len(runs) - len(bad)}/{len(runs)} runs, {campaign['elapsed']:.1f}s",
    )


def test_criterion_02_steady_period(campaign):
    bad = 0
    sample = None
    for r in campaign["runs"]:
        gaps_ok = r["gaps"] is not None and all(g == 2 * r["m"] for g in r["gaps"])
        period_ok = any(
            (2 * r["m"] * c) % r["period"] == 0 for c in range(1, 17)
        ) if r["period"] else False
        if not (gaps_ok and period_ok):
            bad += 1
            if sample is None and r["gaps"]:
                sample = (r["m"], r["gaps"][:4])
    verdict(
        2,
        "root-completion events exactly 2m rounds apart",
        bad == 0,
        f"{bad} nonconforming runs, e.g. m={sample[0]} gaps={sample[1]}" if sample else "",
    )


def test_criterion_03_gossip_on_fw(campaign_fw):
    bad = [
        r for r in campaign_fw
        if r["gossip_step"] is None
        or r["gossip_step"] > r["prefix"] + r["period"]
        or not r["gossip_now"]
    ]
    verdict(
        3,
        "FW gossip complete within two post-convergence traversals, and stays",
        not bad,
        f"{len(campaign_fw) - len(bad)}/{len(campaign_fw)} runs",
    )


def test_criterion_04_move_bounds(campaign, campaign_fw):
    runs = campaign["runs"] + campaign_fw
    total = sum(r["violations"] for r in runs)
    fwd = max(r["fwd_max"] for r in runs)
    back = max(r["back_max"] for r in runs)
    verdict(
        4,
        "per-traversal moves within m forward / n backtracking",
        total == 0,
        f"{total} violations, observed fwd_max={fwd}, back_max={back}",
    )


def test_criterion_05_timer_silence(campaign):
    noisy = [r for r in campaign["runs"] if r["releases"] != 0]
    verdict(
        5,
        "zero timeout releases inside every converged cycle",
        not noisy,
        f"{len(noisy)} runs with in-cycle releases",
    )


def test_criterion_06_fw_async_gossip():
    total = met = 0
    for n in (4, 5, 6):
        graph = build_ring(n)
        for k in (2, 3):
            budget = 50 * graph.edge_count * k
            for seed in SEEDS:
                cfg = fuzz_config(
                    graph, k, FuzzSpec(), seed,
                    board_class=FW, program="fw_async_dft",
                )
                policy = SchedulePolicy(kind=ASYNC_RANDOM_FAIR, seed=seed)
                trace = run(cfg, policy, stop=gossip_complete, max_steps=budget)
                total += 1
                met += trace.status == "met"
    verdict(6, "non-quiescing FW gossip within 50*m*k async steps",
            met == total, f"{met}/{total} seeds")


def _walk_coverage(graph, home, depth):
    """Brute force: every node touched by some walk of length <= depth."""
    seen = {home}

    def descend(v, d):
        if d == 0:
            return
        for a in range(graph.degree(v)):
            u, _ = graph.neighbor(v, a)
            seen.add(u)
            descend(u, d - 1)

    descend(home, depth)
    return seen


class _CoverageMonitor:
    """Judge each walker's node coverage at the end of phase diameter.

    Phase completion is the cursor length stepping from diam to diam+1;
    a garbage cursor that merely reads diam before resetting does not
    count.  Tracking starts at the first sighting of an at-home cursor
    (length 1, no labels), which fixes the walk origin.
    """

    def __init__(self, graph, k):
        self.graph = graph
        self.diam = _diameter(graph)
        self.state = {
            i: {"home": None, "prev": None, "visited": set(), "ok": None}
            for i in range(k)
        }

    def __call__(self, cfg, rec):
        (idx,) = rec.acting
        agent = cfg.agents[idx]
        st = self.state[idx]
        ln = agent.cursor.length
        labels = agent.cursor.labels
        if st["home"] is None and ln == 1:
            if not labels:
                st["home"] = agent.pos
            elif len(labels) == 1 and rec.moves:
                # first activation descended immediately; the origin is
                # where that move started
                st["home"] = rec.moves[0].frm
                st["visited"].add(st["home"])
        if st["home"] is not None:
            st["visited"].add(agent.pos)
            if st["ok"] is None and st["prev"] == self.diam and ln == self.diam + 1:
                expected = _walk_coverage(self.graph, st["home"], self.diam)
                st["ok"] = expected <= st["visited"]
        st["prev"] = ln

    def all_judged(self):
        return all(st["ok"] is not None for st in self.state.values())

    def all_ok(self):
        return all(st["ok"] for st in self.state.values())


def test_criterion_07_anonymous_enumeration():
    graphs = [build_ring(3), build_ring(4), build_ring(5), build_grid(2, 3)]
    total = good = 0
    for graph in graphs:
        budget = 400 * graph.edge_count
        for seed in SEEDS:
            cfg = fuzz_config(
                graph, 2, FuzzSpec(), seed,
                board_class=FW, program="anon_path_enum",
            )
            monitor = _CoverageMonitor(graph, 2)
            policy = SchedulePolicy(kind=ASYNC_RANDOM_FAIR, seed=seed)
            trace = run(
                cfg, policy,
                stop=lambda c: gossip_complete(c) and monitor.all_judged(),
                max_steps=budget, observer=monitor,
            )
            total += 1
            good += trace.status == "met" and monitor.all_ok()
    verdict(7, "phase-diameter coverage and anonymous gossip within budget",
            good == total, f"{good}/{total} seeds")


def test_criterion_08_symmetry_witness():
    reports = [
        witness_symmetry(6, k, cls) for k in (2, 3) for cls in (CW, NW)
    ]
    ok = all(r.ok for r in reports)
    verdict(8, "symmetric ring: no meetings, gossip never completes",
            ok, f"meetings={[r.meetings for r in reports]}")


def test_criterion_09_mirror_witness():
    rep = witness_mirror(build_ring(4), 2, seed=0)
    verdict(
        9,
        "mirrored network: frozen run indistinguishable, control completes",
        rep.ok,
        f"frozen_period={rep.frozen_period}, control_step={rep.control_gossip_step}",
    )


def test_criterion_10_determinism(tmp_path, monkeypatch):
    ok = True
    notes = []

    # hand-executed two-node trace, frozen from the step rules: two first
    # visits, a bounce, and a repair flip every third round thereafter;
    # the lone agent moves every round, so its steps' branches line up
    # with its moves
    branches = []
    step = scheduler._STEP_FNS[PROGRAM_DFT]

    def branching(c, idx):
        intent, meta = step(c, idx)
        branches.append(meta.branch)
        return intent, meta

    monkeypatch.setitem(scheduler._STEP_FNS, PROGRAM_DFT, branching)
    cfg = fuzz_config(build_ring(2), 1, CLEAN_SPEC, seed=0)
    rep = detect_cycle(cfg)
    moves = [mv for rec in rep.records for mv in rec.moves]
    expected = [
        ("first_visit", False), ("first_visit", False), ("pass_through", False),
        ("first_visit", True), ("first_visit", False), ("pass_through", False),
        ("first_visit", True), ("first_visit", False),
    ]
    trace_ok = (
        (rep.prefix_len, rep.period) == (8, 6)
        and [(b, mv.flipped) for b, mv in zip(branches[:8], moves[:8])] == expected
        and [mv.to for mv in moves[:4]] == [1, 0, 1, 0]
    )
    ok &= trace_ok
    notes.append(f"hand trace {'ok' if trace_ok else 'MISMATCH'}")

    # byte reproducibility of state snapshots over identical replays
    snaps = []
    for _ in range(2):
        cfg = fuzz_config(build_ring(6), 3, FuzzSpec(), seed=42)
        rep = detect_cycle(cfg)
        snaps.append((state_key(cfg), snapshot_hash(cfg), rep.prefix_len, rep.period))
    replay_ok = snaps[0] == snaps[1]
    ok &= replay_ok
    notes.append(f"replay {'ok' if replay_ok else 'DIVERGED'}")

    # byte-identical CLI artifacts from identical invocations
    blobs = []
    for name in ("a", "b"):
        report = tmp_path / f"{name}.json"
        trace = tmp_path / f"{name}.jsonl"
        code = main(["run", "--graph", "ring:5", "--k", "2", "--fuzz",
                     "--seed", "9", "--report", str(report), "--trace", str(trace)])
        blobs.append((code, report.read_bytes(), trace.read_bytes()))
    cli_ok = blobs[0] == blobs[1] and blobs[0][0] == 0
    ok &= cli_ok
    notes.append(f"cli artifacts {'ok' if cli_ok else 'DIVERGED'}")

    verdict(10, "oracle traces and byte-reproducible runs", ok, ", ".join(notes))
