from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from gossipsim import harness, model, scheduler
from gossipsim.harness import (
    BUDGET,
    CLEAN_SPEC,
    CLUSTERED,
    CYCLE,
    FuzzSpec,
    HarnessError,
    audit_move_bounds,
    _park_for_good,
    default_cycle_budget,
    detect_cycle,
    fuzz_config,
    gossip_complete,
    quiescence_holds,
    witness_mirror,
    witness_symmetry,
)
from gossipsim.model import (
    Agent,
    CW,
    FW,
    NW,
    Fingerprint,
    PROGRAM_FW_DFT,
    PROGRAM_PATH_ENUM,
    PathCursor,
    Token,
    fingerprint,
    make_configuration,
    state_key,
    timer,
)
from gossipsim.protocol_dft import BACKTRACK, FORWARD, MoveIntent
from gossipsim.scheduler import (
    ASYNC_RANDOM_FAIR,
    FULL,
    HALF,
    RoundIndex,
    SchedulePolicy,
    StepRecord,
    sync_round,
)
from gossipsim.topology import build_grid, build_ring, random_connected_graph
from test_model import check_rows


class TestFuzzConfig:
    def test_deterministic(self):
        g = build_ring(5)
        a = fuzz_config(g, 3, FuzzSpec(), seed=11)
        b = fuzz_config(g, 3, FuzzSpec(), seed=11)
        assert state_key(a) == state_key(b)
        assert state_key(a) != state_key(fuzz_config(g, 3, FuzzSpec(), seed=12))

    def test_clean_spec_yields_clean_boards(self):
        g = build_ring(5)
        cfg = fuzz_config(g, 2, CLEAN_SPEC, seed=0)
        for board in cfg.boards:
            assert board.t_table == {} and board.in_link == {} and board.out_link == {}
            assert board.waiting == set()
            assert timer(cfg, board) == 0 and board.wait_t == 0
            assert board.min_id == CLEAN_SPEC.id_high + 1
        assert all(a.t_bit is False for a in cfg.agents)
        assert all(len(a.known) == 1 for a in cfg.agents)

    def test_fake_ids_appear(self):
        g = build_ring(4)
        spec = FuzzSpec(fake_id_rate=1.0)
        hits = 0
        for seed in range(20):
            cfg = fuzz_config(g, 2, spec, seed=seed)
            low = min(a.ident for a in cfg.agents)
            hits += any(b.min_id < low for b in cfg.boards)
        assert hits > 0

    def test_live_ids_distinct_and_sorted_domain(self):
        g = build_ring(4)
        for seed in range(10):
            cfg = fuzz_config(g, 3, FuzzSpec(id_low=5, id_high=9), seed=seed)
            ids = [a.ident for a in cfg.agents]
            assert len(set(ids)) == 3
            assert all(5 <= i <= 9 for i in ids)

    def test_clustered_placement(self):
        g = build_ring(6)
        cfg = fuzz_config(g, 3, replace(FuzzSpec(), placement=CLUSTERED), seed=4)
        assert len({a.pos for a in cfg.agents}) == 1

    def test_unknown_placement_refused(self):
        with pytest.raises(HarnessError, match="unknown placement 'ring'"):
            fuzz_config(build_ring(4), 2, FuzzSpec(placement="ring"), seed=0)

    def test_nw_boards_stay_empty(self):
        g = build_ring(4)
        cfg = fuzz_config(g, 2, FuzzSpec(), seed=3, board_class=NW)
        assert all(b.t_table == {} and b.waiting == set() for b in cfg.boards)

    def test_id_domain_smaller_than_k_refused(self):
        spec = FuzzSpec(id_low=5, id_high=9)
        with pytest.raises(HarnessError) as err:
            fuzz_config(build_ring(4), 6, spec, seed=0)
        assert str(err.value) == "k=6 needs 6 distinct ids, but ids run from 5 to 9"
        # anonymous walkers draw no ids
        assert fuzz_config(build_ring(4), 6, spec, seed=0, program=PROGRAM_PATH_ENUM).k == 6

    def test_anonymous_walkers(self):
        g = build_ring(4)
        cfg = fuzz_config(g, 2, FuzzSpec(), seed=3, board_class=FW,
                          program="anon_path_enum")
        assert all(a.ident is None for a in cfg.agents)
        # each walker starts fresh or with a trail its labels cannot explain
        assert all(a.cursor == PathCursor() or len(a.cursor.trail) != len(a.cursor.labels)
                   for a in cfg.agents)


class TestGossipComplete:
    def test_single_agent_trivially_done(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=1, pos=0)], CW)
        assert gossip_complete(cfg)

    def test_two_separated_agents_not_done(self):
        g = build_ring(4)
        cfg = make_configuration(g, [Agent(ident=1, pos=0), Agent(ident=2, pos=2)], CW)
        assert not gossip_complete(cfg)
        cfg.agents[0].known |= cfg.agents[1].known
        cfg.agents[1].known |= cfg.agents[0].known
        assert gossip_complete(cfg)

    def test_garbage_tokens_ignored(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=1, pos=0)], CW)
        cfg.agents[0].known = cfg.agents[0].known | {("not", "genuine")}
        assert gossip_complete(cfg)

    @given(st.data(), st.integers(0, 4))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_equals_literal_subset_check(self, data, k):
        # starts with no agents, empty known sets, partial ones and ghost tokens
        agents = [Agent(ident=i + 1, pos=i % 3) for i in range(k)]
        cfg = make_configuration(build_ring(3), agents, CW)
        tokens = list(cfg.genuine.values())
        for agent in cfg.agents:
            agent.known = data.draw(st.sets(st.sampled_from(tokens)))
            agent.known.update(Token(f"ghost{g}", "junk")
                               for g in data.draw(st.lists(st.integers(0, 3), max_size=2)))
        literal = all(set(cfg.genuine.values()) <= a.known for a in cfg.agents)
        assert gossip_complete(cfg) == literal


class TestDetectCycle:
    def test_zero_agents_settle_to_fixed_point(self):
        g = build_ring(3)
        cfg = make_configuration(g, [], CW)
        report = detect_cycle(cfg)
        assert report.status == CYCLE
        # nothing changes once every timer saturates
        assert report.period == 1
        assert report.prefix_len == cfg.timer_cap

    def test_single_agent_ring4_period(self):
        g = build_ring(4)
        cfg = fuzz_config(g, 1, CLEAN_SPEC, seed=0)
        report = detect_cycle(cfg)
        assert report.status == CYCLE
        # simulated oracle: the full tour takes 10 rounds and the
        # traversal bit alternates, so the configuration period is 20
        assert report.period == 20
        assert report.quiescent == ()
        assert report.mover_visits[0] == frozenset(range(4))
        assert report.gossip_step == 0

    def test_budget_exhaustion_reported(self):
        g = build_ring(6)
        cfg = fuzz_config(g, 2, FuzzSpec(), seed=1)
        report = detect_cycle(cfg, budget=3)
        assert report.status == BUDGET and report.period == 0

    def test_fuzzed_three_agents_quiesce_to_minimum(self):
        g = build_ring(6)
        cfg = fuzz_config(g, 3, FuzzSpec(), seed=7)
        idents = [a.ident for a in cfg.agents]
        report = detect_cycle(cfg)
        assert report.status == CYCLE
        assert len(report.quiescent) == 2
        (mover,) = report.movers
        assert idents[mover] == min(idents)
        assert report.gossip_step is not None

    def test_default_budget_formula(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=1, pos=0)], CW)
        assert default_cycle_budget(cfg) == min(3 * cfg.timer_cap * 4, 200_000)


def reference_detect(cfg, duplex=HALF, *, budget=None):
    """Cycle detection that keeps every full state key as a dict key."""
    limit = budget if budget is not None else default_cycle_budget(cfg)
    seen = {}
    positions, records = [], []
    gossip_step = None
    step = 0
    while True:
        key = state_key(cfg)
        if key in seen:
            break
        seen[key] = step
        positions.append([a.pos for a in cfg.agents])
        if gossip_step is None and gossip_complete(cfg):
            gossip_step = step
        if step >= limit:
            return (BUDGET, step, 0, (), (), {}, gossip_step, 0, flip_steps(records, cfg.k))
        records.append(sync_round(cfg, duplex))
        step += 1
    prefix = seen[key]
    period = step - prefix
    visits = [{p[i] for p in positions[prefix:]} for i in range(cfg.k)]
    quiescent = tuple(i for i in range(cfg.k) if len(visits[i]) == 1)
    movers = tuple(i for i in range(cfg.k) if len(visits[i]) > 1)
    cycle = records[prefix:]
    return (CYCLE, prefix, period, quiescent, movers,
            {i: frozenset(v) for i, v in enumerate(visits)}, gossip_step,
            sum(len(r.releases) for r in cycle), flip_steps(records, cfg.k))


def flip_steps(records, k):
    """Per agent index below ``k``: the steps of its moves, accepted or
    not, that flip its traversal bit."""
    return {i: tuple(step for step, r in enumerate(records) for mv in r.moves
                     if mv.agent == i and mv.flipped)
            for i in range(k)}


def summary(rep, k):
    return (rep.status, rep.prefix_len, rep.period, rep.quiescent, rep.movers,
            rep.mover_visits, rep.gossip_step, rep.releases_in_cycle, flip_steps(rep.records, k))


def symmetric_walkers(board_class=CW):
    # witness_symmetry(4, 2, board_class)'s start
    agents = [Agent(ident=None, pos=j * 2) for j in range(2)]
    return make_configuration(build_ring(4), agents, board_class, program=PROGRAM_PATH_ENUM)


def seed_246():
    return fuzz_config(random_connected_graph(7, 2, seed=3), 3, FuzzSpec(), 246)


def parked(cfg):
    """``cfg`` with every agent parked for good, as the mirror witness's
    all-stop start."""
    _park_for_good(cfg)
    return cfg


# name -> (start, duplex, budget); each call makes a fresh start
EXACTNESS_CASES = {
    "ring:2 k=1": (lambda: fuzz_config(build_ring(2), 1, CLEAN_SPEC, 0), HALF, None),
    "ring:2 k=2": (lambda: fuzz_config(build_ring(2), 2, CLEAN_SPEC, 0), HALF, None),
    "random:7:2:3 seed 246 half": (seed_246, HALF, None),
    "random:7:2:3 seed 246 full": (seed_246, FULL, None),
    # counterexample A: two movers and in-cycle releases
    "clean random:3:99": (
        lambda: fuzz_config(random_connected_graph(3, 99, seed=0), 2, CLEAN_SPEC, 0), HALF, None),
    "grid:3x3 budget 40": (lambda: fuzz_config(build_grid(3, 3), 3, FuzzSpec(), 0), HALF, 40),
    "grid:3x3 FW": (
        lambda: fuzz_config(build_grid(3, 3), 3, FuzzSpec(), 0, board_class=FW), HALF, None),
    "symmetry witness": (symmetric_walkers, HALF, None),
    "symmetry witness NW": (lambda: symmetric_walkers(NW), HALF, None),
    # every agent parked for good
    "frozen": (lambda: parked(fuzz_config(build_ring(4), 2, FuzzSpec(), 5)), HALF, None),
    # control states recur across merges that grow gossip sets
    "ring:3 k=3 grows": (lambda: fuzz_config(build_ring(3), 3, FuzzSpec(), 0), HALF, None),
    "ring:3 k=4 FW grows": (
        lambda: fuzz_config(build_ring(3), 4, FuzzSpec(), 0, board_class=FW), HALF, None),
}


class ConstantFingerprint:
    """A stand-in for Fingerprint whose value never changes, so every
    step's fingerprint collides with every earlier step's."""

    def __init__(self, cfg):
        pass

    def update(self, boards=(), agents=()):
        return 0


class TestDetectCycleExactness:
    """The fingerprint-indexed detector answers exactly like one keeping
    every key, also when the fingerprint sees the timers only and when it
    never changes: a repeat is confirmed by fresh state keys only."""

    @pytest.fixture(params=["hash", "constant", "constant cache"])
    def collide(self, request, monkeypatch):
        if request.param == "constant":
            # shadow the builtin in the model module: the agent and board
            # terms of every fingerprint are 0, only the timers count
            monkeypatch.setattr(model, "hash", lambda key: 0, raising=False)
        elif request.param == "constant cache":
            monkeypatch.setattr(harness, "Fingerprint", ConstantFingerprint)
        return request.param

    @pytest.mark.parametrize("case", sorted(EXACTNESS_CASES))
    def test_matches_reference(self, case, collide):
        make, duplex, budget = EXACTNESS_CASES[case]
        want = reference_detect(make(), duplex, budget=budget)
        observed = []
        cfg = make()
        rep = detect_cycle(cfg, duplex, budget=budget,
                           observer=lambda c, rec: observed.append((rec, state_key(c))))
        assert summary(rep, cfg.k) == want
        # the observer sees each round's record once, in order, and the
        # run ends on the state it first reached at step prefix_len
        assert len(observed) == len(rep.records)
        assert all(rec is kept for (rec, _), kept in zip(observed, rep.records))
        assert len(observed) == rep.prefix_len + rep.period
        assert observed[-1][1] == state_key(cfg)
        if rep.status == CYCLE and rep.prefix_len:
            assert observed[rep.prefix_len - 1][1] == state_key(cfg)

    def test_case_kinds(self):
        reps = {name: detect_cycle(make(), duplex, budget=budget)
                for name, (make, duplex, budget) in EXACTNESS_CASES.items()}
        assert reps["grid:3x3 budget 40"].status == BUDGET
        assert len(reps["clean random:3:99"].movers) == 2
        assert reps["clean random:3:99"].releases_in_cycle > 0
        assert reps["symmetry witness"].movers == (0, 1)
        assert reps["symmetry witness NW"].movers == (0, 1)

    @pytest.mark.parametrize("case", ["grid:3x3 FW", "ring:3 k=4 FW grows"])
    def test_no_merge_once_settled(self, case, collide, monkeypatch):
        # once every known set and FW store hold one value, no merge of
        # the run's own rounds runs again (a re-simulation's probe is a
        # clone with an index of its own), and the report is unchanged
        make, duplex, budget = EXACTNESS_CASES[case]
        want = reference_detect(make(), duplex, budget=budget)
        cfg = make()
        merged = []
        steps = [0]  # rounds completed
        merge = scheduler.merge_gossip

        def counting(c, node, idxs):
            if c is cfg:
                merged.append(steps[0])
            return merge(c, node, idxs)

        monkeypatch.setattr(scheduler, "merge_gossip", counting)
        uniform = [0] if one_gossip_value(cfg) else []

        def watch(c, rec):
            steps[0] += 1
            if not uniform and one_gossip_value(c):
                uniform.append(steps[0])

        rep = detect_cycle(cfg, duplex, budget=budget, observer=watch)
        assert summary(rep, cfg.k) == want
        assert uniform and uniform[0] < len(rep.records)
        assert merged and max(merged) < uniform[0]

    def test_settle_never_fires_where_agents_never_meet(self, monkeypatch):
        verdicts = []
        settle = RoundIndex.settle

        def recording(index, c):
            verdicts.append(settle(index, c))
            return verdicts[-1]

        monkeypatch.setattr(RoundIndex, "settle", recording)
        make, duplex, budget = EXACTNESS_CASES["symmetry witness NW"]
        rep = detect_cycle(make(), duplex, budget=budget)
        # the detector's index build, its check at step 0 (no set grows
        # later) and the build of the one re-simulation's index
        assert rep.status == CYCLE and verdicts == [False, False, False]

    @pytest.mark.parametrize("case, want", [
        ("grid:3x3 FW", 0), ("clean random:3:99", 0),
        # these probes start from a checkpoint taken before gossip settled
        ("ring:3 k=3 grows", 1), ("ring:3 k=4 FW grows", 4),
    ])
    def test_probe_merges_only_unsettled_gossip(self, case, want, monkeypatch):
        # a re-simulation's index is built settled from settled gossip, so
        # its rounds merge nothing the detector's own would not
        probing, merged = [False], []
        first_repeat, merge = harness._first_repeat, scheduler.merge_gossip

        def probe(*args):
            probing[0] = True
            try:
                return first_repeat(*args)
            finally:
                probing[0] = False

        def counting(c, node, idxs):
            if probing[0]:
                merged.append(node)
            return merge(c, node, idxs)

        monkeypatch.setattr(harness, "_first_repeat", probe)
        monkeypatch.setattr(scheduler, "merge_gossip", counting)
        make, duplex, budget = EXACTNESS_CASES[case]
        rep = detect_cycle(make(), duplex, budget=budget)
        assert rep.status == CYCLE and len(merged) == want


def one_gossip_value(cfg):
    """True iff every known set and every FW store of ``cfg`` are equal."""
    sets = {a.known for a in cfg.agents} | {b.store for b in cfg.boards if cfg.board_class == FW}
    return len(sets) <= 1


# grid:6x6 k=6 from a clean start: a run long enough for the ladder's
# multiples of 128 to matter (pinned; the reference takes seconds here)
LONG_CASE = (lambda: fuzz_config(build_grid(6, 6), 6, CLEAN_SPEC, 1), HALF, None)


class TestCheckpointLadder:
    """detect_cycle keeps a checkpoint at step 0, at every power of two
    and at every multiple of 128, and drops a later one ``t`` once the
    step is 4·lowbit(t) past it.  Confirming a repeat then re-simulates
    fewer than max(128, 2·period/3) rounds from at most
    2·step.bit_length() + 2 checkpoints."""

    @staticmethod
    def confirmations(make, duplex, budget, monkeypatch):
        """detect_cycle's report from ``make()`` and, per ``_first_repeat``
        call, (step, checkpoint steps, candidates, rounds re-simulated)."""
        rounds, steps, calls = [0], [0], []
        step_round = harness.sync_round
        first_repeat = harness._first_repeat

        def counting_round(*args):
            rounds[0] += 1
            return step_round(*args)

        def counting(key, candidates, checkpoints, duplex):
            before = rounds[0]
            found = first_repeat(key, candidates, checkpoints, duplex)
            calls.append((steps[0], [t for t, _ in checkpoints], list(candidates),
                          rounds[0] - before))
            return found

        def watch(c, rec):
            steps[0] += 1

        monkeypatch.setattr(harness, "sync_round", counting_round)
        monkeypatch.setattr(harness, "_first_repeat", counting)
        return detect_cycle(make(), duplex, budget=budget, observer=watch), calls

    @staticmethod
    def check_bounds(rep, calls):
        assert sum(rounds for *_, rounds in calls) < max(128, 2 * rep.period / 3)
        for step, checkpoints, _, _ in calls:
            assert len(checkpoints) <= 2 * step.bit_length() + 2

    @pytest.mark.parametrize("case", sorted(EXACTNESS_CASES))
    def test_bound(self, case, monkeypatch):
        rep, calls = self.confirmations(*EXACTNESS_CASES[case], monkeypatch)
        assert len(calls) == (rep.status == CYCLE)
        self.check_bounds(rep, calls)

    def test_bound_on_a_long_run(self, monkeypatch):
        rep, calls = self.confirmations(*LONG_CASE, monkeypatch)
        assert (rep.status, rep.prefix_len, rep.period) == (CYCLE, 985, 340)
        self.check_bounds(rep, calls)
        # the anchor at the last growth, then the ladder: 640 (lowbit 128)
        # went at step 1152, 896 holds until step 1408; checkpoints at the
        # powers of two alone would re-simulate 473 rounds from 512
        (step, checkpoints, candidates, rounds), = calls
        assert (step, candidates, rounds) == (1325, [985], 89)
        assert checkpoints == [32, 512, 768, 896, 1024, 1152, 1280]

    @pytest.mark.parametrize("case", sorted(EXACTNESS_CASES))
    def test_every_candidate_near_a_checkpoint(self, case, monkeypatch):
        # a fingerprint that never changes hands over every earlier step
        # since the last growth, at every step but a growth's
        monkeypatch.setattr(harness, "Fingerprint", ConstantFingerprint)
        rep, calls = self.confirmations(*EXACTNESS_CASES[case], monkeypatch)
        assert calls
        for step, checkpoints, candidates, _ in calls:
            assert candidates == list(range(candidates[0], step))
            check_ladder(step, checkpoints, candidates[0])

    def test_every_candidate_near_a_checkpoint_on_a_long_run(self, monkeypatch):
        # as above, with a stand-in that answers from the pinned report
        # instead of re-simulating every earlier step at every step
        monkeypatch.setattr(harness, "Fingerprint", ConstantFingerprint)
        handed = []

        def pinned(key, candidates, checkpoints, duplex):
            step = candidates[-1] + 1
            handed.append(step)
            check_ladder(step, [t for t, _ in checkpoints], candidates[0])
            return 985 if step == 1325 else None

        monkeypatch.setattr(harness, "_first_repeat", pinned)
        make, duplex, budget = LONG_CASE
        rep = detect_cycle(make(), duplex, budget=budget)
        assert (rep.prefix_len, rep.period) == (985, 340)
        # every step after the last growth hands over
        assert handed[-1000:] == list(range(326, 1326))


def check_ladder(step, checkpoints, first):
    """``checkpoints`` (their steps) handed over at ``step`` number at most
    2·step.bit_length() + 2, and every step c from ``first`` on lies fewer
    than max(128, 2·(step - c)/3) steps past its latest checkpoint."""
    assert len(checkpoints) <= 2 * step.bit_length() + 2
    assert checkpoints == sorted(checkpoints) and checkpoints[0] <= first
    # within a gap between checkpoints the last step is the farthest
    for t, c in zip(checkpoints, [u - 1 for u in checkpoints[1:]] + [step - 1]):
        if c >= first:
            assert c - t < max(128, 2 * (step - c) / 3), (step, t, c)


class TestHookPoints:
    """The benchmark hooks a run's rounds through module globals: the
    cycle detector's through ``harness.sync_round`` and an asynchronous
    run's through ``scheduler.async_step``.  A loop that bound either
    locally would run unobserved."""

    class Hooked(Exception):
        pass

    def hooked(self, *args):
        raise self.Hooked

    def test_detect_cycle_rounds_through_harness_global(self, monkeypatch):
        monkeypatch.setattr(harness, "sync_round", self.hooked)
        with pytest.raises(self.Hooked):
            detect_cycle(fuzz_config(build_ring(4), 2, CLEAN_SPEC, 0))

    def test_run_steps_through_scheduler_global(self, monkeypatch):
        monkeypatch.setattr(scheduler, "async_step", self.hooked)
        cfg = fuzz_config(build_ring(4), 2, FuzzSpec(), 0, board_class=FW,
                          program=PROGRAM_FW_DFT)
        with pytest.raises(self.Hooked):
            scheduler.run(cfg, SchedulePolicy(kind=ASYNC_RANDOM_FAIR), stop=gossip_complete)


class TestGrowthRestart:
    """A merge that grows a gossip set starts detect_cycle's fingerprint
    index afresh: the fingerprint leaves gossip out, so a control state
    seen before the growth would otherwise be a candidate that only a
    re-simulation rules out."""

    @pytest.mark.parametrize("case, want", [("ring:3 k=3 grows", (5, 16)),
                                            ("ring:3 k=4 FW grows", (6, 16))])
    def test_one_verification(self, case, want, monkeypatch):
        calls = []
        first_repeat = harness._first_repeat

        def counting(*args):
            calls.append(args[1])
            return first_repeat(*args)

        monkeypatch.setattr(harness, "_first_repeat", counting)
        make, duplex, budget = EXACTNESS_CASES[case]
        rep = detect_cycle(make(), duplex, budget=budget)
        assert (rep.prefix_len, rep.period) == want
        assert calls == [[want[0]]]

    @pytest.mark.parametrize("case", ["ring:3 k=4 FW grows", "clean random:3:99"])
    @pytest.mark.parametrize("fingerprints", ["hash", "constant"])
    def test_checkpoints_from_last_growth(self, case, fingerprints, monkeypatch):
        # a re-simulation receives the latest checkpoint at or before the
        # last growth and none before it
        if fingerprints == "constant":
            monkeypatch.setattr(harness, "Fingerprint", ConstantFingerprint)
        make, duplex, budget = EXACTNESS_CASES[case]
        want = reference_detect(make(), duplex, budget=budget)
        cfg = make()
        growths, watch = growth_watch(cfg)
        received = []
        first_repeat = harness._first_repeat

        def checking(key, candidates, checkpoints, duplex):
            received.append((growths[-1], [step for step, _ in checkpoints]))
            return first_repeat(key, candidates, checkpoints, duplex)

        monkeypatch.setattr(harness, "_first_repeat", checking)
        rep = detect_cycle(cfg, duplex, budget=budget, observer=watch)
        assert (rep.prefix_len, rep.period) == want[1:3]
        assert received and len(growths) > 1
        for last, steps in received:
            assert steps[0] <= last and all(step >= last for step in steps[1:])

    @pytest.mark.parametrize("case", sorted(EXACTNESS_CASES))
    def test_gossip_checked_at_growths_only(self, case, monkeypatch):
        # gossip can complete only in a merge that grows a set, so it is
        # checked at step 0 and after each growth until it holds
        make, duplex, budget = EXACTNESS_CASES[case]
        cfg = make()
        growths, watch = growth_watch(cfg)
        checked = []
        steps = [0]  # rounds completed
        complete = harness.gossip_complete

        def counting(c):
            checked.append(steps[0])
            return complete(c)

        def counting_rounds(c, rec):
            steps[0] += 1
            watch(c, rec)

        monkeypatch.setattr(harness, "gossip_complete", counting)
        rep = detect_cycle(cfg, duplex, budget=budget, observer=counting_rounds)
        done = rep.gossip_step
        assert checked == [g for g in growths if done is None or g <= done]


def gossip_size(cfg):
    return sum(len(a.known) for a in cfg.agents) + sum(len(b.store) for b in cfg.boards)


def growth_watch(cfg):
    """A detect_cycle observer for a run from ``cfg``, and the steps it
    finds reached by a round that grew a gossip set, step 0 first: sets
    only grow, so a set grew exactly when their total size did."""
    growths, sizes = [0], [gossip_size(cfg)]

    def watch(c, rec):
        sizes.append(gossip_size(c))
        if sizes[-1] != sizes[-2]:
            growths.append(len(sizes) - 1)

    return growths, watch


class TestKeyCache:
    @pytest.mark.parametrize("case", sorted(EXACTNESS_CASES))
    def test_cached_key_is_state_key_every_round(self, case):
        # the incremental fingerprint detect_cycle keeps is the one of a
        # fresh state key in every round it runs
        make, duplex, budget = EXACTNESS_CASES[case]
        rounds = len(detect_cycle(make(), duplex, budget=budget).records)
        cfg = make()
        fp = Fingerprint(cfg)
        index = RoundIndex(cfg)
        for _ in range(rounds):
            assert fp.update(index.boards, index.agents) == fingerprint(state_key(cfg))
            sync_round(cfg, duplex, index)
        assert fp.update(index.boards, index.agents) == fingerprint(state_key(cfg))


# four starts whose reports are compared across string hash seeds
HASH_SEED_CASES = ("clean random:3:99", "grid:3x3 FW", "random:7:2:3 seed 246 half",
                   "ring:3 k=3 grows")
HASH_SEED_SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:3]
from test_harness import EXACTNESS_CASES, HASH_SEED_CASES, flip_steps
from gossipsim.harness import detect_cycle
for name in HASH_SEED_CASES:
    make, duplex, budget = EXACTNESS_CASES[name]
    cfg = make()
    rep = detect_cycle(cfg, duplex, budget=budget)
    print(repr((rep.status, rep.prefix_len, rep.period, rep.gossip_step, rep.quiescent,
                sorted((i, sorted(v)) for i, v in rep.mover_visits.items()),
                rep.releases_in_cycle, sorted(flip_steps(rep.records, cfg.k).items()))))
"""


def test_reports_independent_of_hash_seed():
    # fingerprints hash strings, so which steps collide depends on the
    # seed; every report field but the records must not
    import os
    import subprocess
    import sys
    from pathlib import Path

    import gossipsim

    src = str(Path(gossipsim.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    outputs = set()
    for seed in ("0", "123"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT, src, tests], env=env,
                             capture_output=True, text=True, check=True)
        outputs.add(out.stdout)
    assert len(outputs) == 1
    assert len(outputs.pop().splitlines()) == len(HASH_SEED_CASES)


class TestQuiescenceHolds:
    def test_verdicts(self):
        verdicts = {}
        for name in ("ring:2 k=2", "clean random:3:99", "grid:3x3 budget 40"):
            make, duplex, budget = EXACTNESS_CASES[name]
            cfg = make()
            verdicts[name] = quiescence_holds(cfg, detect_cycle(cfg, duplex, budget=budget))
        # counterexample A ends with two movers; a budget run decides nothing
        assert verdicts == {"ring:2 k=2": True, "clean random:3:99": False,
                            "grid:3x3 budget 40": False}


def bound_records(segments_by_agent, lead=0):
    """One StepRecord per accepted move: per agent, ``lead`` forward moves
    before its first flip, each (forward, backtrack) segment opened by a
    traversal-bit flip, then one flipped move that closes the last one."""
    moves = []
    for agent, segments in segments_by_agent.items():
        kinds = [(FORWARD, False)] * lead
        for fwd, back in segments:
            kinds += [(kind, j == 0) for j, kind in enumerate([FORWARD] * fwd + [BACKTRACK] * back)]
        kinds.append((FORWARD, True))
        moves += [MoveIntent(agent, 0, 0, kind, flip, to=1, accepted=True) for kind, flip in kinds]
    return [StepRecord(acting=(mv.agent,), moves=[mv]) for mv in moves]


class TestAuditMoveBounds:
    def test_empty_trace(self):
        report = audit_move_bounds([], build_ring(4))
        assert report.segments_checked == 0 and report.ok

    def test_within_m_forward_n_back(self):
        g = build_grid(2, 3)  # m = 7 edges, n = 6 nodes
        records = bound_records({0: [(7, 6), (3, 2)], 1: [(0, 6)]}, lead=20)
        # a rejected move counts nowhere, but its flip stays on the agent,
        # so it splits agent 1's (0, 6) segment into (0, 5) and (0, 1)
        records.insert(len(records) - 2, StepRecord(
            acting=(1,), moves=[MoveIntent(1, 0, 0, FORWARD, True, to=1, accepted=False)]))
        report = audit_move_bounds(records, g)
        assert report.ok and report.segments_checked == 4
        assert (report.fwd_max, report.back_max) == (7, 6)

    def test_rejected_flip_opens_a_segment(self):
        # agent 2's first move flips its traversal bit and loses duplex
        # resolution at step 0; the bit stays flipped, so a traversal starts
        g = random_connected_graph(7, 2, seed=3)
        rep = detect_cycle(fuzz_config(g, 3, FuzzSpec(), 226), HALF)
        assert [(step, mv.agent) for step, r in enumerate(rep.records) for mv in r.moves
                if mv.flipped and not mv.accepted] == [(0, 2)]
        report = audit_move_bounds(rep.records, g)
        assert report.segments_checked == 6
        assert (report.fwd_max, report.back_max) == (9, 12)

    def test_over_m_forward_or_n_back(self):
        g = build_grid(2, 3)
        report = audit_move_bounds(bound_records({0: [(8, 0), (7, 6)], 1: [(7, 7)]}), g)
        assert not report.ok and report.segments_checked == 3
        assert report.violations == [(0, 1, 8, 0), (1, 1, 7, 7)]


class TestWitnesses:
    def test_mirror_requires_room(self):
        with pytest.raises(HarnessError):
            witness_mirror(build_ring(3), 3)

    def test_mirror_base_must_converge(self, monkeypatch):
        monkeypatch.setattr(harness, "default_cycle_budget", lambda cfg: 0)
        with pytest.raises(HarnessError, match="base system failed to converge"):
            witness_mirror(build_ring(4), 2)

    def test_mirror_ring4(self):
        report = witness_mirror(build_ring(4), 2, seed=0)
        assert report.ok
        assert report.frozen_period >= 1
        assert not report.cross_tokens_exchanged
        assert report.control_gossip_step is not None

    def test_mirror_random_graph(self):
        g = random_connected_graph(5, 1, seed=2)
        assert witness_mirror(g, 2, seed=1).ok

    def test_symmetry_divisibility(self):
        with pytest.raises(HarnessError):
            witness_symmetry(6, 4, CW)

    @pytest.mark.parametrize("n,k,cls", [(6, 2, CW), (6, 3, CW), (6, 2, NW)])
    def test_symmetry_ok(self, n, k, cls):
        report = witness_symmetry(n, k, cls)
        assert report.ok
        assert report.meetings == 0
        assert not report.gossip_ever_complete

    @pytest.mark.parametrize("cls, meetings, prefix", [(NW, 8, 2), (CW, 19, 17), (FW, 19, 17)])
    def test_symmetry_walkers_meet_on_ring2(self, cls, meetings, prefix):
        # on a 2-ring the two walkers share a node in some rounds; rings up
        # to 10 hold no other witness start where they do, so the meeting
        # count is pinned here
        report = witness_symmetry(2, 2, cls)
        assert report.status == CYCLE
        assert (report.meetings, report.prefix, report.period) == (meetings, prefix, 8)
        assert not report.ok and report.gossip_ever_complete

    def test_symmetry_k1_has_no_claim(self):
        # degenerate single walker: no meetings by definition
        report = witness_symmetry(4, 1, CW)
        assert report.status == CYCLE and report.meetings == 0


def mirror_parked_start(monkeypatch, graph, k, seed):
    """The start ``witness_mirror`` hands the cycle detector for its
    all-stop run (its second detector call, after the base run)."""
    starts = []

    def capture(cfg, duplex):
        starts.append(cfg.clone())
        return detect_cycle(cfg, duplex)

    monkeypatch.setattr(harness, "detect_cycle", capture)
    witness_mirror(graph, k, seed=seed)
    assert len(starts) == 2
    return starts[1]


def test_mirror_start_holds_base_timers(monkeypatch):
    # witness_mirror copies the converged base's boards into a start whose
    # round clock is 0; each copy must read its source's timer
    runs = []

    def capture(cfg, duplex):
        start = cfg.clone()
        rep = detect_cycle(cfg, duplex)
        runs.append((start, cfg.clone()))
        return rep

    monkeypatch.setattr(harness, "detect_cycle", capture)
    graph = build_grid(3, 3)
    w = witness_mirror(graph, 3, seed=4).join_node
    (_, base), (joined, _) = runs
    check_rows(joined)
    assert base.ticks > 0 and joined.ticks == 0
    sources = base.boards + [b for v, b in enumerate(base.boards) if v != w]
    assert len(sources) == len(joined.boards)
    want = [timer(base, b) for b in sources]
    assert [timer(joined, b) for b in joined.boards] == want
    # the stored values differ from the values read, so the copies need the rebase
    assert any(b.timer_base != t for b, t in zip(sources, want))


class TestParkedStart:
    """An all-parked start never moves or releases anyone; co-located
    agents merge gossip, timers saturate, and the run settles into a
    fixed point."""

    @pytest.mark.parametrize("case", ["mirror ring:4", "mirror grid:3x3", "fuzzed clustered",
                                      "fuzzed uniform"])
    def test_only_merges_and_ticks(self, case, monkeypatch):
        if case == "mirror ring:4":
            cfg = mirror_parked_start(monkeypatch, build_ring(4), 2, 0)
        elif case == "mirror grid:3x3":
            cfg = mirror_parked_start(monkeypatch, build_grid(3, 3), 3, 4)
        else:
            spec = FuzzSpec(placement=CLUSTERED) if case == "fuzzed clustered" else FuzzSpec()
            cfg = parked(fuzz_config(build_grid(3, 3), 4, spec, 1))
        assert all(a.parked for a in cfg.agents)
        positions = [a.pos for a in cfg.agents]
        rep = detect_cycle(cfg, HALF)
        assert rep.status == CYCLE and rep.period == 1
        assert all(rec.moves == [] and rec.releases == () for rec in rep.records)
        assert [a.pos for a in cfg.agents] == positions
        # the clustered start puts all four agents on one node
        for v in set(positions):
            here = [a.known for a in cfg.agents if a.pos == v]
            assert all(known == here[0] for known in here)
        assert all(timer(cfg, b) == cfg.timer_cap for b in cfg.boards)
