import hashlib
import pytest
import random
from itertools import islice

from hypothesis import given, settings, strategies as st

from gossipsim import scheduler
from gossipsim.cli import load_graph
from gossipsim.harness import (
    CLEAN_SPEC,
    CLUSTERED,
    UNIFORM,
    FuzzSpec,
    _park_for_good,
    fuzz_config,
    gossip_complete,
)
from gossipsim.model import (
    Agent,
    CW,
    FW,
    NW,
    PROGRAM_DFT,
    PROGRAM_FW_DFT,
    PROGRAM_PATH_ENUM,
    make_configuration,
    merge_gossip,
    set_timer,
    snapshot_hash,
    state_key,
    timer,
)
from gossipsim.protocol_dft import FORWARD, MoveIntent, timeout_check_and_execute
from gossipsim.scheduler import (
    ASYNC_RANDOM_FAIR,
    ASYNC_ROUND_ROBIN,
    ASYNC_SCRIPTED,
    FULL,
    HALF,
    SYNC,
    RoundIndex,
    SchedulePolicy,
    SchedulerError,
    StepRecord,
    _below,
    _picks,
    _random_fair,
    async_step,
    resolve_duplex,
    run,
    sync_round,
)
from gossipsim.topology import build_ring
from test_model import ROUND_STARTS, check_rows, small_cap


def dft_cfg(positions_ids, n=4, cls=CW):
    g = build_ring(n)
    agents = [Agent(ident=i, pos=p) for i, p in positions_ids]
    return make_configuration(g, agents, cls)


def walker_cfg(positions, n=6):
    g = build_ring(n)
    agents = [Agent(ident=None, pos=p, program="anon_path_enum") for p in positions]
    return make_configuration(g, agents, FW)


class TestDuplex:
    def _opposing(self):
        # agents 3 and 7 cross the same edge in opposite directions
        cfg = dft_cfg([(7, 0), (3, 1)])
        intents = [
            MoveIntent(0, 0, 0),  # node 0 -> node 1
            MoveIntent(1, 1, 1),  # node 1 -> node 0
        ]
        return cfg, intents

    def test_full_accepts_both(self):
        cfg, intents = self._opposing()
        assert resolve_duplex(cfg, intents, FULL) == [True, True]

    def test_half_smaller_id_wins(self):
        cfg, intents = self._opposing()
        assert resolve_duplex(cfg, intents, HALF) == [False, True]

    def test_same_direction_all_pass(self):
        cfg = dft_cfg([(7, 0), (3, 0)])
        intents = [MoveIntent(0, 0, 0), MoveIntent(1, 0, 0)]
        assert resolve_duplex(cfg, intents, HALF) == [True, True]

    def test_distinct_edges_independent(self):
        cfg = dft_cfg([(7, 0), (3, 2)])
        intents = [MoveIntent(0, 0, 0), MoveIntent(1, 2, 0)]
        assert resolve_duplex(cfg, intents, HALF) == [True, True]

    def test_unknown_mode_rejected(self):
        cfg, intents = self._opposing()
        with pytest.raises(SchedulerError):
            resolve_duplex(cfg, intents, "simplex")


class TestSyncRound:
    def test_zero_agents_still_ticks(self):
        g = build_ring(3)
        cfg = make_configuration(g, [], CW)
        rec = sync_round(cfg)
        assert cfg.ticks == 1
        assert all(timer(cfg, b) == 1 for b in cfg.boards)
        assert rec.moves == [] and rec.acting == ()

    def test_every_agent_acts_once(self):
        cfg = dft_cfg([(1, 0), (2, 2), (3, 3)], n=5)
        rec = sync_round(cfg)
        assert sorted(rec.acting) == [0, 1, 2]
        parked = {i for i in rec.acting if cfg.agents[i].parked}
        assert {m.agent for m in rec.moves} | parked == {0, 1, 2}

    def test_timer_saturates_at_cap(self):
        g = build_ring(3)
        cfg = make_configuration(g, [], CW)
        set_timer(cfg, cfg.boards[0], cfg.timer_cap)
        sync_round(cfg)
        assert timer(cfg, cfg.boards[0]) == cfg.timer_cap

    def test_frozen_round_only_merges_and_ticks(self):
        # every agent parked for good: each acts, but none moves or is released
        cfg = dft_cfg([(1, 0), (2, 0)])
        _park_for_good(cfg)
        t0 = timer(cfg, cfg.boards[0])
        rec = sync_round(cfg)
        assert rec.acting == (0, 1) and rec.moves == [] and rec.releases == ()
        assert crowded({a.pos: group_at(cfg, a.pos) for a in cfg.agents}) == (0,)
        assert cfg.agents[0].pos == cfg.agents[1].pos == 0
        assert timer(cfg, cfg.boards[0]) == t0 + 1
        # parked co-location still exchanges gossip
        assert cfg.agents[0].known == cfg.agents[1].known

    @staticmethod
    def _count_steps(monkeypatch):
        stepped = []
        step = scheduler._STEP_FNS[PROGRAM_DFT]

        def counting(cfg, idx):
            stepped.append(idx)
            return step(cfg, idx)

        monkeypatch.setitem(scheduler._STEP_FNS, PROGRAM_DFT, counting)
        return stepped

    def test_waiting_agent_not_stepped(self, monkeypatch):
        # agents 0 and 1 wait at node 0 for longer than any timer counts,
        # agent 2 is free at node 2
        cfg = dft_cfg([(1, 0), (2, 0), (3, 2)])
        for idx in (0, 1):
            cfg.agents[idx].parked = True
            cfg.boards[0].waiting = cfg.boards[0].waiting | {cfg.agents[idx].ident}
        cfg.boards[0].wait_t = cfg.timer_cap + 1
        stepped = self._count_steps(monkeypatch)
        rec = sync_round(cfg)
        assert stepped == [2]
        assert rec.acting == (0, 1, 2)
        assert cfg.agents[0].parked and cfg.agents[1].parked

    def test_stale_parked_flag_still_stepped(self, monkeypatch):
        # every agent's parked flag is set and no waiting set names it
        spec = FuzzSpec(table_garbage_rate=1.0, waiting_garbage_rate=0.0)
        cfg = fuzz_config(build_ring(6), 3, spec, 2)
        assert all(a.parked for a in cfg.agents)
        assert not any(b.waiting for b in cfg.boards)
        stepped = self._count_steps(monkeypatch)
        rec = sync_round(cfg)
        assert sorted(stepped) == [0, 1, 2] and sorted(rec.acting) == [0, 1, 2]
        # a flag left set is one the min-id gate set, with its waiting entry
        for a in cfg.agents:
            assert not a.parked or a.ident in cfg.boards[a.pos].waiting

    def test_deterministic_replay(self):
        cfg = dft_cfg([(5, 0), (2, 1), (9, 3)])
        twin = cfg.clone()
        for _ in range(40):
            sync_round(cfg, HALF)
            sync_round(twin, HALF)
        assert state_key(cfg) == state_key(twin)


def index_state(index: RoundIndex) -> tuple:
    """What a fresh index rebuilds from the configuration alone: the
    groups, the waiting agents and every board's due tick."""
    return index.groups, index.waiting, index.due_at


def group_at(cfg, node: int) -> list[int]:
    """The indices of the agents at ``node``, found by scanning positions."""
    return [i for i, a in enumerate(cfg.agents) if a.pos == node]


def crowded(groups: dict[int, list[int]]) -> tuple[int, ...]:
    """The nodes of ``groups`` (node -> agent indices) that hold two or
    more agents, ascending."""
    return tuple(sorted(v for v, here in groups.items() if len(here) > 1))


def check_arrivals(cfg, index: RoundIndex) -> None:
    """Each occupied node outside ``index.arrivals`` holds one known set
    across its agents, equal to the store on FW."""
    for node in {a.pos for a in cfg.agents} - index.arrivals:
        sets = {frozenset(cfg.agents[i].known) for i in group_at(cfg, node)}
        if cfg.boards[node].cls == FW:
            sets.add(frozenset(cfg.boards[node].store))
        assert len(sets) == 1, node


class TestRoundIndex:
    """A round with the index carried from the last one does what a round
    from scratch does, and leaves the index a fresh build would make."""

    @staticmethod
    def _check_rounds(cfg, duplex, rounds):
        index = RoundIndex(cfg)
        for _ in range(rounds):
            twin = cfg.clone()
            want = sync_round(twin, duplex)
            assert sync_round(cfg, duplex, index) == want
            assert snapshot_hash(cfg) == snapshot_hash(twin)
            assert index_state(index) == index_state(RoundIndex(cfg))
            check_arrivals(cfg, index)

    @staticmethod
    def _count_merges(monkeypatch):
        merged = []
        merge = scheduler.merge_gossip

        def counting(c, node, idxs):
            merged.append(node)
            return merge(c, node, idxs)

        monkeypatch.setattr(scheduler, "merge_gossip", counting)
        return merged

    def test_met_group_not_merged_again(self, monkeypatch):
        # agents 1 and 2 meet at node 1 in the fifth round and merge after
        # the moves; the next round merges them where they arrive together,
        # node 2, and not again before the steps at node 1
        for cls in (CW, FW):
            cfg = dft_cfg([(1, 0), (2, 1)], cls=cls)
            index = RoundIndex(cfg)
            for _ in range(5):
                rec = sync_round(cfg, HALF, index)
            assert crowded(index.groups) == (1,) and [mv.to for mv in rec.moves] == [1, 1]
            merged = self._count_merges(monkeypatch)
            rec = sync_round(cfg, HALF, index)
            assert merged == [2] and crowded(index.groups) == (2,) and rec.merges == (1,)

    def test_parked_round_touches_nobody(self, monkeypatch):
        # every agent parked for good: the first round merges at every
        # occupied node where a merge can write (node 2's lone agent only
        # with an FW store), each merge grows a set and none is recorded;
        # a carried round after it steps, merges and writes nothing, and
        # still records every occupied node
        merged = self._count_merges(monkeypatch)
        stepped = TestSyncRound._count_steps(monkeypatch)
        for cls, first in ((CW, [0]), (FW, [0, 2])):
            cfg = dft_cfg([(1, 0), (2, 0), (3, 2)], cls=cls)
            _park_for_good(cfg)
            index = RoundIndex(cfg)
            merged.clear()
            sync_round(cfg, HALF, index)
            assert merged == first and stepped == []
            assert index.boards == set() and index.agents == set()
            assert index.grown == len(first)
            for _ in range(5):
                merged.clear()
                rec = sync_round(cfg, HALF, index)
                assert merged == [] and stepped == []
                assert index.boards == set() and index.agents == set()
                assert index.grown == len(first)
                assert rec.merges == (0, 2) and crowded(index.groups) == (0,)
                assert rec.acting == (0, 1, 2)

    def test_settle_refuses_while_any_set_differs(self):
        # two FW agents merged at node 0: their known sets and node 0's
        # store are equal, the stores of the empty nodes 1-3 are not
        cfg = dft_cfg([(1, 0), (2, 0)], cls=FW)
        index = RoundIndex(cfg)
        merge_gossip(cfg, 0, [0, 1])
        union = cfg.agents[0].known
        assert cfg.agents[1].known == cfg.boards[0].store == union
        assert not index.settle(cfg)
        for board in cfg.boards[1:3]:
            board.store = union
        assert not index.settle(cfg) and not index.settled
        cfg.boards[3].store = frozenset(union)  # equal, another object
        assert index.settle(cfg) and index.settled and index.arrivals == set()
        # on CW only the agents' sets count
        cfg = dft_cfg([(1, 0), (2, 2)])
        index = RoundIndex(cfg)
        assert not index.settle(cfg) and index.arrivals == {0, 2}
        cfg.agents[0].known = cfg.agents[1].known = cfg.agents[0].known | cfg.agents[1].known
        assert index.settle(cfg)

    def test_build_settles(self):
        # a start whose known sets and FW stores hold one value builds a
        # settled index with no arrivals; one whose sets differ does not
        cfg = dft_cfg([(1, 0), (2, 2)], cls=FW)
        union = frozenset(cfg.genuine.values())
        cfg.agents[0].known = cfg.agents[1].known = union
        for board in cfg.boards:
            board.store = union
        index = RoundIndex(cfg)
        assert index.settled and index.arrivals == set()
        cfg.boards[3].store = frozenset()
        index = RoundIndex(cfg)
        assert not index.settled and index.arrivals == {0, 2}

    def test_settled_apply_adds_no_arrival(self, monkeypatch):
        merged = self._count_merges(monkeypatch)
        cfg = dft_cfg([(1, 0), (2, 1)])
        cfg.agents[0].known = cfg.agents[1].known = frozenset(cfg.genuine.values())
        index = RoundIndex(cfg)
        assert index.settle(cfg)
        for _ in range(5):
            rec = sync_round(cfg, HALF, index)
        # they meet at node 1 in the fifth round, as in test_met_group_not_merged_again
        assert crowded(index.groups) == (1,) and [mv.to for mv in rec.moves] == [1, 1]
        assert index.arrivals == set() and merged == []
        intent = MoveIntent(0, 1, 0, FORWARD)
        index.apply(cfg, intent, True)
        assert intent.accepted and index.arrivals == set() and merged == []

    def test_pop_due_reads_due_at(self):
        index = RoundIndex(dft_cfg([(1, 0), (2, 0)]))
        index.due_at = {3: 9, 0: 7, 2: 9, 1: 9}
        assert index.pop_due(9) == [1, 2, 3]
        assert index.pop_due(7) == [0]
        assert index.pop_due(8) == []
        assert index.due_at == {3: 9, 0: 7, 2: 9, 1: 9}  # reading forgets nothing

    @pytest.mark.parametrize("case", sorted(ROUND_STARTS))
    def test_record_names_the_written_boards(self, case, monkeypatch):
        # a step or a due check writes its own node's board, and a merge
        # only gossip: the round records exactly the nodes of the steps
        # and the checks
        nodes = []
        for program, step in list(scheduler._STEP_FNS.items()):
            def recording(c, idx, step=step):
                nodes.append(c.agents[idx].pos)
                return step(c, idx)

            monkeypatch.setitem(scheduler._STEP_FNS, program, recording)
        check = scheduler.timeout_check_and_execute

        def checking(c, node):
            nodes.append(node)
            return check(c, node)

        monkeypatch.setattr(scheduler, "timeout_check_and_execute", checking)
        make, duplex = ROUND_STARTS[case]
        cfg = make()
        index = RoundIndex(cfg)
        for _ in range(120):
            nodes.clear()
            sync_round(cfg, duplex, index)
            assert index.boards == set(nodes)

    @pytest.mark.parametrize("case", sorted(ROUND_STARTS))
    def test_carried_equals_fresh(self, case):
        make, duplex = ROUND_STARTS[case]
        self._check_rounds(make(), duplex, 120)

    @given(
        st.sampled_from(["ring:5", "grid:3x3", "random:7:2:3", "random:8:3:5"]),
        st.integers(2, 4),
        st.sampled_from([CW, FW]),
        st.sampled_from([HALF, FULL]),
        st.sampled_from([None, 3, 7]),
        st.booleans(),
        st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_carried_equals_fresh_on_drawn_starts(self, graph, k, board_class, duplex, cap,
                                                  clustered, seed):
        # ghost waiters and stale parked flags on many boards and agents
        spec = FuzzSpec(waiting_garbage_rate=0.5, table_garbage_rate=0.5,
                        placement=CLUSTERED if clustered else UNIFORM)
        cfg = fuzz_config(load_graph(graph), k, spec, seed, board_class=board_class)
        if cap is not None:
            small_cap(cfg, cap)
        self._check_rounds(cfg, duplex, 60)


def _follow_ports(g, image: int) -> tuple[int, ...] | None:
    """The port-preserving automorphism of connected ``g`` that takes
    node 0 to ``image``, as a node map, or None if there is none."""
    sigma = {0: image}
    todo = [0]
    while todo:
        v = todo.pop()
        w = sigma[v]
        if g.degree(v) != g.degree(w):
            return None
        for port in range(g.degree(v)):
            (u, back), (x, x_back) = g.neighbor(v, port), g.neighbor(w, port)
            if back != x_back:
                return None
            if u not in sigma:
                sigma[u] = x
                todo.append(u)
            elif sigma[u] != x:
                return None
    return tuple(sigma[v] for v in range(g.node_count))


def automorphisms(g) -> list[tuple[int, ...]]:
    """Every port-preserving automorphism of connected ``g``, identity
    included.  One is fixed by the image of node 0, so following the
    ports from each of the n images finds them all in O(n·m)."""
    return [sigma for image in range(g.node_count)
            if (sigma := _follow_ports(g, image)) is not None]


def permute(cfg, sigma):
    """A clone of ``cfg`` with every agent and board moved by the node map
    ``sigma``; ports, agent indices and gossip are unchanged."""
    image = cfg.clone()
    for agent in image.agents:
        agent.pos = sigma[agent.pos]
    boards = image.boards[:]
    for v, board in enumerate(boards):
        image.boards[sigma[v]] = board
    return image


def relabel(cfg, f):
    """A clone of ``cfg`` with every agent id mapped by ``f``: the agents'
    ids, the boards' table rows, MinID and waiting sets."""
    image = cfg.clone()
    for agent in image.agents:
        agent.ident = f(agent.ident)
    for board in image.boards:
        for table in ("t_table", "in_link", "out_link"):
            setattr(board, table, {f(i): x for i, x in getattr(board, table).items()})
        board.min_id = f(board.min_id)
        board.waiting = {f(i) for i in board.waiting}
    return image


class TestRoundSymmetry:
    """The synchronous round commutes with the ring's rotations and with
    a monotone id relabeling: 60 carried rounds from a start's image end
    in the image of the start's end state.  Nodes are anonymous to the
    agents, and the DFT compares ids but never reads their size."""

    @staticmethod
    def _rounds(cfg, duplex):
        index = RoundIndex(cfg)
        for _ in range(60):
            sync_round(cfg, duplex, index)
        return cfg

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("board_class", [CW, FW])
    @pytest.mark.parametrize("duplex", [HALF, FULL])
    def test_round_commutes_with_images(self, n, board_class, duplex):
        g = build_ring(n)
        sigmas = automorphisms(g)
        assert sigmas == [tuple((v + r) % n for v in range(n)) for r in range(n)]
        images = [lambda c, s=s: permute(c, s) for s in sigmas[1:]]
        images.append(lambda c: relabel(c, lambda i: 3 * i + 7))
        for k in (2, 3):
            for spec, seed in ((CLEAN_SPEC, 0), (FuzzSpec(), 0), (FuzzSpec(), 1)):
                start = fuzz_config(g, k, spec, seed, board_class=board_class)
                end = self._rounds(start.clone(), duplex)
                for image in images:
                    got = self._rounds(image(start), duplex)
                    assert state_key(got) == state_key(image(end))


class TestAsyncPolicies:
    def test_round_robin_alternates(self):
        picks = _picks(SchedulePolicy(kind=ASYNC_ROUND_ROBIN), 3)
        assert list(islice(picks, 6)) == [0, 1, 2, 0, 1, 2]

    def test_scripted_follows_script(self):
        policy = SchedulePolicy(kind=ASYNC_SCRIPTED, script=(1, 1, 0))
        assert list(islice(_picks(policy, 2), 6)) == [1, 1, 0]

    def test_scripted_bad_index(self):
        with pytest.raises(SchedulerError, match="nonexistent agent 5"):
            _picks(SchedulePolicy(kind=ASYNC_SCRIPTED, script=(0, 5)), 2)

    @given(st.integers(0, 2**31), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_random_fair_bounds_starvation(self, seed, k):
        last_seen = [0] * k
        for step, idx in enumerate(islice(_random_fair(k, seed, 4), 399), start=1):
            assert step - last_seen[idx] <= k * 4
            last_seen[idx] = step
        assert set(range(k)) == {i for i in range(k) if last_seen[i] > 0}

    @given(st.integers(0, 2**64), st.integers(1, 300))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_below_draws_like_randrange(self, seed, n):
        # the same values from the same bits, and the generators end equal
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(8):
            assert _below(ours.getrandbits, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()

    def test_below_refuses_an_empty_range(self):
        for n in (0, -3):
            with pytest.raises(ValueError):
                _below(random.Random(0).getrandbits, n)

    def test_random_fair_reads_the_window_constant(self, monkeypatch):
        assert scheduler.FAIRNESS_WINDOW == 16  # the README's k·16
        # at window 1 the bound binds within a few steps, so picks tell windows apart
        monkeypatch.setattr(scheduler, "FAIRNESS_WINDOW", 1)
        for seed in range(20):
            policy = SchedulePolicy(kind=ASYNC_RANDOM_FAIR, seed=seed)
            assert (list(islice(_picks(policy, 3), 60))
                    == list(islice(_random_fair(3, seed, 1), 60))
                    != list(islice(_random_fair(3, seed, 16), 60)))

    def test_random_fair_bound_holds_for_every_agent(self):
        # every agent runs within k * window steps of its last run (of the
        # start, before its first), also while agents that never ran tie
        for k in range(1, 6):
            for window in range(1, 5):
                bound = k * window
                for seed in range(300):
                    last_seen = [0] * k
                    for step, idx in enumerate(islice(_random_fair(k, seed, window), 80),
                                               start=1):
                        last_seen[idx] = step
                        assert step - min(last_seen) < bound, (k, window, seed, step)

    def test_async_timers_do_not_tick(self):
        cfg = walker_cfg([0, 3])
        run(cfg, SchedulePolicy(kind=ASYNC_ROUND_ROBIN), max_steps=20)
        assert all(timer(cfg, b) == 0 for b in cfg.boards)

    def test_dft_needs_unsafe_flag(self):
        policy = SchedulePolicy(kind=ASYNC_ROUND_ROBIN)
        with pytest.raises(SchedulerError, match="synchronous-only"):
            run(dft_cfg([(1, 0)]), policy, max_steps=1)
        assert len(run(dft_cfg([(1, 0)]), policy, max_steps=1, unsafe_async=True)) == 1
        assert len(run(dft_cfg([(1, 0)]), SchedulePolicy(kind=SYNC), max_steps=1)) == 1


class TestRun:
    @pytest.mark.parametrize("kind", [SYNC, ASYNC_ROUND_ROBIN])
    @pytest.mark.parametrize("max_steps", [0, 5])
    def test_illegal_boards_refused_before_the_first_step(self, kind, max_steps):
        # fw_async_dft writes the gossip store, so CW boards cannot hold it
        agents = [Agent(ident=1, pos=0, program="fw_async_dft")]
        cfg = make_configuration(build_ring(4), agents, CW)
        before = state_key(cfg)
        seen = []
        with pytest.raises(SchedulerError) as err:
            run(cfg, SchedulePolicy(kind=kind), max_steps=max_steps,
                observer=lambda c, rec: seen.append(rec))
        assert str(err.value) == "fw_async_dft cannot run on CW whiteboards"
        assert seen == [] and state_key(cfg) == before

    @pytest.mark.parametrize("max_steps", [0, 1])
    @pytest.mark.parametrize("policy, message", [
        (SchedulePolicy(kind="bogus"), "unknown async policy 'bogus'"),
        (SchedulePolicy(kind=ASYNC_SCRIPTED, script=(0, 9)), "script selects nonexistent agent 9"),
    ])
    def test_bad_policies_refused_before_the_first_step(self, policy, message, max_steps):
        cfg = walker_cfg([0, 3])
        before = state_key(cfg)
        with pytest.raises(SchedulerError) as err:
            run(cfg, policy, stop=lambda c: True, max_steps=max_steps)
        assert str(err.value) == message
        assert state_key(cfg) == before

    def test_unknown_program_refused_before_the_first_step(self):
        cfg = make_configuration(build_ring(4), [Agent(ident=1, pos=0, program="dft")], FW)
        before = state_key(cfg)
        with pytest.raises(SchedulerError) as err:
            run(cfg, SchedulePolicy())
        assert str(err.value) == "unknown protocol 'dft'"
        assert state_key(cfg) == before

    def test_stop_checked_before_first_step(self):
        cfg = dft_cfg([(1, 0)])
        trace = run(cfg, SchedulePolicy(kind=SYNC), stop=lambda c: True)
        assert trace.status == "met" and trace.stop_step == 0 and len(trace) == 0

    def test_truncation(self):
        cfg = dft_cfg([(1, 0)])
        trace = run(cfg, SchedulePolicy(kind=SYNC), stop=lambda c: False, max_steps=7)
        assert trace.status == "truncated" and len(trace) == 7

    @pytest.mark.parametrize("kind", [ASYNC_RANDOM_FAIR, ASYNC_ROUND_ROBIN, ASYNC_SCRIPTED])
    def test_no_agents_truncate_after_no_step(self, kind):
        cfg = make_configuration(build_ring(4), [], FW)
        trace = run(cfg, SchedulePolicy(kind=kind), stop=lambda c: False, max_steps=5)
        assert trace.status == "truncated" and len(trace) == 0

    def test_script_end_truncates(self):
        cfg = walker_cfg([0, 3])
        seen = []
        trace = run(cfg, SchedulePolicy(kind=ASYNC_SCRIPTED, script=(1, 0, 1)),
                    stop=lambda c: False, observer=lambda c, rec: seen.append(rec.acting))
        assert trace.status == "truncated" and len(trace) == 3
        assert seen == [(1,), (0,), (1,)]

    def test_observer_sees_every_record(self):
        cfg = walker_cfg([0, 3])
        seen = []
        run(cfg, SchedulePolicy(kind=ASYNC_ROUND_ROBIN), max_steps=9,
            observer=lambda c, rec: seen.append(rec.acting))
        assert seen == [(0,), (1,)] * 4 + [(0,)]

    def test_async_gossip_eventually_meets(self):
        cfg = walker_cfg([0, 3])
        genuine = set(cfg.genuine.values())
        stop = lambda c: all(genuine <= a.known for a in c.agents)
        trace = run(cfg, SchedulePolicy(kind=ASYNC_RANDOM_FAIR, seed=3),
                    stop=stop, max_steps=5000)
        assert trace.status == "met"


def _record_line(step, cfg, rec, branch=None) -> str:
    """The record's position ``step`` in its run, every StepRecord field,
    every field of its moves with ``branch``, the branch of the step that
    made them, and the snapshot hash of ``cfg`` after the step.  The
    pinned layout has a sixth field that asynchronous steps leave empty:
    ``()``."""
    moves = tuple((m.agent, m.frm, m.via, m.to, m.accepted, m.kind, branch, m.flipped)
                  for m in rec.moves)
    return repr((step, rec.acting, moves, rec.merges, rec.releases, (),
                 snapshot_hash(cfg)))


def _async_lines(cfg, policy):
    """One line per step of ``policy`` from ``cfg`` until gossip is complete
    or 200 steps (see :func:`_record_line`), then the trace's ending.  An
    asynchronous step calls one step function, whose branch the wrapped
    step table catches."""
    lines, branches = [], []
    saved = dict(scheduler._STEP_FNS)

    def catching(step):
        def caught(c, idx):
            intent, meta = step(c, idx)
            branches.append(meta.branch)
            return intent, meta
        return caught

    def observe(c, rec):
        lines.append(_record_line(len(lines), c, rec, branches.pop()))

    scheduler._STEP_FNS.update((program, catching(step)) for program, step in saved.items())
    try:
        trace = run(cfg, policy, stop=gossip_complete, max_steps=200, observer=observe)
    finally:
        scheduler._STEP_FNS.update(saved)
    lines.append(repr((trace.steps, trace.status, trace.stop_step)))
    return lines


class TestAsyncPinned:
    """The asynchronous path from fuzzed starts, pinned by SHA-256 digests:
    the two 0-quiescent protocols under both fair async policies."""

    GRAPHS = {
        ("fw_async_dft", FW): ("grid:3x4", "random:7:2:3"),
        (PROGRAM_PATH_ENUM, NW): ("ring:6", "grid:3x4"),
        (PROGRAM_PATH_ENUM, FW): ("ring:6", "random:7:2:3"),
    }

    DIGESTS = {
        ("fw_async_dft", FW, ASYNC_ROUND_ROBIN):
            "cf4ab3e7ae6b3022a45d512a84071501bb0607c5cbfaf1651248ae831d1fdc9a",
        ("fw_async_dft", FW, ASYNC_RANDOM_FAIR):
            "2fdc3a001ea632d6e09a169c4b6d577bd156b3d7de6520cf79300c19f50b9a3f",
        (PROGRAM_PATH_ENUM, NW, ASYNC_ROUND_ROBIN):
            "64cfbfd8e300664edf5b58fabc5a566f073ec6c26da4fae01105e15e1cb9f870",
        (PROGRAM_PATH_ENUM, NW, ASYNC_RANDOM_FAIR):
            "98b67a5208ac8ce138fe9ffc0e081f355e86b1eba5bc261a920f0baca9bbeb27",
        (PROGRAM_PATH_ENUM, FW, ASYNC_ROUND_ROBIN):
            "b59c9946eb7c8bc55ae00d3660b873392a8e54a4e488e75d7fd557e62f339596",
        (PROGRAM_PATH_ENUM, FW, ASYNC_RANDOM_FAIR):
            "5708f208b05e2274e94935d8d3354c44b4624730b0179e2e844fa32feb274eb7",
    }

    @pytest.mark.parametrize("program, board_class, kind", list(DIGESTS))
    def test_pinned_runs(self, program, board_class, kind):
        h = hashlib.sha256()
        for graph_spec in self.GRAPHS[program, board_class]:
            for seed in range(4):
                cfg = fuzz_config(load_graph(graph_spec), 2 + seed % 3, FuzzSpec(), seed,
                                  board_class=board_class, program=program)
                for line in _async_lines(cfg, SchedulePolicy(kind=kind, seed=seed)):
                    h.update(line.encode())
        assert h.hexdigest() == self.DIGESTS[program, board_class, kind]


def literal_sync_round(cfg, duplex):
    """The synchronous round as stated, with no index: a merge at every
    occupied node and a step of every agent there, waiting ones too, in
    activation order (groups found by scanning positions); the timeout
    check at every node, ascending; duplex resolution and the moves; a
    merge at every node holding two or more agents; one tick.  Returns
    the accepted moves as (agent, from, port, to)."""
    agents = cfg.agents
    order = sorted(range(len(agents)), key=lambda i: scheduler._order_key(agents[i].ident, i))
    intents = []
    for node in sorted({a.pos for a in agents}):
        here = [i for i in order if agents[i].pos == node]
        merge_gossip(cfg, node, here)
        for idx in here:
            intent, _ = scheduler._STEP_FNS[agents[idx].program](cfg, idx)
            if not intent.stay:
                intents.append(intent)
    for node in range(len(cfg.boards)):
        intents.extend(intent for intent, _ in timeout_check_and_execute(cfg, node))
    moves = []
    for intent, ok in zip(intents, resolve_duplex(cfg, intents, duplex)):
        to, port = cfg.graph.neighbor(intent.frm, intent.via)
        agent = agents[intent.agent]
        agent.last_move_accepted = ok
        if ok:
            agent.pos, agent.arrival_port = to, port
            moves.append((intent.agent, intent.frm, intent.via, to))
    for node in range(len(cfg.boards)):
        here = group_at(cfg, node)
        if len(here) >= 2:
            merge_gossip(cfg, node, here)
    cfg.ticks += 1
    return moves


class TestLiteralSyncRound:
    """:func:`sync_round` on a carried index against the literal round:
    the state key and the accepted moves of every round."""

    @given(
        st.sampled_from(["ring:5", "grid:3x3", "random:7:2:3", "random:8:3:5"]),
        st.integers(2, 4),
        st.sampled_from([CW, FW]),
        st.sampled_from([HALF, FULL]),
        st.sampled_from(["clean", "fuzzed", "clustered"]),
        st.sampled_from([None, 3, 7]),
        st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_carried_equals_literal(self, graph, k, board_class, duplex, start, cap, seed):
        spec = {"clean": CLEAN_SPEC, "fuzzed": FuzzSpec(),
                "clustered": FuzzSpec(placement=CLUSTERED)}[start]
        cfg = fuzz_config(load_graph(graph), k, spec, seed, board_class=board_class)
        if cap is not None:
            small_cap(cfg, cap)
        literal = cfg.clone()
        index = RoundIndex(cfg)
        for _ in range(150):
            rec = sync_round(cfg, duplex, index)
            check_rows(cfg)
            moves = [(m.agent, m.frm, m.via, m.to) for m in rec.moves if m.accepted]
            assert literal_sync_round(literal, duplex) == moves
            assert state_key(literal) == state_key(cfg)


def literal_async_step(cfg, idx):
    """The asynchronous step as stated, with no index: a merge of the
    agents at the agent's node, found by scanning positions, before its
    step and, if it moved, one at its new node after.  The round clock
    stands still."""
    agent = cfg.agents[idx]
    frm = agent.pos
    merge_gossip(cfg, frm, group_at(cfg, frm))
    intent, _ = scheduler._STEP_FNS[agent.program](cfg, idx)
    rec = StepRecord((idx,), merges=(frm,))
    if not intent.stay:
        to, port = cfg.graph.neighbor(intent.frm, intent.via)
        agent.pos, agent.arrival_port, agent.last_move_accepted = to, port, True
        merge_gossip(cfg, to, group_at(cfg, to))
        intent.to, intent.accepted = to, True
        rec.moves = [intent]
        rec.merges = (frm, to)
    return rec


class TestLiteralAsyncStep:
    """``run``'s asynchronous steps, which carry one index through the run,
    and standalone :func:`async_step` calls, which build a fresh one each,
    against the literal step: every record and snapshot, step by step."""

    BOARDS = [(PROGRAM_FW_DFT, FW), (PROGRAM_PATH_ENUM, NW), (PROGRAM_PATH_ENUM, CW),
              (PROGRAM_PATH_ENUM, FW), (PROGRAM_DFT, CW), (PROGRAM_DFT, FW)]

    @staticmethod
    def _check(cfg, policy, steps):
        check_rows(cfg)
        fresh, literal, carried = cfg.clone(), cfg.clone(), cfg.clone()
        got = []
        # dft_kminus1 is timer-dependent, so its async run must be forced
        run(cfg, policy, max_steps=steps, unsafe_async=True,
            observer=lambda c, rec: got.append(_record_line(len(got), c, rec)))
        picks = list(islice(_picks(policy, cfg.k), steps))
        assert got == [_record_line(j, fresh, async_step(fresh, idx))
                       for j, idx in enumerate(picks)]
        assert got == [_record_line(j, literal, literal_async_step(literal, idx))
                       for j, idx in enumerate(picks)]
        index = RoundIndex(carried)
        for j, (idx, line) in enumerate(zip(picks, got)):
            assert _record_line(j, carried, async_step(carried, idx, index)) == line
            check_arrivals(carried, index)
            check_rows(carried)

    @pytest.mark.parametrize("program, board_class", BOARDS)
    @pytest.mark.parametrize("kind", [ASYNC_ROUND_ROBIN, ASYNC_RANDOM_FAIR])
    @pytest.mark.parametrize("placement", [UNIFORM, CLUSTERED])
    def test_run_equals_literal(self, program, board_class, kind, placement):
        spec = FuzzSpec(placement=placement)
        for seed, graph in enumerate(("ring:6", "grid:3x3", "random:8:3:5")):
            cfg = fuzz_config(load_graph(graph), 2 + seed, spec, seed,
                              board_class=board_class, program=program)
            self._check(cfg, SchedulePolicy(kind=kind, seed=seed), 150)

    @given(
        st.sampled_from(["ring:5", "grid:3x4", "random:7:2:3", "random:10:4:3"]),
        st.integers(1, 5),
        st.sampled_from(BOARDS),
        st.sampled_from([ASYNC_ROUND_ROBIN, ASYNC_RANDOM_FAIR]),
        st.booleans(),
        st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_run_equals_literal_on_drawn_starts(self, graph, k, board, kind, clustered, seed):
        program, board_class = board
        spec = FuzzSpec(garbage_token_rate=0.5, store_garbage_rate=0.5,
                        placement=CLUSTERED if clustered else UNIFORM)
        cfg = fuzz_config(load_graph(graph), k, spec, seed, board_class=board_class,
                          program=program)
        self._check(cfg, SchedulePolicy(kind=kind, seed=seed), 120)

    def test_post_move_merge_leaves_arrivals(self, monkeypatch):
        # walker 0 moves onto walker 1's node and merges there, which covers
        # that node: walker 1's next step merges only where it moves to
        merged = TestRoundIndex._count_merges(monkeypatch)
        cfg = walker_cfg([0, 1])
        index = RoundIndex(cfg)
        rec = async_step(cfg, 0, index)
        assert rec.merges == (0, 1) and merged == [0, 1] and index.arrivals == set()
        merged.clear()
        rec = async_step(cfg, 1, index)
        assert merged == [rec.moves[0].to] == [2]

    def test_unjoined_node_not_merged_again(self, monkeypatch):
        # every agent parked for good stays: the first step at each occupied
        # node merges there, and no later step merges anywhere
        merged = TestRoundIndex._count_merges(monkeypatch)
        cfg = dft_cfg([(1, 0), (2, 0), (3, 2)], cls=FW)
        _park_for_good(cfg)
        seen = []
        run(cfg, SchedulePolicy(kind=ASYNC_ROUND_ROBIN), max_steps=9, unsafe_async=True,
            observer=lambda c, rec: seen.append((rec.acting, rec.merges, rec.moves)))
        assert merged == [0, 2]
        assert seen == [((i % 3,), ((0, 0, 2)[i % 3],), []) for i in range(9)]
