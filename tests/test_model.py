import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from gossipsim.cli import load_graph
from gossipsim.harness import CLEAN_SPEC, FuzzSpec, _park_for_good, fuzz_config
from gossipsim.model import (
    Agent,
    CW,
    FW,
    PROGRAM_PATH_ENUM,
    Configuration,
    Fingerprint,
    ModelError,
    NW,
    PathCursor,
    Token,
    Whiteboard,
    clean_board,
    default_timer_cap,
    fingerprint,
    make_configuration,
    merge_gossip,
    set_timer,
    snapshot_hash,
    state_key,
    timer,
)
from gossipsim.protocol_dft import dft_agent_step, timeout_check_and_execute
from gossipsim.scheduler import (
    ASYNC_ROUND_ROBIN,
    FULL,
    HALF,
    RoundIndex,
    SchedulePolicy,
    run,
    sync_round,
)
from gossipsim.topology import build_grid, build_ring, random_connected_graph


def check_rows(cfg: Configuration) -> None:
    """Every row table is canonical: no row holds its table's default (a
    True traversal bit, a None link), and NW boards hold no rows."""
    for v, b in enumerate(cfg.boards):
        assert True not in b.t_table.values(), (v, b.t_table)
        assert None not in b.in_link.values(), (v, b.in_link)
        assert None not in b.out_link.values(), (v, b.out_link)
        assert b.cls != NW or not (b.t_table or b.in_link or b.out_link), v


class TestCheckRows:
    @pytest.mark.parametrize("cls, table, row", [
        (CW, "t_table", True), (FW, "in_link", None), (CW, "out_link", None),
        (NW, "t_table", False),
    ])
    def test_refuses_a_noncanonical_row(self, cls, table, row):
        cfg = make_configuration(build_ring(3), [Agent(ident=1, pos=0)], cls)
        check_rows(cfg)
        getattr(cfg.boards[2], table)[1] = row
        with pytest.raises(AssertionError):
            check_rows(cfg)


class TestConfiguration:
    def test_clean_board_sentinel(self):
        b = clean_board(CW, max_id=100)
        assert b.min_id == 100
        assert clean_board(NW, max_id=100).min_id == 0

    def test_duplicate_ids_rejected(self):
        g = build_ring(3)
        with pytest.raises(ModelError):
            make_configuration(g, [Agent(ident=1, pos=0), Agent(ident=1, pos=1)], CW)

    def test_unknown_board_class_rejected(self):
        with pytest.raises(ModelError, match="unknown board class 'XW'"):
            make_configuration(build_ring(3), [], "XW")

    def test_genuine_tokens_seeded(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=1, pos=0), Agent(ident=2, pos=1)], CW)
        assert len(cfg.genuine) == 2
        for idx, token in cfg.genuine.items():
            assert token in cfg.agents[idx].known

    def test_default_timer_cap(self):
        g = build_ring(4)
        cfg = make_configuration(g, [Agent(ident=1, pos=0)], CW)
        assert cfg.timer_cap == default_timer_cap(g) > 2 * g.edge_count

    def test_clone_is_deep(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=1, pos=0)], FW)
        copy = cfg.clone()
        copy.agents[0].pos = 2
        copy.boards[0].t_table[1] = False
        copy.boards[1].store = copy.boards[1].store | {Token("x", "y")}
        assert cfg.agents[0].pos == 0
        assert cfg.boards[0].t_table == {}
        assert cfg.boards[1].store == set()

    def test_clone_shares_gossip_and_waiting_sets(self):
        # agents 0 and 1 share node 0, whose MinID makes agent 1 (id 2) park
        agents = [Agent(ident=1, pos=0), Agent(ident=2, pos=0), Agent(ident=3, pos=1)]
        cfg = make_configuration(build_ring(4), agents, FW)
        cfg.boards[0].min_id = 1
        copy = cfg.clone()
        assert copy.genuine is cfg.genuine
        for a, b in zip(copy.agents, cfg.agents):
            assert a.known is b.known
        for a, b in zip(copy.boards, cfg.boards):
            assert a.store is b.store and a.waiting is b.waiting
            assert a.t_table is not b.t_table
        before = ([set(a.known) for a in cfg.agents],
                  [(set(b.store), set(b.waiting)) for b in cfg.boards])

        assert merge_gossip(copy, 0, [0, 1])
        _, meta = dft_agent_step(copy, 1)
        assert meta.joined_waiting and copy.boards[0].waiting == {2}
        copy.boards[0].wait_t = 0  # the timer has reached it: release due
        assert [i.agent for i, _ in timeout_check_and_execute(copy, 0)] == [1]
        assert copy.boards[0].waiting == set()

        assert before == ([set(a.known) for a in cfg.agents],
                          [(set(b.store), set(b.waiting)) for b in cfg.boards])
        assert cfg.boards[0].waiting == set() and not cfg.agents[1].parked


class TestGossipMerge:
    def test_union_at_node(self):
        g = build_ring(3)
        agents = [Agent(ident=1, pos=0), Agent(ident=2, pos=0), Agent(ident=3, pos=1)]
        cfg = make_configuration(g, agents, CW)
        merge_gossip(cfg, 0, [0, 1])
        assert agents[0].known == agents[1].known
        assert cfg.genuine[2] not in agents[0].known

    def test_fw_store_participates(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=1, pos=0)], FW)
        cfg.boards[0].store = cfg.boards[0].store | {Token("old", "news")}
        merge_gossip(cfg, 0, [0])
        assert Token("old", "news") in cfg.agents[0].known
        assert cfg.genuine[0] in cfg.boards[0].store

    def test_empty_node_noop(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=1, pos=0)], FW)
        merge_gossip(cfg, 2, [])
        assert cfg.boards[2].store == set()

    def test_store_kept_when_union_adds_nothing(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=1, pos=0), Agent(ident=2, pos=0)], FW)
        merge_gossip(cfg, 0, [0, 1])
        store = cfg.boards[0].store
        known = [a.known for a in cfg.agents]
        merge_gossip(cfg, 0, [0, 1])
        assert cfg.boards[0].store is store
        assert all(a.known is k for a, k in zip(cfg.agents, known))

    @pytest.mark.parametrize("board_class", [CW, FW])
    def test_grouped_indices_merge_the_group_only(self, board_class):
        agents = [Agent(ident=1, pos=0), Agent(ident=2, pos=1), Agent(ident=3, pos=0)]
        cfg = make_configuration(build_ring(3), agents, board_class)
        ghost, news = Token("ghost", "junk"), Token("old", "news")
        cfg.agents[2].known = cfg.agents[2].known | {ghost}
        want = {cfg.genuine[0], cfg.genuine[2], ghost}
        if board_class == FW:
            cfg.boards[0].store = cfg.boards[0].store | {news}
            want.add(news)
        untouched = set(cfg.agents[1].known)
        merge_gossip(cfg, 0, [0, 2])
        assert cfg.agents[0].known == cfg.agents[2].known == want
        assert cfg.boards[0].store == (want if board_class == FW else set())
        assert cfg.agents[1].known == untouched == {cfg.genuine[1]}

    @pytest.mark.parametrize("board_class", [CW, FW])
    def test_grown_participants_share_one_union(self, board_class):
        agents = [Agent(ident=i, pos=0) for i in (1, 2, 3)]
        cfg = make_configuration(build_ring(3), agents, board_class)
        assert merge_gossip(cfg, 0, [0, 1, 2])
        union = cfg.agents[0].known
        assert union == set(cfg.genuine.values())
        assert all(a.known is union for a in cfg.agents)
        if board_class == FW:
            assert cfg.boards[0].store is union
        else:
            assert cfg.boards[0].store == set()

    def test_union_reuses_a_participant_set(self):
        # agent 2 already knows everything the others and the store hold
        agents = [Agent(ident=i, pos=0) for i in (1, 2, 3)]
        cfg = make_configuration(build_ring(3), agents, FW)
        full = cfg.agents[2].known = frozenset(cfg.genuine.values()) | {Token("ghost", "junk")}
        assert merge_gossip(cfg, 0, [0, 1, 2])
        assert all(a.known is full for a in cfg.agents)
        assert cfg.boards[0].store is full

    def test_lone_agent_and_store_share_one_set(self):
        cfg = make_configuration(build_ring(3), [Agent(ident=1, pos=0)], FW)
        agent, board = cfg.agents[0], cfg.boards[0]
        known = agent.known
        assert merge_gossip(cfg, 0, [0])  # the store grows to the known set
        assert board.store is known is agent.known
        assert not merge_gossip(cfg, 0, [0])
        news = board.store = board.store | {Token("old", "news")}
        assert merge_gossip(cfg, 0, [0])  # the known set grows to the store
        assert agent.known is news is board.store
        agent.known = agent.known | {Token("ghost", "junk")}
        board.store = board.store | {Token("more", "news")}
        assert merge_gossip(cfg, 0, [0])  # both grow: one new union
        assert agent.known is board.store and len(board.store) == 4


class TestStateKey:
    def _cfg(self):
        g = build_ring(4)
        return make_configuration(g, [Agent(ident=1, pos=0), Agent(ident=2, pos=2)], CW)

    def test_board_change_detected(self):
        cfg = self._cfg()
        key = state_key(cfg)
        cfg.boards[3].t_table[1] = False
        assert state_key(cfg) != key

    def test_clone_same_key(self):
        cfg = self._cfg()
        assert state_key(cfg) == state_key(cfg.clone())

    def test_hashable(self):
        cfg = self._cfg()
        cfg.agents[0].cursor = PathCursor(length=3, labels=(0, 1, 1), trail=(1, 0, 1))
        assert hash(state_key(cfg)) == hash(state_key(cfg.clone()))

    def test_cleared_flags_encode_like_fresh(self):
        cfg = self._cfg()
        key = state_key(cfg)
        agent = cfg.agents[0]
        agent.parked = agent.bounced = True
        assert state_key(cfg) != key
        agent.parked = agent.bounced = False
        assert state_key(cfg) == key


def _untimed(board: Whiteboard) -> Whiteboard:
    return dataclasses.replace(board.clone(), timer_base=0, timer_stamp=0)


def _control(item):
    """A clone of an agent or a board without its gossip set."""
    if isinstance(item, Agent):
        return dataclasses.replace(item.clone(), known=set())
    return dataclasses.replace(item.clone(), store=set())


def _gossip(cfg: Configuration) -> list[frozenset]:
    return [frozenset(a.known) for a in cfg.agents] + [frozenset(b.store) for b in cfg.boards]


WAITERS_AND_STORES = FuzzSpec(waiting_garbage_rate=1.0, store_garbage_rate=1.0)


def frozen_ring4_fw():
    # every agent parked for good: rounds only merge gossip while the timers count up
    cfg = fuzz_config(build_ring(4), 3, FuzzSpec(), 5, board_class=FW)
    _park_for_good(cfg)
    return cfg


def small_cap(cfg, cap=3):
    """``cfg`` under timer cap ``cap``, each timer clamped to one above it,
    so that timers saturate within a few rounds."""
    cfg.timer_cap = cap
    for board in cfg.boards:
        set_timer(cfg, board, min(timer(cfg, board), cap + 1))
    return cfg


# name -> (start, duplex); every start writes boards in its rounds
ROUND_STARTS = {
    "grid:3x3 FW, waiters everywhere": (
        lambda: fuzz_config(build_grid(3, 3), 3, WAITERS_AND_STORES, 0, board_class=FW), HALF),
    "random:7:2:3 seed 246 half": (
        lambda: fuzz_config(random_connected_graph(7, 2, seed=3), 3, FuzzSpec(), 246), HALF),
    "random:7:2:3 seed 246 full": (
        lambda: fuzz_config(random_connected_graph(7, 2, seed=3), 3, FuzzSpec(), 246), FULL),
    "ring:4 FW frozen": (frozen_ring4_fw, HALF),
    "grid:3x3 FW cap 3": (
        lambda: small_cap(fuzz_config(build_grid(3, 3), 3, WAITERS_AND_STORES, 1,
                                      board_class=FW)), HALF),
    "random:7:2:3 seed 246 cap 7": (
        lambda: small_cap(fuzz_config(random_connected_graph(7, 2, seed=3), 3, FuzzSpec(),
                                      246), 7), FULL),
}


def _reordered(cfg: Configuration) -> Configuration:
    """A clone of ``cfg`` whose sets and tables were filled in reverse order."""
    def rev_set(s):
        return set(reversed(list(s)))

    def rev_dict(d):
        return dict(reversed(list(d.items())))

    out = cfg.clone()
    for a in out.agents:
        a.known = rev_set(a.known)
    for b in out.boards:
        b.t_table, b.in_link = rev_dict(b.t_table), rev_dict(b.in_link)
        b.out_link = rev_dict(b.out_link)
        b.waiting, b.store = rev_set(b.waiting), rev_set(b.store)
    return out


class TestKeyCache:
    """The round key :func:`~gossipsim.harness.detect_cycle` keeps: a
    :class:`Fingerprint` updated from the round's write record
    (``index.boards`` and ``index.agents``) and the round clock returns
    ``fingerprint(state_key(cfg))`` every round, and every board and agent
    a round writes is in its record: a timer that only ticks is not
    written.  The rounds carry one :class:`RoundIndex`, as detect_cycle's
    do, so the record names only what such rounds write."""

    @pytest.mark.parametrize("board_class", [CW, FW])
    def test_timer_only_change_at_quiet_board(self, board_class):
        # every agent parked for good: the boards without agents only
        # tick, under a cap low enough that they saturate
        cfg = make_configuration(
            build_ring(4), [Agent(ident=1, pos=0), Agent(ident=2, pos=2)], board_class
        )
        _park_for_good(cfg)
        small_cap(cfg)
        set_timer(cfg, cfg.boards[3], 9)  # above the cap: never ticks
        fp = Fingerprint(cfg)
        index = RoundIndex(cfg)
        for _ in range(6):
            assert fp.update(index.boards, index.agents) == fingerprint(state_key(cfg))
            sync_round(cfg, HALF, index)
        fp.update(index.boards, index.agents)
        set_timer(cfg, cfg.boards[1], 1)  # a write outside a round names its node itself
        assert fp.update([1]) == fingerprint(state_key(cfg))
        for _ in range(6):
            sync_round(cfg, HALF, index)
            assert fp.update(index.boards, index.agents) == fingerprint(state_key(cfg))
        assert [timer(cfg, b) for b in cfg.boards] == [3, 3, 3, 9]

    @pytest.mark.parametrize("case", sorted(ROUND_STARTS))
    def test_round_writes_beyond_timer_only_where_agents_are_or_wait(self, case):
        # the record holds every board whose control state the round wrote
        # beyond its timer, and no node where no agent stepped and no agent
        # waits; a stored timer changes only where the round wrote the
        # board, and a store only in a round that moved index.grown
        make, duplex = ROUND_STARTS[case]
        cfg = make()
        index = RoundIndex(cfg)
        writes = 0
        for _ in range(120):
            stored = [_control(b) for b in cfg.boards]
            before = [_untimed(b) for b in stored]
            gossip, grown = _gossip(cfg), index.grown
            waiters = {v for v, b in enumerate(cfg.boards) if b.waiting}
            rec = sync_round(cfg, duplex, index)
            changed = {v for v, b in enumerate(cfg.boards) if _untimed(_control(b)) != before[v]}
            assert changed <= index.boards <= set(rec.merges) | waiters
            assert {v for v, b in enumerate(cfg.boards) if _control(b) != stored[v]} <= index.boards
            assert (index.grown != grown) is (_gossip(cfg) != gossip)
            writes += len(changed)
        assert writes > 0  # the starts do write boards

    @pytest.mark.parametrize("case", sorted(ROUND_STARTS))
    def test_round_writes_agents_only_in_barrier(self, case):
        # every agent whose control state a round with a carried index
        # changes is in its agent record, and a round that grows a known
        # set moves index.grown
        make, duplex = ROUND_STARTS[case]
        cfg = make()
        index = RoundIndex(cfg)
        writes = grew = 0
        for _ in range(120):
            before = [_control(a) for a in cfg.agents]
            gossip, grown = _gossip(cfg), index.grown
            sync_round(cfg, duplex, index)
            changed = {i for i, a in enumerate(cfg.agents) if _control(a) != before[i]}
            assert changed <= index.agents
            assert (index.grown != grown) is (_gossip(cfg) != gossip)
            writes += len(changed)
            grew += index.grown != grown
        # every start grows a known set; only the frozen one, where every
        # agent is parked for good, writes no agent's control state
        assert grew > 0 and (writes == 0) is (case == "ring:4 FW frozen")

    @pytest.mark.parametrize("case", sorted(ROUND_STARTS))
    def test_incremental_equals_from_scratch(self, case):
        make, duplex = ROUND_STARTS[case]
        cfg = make()
        fp = Fingerprint(cfg)
        index = RoundIndex(cfg)
        for _ in range(120):
            assert fp.update(index.boards, index.agents) == fingerprint(state_key(cfg))
            sync_round(cfg, duplex, index)
        assert fp.update(index.boards, index.agents) == fingerprint(state_key(cfg))

    @pytest.mark.parametrize("case", sorted(ROUND_STARTS))
    def test_equal_keys_equal_fingerprints(self, case):
        make, duplex = ROUND_STARTS[case]
        cfg = make()
        other = _reordered(cfg)
        assert state_key(other) == state_key(cfg)
        fp, fp_other = Fingerprint(cfg), Fingerprint(other)
        index, index_other = RoundIndex(cfg), RoundIndex(other)
        for _ in range(40):
            want = fp.update(index.boards, index.agents)
            assert fp_other.update(index_other.boards, index_other.agents) == want
            sync_round(cfg, duplex, index)
            sync_round(other, duplex, index_other)

    @given(
        st.sampled_from(["ring:5", "grid:2x3", "random:6:3:1", "random:7:2:3"]),
        st.sampled_from([CW, FW]),
        st.sampled_from([HALF, FULL]),
        st.booleans(),
        st.sampled_from([None, 3, 7]),
        st.integers(0, 10**6),
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_equals_state_key_every_round(self, graph, board_class, duplex, clean, cap, seed):
        spec = CLEAN_SPEC if clean else FuzzSpec()
        cfg = fuzz_config(load_graph(graph), 3, spec, seed, board_class=board_class)
        if cap is not None:
            small_cap(cfg, cap)
        fp = Fingerprint(cfg)
        index = RoundIndex(cfg)
        for _ in range(60):
            assert fp.update(index.boards, index.agents) == fingerprint(state_key(cfg))
            sync_round(cfg, duplex, index)
        assert fp.update(index.boards, index.agents) == fingerprint(state_key(cfg))


class TestLazyTimers:
    """Timers read against the round clock give the states that a tick of
    every board in every round gave; the digests were computed with that
    per-round tick."""

    # SHA-256 over the snapshot_hash of the state after each of 120 rounds;
    # the cap-3 and cap-7 starts hold timers at cap + 1
    ROUND_DIGESTS = {
        "grid:3x3 FW cap 3": "7bb0399869f34425fe4c21bf3965bef1d5b30973490498b2ea01e27ae3cd8dbc",
        "grid:3x3 FW, waiters everywhere":
            "14cf3d8c9a60374536e8d85cb1e115950a1fe4ed45d3f44841d03bec7ad1f73c",
        "random:7:2:3 seed 246 cap 7":
            "b37b29625d03eb7ee9f5e8f3f2c7dee1d765cb3e8b902a55fdda03fb041a8448",
        "random:7:2:3 seed 246 full":
            "9bf59a550167712a4b76ffe4f71ccf5cb4961100281a093b167aad4790ebd802",
        "random:7:2:3 seed 246 half":
            "9bf59a550167712a4b76ffe4f71ccf5cb4961100281a093b167aad4790ebd802",
        "ring:4 FW frozen": "d9dfe7410e29c8a1c42296c68fc2f0d222df963fe53774fe084beb7382975a8d",
    }
    ASYNC_DIGEST = "9964c265cfb72c7b33e9c3644bfb837c71ff228f6c0eae44ed2d444194549e50"

    @pytest.mark.parametrize("case", sorted(ROUND_STARTS))
    def test_round_sequence_pinned(self, case):
        make, duplex = ROUND_STARTS[case]
        cfg = make()
        h = hashlib.sha256()
        for _ in range(120):
            sync_round(cfg, duplex)
            h.update(snapshot_hash(cfg).encode())
        assert h.hexdigest() == self.ROUND_DIGESTS[case]
        assert cfg.ticks == 120

    def test_unsafe_async_run_pinned(self):
        # an async step never advances the clock, so a timer reads either
        # its start value or the 0 a gate wrote
        cfg = fuzz_config(random_connected_graph(7, 2, seed=3), 3, FuzzSpec(), 246)
        start = [timer(cfg, b) for b in cfg.boards]
        h = hashlib.sha256()

        def observe(c, rec):
            h.update(snapshot_hash(c).encode())
            assert all(timer(c, b) in (t, 0) for b, t in zip(c.boards, start))

        run(cfg, SchedulePolicy(kind=ASYNC_ROUND_ROBIN), max_steps=20, unsafe_async=True,
            observer=observe)
        assert cfg.ticks == 0
        assert h.hexdigest() == self.ASYNC_DIGEST

    @pytest.mark.parametrize("case", sorted(ROUND_STARTS))
    def test_clone_mid_run_reads_same_timers(self, case):
        make, duplex = ROUND_STARTS[case]
        cfg = make()
        for _ in range(37):
            sync_round(cfg, duplex)
        twin = cfg.clone()
        assert [timer(twin, b) for b in twin.boards] == [timer(cfg, b) for b in cfg.boards]
        for _ in range(20):
            sync_round(cfg, duplex)
            sync_round(twin, duplex)
            assert state_key(twin) == state_key(cfg)


class TestEncodingCoverage:
    """Every field either changes ``state_key`` or is named as left out,
    and an encoded field changes either the gossip part only or the
    control parts only, so a field added later without an encoding, or
    without a part, fails here."""

    AGENT_ALTERNATIVES = {
        "ident": 2,
        "pos": 1,
        "t_bit": True,
        "known": {Token("x", "y")},
        "program": PROGRAM_PATH_ENUM,
        "parked": True,
        "bounced": True,
        "cursor": PathCursor(length=2),
        "arrival_port": 1,
        "last_move_accepted": False,
    }
    BOARD_ALTERNATIVES = {
        "cls": NW,
        "t_table": {1: False},
        "in_link": {1: 0},
        "out_link": {1: 0},
        "min_id": 3,
        "wait_t": 4,
        "waiting": {1},
        "timer": 2,  # given through set_timer, which writes TIMER_FIELDS
        "store": {Token("x", "y")},
    }
    # the stored form of the timer: the value last given and the clock then
    TIMER_FIELDS = {"timer_base", "timer_stamp"}
    # CW boards reject gossip-store writes, so their store stays empty
    BOARD_UNENCODED = {CW: {"store"}, FW: set()}
    # the fields of state_key's fourth part; every other one is control state
    GOSSIP_FIELDS = {"known", "store"}
    # the state_key docstring gives the reason for each
    CONFIG_LEFT_OUT = {
        "ticks": 7,
        "graph": build_grid(2, 2),
        "timer_cap": 99,
        "genuine": {},
    }

    def _cfg(self, board_class):
        return make_configuration(
            build_ring(4), [Agent(ident=1, pos=0), Agent(ident=5, pos=2)], board_class
        )

    @staticmethod
    def _set_board_field(cfg, board, name, value):
        if name == "timer":
            set_timer(cfg, board, value)
        else:
            setattr(board, name, value)

    def test_tables_cover_every_field(self):
        names = {cls: {f.name for f in dataclasses.fields(cls)} for cls in (Agent, Whiteboard, Configuration)}
        assert set(self.AGENT_ALTERNATIVES) == names[Agent]
        assert set(self.BOARD_ALTERNATIVES) == names[Whiteboard] - self.TIMER_FIELDS | {"timer"}
        assert set(self.CONFIG_LEFT_OUT) | {"agents", "boards"} == names[Configuration]
        assert self.GOSSIP_FIELDS <= set(self.AGENT_ALTERNATIVES) | set(self.BOARD_ALTERNATIVES)
        for name in self.CONFIG_LEFT_OUT:
            assert f"``{name}``" in state_key.__doc__

    def _check_parts(self, name, key, cfg):
        """The parts of ``state_key(cfg)`` that differ from ``key``: the
        fourth alone for a gossip field, some of the first three for any
        other; returns whether any did."""
        parts = {i for i, (old, new) in enumerate(zip(key, state_key(cfg))) if old != new}
        assert parts <= ({3} if name in self.GOSSIP_FIELDS else {0, 1, 2})
        return bool(parts)

    @pytest.mark.parametrize("name", sorted(AGENT_ALTERNATIVES))
    def test_agent_field_encoded(self, name):
        cfg = self._cfg(CW)
        key = state_key(cfg)
        setattr(cfg.agents[0], name, self.AGENT_ALTERNATIVES[name])
        assert self._check_parts(name, key, cfg)

    @pytest.mark.parametrize("board_class", [CW, FW])
    @pytest.mark.parametrize("name", sorted(BOARD_ALTERNATIVES))
    def test_board_field_encoded(self, board_class, name):
        cfg = self._cfg(board_class)
        key = state_key(cfg)
        self._set_board_field(cfg, cfg.boards[1], name, self.BOARD_ALTERNATIVES[name])
        changed = self._check_parts(name, key, cfg)
        assert changed is (name not in self.BOARD_UNENCODED[board_class])

    @pytest.mark.parametrize("name", sorted(CONFIG_LEFT_OUT))
    def test_config_field_left_out(self, name):
        cfg = self._cfg(FW)
        key = state_key(cfg)
        setattr(cfg, name, self.CONFIG_LEFT_OUT[name])
        if name == "ticks":
            # the timers are read against the round clock: moved with it,
            # they read as before
            for board in cfg.boards:
                board.timer_stamp += self.CONFIG_LEFT_OUT[name]
        assert state_key(cfg) == key

    def test_clone_keeps_every_field(self):
        cfg = self._cfg(FW)
        for name, value in self.CONFIG_LEFT_OUT.items():
            setattr(cfg, name, value)
        for name, value in self.BOARD_ALTERNATIVES.items():
            self._set_board_field(cfg, cfg.boards[1], name, value)  # stamped at ticks 7
        for name, value in self.AGENT_ALTERNATIVES.items():
            setattr(cfg.agents[1], name, value)
        assert cfg.clone() == cfg


class TestSnapshotHash:
    def test_swapped_anonymous_walkers_differ(self):
        # two walkers about to cross edge {0, 1} from opposite ends: the
        # half-duplex tie goes to hidden index 0, so the index is state
        def cfg(order):
            walkers = {
                "a": Agent(ident=None, pos=0, program=PROGRAM_PATH_ENUM),
                "b": Agent(ident=None, pos=1, program=PROGRAM_PATH_ENUM,
                           cursor=PathCursor(next_label=1)),
            }
            c = make_configuration(build_ring(3), [walkers[w] for w in order], FW)
            for agent in c.agents:
                agent.known = set()
            return c

        ab, ba = cfg("ab"), cfg("ba")
        assert snapshot_hash(ab) != snapshot_hash(ba)
        sync_round(ab, HALF)
        sync_round(ba, HALF)
        assert {a.pos for a in ab.agents} == {1}
        assert {a.pos for a in ba.agents} == {0}

    def test_named_agents_not_interchangeable(self):
        g = build_ring(4)
        a = make_configuration(g, [Agent(ident=1, pos=0), Agent(ident=2, pos=2)], CW)
        b = make_configuration(g, [Agent(ident=1, pos=2), Agent(ident=2, pos=0)], CW)
        assert snapshot_hash(a) != snapshot_hash(b)

    # a fuzzed FW start with garbage tokens, two-member waiting sets, link
    # rows and stale store entries; the digest is the one given by the
    # sorted-tuple state encoding, so the frozenset encoding must not
    # change any trace hash
    PINNED = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from gossipsim.harness import FuzzSpec, fuzz_config;"
        "from gossipsim.model import FW, snapshot_hash;"
        "from gossipsim.topology import build_ring;"
        "spec = FuzzSpec(table_garbage_rate=0.5, waiting_garbage_rate=1.0,"
        " garbage_token_rate=1.0, store_garbage_rate=1.0);"
        "print(snapshot_hash(fuzz_config(build_ring(5), 3, spec, 4, board_class=FW)))"
    )
    PINNED_DIGEST = "818355d4abef128a78619a9db22a6c88428aee96744c1d5762c7729b5efc60e4"

    def test_pinned_digest(self):
        from gossipsim.harness import FuzzSpec, fuzz_config

        spec = FuzzSpec(table_garbage_rate=0.5, waiting_garbage_rate=1.0,
                        garbage_token_rate=1.0, store_garbage_rate=1.0)
        cfg = fuzz_config(build_ring(5), 3, spec, 4, board_class=FW)
        assert max(len(b.waiting) for b in cfg.boards) == 2
        assert all(len(a.known) == 2 for a in cfg.agents)
        assert snapshot_hash(cfg) == self.PINNED_DIGEST

    # the same start on CW boards (timers, no store) and with walkers on NW
    # boards (class only); digests of the layout that held each timer in
    # its board's key, which snapshot_hash still writes
    @pytest.mark.parametrize("board_class, program, digest", [
        (CW, "dft_kminus1", "108c95b1af8540f7ac35e7591c1487e6ed82ae8694c8f58eaa05231195d7033a"),
        (NW, PROGRAM_PATH_ENUM, "71bf5d9c61befe917da866e66ad9a200763a21943061d36fae1d32f4c05de871"),
    ])
    def test_pinned_digest_per_board_class(self, board_class, program, digest):
        from gossipsim.harness import FuzzSpec, fuzz_config

        spec = FuzzSpec(table_garbage_rate=0.5, waiting_garbage_rate=1.0,
                        garbage_token_rate=1.0, store_garbage_rate=1.0)
        cfg = fuzz_config(build_ring(5), 3, spec, 4, board_class=board_class, program=program)
        assert snapshot_hash(cfg) == digest

    # fuzz_config's draw order is part of its contract: `run --fuzz --seed s`
    # and every `fuzz` row must reproduce across versions.  One digest over
    # the snapshot hashes of a table of starts: every legal (board class,
    # protocol) pair, four specs (the last with an id domain one above k, so
    # few fake ids remain), three graphs and three seeds with k = 2..4
    FUZZ_TABLE_PAIRS = (
        (CW, "dft_kminus1"), (FW, "dft_kminus1"), (FW, "fw_async_dft"),
        (NW, PROGRAM_PATH_ENUM), (CW, PROGRAM_PATH_ENUM), (FW, PROGRAM_PATH_ENUM),
    )
    FUZZ_TABLE_DIGEST = "c55131f6907c7ded3d7c4d0ada3f78fd64c87cd484adca1e039ab23582b0957d"

    @staticmethod
    def _fuzz_table_specs(k):
        return (
            CLEAN_SPEC,
            FuzzSpec(),
            FuzzSpec(placement="clustered"),
            FuzzSpec(id_high=k + 1, fake_id_rate=1.0, table_garbage_rate=0.9,
                     waiting_garbage_rate=1.0, garbage_token_rate=1.0, store_garbage_rate=1.0),
        )

    def test_pinned_fuzz_table(self):
        h = hashlib.sha256()
        for graph_spec in ("ring:5", "grid:3x4", "random:7:2:3"):
            g = load_graph(graph_spec)
            for board_class, program in self.FUZZ_TABLE_PAIRS:
                for seed in range(3):
                    k = 2 + seed
                    for spec in self._fuzz_table_specs(k):
                        cfg = fuzz_config(g, k, spec, seed, board_class=board_class,
                                          program=program)
                        h.update(snapshot_hash(cfg).encode())
        assert h.hexdigest() == self.FUZZ_TABLE_DIGEST

    def test_independent_of_hash_seed(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import gossipsim

        src = str(Path(gossipsim.__file__).resolve().parent.parent)
        digests = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run([sys.executable, "-c", self.PINNED, src], env=env,
                                 capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert digests == {self.PINNED_DIGEST}
