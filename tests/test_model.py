import json

import pytest
from hypothesis import given, strategies as st

from gossipsim.model import (
    Agent,
    BoardClassError,
    CW,
    FW,
    ModelError,
    NW,
    PathCursor,
    Token,
    Whiteboard,
    assoc_get,
    assoc_put,
    clean_board,
    config_to_json,
    default_timer_cap,
    make_configuration,
    merge_gossip,
    snapshot_hash,
    state_key,
    store_put,
)
from gossipsim.topology import build_ring


class TestAssocTables:
    def test_missing_row_reads_default(self):
        b = Whiteboard(cls=CW)
        assert assoc_get(b, "t_table", 7) is True
        assert assoc_get(b, "in_link", 7) is None
        assert assoc_get(b, "out_link", 7) is None

    def test_put_then_get(self):
        b = Whiteboard(cls=CW)
        assoc_put(b, "t_table", 3, False)
        assoc_put(b, "out_link", 3, 2)
        assert assoc_get(b, "t_table", 3) is False
        assert assoc_get(b, "out_link", 3) == 2

    def test_storing_default_removes_row(self):
        b = Whiteboard(cls=CW)
        assoc_put(b, "in_link", 5, 1)
        assoc_put(b, "in_link", 5, None)
        assert b.in_link == {}

    def test_one_row_per_id(self):
        b = Whiteboard(cls=CW)
        assoc_put(b, "out_link", 4, 0)
        assoc_put(b, "out_link", 4, 3)
        assert b.out_link == {4: 3}

    def test_nw_rejects_writes(self):
        b = Whiteboard(cls=NW)
        with pytest.raises(BoardClassError):
            assoc_put(b, "t_table", 1, False)

    def test_store_requires_fw(self):
        with pytest.raises(BoardClassError):
            store_put(Whiteboard(cls=CW), {Token("a", "b")})
        b = Whiteboard(cls=FW)
        store_put(b, {Token("a", "b")})
        store_put(b, {Token("a", "b")})
        assert b.store == {Token("a", "b")}

    @given(st.lists(st.tuples(st.integers(0, 9), st.booleans()), max_size=30))
    def test_last_write_wins(self, writes):
        b = Whiteboard(cls=CW)
        shadow = {}
        for ident, value in writes:
            assoc_put(b, "t_table", ident, value)
            shadow[ident] = value
        for ident, value in shadow.items():
            assert assoc_get(b, "t_table", ident) is value


class TestConfiguration:
    def test_clean_board_sentinel(self):
        b = clean_board(CW, max_id=100)
        assert b.min_id == 100
        assert clean_board(NW, max_id=100).min_id == 0

    def test_duplicate_ids_rejected(self):
        g = build_ring(3)
        with pytest.raises(ModelError):
            make_configuration(g, [Agent(ident=1, pos=0), Agent(ident=1, pos=1)], CW)

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
        copy.boards[1].store.add(Token("x", "y"))
        assert cfg.agents[0].pos == 0
        assert cfg.boards[0].t_table == {}
        assert cfg.boards[1].store == set()


class TestGossipMerge:
    def test_union_at_node(self):
        g = build_ring(3)
        agents = [Agent(ident=1, pos=0), Agent(ident=2, pos=0), Agent(ident=3, pos=1)]
        cfg = make_configuration(g, agents, CW)
        merge_gossip(cfg, 0)
        assert agents[0].known == agents[1].known
        assert cfg.genuine[2] not in agents[0].known

    def test_fw_store_participates(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=1, pos=0)], FW)
        cfg.boards[0].store.add(Token("old", "news"))
        merge_gossip(cfg, 0)
        assert Token("old", "news") in cfg.agents[0].known
        assert cfg.genuine[0] in cfg.boards[0].store

    def test_empty_node_noop(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=1, pos=0)], FW)
        merge_gossip(cfg, 2)
        assert cfg.boards[2].store == set()


class TestStateKey:
    def _cfg(self):
        g = build_ring(4)
        return make_configuration(g, [Agent(ident=1, pos=0), Agent(ident=2, pos=2)], CW)

    def test_round_excluded(self):
        cfg = self._cfg()
        key = state_key(cfg)
        cfg.round += 7
        assert state_key(cfg) == key

    def test_board_change_detected(self):
        cfg = self._cfg()
        key = state_key(cfg)
        assoc_put(cfg.boards[3], "t_table", 1, False)
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


class TestSnapshotHash:
    def test_anonymous_agents_interchangeable(self):
        g = build_ring(4)
        a = make_configuration(g, [Agent(ident=None, pos=0), Agent(ident=None, pos=2)], FW)
        b = make_configuration(g, [Agent(ident=None, pos=2), Agent(ident=None, pos=0)], FW)
        # known sets differ per index; align them
        for agent in a.agents + b.agents:
            agent.known = set()
        assert snapshot_hash(a) == snapshot_hash(b)

    def test_named_agents_not_interchangeable(self):
        g = build_ring(4)
        a = make_configuration(g, [Agent(ident=1, pos=0), Agent(ident=2, pos=2)], CW)
        b = make_configuration(g, [Agent(ident=1, pos=2), Agent(ident=2, pos=0)], CW)
        assert snapshot_hash(a) != snapshot_hash(b)


class TestJsonSnapshot:
    def test_stable_and_parseable(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=4, pos=1)], FW)
        doc = json.loads(config_to_json(cfg))
        assert doc["agents"][0]["ident"] == 4
        assert doc["boards"][0]["class"] == FW
        assert config_to_json(cfg) == config_to_json(cfg.clone())
