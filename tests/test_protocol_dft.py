"""Unit fixtures for the traversal protocol, hand-executed line by line."""

import pytest
from hypothesis import given, settings, strategies as st

from gossipsim.model import Agent, CW, FW, NW, Whiteboard, make_configuration, set_timer, timer
from gossipsim.protocol_dft import (
    ProtocolError,
    _mark,
    dft_agent_step,
    due_tick,
    next_port,
    timeout_check_and_execute,
    visit,
)
from gossipsim.topology import build_ring


def two_node_cfg(ident=1, t_bit=False, max_id=100):
    g = build_ring(2)
    agent = Agent(ident=ident, pos=0, t_bit=t_bit)
    return make_configuration(g, [agent], CW, max_id=max_id)


class TestNextPort:
    def test_wraps(self):
        assert next_port(2, 3) == 0

    def test_degree_one_fixed_point(self):
        assert next_port(0, 1) == 0

    def test_increments(self):
        assert next_port(0, 4) == 1

    def test_out_of_range(self):
        with pytest.raises(ProtocolError):
            next_port(3, 3)


class TestMark:
    @given(st.lists(st.tuples(st.integers(0, 9), st.booleans()), max_size=30))
    def test_last_write_wins_and_true_is_no_row(self, writes):
        board = Whiteboard(cls=CW)
        shadow = {}
        for ident, bit in writes:
            _mark(board, ident, bit)
            shadow[ident] = bit
        assert board.t_table == {i: False for i, bit in shadow.items() if not bit}
        for ident, bit in shadow.items():
            assert board.t_table.get(ident, True) is bit


class TestFirstVisit:
    def test_degree_one_fixture(self):
        # clean 2-node graph, agent 1 with t_bit false arrives at node 0
        # via port 0; timer carries a prior value to observe the handoff
        cfg = two_node_cfg()
        board = cfg.boards[0]
        set_timer(cfg, board, 5)
        intent, meta = visit(cfg, 0, 0, 0)
        assert meta.branch == "first_visit"
        assert board.t_table == {1: False}
        assert board.in_link.get(1) is None  # deg 1 resets it to bottom
        assert board.min_id == 1
        assert board.wait_t == 5
        assert timer(cfg, board) == 0
        assert (intent.frm, intent.via) == (0, 0)
        assert intent.kind == "backtrack"

    def test_degree_two_writes_out_link(self):
        g = build_ring(4)
        cfg = make_configuration(g, [Agent(ident=1, pos=0)], CW)
        intent, meta = visit(cfg, 0, 0, 1)
        assert meta.branch == "first_visit"
        assert cfg.boards[0].out_link == {1: 0}  # next(1) on degree 2
        assert intent.via == 0
        assert intent.kind == "forward"

    def test_larger_id_joins_waiting(self):
        cfg = two_node_cfg(ident=9)
        cfg.boards[0].min_id = 1
        intent, meta = visit(cfg, 0, 0, 0)
        assert intent.stay
        assert meta.joined_waiting
        assert cfg.boards[0].waiting == {9}
        assert cfg.agents[0].parked is True
        # board tracking rows were still written
        assert cfg.boards[0].t_table == {9: False}
        assert cfg.boards[0].min_id == 1


class TestPassThrough:
    def test_bounce_leaves_board_alone(self):
        cfg = two_node_cfg()
        visit(cfg, 0, 0, 0)
        before = (dict(cfg.boards[0].t_table), dict(cfg.boards[0].out_link))
        intent, meta = visit(cfg, 0, 0, 0)
        assert meta.branch == "pass_through"
        assert intent.via == 0
        assert (dict(cfg.boards[0].t_table), dict(cfg.boards[0].out_link)) == before

    def test_second_consecutive_bounce_restarts_traversal(self):
        # both nodes already marked for this t_bit with mismatched
        # out-links: the literal branch order would ping-pong forever
        g = build_ring(4)
        cfg = make_configuration(g, [Agent(ident=1, pos=0, t_bit=False)], CW)
        for v, out in ((0, 1), (1, 0)):
            cfg.boards[v].t_table[1] = False
            cfg.boards[v].out_link[1] = out
        _, meta1 = visit(cfg, 0, 0, 0)
        assert meta1.branch == "pass_through"
        intent2, meta2 = visit(cfg, 1, 0, 1)
        assert meta2.repaired and intent2.flipped
        assert cfg.agents[0].t_bit is True
        assert meta2.branch == "first_visit"


class TestCompletion:
    def test_root_complete_flips_and_restarts(self):
        g = build_ring(4)
        cfg = make_configuration(g, [Agent(ident=1, pos=0, t_bit=False)], CW)
        board = cfg.boards[0]
        board.t_table[1] = False
        board.out_link[1] = 1  # arrival via port 1, next(1)=0, in_link bottom
        set_timer(cfg, board, 9)
        intent, meta = visit(cfg, 0, 0, 1)
        assert meta.branch == "root_complete"
        assert intent.flipped
        assert cfg.agents[0].t_bit is True
        # the new mark equals the table default, so the row disappears
        assert board.t_table.get(1, True) is True and board.t_table == {}
        assert board.out_link == {1: 0}
        assert board.wait_t == 9 and timer(cfg, board) == 0
        assert intent.via == 0

    def test_subtree_complete_clears_links(self):
        g = build_ring(4)
        cfg = make_configuration(g, [Agent(ident=1, pos=2, t_bit=False)], CW)
        board = cfg.boards[2]
        board.t_table[1] = False
        board.out_link[1] = 1    # matches arrival port
        board.in_link[1] = 0     # equals next(1) on degree 2
        intent, meta = visit(cfg, 2, 0, 1)
        assert meta.branch == "subtree_complete"
        assert board.in_link == {} and board.out_link == {}
        assert intent.via == 0
        assert intent.kind == "backtrack"

    def test_advance_moves_to_next_port(self):
        g = build_ring(4)
        cfg = make_configuration(g, [Agent(ident=1, pos=2, t_bit=False)], CW)
        board = cfg.boards[2]
        board.t_table[1] = False
        board.out_link[1] = 1
        board.in_link[1] = 1  # differs from next(1)=0 and arrival is not root-shaped
        intent, meta = visit(cfg, 2, 0, 1)
        assert meta.branch == "advance"
        assert board.out_link == {1: 0}
        assert intent.via == 0
        assert intent.kind == "forward"


class TestTimeout:
    def _parked(self, g, ident, pos):
        return Agent(ident=ident, pos=pos, parked=True)

    def test_release_fixture(self):
        # Timer = WaitT = 5, Waiting = {3, 8}, parked agent 3 at the node
        # with no in-link row: the node is its traversal root
        g = build_ring(4)
        a3 = self._parked(g, 3, 1)
        a8 = self._parked(g, 8, 1)
        cfg = make_configuration(g, [a3, a8], CW)
        board = cfg.boards[1]
        set_timer(cfg, board, 5)
        board.wait_t = 5
        board.waiting = {3, 8}
        actions = timeout_check_and_execute(cfg, 1)
        assert len(actions) == 1
        intent, meta = actions[0]
        assert intent.agent == 0 and intent.via == 0
        assert meta.branch == "timeout_root" and intent.flipped
        assert board.min_id == 3
        assert board.waiting == {8}
        assert timer(cfg, board) == 0
        assert a3.t_bit is True
        assert board.out_link == {3: 0}
        assert a3.parked is False

    def test_resume_mid_traversal(self):
        g = build_ring(4)
        agent = self._parked(g, 5, 2)
        cfg = make_configuration(g, [agent], CW)
        board = cfg.boards[2]
        set_timer(cfg, board, 3)
        board.wait_t = 3
        board.waiting = {5}
        board.in_link[5] = 1
        actions = timeout_check_and_execute(cfg, 2)
        (intent, meta), = actions
        assert meta.branch == "timeout_resume"
        assert intent.via == 0  # next(1) on degree 2
        assert board.out_link == {5: 0}

    def test_timer_below_wait_is_silent(self):
        g = build_ring(3)
        cfg = make_configuration(g, [self._parked(g, 2, 0)], CW)
        cfg.boards[0].wait_t = 10
        set_timer(cfg, cfg.boards[0], 9)
        cfg.boards[0].waiting = {2}
        assert timeout_check_and_execute(cfg, 0) == []

    def test_empty_waiting_is_noop_without_reset(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=2, pos=0)], CW)
        set_timer(cfg, cfg.boards[0], 7)
        cfg.boards[0].wait_t = 7
        assert timeout_check_and_execute(cfg, 0) == []
        assert timer(cfg, cfg.boards[0]) == 7  # stays expired for a late arrival

    def test_ghost_entry_discarded(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=2, pos=1)], CW)
        board = cfg.boards[0]
        set_timer(cfg, board, 1)
        board.wait_t = 1
        board.waiting = {2, 4}  # neither is a parked agent at node 0
        assert timeout_check_and_execute(cfg, 0) == []
        assert board.waiting == {4}
        assert board.min_id != 2

    def test_nw_board_skipped(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=2, pos=0)], NW)
        assert timeout_check_and_execute(cfg, 0) == []


class TestDueTick:
    """The forecast the round index schedules by: on a board nobody
    writes, the release condition holds exactly from :func:`due_tick` on."""

    @given(st.sampled_from([NW, CW, FW]), st.sampled_from([3, 7, None]), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_forecast_matches_release_condition(self, cls, cap, data):
        cfg = make_configuration(build_ring(3), [], cls)
        if cap is not None:  # else the graph's default cap
            cfg.timer_cap = cap
        cap = cfg.timer_cap
        board = cfg.boards[0]
        cfg.ticks = data.draw(st.integers(0, 5))
        board.timer_base = data.draw(st.integers(0, cap + 1))
        board.timer_stamp = data.draw(st.integers(0, cfg.ticks))
        board.wait_t = data.draw(st.integers(0, cap + 1))
        board.waiting = data.draw(st.sets(st.integers(1, 9), max_size=2))
        forecast = due_tick(cfg, board)
        assert forecast is None or forecast >= cfg.ticks
        for _ in range(cap + 2):
            literal = cls != NW and bool(board.waiting) and timer(cfg, board) >= board.wait_t
            due = forecast is not None and cfg.ticks >= forecast
            assert (due_tick(cfg, board) == cfg.ticks) == due == literal
            cfg.ticks += 1


class TestAgentStep:
    def test_waiting_agent_stays(self):
        cfg = two_node_cfg(ident=4)
        cfg.agents[0].parked = True
        cfg.boards[0].waiting = {4}
        intent, meta = dft_agent_step(cfg, 0)
        assert intent.stay and meta.branch == "waiting"

    def test_stale_parked_flag_sheds(self):
        cfg = two_node_cfg(ident=4)
        cfg.agents[0].parked = True  # no matching waiting entry
        intent, meta = dft_agent_step(cfg, 0)
        assert meta.branch == "first_visit"
        assert cfg.agents[0].parked is False

    def test_stale_waiting_entry_does_not_capture(self):
        cfg = two_node_cfg(ident=4)
        cfg.boards[0].waiting = {4}  # garbage entry, agent never parked
        intent, meta = dft_agent_step(cfg, 0)
        assert meta.branch == "first_visit"

    def test_anonymous_rejected(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=None, pos=0)], CW)
        with pytest.raises(ProtocolError):
            dft_agent_step(cfg, 0)

    def test_nw_board_rejected(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=1, pos=0)], NW)
        with pytest.raises(ProtocolError):
            dft_agent_step(cfg, 0)

    def test_out_of_range_arrival_port_clamped(self):
        cfg = two_node_cfg()
        cfg.agents[0].arrival_port = 5
        intent, meta = dft_agent_step(cfg, 0)
        assert meta.branch == "first_visit"
