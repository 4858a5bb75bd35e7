"""Walk-enumeration oracle checks for the anonymous protocol."""

import pytest

from gossipsim.model import Agent, CW, FW, PathCursor, make_configuration
from gossipsim.protocol_suite import anon_path_enum_step, fw_dft_step
from gossipsim.protocol_dft import ProtocolError
from gossipsim.topology import build_grid, build_ring, random_connected_graph


def all_walks(g, v, ell):
    """Every port-label sequence of length ell from v, lexicographic."""
    if ell == 0:
        yield ()
        return
    for a in range(g.degree(v)):
        u, _ = g.neighbor(v, a)
        for rest in all_walks(g, u, ell - 1):
            yield (a,) + rest


def drive(cfg, idx, steps):
    """Run one walker alone, applying every intent; collect completed walks."""
    g = cfg.graph
    agent = cfg.agents[idx]
    completed = []
    for _ in range(steps):
        cur = agent.cursor
        # a full label list means the walk just finished (the pending
        # bookkeeping, if any, succeeded: this driver never rejects moves)
        if len(cur.labels) == cur.length:
            completed.append((cur.length, cur.labels))
        intent, meta = anon_path_enum_step(cfg, idx)
        if intent.via is not None:
            to, back = g.neighbor(agent.pos, intent.via)
            agent.pos = to
            agent.arrival_port = back
            agent.last_move_accepted = True
        cur = agent.cursor
        if not cur.pending and not cur.labels:
            # between walks the agent must be back at its origin
            assert agent.pos == 0
    return completed


class TestEnumerationOrder:
    # walks of lengths 1..n, n the node count; the second graph has
    # nodes of degree 3, 2 and 1
    @pytest.mark.parametrize("graph,n", [(build_ring(3), 3), (random_connected_graph(4, 1, 0), 4)])
    def test_matches_recursive_oracle(self, graph, n):
        assert graph.node_count == n
        cfg = make_configuration(
            graph, [Agent(ident=None, pos=0)], FW, program="anon_path_enum")
        expected = [(ell, w)
                    for ell in range(1, n + 1)
                    for w in all_walks(graph, 0, ell)]
        got = drive(cfg, 0, 4000)
        # the enumeration wraps; the first full sweep must match exactly
        assert got[: len(expected)] == expected
        assert len(got) > len(expected)  # and it does wrap around

    def test_phase_wraps_at_l_max(self):
        # the walk bound l_max is the node count: on ring:2 the phases
        # run 1, 2, 1, 2, ...
        g = build_ring(2)
        cfg = make_configuration(
            g, [Agent(ident=None, pos=0)], FW, program="anon_path_enum")
        phases = []
        for _ in range(40):
            intent, meta = anon_path_enum_step(cfg, 0)
            if meta.branch == "phase_advance":
                phases.append(cfg.agents[0].cursor.length)
            if intent.via is not None:
                to, back = g.neighbor(cfg.agents[0].pos, intent.via)
                cfg.agents[0].pos = to
                cfg.agents[0].arrival_port = back
                cfg.agents[0].last_move_accepted = True
        assert phases[:4] == [2, 1, 2, 1]

    def test_cursor_footprint_stays_bounded(self):
        g = build_grid(1, 3)  # three nodes: walks of length at most 3
        cfg = make_configuration(
            g, [Agent(ident=None, pos=0)], FW, program="anon_path_enum")
        for _ in range(1000):
            cur = cfg.agents[0].cursor
            assert len(cur.labels) <= 3 and len(cur.trail) <= 3
            assert 0 <= cur.next_label <= g.max_degree
            intent, _ = anon_path_enum_step(cfg, 0)
            if intent.via is not None:
                to, back = g.neighbor(cfg.agents[0].pos, intent.via)
                cfg.agents[0].pos = to
                cfg.agents[0].arrival_port = back
                cfg.agents[0].last_move_accepted = True


class TestCursorReset:
    # ``regs`` is the walker's cursor register; ring:4 has degree 2 and
    # walks of length at most 4
    @pytest.mark.parametrize(
        "regs",
        [
            PathCursor(length=2, next_label=3),  # next label beyond every degree
            PathCursor(length=0),
            PathCursor(length=99),
            PathCursor(length=2, labels=(0,), trail=(-1,)),  # return port out of range
            PathCursor(length=2, labels=(0, 1)),  # labels without a return trail
            PathCursor(length=2, labels=(7,), trail=(0,)),  # label out of range
        ],
    )
    def test_garbage_resets_to_phase_one(self, regs):
        g = build_ring(4)
        cfg = make_configuration(
            g, [Agent(ident=None, pos=1)], FW, program="anon_path_enum")
        cfg.agents[0].cursor = regs
        intent, meta = anon_path_enum_step(cfg, 0)
        assert intent.stay and meta.reset
        assert cfg.agents[0].cursor == PathCursor()

    def test_retreat_port_beyond_degree_resets(self):
        # node 0 of a 2x3 grid has degree 2 while the graph's max degree is
        # 3, so a trail port of 2 passes the cursor check but cannot be taken
        g = build_grid(2, 3)
        assert (g.degree(0), g.max_degree) == (2, 3)
        cfg = make_configuration(
            g, [Agent(ident=None, pos=0)], FW, program="anon_path_enum")
        cfg.agents[0].cursor = PathCursor(1, (0,), (2,), 0, False)
        intent, meta = anon_path_enum_step(cfg, 0)
        assert intent.stay and meta.branch == "cursor_reset"
        assert cfg.agents[0].cursor == PathCursor()

    def test_rejected_move_retries_same_label(self):
        g = build_ring(4)
        cfg = make_configuration(
            g, [Agent(ident=None, pos=0)], FW, program="anon_path_enum")
        intent, meta = anon_path_enum_step(cfg, 0)
        assert meta.branch == "descend" and intent.via == 0
        cfg.agents[0].last_move_accepted = False  # duplex loss, agent stayed put
        intent, meta = anon_path_enum_step(cfg, 0)
        assert meta.branch == "descend" and intent.via == 0
        assert cfg.agents[0].cursor.labels == (0,)


class TestFwDft:
    def test_requires_fw_board(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=1, pos=0)], CW, program="fw_async_dft")
        with pytest.raises(ProtocolError):
            fw_dft_step(cfg, 0)

    def test_anonymous_rejected(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=None, pos=0)], FW, program="fw_async_dft")
        with pytest.raises(ProtocolError):
            fw_dft_step(cfg, 0)

    def test_moves_on_fw(self):
        g = build_ring(3)
        cfg = make_configuration(g, [Agent(ident=1, pos=0)], FW, program="fw_async_dft")
        intent, meta = fw_dft_step(cfg, 0)
        assert meta.branch == "first_visit"
        assert not intent.stay
