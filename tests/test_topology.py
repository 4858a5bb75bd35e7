import pytest
from hypothesis import given, strategies as st

from gossipsim.topology import (
    GraphError,
    PortLabeledGraph,
    build_grid,
    build_ring,
    mirror_join,
    mirror_node,
    parse_graph,
    random_connected_graph,
    serialize_graph,
    validate,
)


class TestRing:
    def test_ports_are_reciprocal(self):
        g = build_ring(5)
        assert g.node_count == 5
        assert g.edge_count == 5
        for v in range(5):
            assert g.neighbor(v, 0) == ((v + 1) % 5, 1)
            assert g.neighbor(v, 1) == ((v - 1) % 5, 0)

    def test_two_nodes_single_edge(self):
        g = build_ring(2)
        assert g.edge_count == 1
        assert g.degree(0) == g.degree(1) == 1
        assert g.neighbor(0, 0) == (1, 0)

    def test_too_small(self):
        with pytest.raises(GraphError):
            build_ring(1)

    @pytest.mark.parametrize("port", [2, 3])
    def test_no_port_at_or_above_degree(self, port):
        with pytest.raises(GraphError, match=rf"^node 0 has no port {port} \(degree 2\)$"):
            build_ring(4).neighbor(0, port)

    @given(st.integers(min_value=2, max_value=30))
    def test_always_valid(self, n):
        assert validate(build_ring(n)) == []


class TestGrid:
    def test_2x3_shape(self):
        g = build_grid(2, 3)
        assert g.node_count == 6
        assert g.edge_count == 7
        # corner, edge, and their degrees
        assert g.degree(0) == 2
        assert g.degree(1) == 3
        assert g.max_degree == 3

    def test_port_order_is_nesw(self):
        g = build_grid(3, 3)
        # center node 4: ports go N(1), E(5), S(7), W(3)
        assert [g.neighbor(4, a)[0] for a in range(4)] == [1, 5, 7, 3]

    def test_valid(self):
        assert validate(build_grid(4, 5)) == []

    def test_degenerate(self):
        with pytest.raises(GraphError):
            build_grid(1, 1)


class TestRandomGraph:
    def test_deterministic(self):
        a = random_connected_graph(7, 2, seed=13)
        b = random_connected_graph(7, 2, seed=13)
        assert a == b

    def test_seed_changes_graph(self):
        assert random_connected_graph(8, 2, seed=1) != random_connected_graph(8, 2, seed=2)

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=50))
    def test_valid_and_connected(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        assert validate(g) == []
        assert g.node_count == n
        assert n - 1 <= g.edge_count <= n - 1 + extra

    def test_negative_extra_edges(self):
        with pytest.raises(GraphError, match="non-negative"):
            random_connected_graph(7, -1)


class TestMirrorJoin:
    @pytest.mark.parametrize("g, join", [
        pytest.param(g, join, id=f"{name}-{join}")
        for name, g in (("ring:4", build_ring(4)), ("grid:2x3", build_grid(2, 3)),
                        ("random:7:2:3", random_connected_graph(7, 2, 3)))
        for join in range(g.node_count)
    ])
    def test_counts(self, g, join):
        # the construction is total: mirror_join itself validates nothing
        mg = mirror_join(g, join)
        assert validate(mg) == []
        assert mg.node_count == 2 * g.node_count - 1
        assert mg.edge_count == 2 * g.edge_count

    def test_join_node_degree_doubles(self):
        g = build_ring(5)
        mg = mirror_join(g, 0)
        assert mg.degree(0) == 2 * g.degree(0)
        # original ports untouched, mirror ports appended
        assert mg.neighbor(0, 0) == g.neighbor(0, 0)

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            mirror_join(build_ring(3), 3)

    @pytest.mark.parametrize("join", [0, 2, 5])
    def test_mirror_node_is_the_image(self, join):
        g = build_grid(2, 3)
        mg = mirror_join(g, join)
        images = [mirror_node(g, join, v) for v in range(g.node_count)]
        assert images[join] == join
        assert sorted(images) == [join] + list(range(g.node_count, mg.node_count))
        for v in range(g.node_count):
            if v != join:
                # each port of v's image leads to the image of v's neighbor
                assert [u for u, _ in mg.adjacency[images[v]]] == [
                    images[u] for u, _ in g.adjacency[v]]


class TestSerialization:
    def test_round_trip_exact(self):
        g = random_connected_graph(9, 3, seed=7)
        back = parse_graph(serialize_graph(g))
        assert back == g and hash(back) == hash(g)

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=20))
    def test_round_trip_random(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        assert parse_graph(serialize_graph(g)) == g

    def test_comments_and_blanks_ignored(self):
        text = "# a ring\n\n" + serialize_graph(build_ring(3))
        assert parse_graph(text) == build_ring(3)

    def test_loop_through_two_ports_is_valid(self):
        # node 0's ports 1 and 2 lead to each other: a loop, counted as one edge
        g = parse_graph("2\n0:1:0 1:0:2 2:0:1\n0:0:0\n")
        assert validate(g) == [] and g.edge_count == 2

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ("x\n", "bad node count"),
            ("2\n0:1:0\n", "expected 2 adjacency lines"),
            ("2\n0:1:0 0:1:0\n0:0:0\n", "duplicate port 0 at node 0"),
            ("2\n1:1:0\n0:0:1\n", "port gap at node 0: missing port 0"),
            ("2\nnope\n0:0:0\n", "malformed triple"),
            ("2\n0:x:1\n0:0:0\n", "node 0: malformed triple '0:x:1'"),
            ("2\n0:5:0\n0:0:0\n", "node 0 port 0 points at missing node 5"),
            ("2\n0:1:3\n0:0:0\n", "node 0 port 0: peer node 1 has no port 3"),
            ("2\n0:1:0\n0:1:0\n", "involution broken"),
            ("2\n0:1:0 1:0:1\n0:0:0\n", "node 0 port 1 is paired with itself"),
            ("4\n0:1:0\n0:0:0\n0:3:0\n0:2:0\n", "disconnected"),
        ],
    )
    def test_errors_name_the_problem(self, text, fragment):
        with pytest.raises(GraphError, match=fragment):
            parse_graph(text)

    @pytest.mark.parametrize("g", [PortLabeledGraph(()), PortLabeledGraph(((),))])
    def test_fewer_than_two_nodes_refused(self, g):
        # such a graph has no round trip: one node serializes as "1" and no
        # adjacency line, which the parser rejects
        assert validate(g) == ["a network needs at least two nodes"]
        with pytest.raises(GraphError):
            parse_graph(serialize_graph(g))
