"""Anonymous port-labeled graphs.

A network is a connected undirected graph whose nodes carry no identity
visible to agent protocols.  Each node labels its incident links with
ports 0..deg-1; crossing a link via port ``a`` of ``v`` lands the agent
on the neighbor's reciprocal port.  Node indices exist only for
simulator bookkeeping and are never exposed through the protocol API.

The canonical file format is line based: line 1 holds the node count,
line ``v+2`` holds node ``v``'s adjacency as space-separated
``port:peerNode:peerPort`` triples in port order.  Lines starting with
``#`` are comments.  ``parse_graph(serialize_graph(g))`` is bit-exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


class GraphError(ValueError):
    """Raised for malformed graph descriptions or invalid arguments."""


@dataclass(frozen=True, slots=True)
class PortLabeledGraph:
    """Immutable adjacency structure.

    ``adjacency[v][a] == (u, b)`` means port ``a`` of node ``v`` leads to
    node ``u``, whose reciprocal port is ``b``.  ``max_degree`` is derived
    from it once; equality and hashing see the adjacency only.
    """

    adjacency: tuple[tuple[tuple[int, int], ...], ...]
    max_degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_degree", max(map(len, self.adjacency), default=0))

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(ports) for ports in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbor(self, v: int, a: int) -> tuple[int, int]:
        """Return ``(v[a], b)`` where ``b`` is the reciprocal port."""
        ports = self.adjacency[v]
        if not 0 <= a < len(ports):
            raise GraphError(f"node {v} has no port {a} (degree {len(ports)})")
        return ports[a]


def build_ring(n: int) -> PortLabeledGraph:
    """Ring of ``n`` nodes; port 0 is clockwise (v -> v+1), port 1 counterclockwise.

    ``n == 2`` degenerates to a single edge with one port per node.
    """
    if n <= 1:
        raise GraphError("a ring needs at least 2 nodes")
    if n == 2:
        return PortLabeledGraph((((1, 0),), ((0, 0),)))
    adjacency = tuple(
        (((v + 1) % n, 1), ((v - 1) % n, 0))
        for v in range(n)
    )
    return PortLabeledGraph(adjacency)


def build_grid(rows: int, cols: int) -> PortLabeledGraph:
    """Rows x cols grid; each node's ports list its N, E, S, W neighbors in that order."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise GraphError("grid needs at least 2 nodes")
    idx = lambda r, c: r * cols + c
    neigh: list[list[int]] = []
    for r in range(rows):
        for c in range(cols):
            cand = []
            if r > 0:
                cand.append(idx(r - 1, c))
            if c < cols - 1:
                cand.append(idx(r, c + 1))
            if r < rows - 1:
                cand.append(idx(r + 1, c))
            if c > 0:
                cand.append(idx(r, c - 1))
            neigh.append(cand)
    return _from_neighbor_lists(neigh)


def _from_neighbor_lists(neigh: list[list[int]]) -> PortLabeledGraph:
    port_of = {(v, u): a for v, lst in enumerate(neigh) for a, u in enumerate(lst)}
    adjacency = tuple(
        tuple((u, port_of[(u, v)]) for u in lst) for v, lst in enumerate(neigh)
    )
    return PortLabeledGraph(adjacency)


def random_connected_graph(n: int, extra_edges: int = 2, seed: int = 0) -> PortLabeledGraph:
    """Random connected simple graph: a random spanning tree plus ``extra_edges``
    additional edges (fewer if the graph saturates), with randomized port orders.

    Deterministic in ``(n, extra_edges, seed)``.
    """
    if n < 2:
        raise GraphError("need at least 2 nodes")
    if extra_edges < 0:
        raise GraphError(f"extra edge count must be non-negative, got {extra_edges}")
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.randrange(i)
        a, b = order[i], order[j]
        edges.add((min(a, b), max(a, b)))
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    neigh: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(edges):
        neigh[u].append(v)
        neigh[v].append(u)
    for lst in neigh:
        rng.shuffle(lst)
    return _from_neighbor_lists(neigh)


def mirror_join(g: PortLabeledGraph, join_node: int) -> PortLabeledGraph:
    """Two disjoint copies of ``g`` with both copies of ``join_node`` identified.

    The identified node keeps its original ports 0..deg-1 toward copy A and
    gains ports deg..2*deg-1 toward the mirror image.  Result: 2n-1 nodes,
    2m edges, connected.
    """
    n = g.node_count
    if not 0 <= join_node < n:
        raise GraphError(f"join node {join_node} out of range")
    deg_j = g.degree(join_node)

    def b_image(u: int, b: int) -> tuple[int, int]:
        return (mirror_node(g, join_node, u), deg_j + b if u == join_node else b)

    adjacency = list(g.adjacency)
    adjacency[join_node] += tuple(b_image(u, b) for u, b in g.adjacency[join_node])
    adjacency += (tuple(b_image(u, b) for u, b in g.adjacency[v])
                  for v in range(n) if v != join_node)
    return PortLabeledGraph(tuple(adjacency))


def mirror_node(g: PortLabeledGraph, join_node: int, v: int) -> int:
    """Index of node ``v``'s image in :func:`mirror_join`'s second copy:
    the images of the nodes other than ``join_node`` follow ``g``'s n
    nodes in ascending order, and ``join_node`` is its own image."""
    if v == join_node:
        return join_node
    return g.node_count + v - (v > join_node)


def validate(g: PortLabeledGraph) -> list[str]:
    """Return all invariant violations (empty list means the graph is valid)."""
    violations: list[str] = []
    n = g.node_count
    if n < 2:
        # a single node has no port to leave by, and no builder makes one
        return ["a network needs at least two nodes"]
    for v, ports in enumerate(g.adjacency):
        for a, (u, b) in enumerate(ports):
            if not 0 <= u < n:
                violations.append(f"node {v} port {a} points at missing node {u}")
                continue
            peer_ports = g.adjacency[u]
            if not 0 <= b < len(peer_ports):
                violations.append(f"node {v} port {a}: peer node {u} has no port {b}")
                continue
            if (u, b) == (v, a):
                violations.append(f"node {v} port {a} is paired with itself")
            elif peer_ports[b] != (v, a):
                violations.append(f"involution broken at node {v} port {a}")
    # connectivity
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u, _ in g.adjacency[v]:
            if 0 <= u < n and u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != n:
        violations.append("disconnected")
    return violations


def serialize_graph(g: PortLabeledGraph) -> str:
    lines = [str(g.node_count)]
    for ports in g.adjacency:
        lines.append(" ".join(f"{a}:{u}:{b}" for a, (u, b) in enumerate(ports)))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> PortLabeledGraph:
    """Parse the line-based graph format; every violation names node and port."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty graph description")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphError(f"bad node count line: {lines[0]!r}") from None
    if n < 1:
        raise GraphError("node count must be positive")
    if len(lines) != n + 1:
        raise GraphError(f"expected {n} adjacency lines, found {len(lines) - 1}")
    adjacency: list[tuple[tuple[int, int], ...]] = []
    for v in range(n):
        entries: dict[int, tuple[int, int]] = {}
        line = lines[v + 1]
        for token in line.split():
            parts = token.split(":")
            if len(parts) != 3:
                raise GraphError(f"node {v}: malformed triple {token!r}")
            try:
                a, u, b = (int(p) for p in parts)
            except ValueError:
                raise GraphError(f"node {v}: malformed triple {token!r}") from None
            if a in entries:
                raise GraphError(f"duplicate port {a} at node {v}")
            entries[a] = (u, b)
        deg = len(entries)
        for a in range(deg):
            if a not in entries:
                raise GraphError(f"port gap at node {v}: missing port {a}")
        adjacency.append(tuple(entries[a] for a in range(deg)))
    g = PortLabeledGraph(tuple(adjacency))
    violations = validate(g)
    if violations:
        raise GraphError("; ".join(violations))
    return g
