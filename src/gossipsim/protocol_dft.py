"""Self-stabilizing depth-first-traversal gossip for named agents.

Implements the whiteboard DFT protocol: each agent walks the network by
the next-port rule, marking the current traversal with an alternating
bit and recording the depth-first tree through per-agent in/out link
rows.  Under the quiescing variant a node additionally tracks the
minimum id seen, and any agent that finds a smaller id parks itself in
the node's waiting set until the node's count-up timer outlives the
recorded traversal time.

One repair rule is layered on top of the literal branch structure: a
corrupt whiteboard can trap an agent in an endless two-node ping-pong of
pass-through backtracks (its traversal-bit row already matches at both
ends while neither out-link row matches the arrival port).  Legitimate
operation never produces two consecutive pass-through backtracks, so
the second one in a row flips the agent's traversal bit and restarts a
traversal in place.  Without this escape the protocol cannot converge
from arbitrary whiteboard contents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    CW,
    FW,
    LINK_DEFAULT,
    NW,
    Configuration,
    ModelError,
    assoc_get,
    assoc_put,
)

FORWARD = "forward"
BACKTRACK = "backtrack"


class ProtocolError(ModelError):
    pass


@dataclass(frozen=True, slots=True)
class MoveIntent:
    """An agent's decision for this activation; ``via is None`` means stay."""

    agent: int
    frm: int
    via: int | None

    @property
    def stay(self) -> bool:
        return self.via is None


@dataclass(slots=True)
class StepMeta:
    """Classification of one protocol activation, for trace auditing."""

    branch: str | None = None
    kind: str | None = None
    flipped: bool = False
    joined_waiting: bool = False
    released: bool = False
    repaired: bool = False
    reset: bool = False
    wrapped: bool = False


def next_port(a: int, deg: int) -> int:
    """The next-port rule: (a+1) mod deg."""
    if not 0 <= a < deg:
        raise ProtocolError(f"port {a} out of range for degree {deg}")
    return (a + 1) % deg


def visit(cfg: Configuration, v: int, idx: int, in_port: int) -> tuple[MoveIntent, StepMeta]:
    """Arrival behavior of agent ``idx`` at node ``v`` from ``v[in_port]``.

    Quiescing variant: consults MinID, may park the agent in the waiting
    set, and drives the node timer.
    """
    return _traversal_visit(cfg, v, idx, in_port, quiesce=True)


def fw_visit(cfg: Configuration, v: int, idx: int, in_port: int) -> tuple[MoveIntent, StepMeta]:
    """Non-quiescing variant: every agent behaves like the minimum-id agent
    and never waits; MinID/WaitT/Waiting/Timer are left untouched."""
    return _traversal_visit(cfg, v, idx, in_port, quiesce=False)


def _traversal_visit(
    cfg: Configuration, v: int, idx: int, in_port: int, *, quiesce: bool
) -> tuple[MoveIntent, StepMeta]:
    agent = cfg.agents[idx]
    if agent.ident is None:
        raise ProtocolError("the DFT protocols require named agents")
    board = cfg.boards[v]
    if board.cls == NW:
        raise ProtocolError("the DFT protocols require at least a CW whiteboard")
    deg = cfg.graph.degree(v)
    if not 0 <= in_port < deg:
        # arbitrary initial arrival label; clamp into range deterministically
        in_port = 0
    i = agent.ident
    a = in_port
    meta = StepMeta()

    if assoc_get(board, "t_table", i) != agent.t_bit:
        # first visit of i at v in the current traversal
        agent.bounced = False
        meta.branch = "first_visit"
        assoc_put(board, "t_table", i, agent.t_bit)
        assoc_put(board, "in_link", i, a)
        if not quiesce or i <= board.min_id:
            if quiesce:
                board.min_id = i
                # never lower the recorded traversal time: a timeout release
                # resets the timer mid-interval, and trusting that short
                # reading re-arms the timeout and sustains a release livelock
                board.wait_t = max(board.wait_t, board.timer)
                board.timer = 0
            if deg >= 2:
                out = next_port(a, deg)
                assoc_put(board, "out_link", i, out)
                meta.kind = FORWARD
                return MoveIntent(idx, v, out), meta
            assoc_put(board, "in_link", i, LINK_DEFAULT)
            meta.kind = BACKTRACK
            return MoveIntent(idx, v, a), meta
        board.waiting.add(i)
        agent.parked = True
        meta.joined_waiting = True
        return MoveIntent(idx, v, None), meta

    if assoc_get(board, "out_link", i) != a:
        # pass-through: i reached an already-marked node off its out-edge
        if agent.bounced:
            # two pass-through backtracks in a row never happen in
            # legitimate operation; restart the traversal in place
            agent.bounced = False
            agent.t_bit = not agent.t_bit
            intent, inner = _traversal_visit(cfg, v, idx, a, quiesce=quiesce)
            inner.repaired = True
            inner.flipped = True
            return intent, inner
        agent.bounced = True
        meta.branch = "pass_through"
        meta.kind = BACKTRACK
        return MoveIntent(idx, v, a), meta

    agent.bounced = False
    nxt = next_port(a, deg)

    if nxt == 0 and assoc_get(board, "in_link", i) == LINK_DEFAULT:
        # v is the root of i's traversal and the traversal is complete
        meta.branch = "root_complete"
        if not quiesce or i <= board.min_id:
            if quiesce:
                board.min_id = i
                board.wait_t = max(board.wait_t, board.timer)
                board.timer = 0
            agent.t_bit = not agent.t_bit
            meta.flipped = True
            assoc_put(board, "t_table", i, agent.t_bit)
            assoc_put(board, "out_link", i, 0)
            meta.kind = FORWARD
            return MoveIntent(idx, v, 0), meta
        board.waiting.add(i)
        agent.parked = True
        meta.joined_waiting = True
        return MoveIntent(idx, v, None), meta

    if assoc_get(board, "in_link", i) == nxt:
        # non-root subtree complete: unwind toward the parent
        meta.branch = "subtree_complete"
        assoc_put(board, "in_link", i, LINK_DEFAULT)
        assoc_put(board, "out_link", i, LINK_DEFAULT)
        meta.kind = BACKTRACK
        return MoveIntent(idx, v, nxt), meta

    meta.branch = "advance"
    assoc_put(board, "out_link", i, nxt)
    meta.kind = FORWARD
    return MoveIntent(idx, v, nxt), meta


def timeout_check_and_execute(cfg: Configuration, v: int) -> list[tuple[MoveIntent, StepMeta]]:
    """Per-round node behavior after visits: release one waiting agent when
    the count-up timer has reached the recorded traversal time.

    An empty waiting set is a guarded no-op (the timer is left expired so a
    later-arriving waiter is released the round it arrives).  A waiting id
    with no matching agent at the node is discarded without a move.
    """
    board = cfg.boards[v]
    if board.cls == NW:
        return []
    if board.timer < board.wait_t or not board.waiting:
        return []
    i = min(board.waiting)
    board.waiting.discard(i)
    located = None
    for idx, agent in enumerate(cfg.agents):
        if agent.ident == i and agent.pos == v and agent.parked:
            located = idx
            break
    if located is None:
        # corrupt entry injected by fuzzing (no parked agent with this id
        # is here); purge and do nothing else
        return []
    board.min_id = i
    board.timer = 0
    agent = cfg.agents[located]
    agent.parked = False
    agent.bounced = False
    deg = cfg.graph.degree(v)
    meta = StepMeta(released=True)
    inl = assoc_get(board, "in_link", i)
    if inl != LINK_DEFAULT:
        # v is not the root of i's traversal: resume mid-traversal
        if not 0 <= inl < deg:
            # corrupt link row; treat as root resume
            inl = LINK_DEFAULT
        else:
            if deg >= 2:
                out = next_port(inl, deg)
                assoc_put(board, "out_link", i, out)
                meta.branch = "timeout_resume"
                meta.kind = FORWARD
                return [(MoveIntent(located, v, out), meta)]
            assoc_put(board, "in_link", i, LINK_DEFAULT)
            meta.branch = "timeout_resume"
            meta.kind = BACKTRACK
            return [(MoveIntent(located, v, inl), meta)]
    # v is the root: initiate a new traversal
    agent.t_bit = not agent.t_bit
    meta.flipped = True
    assoc_put(board, "t_table", i, agent.t_bit)
    assoc_put(board, "out_link", i, 0)
    meta.branch = "timeout_root"
    meta.kind = FORWARD
    return [(MoveIntent(located, v, 0), meta)]


def dft_agent_step(cfg: Configuration, idx: int) -> tuple[MoveIntent, StepMeta]:
    """One activation under the quiescing protocol.

    A parked agent stays put; it re-enters the traversal only through a
    timeout release.
    """
    agent = cfg.agents[idx]
    if agent.ident is None:
        raise ProtocolError("dft_kminus1 requires named agents")
    board = cfg.boards[agent.pos]
    if agent.parked:
        # parked state is real only while the node's waiting set agrees;
        # either side alone is stale initialization and is dropped
        if board.cls in (CW, FW) and agent.ident in board.waiting:
            return MoveIntent(idx, agent.pos, None), StepMeta(branch="waiting")
        agent.parked = False
    return visit(cfg, agent.pos, idx, agent.arrival_port)
