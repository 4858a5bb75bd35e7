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
    NW,
    Agent,
    Configuration,
    ModelError,
    Whiteboard,
    set_timer,
    timer,
)

FORWARD = "forward"
BACKTRACK = "backtrack"


class ProtocolError(ModelError):
    pass


@dataclass(slots=True)
class MoveIntent:
    """An agent's decision for this activation; ``via is None`` means stay.
    The protocol sets a move's ``kind`` and ``flipped`` (it starts a
    traversal); :meth:`~gossipsim.scheduler.RoundIndex.apply` writes ``to``
    and ``accepted`` once, and the intent is then the move's record.  Not
    frozen: a frozen dataclass costs about three times as much to build."""

    agent: int
    frm: int
    via: int | None
    kind: str | None = None
    flipped: bool = False
    to: int | None = None
    accepted: bool = False

    @property
    def stay(self) -> bool:
        return self.via is None


@dataclass(slots=True)
class StepMeta:
    """How one protocol activation went, for its caller only: the
    ``branch`` it took and the flags that
    :func:`~gossipsim.scheduler.sync_round` and the bench tracer read."""

    branch: str | None = None
    joined_waiting: bool = False
    released: bool = False
    repaired: bool = False
    reset: bool = False


def next_port(a: int, deg: int) -> int:
    """The next-port rule: (a+1) mod deg."""
    if not 0 <= a < deg:
        raise ProtocolError(f"port {a} out of range for degree {deg}")
    return (a + 1) % deg


def _passes_gate(cfg: Configuration, board, agent, meta: StepMeta, quiesce: bool) -> bool:
    """The min-id gate of the quiescing variant.  An id no larger than
    MinID claims the node and restarts its timer (True); a larger id
    parks in the waiting set (False).  The non-quiescing variant always
    passes and leaves the node untouched."""
    if not quiesce:
        return True
    i = agent.ident
    if i <= board.min_id:
        board.min_id = i
        # never lower the recorded traversal time: a timeout release
        # resets the timer mid-interval, and trusting that short
        # reading re-arms the timeout and sustains a release livelock
        board.wait_t = max(board.wait_t, timer(cfg, board))
        set_timer(cfg, board, 0)
        return True
    board.waiting = board.waiting | {i}
    agent.parked = True
    meta.joined_waiting = True
    return False


def _mark(board: Whiteboard, i: int, bit: bool) -> None:
    """Give id ``i``'s traversal-bit row ``bit``; True, the default, is
    stored as no row."""
    if bit:
        board.t_table.pop(i, None)
    else:
        board.t_table[i] = False


def _start_traversal(board, agent, v: int, idx: int) -> MoveIntent:
    """Begin a rooted traversal at ``v``: flip the traversal bit, mark
    ``v`` with it, and leave by port 0."""
    agent.t_bit = not agent.t_bit
    _mark(board, agent.ident, agent.t_bit)
    board.out_link[agent.ident] = 0
    return MoveIntent(idx, v, 0, FORWARD, True)


def _leave_after(board, i: int, v: int, idx: int, a: int, deg: int) -> MoveIntent:
    """Leave ``v`` by the port after ``a``; at a leaf, back out by ``a``."""
    if deg >= 2:
        out = next_port(a, deg)
        board.out_link[i] = out
        return MoveIntent(idx, v, out, FORWARD)
    board.in_link.pop(i, None)
    return MoveIntent(idx, v, a, BACKTRACK)


def visit(
    cfg: Configuration, v: int, idx: int, in_port: int, *, quiesce: bool = True
) -> tuple[MoveIntent, StepMeta]:
    """Arrival behavior of agent ``idx`` at node ``v`` from ``v[in_port]``.

    The quiescing variant consults MinID, may park the agent in the
    waiting set, and drives the node timer.  With ``quiesce=False`` every
    agent behaves like the minimum-id agent and never waits;
    MinID/WaitT/Waiting/Timer are left untouched.  Every branch but a
    plain pass-through writes ``v``'s board, and no other board.
    """
    agent = cfg.agents[idx]
    if agent.ident is None:
        raise ProtocolError("the DFT protocols require named agents")
    if cfg.board_class == NW:
        raise ProtocolError("the DFT protocols require at least a CW whiteboard")
    board = cfg.boards[v]
    deg = cfg.graph.degree(v)
    if not 0 <= in_port < deg:
        # arbitrary initial arrival label; clamp into range deterministically
        in_port = 0
    i = agent.ident
    a = in_port
    meta = StepMeta()

    if board.t_table.get(i, True) != agent.t_bit:
        # first visit of i at v in the current traversal
        agent.bounced = False
        meta.branch = "first_visit"
        _mark(board, i, agent.t_bit)
        board.in_link[i] = a
        if not _passes_gate(cfg, board, agent, meta, quiesce):
            return MoveIntent(idx, v, None), meta
        return _leave_after(board, i, v, idx, a, deg), meta

    if board.out_link.get(i) != a:
        # pass-through: i reached an already-marked node off its out-edge
        if agent.bounced:
            # two pass-through backtracks in a row never happen in
            # legitimate operation; restart the traversal in place
            agent.bounced = False
            agent.t_bit = not agent.t_bit
            intent, inner = visit(cfg, v, idx, a, quiesce=quiesce)
            inner.repaired = True
            intent.flipped = True
            return intent, inner
        agent.bounced = True
        meta.branch = "pass_through"
        return MoveIntent(idx, v, a, BACKTRACK), meta

    agent.bounced = False
    nxt = next_port(a, deg)

    inl = board.in_link.get(i)
    if nxt == 0 and inl is None:
        # v is the root of i's traversal and the traversal is complete
        meta.branch = "root_complete"
        if not _passes_gate(cfg, board, agent, meta, quiesce):
            return MoveIntent(idx, v, None), meta
        return _start_traversal(board, agent, v, idx), meta

    if inl == nxt:
        # non-root subtree complete: unwind toward the parent
        meta.branch = "subtree_complete"
        del board.in_link[i], board.out_link[i]  # both rows matched above
        return MoveIntent(idx, v, nxt, BACKTRACK), meta

    meta.branch = "advance"
    board.out_link[i] = nxt
    return MoveIntent(idx, v, nxt, FORWARD), meta


def due_tick(cfg: Configuration, board: Whiteboard) -> int | None:
    """The first round clock value, from ``cfg.ticks`` on, at which the
    timeout release is due if nobody writes the board, or None if it
    never will; the release is due now exactly when this is ``cfg.ticks``.
    NW boards hold no timer machinery and are never due; a board without
    a waiter is not due; a timer that has reached the recorded traversal
    time is due now, and one still ticking toward a traversal time within
    the cap is due when it gets there."""
    if cfg.board_class == NW or not board.waiting:
        return None
    t = timer(cfg, board)
    if t >= board.wait_t:
        return cfg.ticks
    if t < cfg.timer_cap and board.wait_t <= cfg.timer_cap:
        return cfg.ticks + board.wait_t - t
    return None


def timeout_check_and_execute(cfg: Configuration, v: int) -> list[tuple[MoveIntent, StepMeta]]:
    """Per-round node behavior after visits: when ``v``'s :func:`due_tick`
    is the current round clock, release its smallest waiting id and
    restart the timer.

    A board that is not due is a guarded no-op; in particular an empty
    waiting set leaves an expired timer expired, so a later-arriving
    waiter is released the round it arrives.  A waiting id with no
    matching parked agent at the node is discarded without a move.
    """
    board = cfg.boards[v]
    if due_tick(cfg, board) != cfg.ticks:
        return []
    i = min(board.waiting)
    board.waiting = board.waiting - {i}
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
    set_timer(cfg, board, 0)
    agent = cfg.agents[located]
    agent.parked = False
    agent.bounced = False
    deg = cfg.graph.degree(v)
    meta = StepMeta(released=True)
    inl = board.in_link.get(i)
    if inl is not None and 0 <= inl < deg:
        # v is not the root of i's traversal: resume mid-traversal
        meta.branch = "timeout_resume"
        return [(_leave_after(board, i, v, located, inl, deg), meta)]
    # v is the root (or its link row is corrupt): initiate a new traversal
    meta.branch = "timeout_root"
    return [(_start_traversal(board, agent, v, located), meta)]


def waits(cfg: Configuration, agent: Agent) -> bool:
    """The agent is parked and its id is in its node's waiting set, so its
    activation stays put and writes nothing; it re-enters the traversal
    only through a timeout release.  Parked state is real only while the
    two sides agree: either one alone is stale initialization."""
    return (agent.parked and cfg.board_class != NW
            and agent.ident in cfg.boards[agent.pos].waiting)


def dft_agent_step(cfg: Configuration, idx: int) -> tuple[MoveIntent, StepMeta]:
    """One activation under the quiescing protocol.

    A waiting agent (:func:`waits`) stays put; a stale ``parked`` flag is
    dropped and the agent visits its node.
    """
    agent = cfg.agents[idx]
    if waits(cfg, agent):
        return MoveIntent(idx, agent.pos, None), StepMeta(branch="waiting")
    agent.parked = False
    return visit(cfg, agent.pos, idx, agent.arrival_port)
