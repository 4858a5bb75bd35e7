"""The 0-quiescent protocols.

``fw_async_dft``: named agents on FW whiteboards repeatedly depth-first
traverse the network exactly like the quiescing protocol's minimum-id
agent, but never wait at any node; gossip rides on the whiteboard
stores, which the scheduler merges on every visit.

``anon_path_enum``: anonymous agents cannot own whiteboard marks, so
each one enumerates all walks of a given length from its current home
node in lexicographic order of the port-label sequences, growing the
length once a phase is exhausted: lengths 1..n for n nodes, then 1 again.  The agent retraces its recorded
return-port trail between walks.  Its whole state is one immutable
:class:`PathCursor`; any internally inconsistent cursor (fuzz injection)
resets to the shortest phase.
"""

from __future__ import annotations

from .model import FW, Agent, Configuration, PathCursor
from .protocol_dft import (
    BACKTRACK,
    FORWARD,
    MoveIntent,
    ProtocolError,
    StepMeta,
    visit,
)


def fw_dft_step(cfg: Configuration, idx: int) -> tuple[MoveIntent, StepMeta]:
    """One activation of the non-quiescing DFT; requires an FW whiteboard."""
    agent = cfg.agents[idx]
    if cfg.board_class != FW:
        raise ProtocolError("fw_async_dft requires FW whiteboards")
    return visit(cfg, agent.pos, idx, agent.arrival_port, quiesce=False)


def _cursor_ok(cursor: PathCursor, cfg: Configuration) -> bool:
    if not 1 <= cursor.length <= cfg.graph.node_count:
        return False
    max_deg = cfg.graph.max_degree
    if not 0 <= cursor.next_label <= max_deg:
        return False
    if any(not 0 <= x < max_deg for x in cursor.labels + cursor.trail):
        return False
    expect = len(cursor.labels) - (1 if cursor.pending else 0)
    return len(cursor.trail) == expect and len(cursor.labels) <= cursor.length


def _reset(agent: Agent, idx: int) -> tuple[MoveIntent, StepMeta]:
    agent.cursor = PathCursor()
    return MoveIntent(idx, agent.pos, None), StepMeta(branch="cursor_reset", reset=True)


def anon_path_enum_step(cfg: Configuration, idx: int) -> tuple[MoveIntent, StepMeta]:
    """One move of the walk enumeration (or a bookkeeping stay).

    Reads only the local degree, the arrival port of the agent's last
    accepted move, and its own bounded cursor; node identity stays
    hidden.
    """
    agent = cfg.agents[idx]
    cursor = agent.cursor
    if not _cursor_ok(cursor, cfg):
        return _reset(agent, idx)

    ell, labels, trail, nxt, pending = cursor
    if pending:
        # complete bookkeeping for the previous forward move
        if agent.last_move_accepted:
            trail += (agent.arrival_port,)
        else:
            # the move was rejected (half-duplex loss); retry the label
            nxt = labels[-1]
            labels = labels[:-1]

    deg = cfg.graph.degree(agent.pos)
    progress = len(labels)

    if progress == ell or (nxt >= deg and progress > 0):
        # walk complete, or dead branch: retreat one level and carry
        port = trail[-1]
        if not 0 <= port < deg:
            return _reset(agent, idx)
        agent.cursor = PathCursor(ell, labels[:-1], trail[:-1], labels[-1] + 1)
        return MoveIntent(idx, agent.pos, port, BACKTRACK), StepMeta(branch="retreat")

    if nxt < deg:
        # descend along the next label
        agent.cursor = PathCursor(ell, labels + (nxt,), trail, 0, True)
        return MoveIntent(idx, agent.pos, nxt, FORWARD), StepMeta(branch="descend")

    # all sequences of this length exhausted: grow the phase (n wraps to 1)
    wrapped = ell + 1 > cfg.graph.node_count
    agent.cursor = PathCursor(1 if wrapped else ell + 1)
    return MoveIntent(idx, agent.pos, None), StepMeta(branch="phase_advance")
