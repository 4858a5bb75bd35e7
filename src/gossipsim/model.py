"""Global simulation state: agents, whiteboards, gossip tokens, configurations.

Whiteboards come in three classes: NW (no storage at all), CW (control
data: traversal tables, link records, timer machinery) and FW (CW plus a
gossip store).  NW boards reject every table write.  Only
:func:`merge_gossip` writes a store, and only on FW boards; the fuzzer
seeds garbage into FW stores only.

A :class:`Configuration` is a value and cloning is cheap.
:func:`state_key` is the one place that lists which fields make up a
configuration's state.  It leaves out the round counter and the run
constants, so two configurations of one run hold the same state exactly
when their keys are equal; the board timers form a tuple of their own.
:class:`KeyCache` builds the same key round after round from the same
encoders, re-encoding only the boards a round's record names as possibly
written beyond their timers; cycle detection fingerprints that key and
confirms a repeat by comparing fresh :func:`state_key` results.
:func:`snapshot_hash` is a digest of the key that does not depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .topology import PortLabeledGraph

NW = "NW"
CW = "CW"
FW = "FW"
BOARD_CLASSES = (NW, CW, FW)

# associative table defaults: a missing t_table row reads as True, a
# missing link row reads as None (the paper's "bottom")
T_TABLE_DEFAULT = True
LINK_DEFAULT = None

PROGRAM_DFT = "dft_kminus1"
PROGRAM_FW_DFT = "fw_async_dft"
PROGRAM_PATH_ENUM = "anon_path_enum"
PROGRAMS = (PROGRAM_DFT, PROGRAM_FW_DFT, PROGRAM_PATH_ENUM)

# protocol -> (board classes it may run on, synchronous schedules only);
# the walk enumerator never writes a board, so it runs on every class
REQUIREMENTS = {
    PROGRAM_DFT: ((CW, FW), True),
    PROGRAM_FW_DFT: ((FW,), False),
    PROGRAM_PATH_ENUM: ((NW, CW, FW), False),
}


def refusal(protocol: str, board: str, synchronous: bool, unsafe_async: bool) -> str | None:
    """Why ``protocol`` may not run on ``board`` whiteboards under a
    synchronous (or asynchronous) schedule, or None when it may.

    The one reading of :data:`REQUIREMENTS`: a protocol runs only on the
    board classes listed for it (an unlisted one nowhere), and a
    synchronous-only (timer) protocol runs under an asynchronous schedule
    only when ``unsafe_async`` forces it.
    """
    if protocol not in REQUIREMENTS:
        return f"unknown protocol {protocol!r}"
    boards, sync_only = REQUIREMENTS[protocol]
    if board not in boards:
        return f"{protocol} cannot run on {board} whiteboards"
    if sync_only and not synchronous and not unsafe_async:
        return f"{protocol} is synchronous-only (timer protocol); use --unsafe-async to force"
    return None


class ModelError(ValueError):
    pass


class BoardClassError(ModelError):
    """A write was attempted that the board's class forbids."""


class Token(NamedTuple):
    """One piece of gossip.  Opaque to protocol code; merged by set union."""

    origin: str
    payload: str


class PathCursor(NamedTuple):
    """An anonymous walker's position in the lexicographic enumeration of
    fixed-length walks from its home node; the default starts phase 1.

    ``labels[j]`` is the port taken at depth ``j`` of the current walk,
    ``trail`` holds the return ports back home (one per booked move),
    ``next_label`` is the port to try at the current depth, and
    ``pending`` marks a forward move whose outcome is not booked yet.
    """

    length: int = 1
    labels: tuple[int, ...] = ()
    trail: tuple[int, ...] = ()
    next_label: int = 0
    pending: bool = False


@dataclass(slots=True)
class Agent:
    """One mobile agent.  ``ident`` is None for anonymous agents.

    ``parked`` and ``bounced`` are the DFT agent's registers, ``cursor``
    the walk enumerator's.  Every field but ``known`` holds an immutable
    value, so a clone copies only that set.
    """

    ident: int | None
    pos: int
    t_bit: bool = False
    known: set[Token] = field(default_factory=set)
    program: str = PROGRAM_DFT
    parked: bool = False
    bounced: bool = False
    cursor: PathCursor = PathCursor()
    arrival_port: int = 0
    last_move_accepted: bool = True

    def clone(self) -> "Agent":
        return replace(self, known=set(self.known))


@dataclass(slots=True)
class Whiteboard:
    cls: str = CW
    t_table: dict[int, bool] = field(default_factory=dict)
    in_link: dict[int, int] = field(default_factory=dict)
    out_link: dict[int, int] = field(default_factory=dict)
    min_id: int = 0
    wait_t: int = 0
    waiting: set[int] = field(default_factory=set)
    timer: int = 0
    store: set[Token] = field(default_factory=set)

    def clone(self) -> "Whiteboard":
        return replace(
            self,
            t_table=dict(self.t_table),
            in_link=dict(self.in_link),
            out_link=dict(self.out_link),
            waiting=set(self.waiting),
            store=set(self.store),
        )


_TABLES = {
    "t_table": T_TABLE_DEFAULT,
    "in_link": LINK_DEFAULT,
    "out_link": LINK_DEFAULT,
}


def assoc_put(board: Whiteboard, table: str, ident: int, value) -> None:
    """Store (ident, value), keeping at most one row per id.

    Storing the table's default value removes the row (the default is
    "considered to be stored" whenever no row is present).
    """
    if board.cls == NW:
        raise BoardClassError("NW whiteboards reject all writes")
    default = _TABLES[table]
    mapping: dict = getattr(board, table)
    if value == default:
        mapping.pop(ident, None)
    else:
        mapping[ident] = value


def assoc_get(board: Whiteboard, table: str, ident: int):
    """Read a row; a missing row reads as the table's default."""
    default = _TABLES[table]
    return getattr(board, table).get(ident, default)


@dataclass(slots=True)
class Configuration:
    """Graph + all agents + all whiteboards + run parameters."""

    graph: PortLabeledGraph
    agents: list[Agent]
    boards: list[Whiteboard]
    round: int = 0
    timer_cap: int = 0
    genuine: dict[int, Token] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.agents)

    def clone(self) -> "Configuration":
        return replace(
            self,
            agents=[a.clone() for a in self.agents],
            boards=[b.clone() for b in self.boards],
            genuine=dict(self.genuine),
        )


def default_timer_cap(graph: PortLabeledGraph) -> int:
    # must exceed the mover's worst steady revisit gap at any node, which
    # on non-tree graphs runs to several traversal lengths; anything lower
    # lets the saturating timer force spurious releases forever
    return 16 * graph.edge_count + 1


def clean_board(cls: str, max_id: int) -> Whiteboard:
    if cls not in BOARD_CLASSES:
        raise ModelError(f"unknown board class {cls!r}")
    if cls == NW:
        return Whiteboard(cls=NW)
    return Whiteboard(cls=cls, min_id=max_id)


def make_configuration(
    graph: PortLabeledGraph,
    agents: list[Agent],
    board_class: str,
    *,
    max_id: int | None = None,
) -> Configuration:
    """Clean configuration under the graph's default timer cap: default
    boards (CW and FW MinID ``max_id``, by default one above the largest
    id) and one genuine token per agent."""
    idents = [a.ident for a in agents if a.ident is not None]
    if len(set(idents)) != len(idents):
        raise ModelError("named agents must have pairwise-distinct ids")
    if max_id is None:
        max_id = max(idents, default=0) + 1
    cfg = Configuration(
        graph=graph,
        agents=agents,
        boards=[clean_board(board_class, max_id) for _ in range(graph.node_count)],
        timer_cap=default_timer_cap(graph),
    )
    for idx, agent in enumerate(agents):
        token = Token(origin=f"agent{idx}", payload=f"gossip-{idx}")
        cfg.genuine[idx] = token
        agent.known.add(token)
    return cfg


def merge_gossip(cfg: Configuration, node: int, idxs: list[int] | None = None) -> None:
    """Union the known sets of all agents at ``node`` (plus the FW store).

    ``idxs`` lists the indices of the agents at ``node`` when the caller
    has grouped them already; without it the agents are scanned.  A set
    the union does not grow is left as it is.
    """
    agents = cfg.agents
    if idxs is None:
        here = [a for a in agents if a.pos == node]
    else:
        here = [agents[i] for i in idxs]
    if not here:
        return
    board = cfg.boards[node]
    if len(here) == 1 and board.cls != FW:
        return  # a lone agent and no store: nothing to exchange
    union: set[Token] = set()
    for a in here:
        union |= a.known
    if board.cls == FW:
        union |= board.store
        if len(union) != len(board.store):
            board.store = set(union)
    for a in here:
        if len(a.known) != len(union):
            a.known = set(union)


def _agent_key(a: Agent) -> tuple:
    return (
        a.ident,
        a.pos,
        a.t_bit,
        frozenset(a.known),
        a.program,
        a.parked,
        a.bounced,
        a.cursor,
        a.arrival_port,
        a.last_move_accepted,
    )


def _board_key(b: Whiteboard) -> tuple:
    if b.cls == NW:
        return (NW,)
    key = (
        b.cls,
        frozenset(b.t_table.items()),
        frozenset(b.in_link.items()),
        frozenset(b.out_link.items()),
        b.min_id,
        b.wait_t,
        frozenset(b.waiting),
    )
    if b.cls == FW:
        key += (frozenset(b.store),)
    return key


def state_key(cfg: Configuration) -> tuple:
    """Exact hashable encoding of the configuration's state: (agent keys,
    board keys without their timers, every board's timer).

    Sets and tables are encoded as frozensets (of members, or of
    ``(id, value)`` rows), which compare exactly like sorted tuples but
    need no sort.  Every field of :class:`Agent` and :class:`Whiteboard`
    is encoded, the gossip store only on FW boards (no other store is
    ever written) and only the class and the never-ticking timer on NW
    boards.  A round ticks every other timer but writes few boards'
    other fields, hence the separate timers tuple.  Agents are listed in
    hidden-index order: half-duplex ties between anonymous agents are
    broken by that index, so swapping two indistinguishable agents can
    change the future.  :class:`KeyCache` returns the same tuple for a
    run of synchronous rounds, re-encoding fewer boards.

    Left out, because they do not belong to the state:

    - ``round`` advances every round; with it no state could repeat.
    - ``graph`` is immutable and shared by every configuration of a run.
    - ``timer_cap`` is a run constant, set when the configuration is made
      and never written by a step.
    - ``genuine`` names each agent's initial token for the gossip check;
      it is never written after the configuration is made.
    """
    return (
        tuple(_agent_key(a) for a in cfg.agents),
        tuple(_board_key(b) for b in cfg.boards),
        tuple(b.timer for b in cfg.boards),
    )


class KeyCache:
    """:func:`state_key` of one configuration, kept across synchronous rounds.

    Call :meth:`key` at any state, then after every round of
    :func:`~gossipsim.scheduler.sync_round` on ``cfg`` with that round's
    record (None when no round ran); each call returns ``state_key(cfg)``.
    The first call encodes every board.  Beyond the timers, a round writes
    only the boards at its record's ``merges`` (each acting agent's merge
    and step) and ``colocated`` (the post-move merges) and at the nodes
    that had waiters before it (the timeout check), so a call re-encodes
    those and rebuilds the agent keys and the timers tuple.
    """

    __slots__ = ("cfg", "_boards", "_waiters")

    def __init__(self, cfg: Configuration):
        self.cfg = cfg
        self._boards: list[tuple] = [()] * len(cfg.boards)
        self._waiters = set(range(len(cfg.boards)))  # so the first call encodes all

    def key(self, rec=None) -> tuple:
        boards = self.cfg.boards
        stale = self._waiters if rec is None else self._waiters.union(rec.merges, rec.colocated)
        for v in stale:
            self._boards[v] = _board_key(boards[v])
        self._waiters = {v for v, b in enumerate(boards) if b.waiting}
        return (tuple(_agent_key(a) for a in self.cfg.agents), tuple(self._boards),
                tuple(b.timer for b in boards))


def _canonical(value):
    """Replace every frozenset in a key by its sorted tuple, so the repr
    no longer depends on the string hash seed.  NamedTuples hold no sets
    and are kept as they are."""
    if isinstance(value, frozenset):
        return tuple(sorted(value))
    if type(value) is tuple:
        return tuple(_canonical(v) for v in value)
    return value


def snapshot_hash(cfg: Configuration) -> str:
    """SHA-256 hex digest of :func:`state_key`, its sets sorted, in the
    historical layout that keeps saved trace hashes valid: (agent keys,
    board keys), each CW and FW board key holding its timer at index 7."""
    agents, boards, timers = state_key(cfg)
    boards = tuple(b if b[0] == NW else b[:7] + (t,) + b[7:] for b, t in zip(boards, timers))
    return hashlib.sha256(repr(_canonical((agents, boards))).encode()).hexdigest()
