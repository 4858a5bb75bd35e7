"""Global simulation state: agents, whiteboards, gossip tokens, configurations.

Whiteboards come in three classes: NW (no storage at all), CW (control
data: traversal tables, link records, timer machinery) and FW (CW plus a
gossip store).  Only :func:`merge_gossip` writes a store, and only on
FW boards; the fuzzer seeds garbage into FW stores only.

A :class:`Configuration` is a value and cloning is cheap.
:func:`state_key` is the one place that lists which fields make up a
configuration's state.  It leaves out the round clock and the run
constants, so two configurations of one run hold the same state exactly
when their keys are equal.  :func:`snapshot_hash` is a digest of the key
that does not depend on ``PYTHONHASHSEED``.

A node timer counts synchronous rounds up to the configuration's
``timer_cap``.  It is read lazily: a board keeps the value its timer was
last given and the value of the round clock ``Configuration.ticks`` at
that write, so :func:`timer` derives the current value and no round
writes a timer that only ticks.  :func:`set_timer` is the one writer.

Cycle detection indexes rounds by the :func:`fingerprint` of their
control state, the key without its gossip sets: a sum of one term per
agent, one per board and one per timer.
:class:`Fingerprint` keeps that sum across synchronous rounds at the cost
of what a round writes: it re-encodes only the boards and the agents the
round names as written, and a timer that only ticks is a stamp that the
round clock turns into its value.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .topology import PortLabeledGraph

NW = "NW"
CW = "CW"
FW = "FW"
BOARD_CLASSES = (NW, CW, FW)

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
    the walk enumerator's.  Every field holds an immutable value:
    ``known`` is a frozenset that a write replaces, never mutates, so a
    clone shares it.
    """

    ident: int | None
    pos: int
    t_bit: bool = False
    known: frozenset[Token] = frozenset()
    program: str = PROGRAM_DFT
    parked: bool = False
    bounced: bool = False
    cursor: PathCursor = PathCursor()
    arrival_port: int = 0
    last_move_accepted: bool = True

    def clone(self) -> "Agent":
        return Agent(self.ident, self.pos, self.t_bit, self.known, self.program,
                     self.parked, self.bounced, self.cursor, self.arrival_port,
                     self.last_move_accepted)


@dataclass(slots=True)
class Whiteboard:
    """One node's whiteboard.  Its timer is not a field: ``timer_base`` is
    the value last given by :func:`set_timer` and ``timer_stamp`` the
    round clock at that write; read it with :func:`timer`.

    ``t_table``, ``in_link`` and ``out_link`` map an agent id to its row.
    A missing row reads as its table's default, True for the traversal
    bit and None (the paper's ⊥) for a link, and no row ever stores it:
    :func:`state_key` compares tables as sets of rows, so a stored default
    would make equal states unequal.  The DFT protocols refuse NW boards
    in ``visit``, and their timeout check never reaches one (``due_tick``
    is None for it), so no NW board holds a row.

    Only the three row tables are mutable.  ``waiting`` and ``store`` are
    frozensets that a write replaces, never mutates, so a clone copies the
    tables and shares the sets."""

    cls: str = CW
    t_table: dict[int, bool] = field(default_factory=dict)
    in_link: dict[int, int] = field(default_factory=dict)
    out_link: dict[int, int] = field(default_factory=dict)
    min_id: int = 0
    wait_t: int = 0
    waiting: frozenset[int] = frozenset()
    timer_base: int = 0
    timer_stamp: int = 0
    store: frozenset[Token] = frozenset()

    def clone(self) -> "Whiteboard":
        return Whiteboard(self.cls, dict(self.t_table), dict(self.in_link),
                          dict(self.out_link), self.min_id, self.wait_t, self.waiting,
                          self.timer_base, self.timer_stamp, self.store)


@dataclass(slots=True)
class Configuration:
    """Graph, agents and whiteboards, the round clock ``ticks`` (the
    synchronous rounds, which board timers are read against) and run
    constants."""

    graph: PortLabeledGraph
    agents: list[Agent]
    boards: list[Whiteboard]
    ticks: int = 0
    timer_cap: int = 0
    genuine: dict[int, Token] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.agents)

    def clone(self) -> "Configuration":
        """A copy that writes to neither side reach the other: it copies the
        boards' row tables and shares every other value, the gossip sets
        and ``genuine`` (never written after :func:`make_configuration`)
        included."""
        return Configuration(self.graph, [a.clone() for a in self.agents],
                             [b.clone() for b in self.boards], self.ticks,
                             self.timer_cap, self.genuine)


def timer(cfg: Configuration, board: Whiteboard) -> int:
    """The board's timer: its last written value plus the synchronous
    rounds since, saturating at ``cfg.timer_cap``.  An NW timer and a
    timer written at or above the cap never tick."""
    t = board.timer_base
    cap = cfg.timer_cap
    if t >= cap or board.cls == NW:
        return t
    t += cfg.ticks - board.timer_stamp
    return t if t < cap else cap


def set_timer(cfg: Configuration, board: Whiteboard, value: int) -> None:
    """Give the board's timer ``value``, to tick from the current round on."""
    board.timer_base = value
    board.timer_stamp = cfg.ticks


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
        agent.known = frozenset((*agent.known, token))
    return cfg


def merge_gossip(cfg: Configuration, node: int, idxs: list[int]) -> bool:
    """Union the known sets of the agents with indices ``idxs``, all at
    ``node``, and the node's FW store; True when a set grew.

    The sets are frozensets, which a merge replaces and never mutates.
    Every set the union grows becomes one shared object, a participant's
    set where one already equals the union; a set the union does not grow
    is left as it is, so a merge that grows nothing changes no object."""
    agents = cfg.agents
    board = cfg.boards[node]
    fw = board.cls == FW
    if len(idxs) == 1:
        if not fw:
            return False
        agent = agents[idxs[0]]
        known, store = agent.known, board.store
        if known is store or known == store:
            return False  # a lone agent and nothing new on either side
        if known >= store:
            board.store = known
        elif known <= store:
            agent.known = store
        else:
            agent.known = board.store = known | store
        return True
    here = [agents[i] for i in idxs]
    sets = [a.known for a in here]
    if fw:
        sets.append(board.store)
    union = max(sets, key=len)
    grown = union.union(*sets)
    if len(grown) != len(union):
        union = grown
    size = len(union)
    grew = False
    for a in here:
        if len(a.known) != size:
            a.known = union
            grew = True
    if fw and len(board.store) != size:
        board.store = union
        grew = True
    return grew


def _agent_key(a: Agent) -> tuple:
    return (
        a.ident,
        a.pos,
        a.t_bit,
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
    return (
        b.cls,
        frozenset(b.t_table.items()),
        frozenset(b.in_link.items()),
        frozenset(b.out_link.items()),
        b.min_id,
        b.wait_t,
        frozenset(b.waiting),
    )


def state_key(cfg: Configuration) -> tuple:
    """Exact hashable encoding of the configuration's state: (agent keys,
    board keys, every board's :func:`timer`, gossip), where the first
    three are the control state and gossip is (known sets, stores).

    Sets and tables are encoded as frozensets (of members, or of
    ``(id, value)`` rows), which compare exactly like sorted tuples but
    need no sort.  Every field of :class:`Agent` and :class:`Whiteboard`
    is encoded, the gossip store only on FW boards (no other store is
    ever written) and only the class and the never-ticking timer on NW
    boards.  Timers tick every round but a round writes few boards'
    other fields, hence the separate timers tuple.  No protocol reads
    gossip and merges only take unions, so gossip sets only grow during
    a run, hence the separate gossip, which :func:`fingerprint` leaves
    out.  Agents are listed in hidden-index order: half-duplex ties
    between anonymous agents are broken by that index, so swapping two
    indistinguishable agents can change the future.

    Left out, because they do not belong to the state:

    - ``ticks`` advances every synchronous round, so with it no state
      could repeat; it enters the key only through the timer values read
      against it.
    - ``graph`` is immutable and shared by every configuration of a run.
    - ``timer_cap`` is a run constant, set when the configuration is made
      and never written by a step.
    - ``genuine`` names each agent's initial token for the gossip check;
      it is never written after the configuration is made.
    """
    return (
        tuple(_agent_key(a) for a in cfg.agents),
        tuple(_board_key(b) for b in cfg.boards),
        tuple(timer(cfg, b) for b in cfg.boards),
        (tuple(frozenset(a.known) for a in cfg.agents),
         tuple(frozenset(b.store if b.cls == FW else ()) for b in cfg.boards)),
    )


_PRIME = (1 << 61) - 1  # fingerprints are taken modulo this Mersenne prime


@lru_cache(maxsize=8)
def _timer_weights(n: int) -> tuple[int, ...]:
    """One fixed pseudo-random weight per node of an n-node graph."""
    rng = random.Random(n)
    return tuple(rng.randrange(1, _PRIME) for _ in range(n))


def fingerprint(key: tuple) -> int:
    """The fingerprint of a :func:`state_key`'s control state:
    ``hash((i, agent key))`` for every agent index i, plus ``hash((v,
    board key))`` for every node v, plus every board's timer times its
    node's fixed weight, modulo a 61-bit prime (Zobrist hashing).  Equal
    control states give equal fingerprints; unequal states may collide,
    so a fingerprint match is confirmed by comparing keys."""
    agents, boards, timers, _ = key
    weights = _timer_weights(len(boards))
    total = sum(hash((i, a)) for i, a in enumerate(agents))
    for v, (board, t) in enumerate(zip(boards, timers)):
        total += hash((v, board)) + weights[v] * t
    return total % _PRIME


class Fingerprint:
    """:func:`fingerprint` of one configuration, kept across synchronous rounds.

    Make it at any state, which encodes every board, then call
    :meth:`update` at that state and after every round of
    :func:`~gossipsim.scheduler.sync_round` on ``cfg``, handing it the
    nodes of the boards and the indices of the agents whose control state
    changed since the last call (the round's ``index.boards`` and
    ``index.agents``); each call returns ``fingerprint(state_key(cfg))``.
    An update re-encodes only what it is handed.

    A board that is not written keeps its timer's stamp, so while that
    timer ticks, its term is ``w·(T − s)`` for the round clock T
    (``cfg.ticks``) and the clock s at which it read 0.  Those terms sum
    to ``T·rate − Σ w·s``; the rate is the weights of the ticking boards.
    A bucket keyed by the tick at which a ticking timer reaches the cap
    moves that board to a constant term then.  NW timers and timers at or
    above the cap never tick and are constant too.
    """

    __slots__ = ("cfg", "_agent_terms", "_agents", "_weights", "_terms", "_stamps", "_base",
                 "_rate", "_saturate")

    def __init__(self, cfg: Configuration):
        n = len(cfg.boards)
        self.cfg = cfg
        self._agent_terms = [hash((i, _agent_key(a))) for i, a in enumerate(cfg.agents)]
        self._agents = sum(self._agent_terms)  # the sum of the agent terms
        self._weights = _timer_weights(n)
        self._terms = [0] * n  # each board's hash and constant or -w·s timer term
        self._stamps: list[int | None] = [None] * n  # None: the timer is constant
        self._base = 0  # the sum of the terms
        self._rate = 0  # the sum of the ticking boards' weights
        self._saturate: dict[int, list[int]] = {}  # tick -> nodes whose timers reach the cap
        self._encode(range(n))

    def _encode(self, nodes) -> None:
        cfg = self.cfg
        boards = cfg.boards
        cap = cfg.timer_cap
        ticks = cfg.ticks
        weights, terms, stamps = self._weights, self._terms, self._stamps
        for v in nodes:
            b = boards[v]
            w = weights[v]
            self._base -= terms[v]
            if stamps[v] is not None:
                self._rate -= w
            term = hash((v, _board_key(b)))
            t = timer(cfg, b)
            if b.cls == NW or t >= cap:
                stamps[v] = None
                term += w * t
            else:
                stamps[v] = s = ticks - t
                term -= w * s
                self._rate += w
                self._saturate.setdefault(s + cap, []).append(v)
            terms[v] = term
            self._base += term

    def update(self, boards: Iterable[int] = (), agents: Iterable[int] = ()) -> int:
        cfg = self.cfg
        r = cfg.ticks
        stamp = r - cfg.timer_cap
        for v in self._saturate.pop(r, ()):
            if self._stamps[v] == stamp:  # else re-encoded since it was bucketed
                w = self._weights[v]
                self._stamps[v] = None
                self._terms[v] += w * r
                self._base += w * r
                self._rate -= w
        self._encode(boards)
        terms = self._agent_terms
        for i in agents:
            term = hash((i, _agent_key(cfg.agents[i])))
            self._agents += term - terms[i]
            terms[i] = term
        return (self._agents + self._base + r * self._rate) % _PRIME


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
    historical layout that keeps saved trace hashes valid: (agent keys
    with the known set at index 3, board keys with, on CW and FW, the
    timer at index 7 and, on FW, the store after it)."""
    agents, boards, timers, (known, stores) = state_key(cfg)
    agents = tuple(a[:3] + (k,) + a[3:] for a, k in zip(agents, known))
    boards = tuple(b if b[0] == NW else b + (t,) + ((s,) if b[0] == FW else ())
                   for b, t, s in zip(boards, timers, stores))
    return hashlib.sha256(repr(_canonical((agents, boards))).encode()).hexdigest()
