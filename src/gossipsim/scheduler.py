"""Drive configurations forward: synchronous rounds and asynchronous stepping.

A synchronous round runs, in order: gossip merges and agent activations
per node (nodes ascending, co-located agents ascending by id), the
timeout check at each node where a release is due (nodes ascending),
duplex conflict resolution, simultaneous application of the accepted
moves, post-move gossip merges, and one tick of the round clock
``Configuration.ticks`` that every board timer is read against.  No
round writes a timer that only ticks, and a waiting agent's activation,
which writes nothing, is not called.  The whole round is deterministic.

A run carries one :class:`RoundIndex` from round to round (or step to
step), so a round pays for the agents that act and the boards that can
come due, not for every agent and board: the agents grouped by node,
the waiting agents, the nodes agents arrived at (the only ones where a
merge can find something new), the tick at which each board comes due
and a record of what the last round wrote.

An asynchronous step activates the one agent a policy picks (no duplex
conflicts can arise) and never advances the round clock: the timer
protocol is proven for the synchronous model only.  :func:`run`
refuses, before its first step, a policy it cannot play and a
configuration whose protocol and board class
:func:`~gossipsim.model.refusal` rules out, timer-dependent protocols
under async scheduling included unless explicitly forced.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import count, cycle, islice, repeat

from .model import (
    FW,
    Configuration,
    ModelError,
    PROGRAM_DFT,
    PROGRAM_FW_DFT,
    PROGRAM_PATH_ENUM,
    merge_gossip,
    refusal,
)
from .protocol_dft import (
    MoveIntent,
    dft_agent_step,
    due_tick,
    timeout_check_and_execute,
    waits,
)
from .protocol_suite import anon_path_enum_step, fw_dft_step

SYNC = "sync"
ASYNC_RANDOM_FAIR = "async_random_fair"
ASYNC_ROUND_ROBIN = "async_round_robin"
ASYNC_SCRIPTED = "async_scripted"

HALF = "half"
FULL = "full"

FAIRNESS_WINDOW = 16

_STEP_FNS = {
    PROGRAM_DFT: dft_agent_step,
    PROGRAM_FW_DFT: fw_dft_step,
    PROGRAM_PATH_ENUM: anon_path_enum_step,
}


class SchedulerError(ModelError):
    pass


@dataclass(frozen=True, slots=True)
class SchedulePolicy:
    kind: str = SYNC
    seed: int = 0
    script: tuple[int, ...] = ()


@dataclass(slots=True)
class StepRecord:
    """What one round or step did, its step being its position in its run;
    the trace, the cycle report and the bound audit read its fields.  Its
    moves are the protocol's intents, completed by :meth:`RoundIndex.apply`;
    ``releases`` is filled by synchronous rounds only."""

    acting: tuple[int, ...]
    moves: list[MoveIntent] = field(default_factory=list)
    merges: tuple[int, ...] = ()
    releases: tuple[tuple[int, int], ...] = ()  # (node, released agent idx)


@dataclass(slots=True)
class Trace:
    """How a :func:`run` ended; the step records go to its observer only."""

    steps: int
    status: str  # "met" | "truncated"

    @property
    def stop_step(self) -> int | None:
        """The step after which the stop predicate held, if it did."""
        return self.steps if self.status == "met" else None

    def __len__(self) -> int:
        return self.steps


def _order_key(ident: int | None, idx: int) -> tuple:
    """Activation and tie-break order: named agents by id, then anonymous
    agents by hidden index."""
    return (0, ident) if ident is not None else (1, idx)


class RoundIndex:
    """What the rounds or steps of one run carry from one to the next,
    so that a round touches only the agents that act and the boards that
    can come due.  Built from any configuration, it stays valid only while
    :func:`sync_round` or :func:`async_step` with it is the only writer
    of ``cfg``.  Gossip moves only in :meth:`merge` and agents only in
    :meth:`apply`, the one writers of ``groups`` and ``arrivals``; the
    intents ``apply`` completes are the step record's moves.

    - ``groups``: occupied node -> indices of the agents there, each
      group in activation order.
    - ``waiting``: the quiescing agents for which
      :func:`~gossipsim.protocol_dft.waits` holds.  Only a timeout
      release takes an agent out (only a release pops its id), and only
      the agent's own step puts it in.
    - ``arrivals``: the nodes an agent moved into since the last merge
      there; at build time every occupied node.  Known sets and stores
      grow only in merges, so the agents of an occupied node outside it
      hold one known set, equal to the store on FW.  Empty for good once
      ``settled``.
    - ``settled``: set by :meth:`settle`, which the build calls, once
      every known set and every FW store hold one value.  No merge can
      then grow anything, so none runs again: ``apply`` stops recording
      arrivals.
    - ``due_at``: node -> its :func:`~gossipsim.protocol_dft.due_tick`,
      for every board that has one.  Kept only if a quiescing agent runs
      (``timed``): no other protocol releases anyone.
    - ``boards`` and ``agents``: the record of the last round, the nodes
      whose boards and the indices of the agents whose control state it
      may have written; empty at build time.  A round starts it afresh.
      A step or a due check records its node and its agent, and a move
      its agent; a merge, which writes only gossip, records nothing.  The
      round reschedules its boards' due ticks from it and a
      :class:`~gossipsim.model.Fingerprint` re-encodes it.  An async step
      starts no record: its moves add to one that nobody reads.
    - ``grown``: how many of its merges grew a known set or a store.
    """

    __slots__ = ("groups", "waiting", "arrivals", "settled", "due_at", "timed", "boards",
                 "agents", "grown", "_rank")

    def __init__(self, cfg: Configuration):
        agents = cfg.agents
        order = sorted(range(len(agents)), key=lambda i: _order_key(agents[i].ident, i))
        self._rank = [0] * len(agents)  # agent index -> its place in activation order
        self.groups: dict[int, list[int]] = {}
        for rank, idx in enumerate(order):
            self._rank[idx] = rank
            self.groups.setdefault(agents[idx].pos, []).append(idx)
        self.waiting = {idx for idx, a in enumerate(agents)
                        if a.program == PROGRAM_DFT and waits(cfg, a)}
        self.arrivals = set(self.groups)
        self.settled = False
        self.due_at: dict[int, int] = {}
        self.timed = any(a.program == PROGRAM_DFT for a in agents)
        self.boards: set[int] = set()
        self.agents: set[int] = set()
        self.grown = 0
        if self.timed:
            for v in range(len(cfg.boards)):
                self.schedule(cfg, v)
        self.settle(cfg)

    def schedule(self, cfg: Configuration, v: int) -> None:
        """Record node ``v``'s due tick, read at the current round clock."""
        tick = due_tick(cfg, cfg.boards[v])
        if tick is None:
            self.due_at.pop(v, None)
        else:
            self.due_at[v] = tick

    def pop_due(self, tick: int) -> list[int]:
        """The nodes due at ``tick``, ascending."""
        return sorted(v for v, t in self.due_at.items() if t == tick)

    def settle(self, cfg: Configuration) -> bool:
        """Set ``settled`` and clear ``arrivals`` if every agent's known
        set and every FW store hold one value; return ``settled``.  Sets
        change only in merges, and a merge of equal sets changes nothing,
        so a settled run stays settled."""
        if not self.settled:
            sets = [a.known for a in cfg.agents]
            sets += [b.store for b in cfg.boards if b.cls == FW]
            if all(s == sets[0] for s in sets):
                self.settled = True
                self.arrivals.clear()
        return self.settled

    def merge(self, cfg: Configuration, node: int) -> None:
        """Merge the gossip of the agents at occupied ``node``."""
        self.grown += merge_gossip(cfg, node, self.groups[node])
        self.arrivals.discard(node)

    def apply(self, cfg: Configuration, intent: MoveIntent, ok: bool) -> MoveIntent:
        """Apply one move intent, accepted or not: write its ``to`` and
        ``accepted`` and return it as the move's record."""
        idx, frm = intent.agent, intent.frm
        to, b = cfg.graph.neighbor(frm, intent.via)
        intent.to, intent.accepted = to, ok
        agent = cfg.agents[idx]
        agent.last_move_accepted = ok
        self.agents.add(idx)
        if ok:
            agent.pos, agent.arrival_port = to, b
            groups = self.groups
            group = groups[frm]
            group.remove(idx)
            if not group:
                del groups[frm]
            group = groups.setdefault(to, [])
            group.append(idx)
            if len(group) > 1:
                group.sort(key=self._rank.__getitem__)
            if not self.settled:
                self.arrivals.add(to)
        return intent


def resolve_duplex(
    cfg: Configuration,
    intents: list[MoveIntent],
    duplex: str,
) -> list[bool]:
    """Decide which move intents go through.

    Full duplex accepts everything (opposite crossings swap without
    meeting).  Half duplex accepts, per edge with opposing intents, only
    the direction containing the smallest agent id; same-direction
    intents on one edge are all accepted.
    """
    accepted = [True] * len(intents)
    if duplex == FULL:
        return accepted
    if duplex != HALF:
        raise SchedulerError(f"unknown duplex mode {duplex!r}")
    if len(intents) < 2:
        return accepted  # no two intents to oppose each other
    by_edge: dict[tuple, list[int]] = {}
    darts = []
    for n, intent in enumerate(intents):
        to, b = cfg.graph.neighbor(intent.frm, intent.via)
        dart = (intent.frm, intent.via)
        edge = min(dart, (to, b))
        by_edge.setdefault(edge, []).append(n)
        darts.append(dart)
    for edge, members in by_edge.items():
        dirs = {darts[n] for n in members}
        if len(dirs) < 2:
            continue
        winner = min(
            members,
            key=lambda n: _order_key(cfg.agents[intents[n].agent].ident, intents[n].agent),
        )
        win_dart = darts[winner]
        for n in members:
            if darts[n] != win_dart:
                accepted[n] = False
    return accepted


def sync_round(
    cfg: Configuration, duplex: str = HALF, index: RoundIndex | None = None
) -> StepRecord:
    """Advance one synchronous lock-step round in place, phases as above.

    Every agent at an activated node is listed in ``acting``, a waiting
    agent of the quiescing protocol too, whose step would only stay, and
    every occupied node in ``merges``, although a merge runs only at a
    node in ``index.arrivals``, and at a lone agent's only with an FW
    store.

    ``index`` carries what one round leaves for the next (see
    :class:`RoundIndex`); None builds a fresh one, which makes the round
    start from scratch.  After the steps the round reschedules the
    recorded nodes, then checks the nodes due at this round clock in
    ascending order, and reschedules those from the next one.  The moves
    are the intents :meth:`RoundIndex.apply` completes.  After them a merge
    runs at each accepted move's destination that is in ``index.arrivals``
    and holds two or more agents, in move order: merges at different
    nodes commute.  The steps' merges leave no group of two or more in
    ``index.arrivals``, so no other node can need one.  A settled index
    (:meth:`RoundIndex.settle`) records no arrival, so its rounds merge
    nothing.
    """
    if index is None:
        index = RoundIndex(cfg)
    index.boards = boards = set()
    index.agents = written = set()
    intents: list[MoveIntent] = []
    acting: list[int] = []
    agents = cfg.agents
    groups, waiting, arrivals, timed = index.groups, index.waiting, index.arrivals, index.timed
    occupied = sorted(groups)
    for node in occupied:
        here = groups[node]
        if node in arrivals and (len(here) > 1 or cfg.boards[node].cls == FW):
            index.merge(cfg, node)
        acting.extend(here)
        for idx in here:
            if idx in waiting:
                continue
            intent, meta = _STEP_FNS[agents[idx].program](cfg, idx)
            boards.add(node)
            written.add(idx)
            if meta.joined_waiting:
                waiting.add(idx)
            if not intent.stay:
                intents.append(intent)
    releases = []
    due: list[int] = []
    if timed:
        for node in boards:
            index.schedule(cfg, node)
        # a check reads and writes its own board only, so the due boards
        # are known before any of them releases
        due = index.pop_due(cfg.ticks)
        boards.update(due)
        for node in due:
            for intent, _ in timeout_check_and_execute(cfg, node):
                releases.append((node, intent.agent))
                intents.append(intent)
                waiting.discard(intent.agent)
    accepted = resolve_duplex(cfg, intents, duplex)
    moves = [index.apply(cfg, intent, ok) for intent, ok in zip(intents, accepted)]
    for mv in moves:
        if mv.accepted and mv.to in arrivals and len(groups[mv.to]) > 1:
            index.merge(cfg, mv.to)
    cfg.ticks += 1
    for node in due:
        index.schedule(cfg, node)
    return StepRecord(tuple(acting), moves, tuple(occupied), tuple(releases))


def _below(getrandbits, n: int) -> int:
    """``random.Random.randrange(n)``, draw for draw: ``getrandbits`` of
    ``n.bit_length()`` bits until the value is below ``n``."""
    if n < 1:
        raise ValueError(f"empty range below {n}")
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def _random_fair(k: int, seed: int, window: int) -> Iterator[int]:
    """Uniform draws, except that an agent idle for k·``window`` steps goes
    next.  Agents start as if 0..k-1 had just run in that order, so last-run
    steps stay distinct and at most one agent is overdue at a time.  With
    no agents it yields nothing."""
    if k == 0:
        return
    getrandbits = random.Random(seed).getrandbits
    bound = k * window
    last = list(range(1 - k, 1))  # each agent's last-run step
    for step in count(1):
        oldest = min(last)
        idx = last.index(oldest) if step - oldest >= bound else _below(getrandbits, k)
        last[idx] = step
        yield idx


def _picks(policy: SchedulePolicy, k: int) -> Iterator[int | None]:
    """What each step under ``policy`` activates: None (a synchronous
    round) or one agent's index.  Raises :class:`SchedulerError` for an
    unknown kind or a script index outside 0..k-1."""
    kind = policy.kind
    if kind == SYNC:
        return repeat(None)
    if kind == ASYNC_ROUND_ROBIN:
        return cycle(range(k))
    if kind == ASYNC_SCRIPTED:
        for idx in policy.script:
            if not 0 <= idx < k:
                raise SchedulerError(f"script selects nonexistent agent {idx}")
        return iter(policy.script)
    if kind == ASYNC_RANDOM_FAIR:
        return _random_fair(k, policy.seed, FAIRNESS_WINDOW)
    raise SchedulerError(f"unknown async policy {kind!r}")


def async_step(cfg: Configuration, idx: int, index: RoundIndex | None = None) -> StepRecord:
    """Activate agent ``idx`` alone: a merge at its node before its step,
    if that node is in ``index.arrivals``, and, if it moved, one at its
    new node after; None builds a fresh index.  ``rec.merges`` still
    lists ``(pos,)``, or ``(pos, to)`` after a move, whether a merge ran
    or not.  The round clock, and every timer, stands still."""
    if index is None:
        index = RoundIndex(cfg)
    agent = cfg.agents[idx]
    pos = agent.pos
    if pos in index.arrivals:
        index.merge(cfg, pos)
    intent, _ = _STEP_FNS[agent.program](cfg, idx)
    if intent.stay:
        return StepRecord((idx,), merges=(pos,))
    index.apply(cfg, intent, True)
    index.merge(cfg, intent.to)
    return StepRecord((idx,), [intent], (pos, intent.to))


def run(
    cfg: Configuration,
    policy: SchedulePolicy,
    duplex: str = HALF,
    stop=None,
    max_steps: int = 10_000,
    *,
    unsafe_async: bool = False,
    observer=None,
) -> Trace:
    """Step until the stop predicate holds, the budget ends or the picks run out.

    Before anything else, raises :class:`SchedulerError` with the reason
    :func:`~gossipsim.model.refusal` gives for the first (agent program,
    board class) pair of ``cfg`` it refuses under ``policy``, or that
    :func:`_picks` gives for ``policy``; a run whose script ends first is
    truncated.  Mutates ``cfg`` in place; clone first to keep the start.
    A run carries one :class:`RoundIndex` through its rounds or steps.
    ``observer(cfg, record)`` runs after every step and must not write
    ``cfg``; the trace keeps only the step count, so a caller that wants
    the records collects them there.
    """
    classes = sorted({b.cls for b in cfg.boards})
    for program in sorted({a.program for a in cfg.agents}):
        for cls in classes:
            reason = refusal(program, cls, policy.kind == SYNC, unsafe_async)
            if reason:
                raise SchedulerError(reason)
    picks = _picks(policy, cfg.k)
    if stop is not None and stop(cfg):
        return Trace(0, "met")
    index = RoundIndex(cfg)
    steps = 0
    for idx in islice(picks, max_steps):
        rec = sync_round(cfg, duplex, index) if idx is None else async_step(cfg, idx, index)
        steps += 1
        if observer is not None:
            observer(cfg, rec)
        if stop is not None and stop(cfg):
            return Trace(steps, "met")
    return Trace(steps, "truncated")
