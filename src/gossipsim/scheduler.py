"""Drive configurations forward: synchronous rounds and asynchronous stepping.

A synchronous round runs, in order: gossip merges and agent activations
per node (nodes ascending, co-located agents ascending by id), the
timeout check at each node where a release is due (nodes ascending),
duplex conflict resolution, simultaneous application of the accepted
moves, post-move gossip merges, and one tick of the round clock
``Configuration.ticks`` that every board timer is read against.  No
round writes a timer that only ticks, and a waiting agent's activation,
which writes nothing, is not called.  The whole round is deterministic.

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
from functools import lru_cache
from itertools import count, cycle, islice, repeat

from .model import (
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
    StepMeta,
    dft_agent_step,
    release_due,
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

DEFAULT_FAIRNESS_WINDOW = 16

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
    fairness_window: int = DEFAULT_FAIRNESS_WINDOW


@dataclass(frozen=True, slots=True)
class MoveRecord:
    agent: int
    frm: int
    via: int
    to: int
    accepted: bool
    kind: str | None
    branch: str | None
    flipped: bool


@dataclass(slots=True)
class StepRecord:
    """What one round or step did; the trace, the cycle report and the
    bound audit read its fields.  ``releases`` and ``colocated`` are
    filled by synchronous rounds only."""

    step: int
    acting: tuple[int, ...]
    moves: list[MoveRecord] = field(default_factory=list)
    merges: tuple[int, ...] = ()
    releases: tuple[tuple[int, int], ...] = ()  # (node, released agent idx)
    colocated: tuple[int, ...] = ()  # nodes holding >= 2 agents after moves


@dataclass(slots=True)
class Trace:
    """How a :func:`run` ended; the step records go to its observer only."""

    steps: int
    status: str  # "met" | "truncated"
    stop_step: int | None = None

    def __len__(self) -> int:
        return self.steps


def _order_key(ident: int | None, idx: int) -> tuple:
    """Activation and tie-break order: named agents by id, then anonymous
    agents by hidden index."""
    return (0, ident) if ident is not None else (1, idx)


@lru_cache(maxsize=64)
def _activation_order(idents: tuple[int | None, ...]) -> tuple[int, ...]:
    """Agent indices in :func:`_order_key` order.  Ids never change
    during a run, so a run sorts its agents once and reuses the order."""
    return tuple(sorted(range(len(idents)), key=lambda i: _order_key(idents[i], i)))


def _positions_by_node(cfg: Configuration) -> dict[int, list[int]]:
    """Node -> indices of the agents there, each group in activation order."""
    agents = cfg.agents
    groups: dict[int, list[int]] = {}
    for idx in _activation_order(tuple([a.ident for a in agents])):
        groups.setdefault(agents[idx].pos, []).append(idx)
    return groups


def resolve_duplex(
    cfg: Configuration,
    intents: list[tuple[MoveIntent, StepMeta]],
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
    for n, (intent, _) in enumerate(intents):
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
            key=lambda n: _order_key(cfg.agents[intents[n][0].agent].ident, intents[n][0].agent),
        )
        win_dart = darts[winner]
        for n in members:
            if darts[n] != win_dart:
                accepted[n] = False
    return accepted


def _apply_moves(
    cfg: Configuration,
    intents: list[tuple[MoveIntent, StepMeta]],
    accepted: list[bool],
) -> list[MoveRecord]:
    records = []
    for (intent, meta), ok in zip(intents, accepted):
        to, b = cfg.graph.neighbor(intent.frm, intent.via)
        agent = cfg.agents[intent.agent]
        if ok:
            agent.pos = to
            agent.arrival_port = b
            agent.last_move_accepted = True
        else:
            agent.last_move_accepted = False
        records.append(
            MoveRecord(
                agent=intent.agent,
                frm=intent.frm,
                via=intent.via,
                to=to,
                accepted=ok,
                kind=meta.kind,
                branch=meta.branch,
                flipped=meta.flipped,
            )
        )
    return records


def sync_round(cfg: Configuration, duplex: str = HALF) -> StepRecord:
    """Advance one synchronous lock-step round in place, phases as above.

    Every agent at an activated node is listed in ``acting``, a waiting
    agent of the quiescing protocol too, whose step would only stay."""
    rec = StepRecord(step=cfg.round, acting=())
    intents: list[tuple[MoveIntent, StepMeta]] = []
    acting: list[int] = []
    merged: list[int] = []
    agents = cfg.agents
    groups = _positions_by_node(cfg)
    for node in sorted(groups):
        here = groups[node]
        merge_gossip(cfg, node, here)
        merged.append(node)
        for idx in here:
            acting.append(idx)
            agent = agents[idx]
            if agent.program == PROGRAM_DFT and waits(cfg, agent):
                continue
            intent, meta = _STEP_FNS[agent.program](cfg, idx)
            if not intent.stay:
                intents.append((intent, meta))
    releases = []
    if any(a.program == PROGRAM_DFT for a in agents):
        # a check reads and writes its own board only, so the due boards
        # can be found before any of them releases
        boards = cfg.boards
        for node in [v for v, b in enumerate(boards) if b.waiting and release_due(cfg, b)]:
            for intent, meta in timeout_check_and_execute(cfg, node):
                releases.append((node, intent.agent))
                intents.append((intent, meta))
    rec.releases = tuple(releases)
    rec.merges = tuple(merged)
    accepted = resolve_duplex(cfg, intents, duplex)
    rec.moves = _apply_moves(cfg, intents, accepted)
    rec.acting = tuple(acting)
    groups_after = _positions_by_node(cfg)
    colocated = []
    for node, members in groups_after.items():
        if len(members) >= 2:
            merge_gossip(cfg, node, members)
            colocated.append(node)
    rec.colocated = tuple(sorted(colocated))
    cfg.round += 1
    cfg.ticks += 1
    return rec


def _random_fair(k: int, seed: int, window: int) -> Iterator[int]:
    """Uniform draws, except that an agent idle for k·``window`` steps goes
    next.  Agents start as if 0..k-1 had just run in that order, so last-run
    steps stay distinct and at most one agent is overdue at a time.  With
    no agents it yields nothing."""
    if k == 0:
        return
    rng = random.Random(seed)
    bound = k * window
    last = list(range(1 - k, 1))  # each agent's last-run step
    for step in count(1):
        oldest = min(last)
        idx = last.index(oldest) if step - oldest >= bound else rng.randrange(k)
        last[idx] = step
        yield idx


def _picks(policy: SchedulePolicy, k: int) -> Iterator[int | None]:
    """What each step under ``policy`` activates: None (a synchronous
    round) or one agent's index.  Raises :class:`SchedulerError` for an
    unknown kind, a script index outside 0..k-1 or a window below 1."""
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
        if policy.fairness_window < 1:
            raise SchedulerError(f"fairness window must be at least 1, got {policy.fairness_window}")
        return _random_fair(k, policy.seed, policy.fairness_window)
    raise SchedulerError(f"unknown async policy {kind!r}")


def async_step(cfg: Configuration, idx: int) -> StepRecord:
    """Activate agent ``idx`` alone: a merge at its node before its step
    and, if it moved, at its new node after.  The round clock, and with
    it every timer, stands still."""
    rec = StepRecord(step=cfg.round, acting=(idx,))
    agent = cfg.agents[idx]
    merge_gossip(cfg, agent.pos)
    merged = [agent.pos]
    step_fn = _STEP_FNS[agent.program]
    intent, meta = step_fn(cfg, idx)
    if not intent.stay:
        rec.moves = _apply_moves(cfg, [(intent, meta)], [True])
        merge_gossip(cfg, agent.pos)
        merged.append(agent.pos)
    rec.merges = tuple(merged)
    cfg.round += 1
    return rec


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
    ``observer(cfg, record)`` runs after every step; the trace keeps only
    the step count, so a caller that wants the records collects them there.
    """
    classes = sorted({b.cls for b in cfg.boards})
    for program in sorted({a.program for a in cfg.agents}):
        for cls in classes:
            reason = refusal(program, cls, policy.kind == SYNC, unsafe_async)
            if reason:
                raise SchedulerError(reason)
    picks = _picks(policy, cfg.k)
    if stop is not None and stop(cfg):
        return Trace(0, "met", stop_step=0)
    steps = 0
    for idx in islice(picks, max_steps):
        rec = sync_round(cfg, duplex) if idx is None else async_step(cfg, idx)
        steps += 1
        if observer is not None:
            observer(cfg, rec)
        if stop is not None and stop(cfg):
            return Trace(steps, "met", stop_step=steps)
    return Trace(steps, "truncated")
