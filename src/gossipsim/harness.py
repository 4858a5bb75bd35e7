"""Self-stabilization testing machinery.

Four concerns live here: fuzzing structurally valid but semantically
arbitrary initial configurations, exact quiescence detection by finding
the cycle the deterministic synchronous system must enter, auditing
per-traversal move bounds from a run's step records, and the two
executable impossibility witnesses (mirrored network, symmetric ring).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace

from .model import (
    CW,
    FW,
    NW,
    Agent,
    Configuration,
    Fingerprint,
    ModelError,
    PROGRAM_DFT,
    PROGRAM_PATH_ENUM,
    PathCursor,
    Token,
    Whiteboard,
    make_configuration,
    set_timer,
    state_key,
    timer,
)
from .protocol_dft import BACKTRACK, FORWARD
from .scheduler import HALF, RoundIndex, SchedulePolicy, StepRecord, SYNC, _below, run, sync_round
from .topology import PortLabeledGraph, build_ring, mirror_join, mirror_node

UNIFORM = "uniform"
CLUSTERED = "clustered"

CYCLE = "cycle"
BUDGET = "budget"


class HarnessError(ModelError):
    pass


@dataclass(frozen=True, slots=True)
class FuzzSpec:
    """Knobs for arbitrary-initial-configuration generation.

    All rates are probabilities in [0, 1]; zero everywhere (and
    ``randomize_timers=False``, ``random_t_bit=False``) yields a clean
    configuration.  ``placement`` puts each agent on a node of its own
    draw (:data:`UNIFORM`) or all of them on one drawn node
    (:data:`CLUSTERED`).
    """

    id_low: int = 1
    id_high: int = 99
    fake_id_rate: float = 0.3
    table_garbage_rate: float = 0.2
    waiting_garbage_rate: float = 0.2
    randomize_timers: bool = True
    random_t_bit: bool = True
    garbage_token_rate: float = 0.2
    store_garbage_rate: float = 0.2
    placement: str = UNIFORM


CLEAN_SPEC = FuzzSpec(
    fake_id_rate=0.0,
    table_garbage_rate=0.0,
    waiting_garbage_rate=0.0,
    randomize_timers=False,
    random_t_bit=False,
    garbage_token_rate=0.0,
    store_garbage_rate=0.0,
)


def fuzz_config(
    graph: PortLabeledGraph,
    k: int,
    spec: FuzzSpec,
    seed: int,
    *,
    board_class: str = CW,
    program: str = PROGRAM_DFT,
) -> Configuration:
    """Deterministic function of (graph, k, spec, seed, board class, program).

    Structural invariants always hold (distinct live ids, one row per id,
    ports in range where the protocol reads them as ports); everything
    else is fair game.  The order and number of the random draws are part
    of the contract, pinned by a test: a fuzz seed names the same start
    in every version.  They are defined through ``getrandbits``: the
    per-board picks draw through :func:`~gossipsim.scheduler._below`.
    """
    rng = random.Random(f"{seed}:{spec.id_low}:{spec.id_high}:{k}")
    n = graph.node_count
    anonymous = program == PROGRAM_PATH_ENUM
    domain = range(spec.id_low, spec.id_high + 1)
    if not anonymous:
        if len(domain) < k:
            raise HarnessError(f"k={k} needs {k} distinct ids, but ids run from "
                               f"{spec.id_low} to {spec.id_high}")
        idents = sorted(rng.sample(domain, k))
    else:
        idents = [None] * k

    if spec.placement == UNIFORM:
        positions = [rng.randrange(n) for _ in range(k)]
    elif spec.placement == CLUSTERED:
        home = rng.randrange(n)
        positions = [home] * k
    else:
        raise HarnessError(f"unknown placement {spec.placement!r}")

    agents = []
    for j in range(k):
        agent = Agent(
            ident=idents[j],
            pos=positions[j],
            t_bit=rng.random() < 0.5 if spec.random_t_bit else False,
            program=program,
            arrival_port=rng.randrange(graph.degree(positions[j])),
        )
        if program == PROGRAM_PATH_ENUM:
            if rng.random() < spec.table_garbage_rate:
                # corrupt cursor (a return trail without labels); the walker
                # resets it on first activation
                agent.cursor = PathCursor(rng.randint(-3, 99), trail=(0,))
        else:
            # arbitrary internal state: a stale parked flag must be shed
            agent.parked = rng.random() < spec.table_garbage_rate
            agent.bounced = rng.random() < spec.table_garbage_rate
        agents.append(agent)

    cfg = make_configuration(
        graph, agents, board_class, max_id=spec.id_high + 1 if not anonymous else None
    )

    for j, agent in enumerate(cfg.agents):
        if rng.random() < spec.garbage_token_rate:
            agent.known = agent.known | {Token(f"ghost{rng.randrange(1000)}", "junk")}

    if board_class == NW:
        return cfg

    rows = [i for i in idents if i is not None]  # the live ids, then fake ones
    rows += [i for i in rng.sample(domain, min(len(domain), k + 3)) if i not in rows]
    cap = cfg.timer_cap
    rand, bits, rate = rng.random, rng.getrandbits, spec.table_garbage_rate
    for v, board in enumerate(cfg.boards):
        ports = (None, *range(graph.degree(v)))
        if rand() < spec.fake_id_rate:
            board.min_id = domain[_below(bits, len(domain))]
        if spec.randomize_timers:
            set_timer(cfg, board, _below(bits, cap + 1))
            board.wait_t = _below(bits, cap + 1)
        if rand() < spec.waiting_garbage_rate:
            board.waiting = board.waiting.union(rng.sample(domain, 1 + _below(bits, 2)))
        # a clean board and each id once: a drawn default (True, None) writes no row
        for i in rows:
            if rand() < rate and rand() >= 0.5:
                board.t_table[i] = False
            if rand() < rate and (port := ports[_below(bits, len(ports))]) is not None:
                board.in_link[i] = port
            if rand() < rate and (port := ports[_below(bits, len(ports))]) is not None:
                board.out_link[i] = port
        if board.cls == FW and rand() < spec.store_garbage_rate:
            board.store = board.store | {Token(f"ghost{_below(bits, 1000)}", "stale")}
    return cfg


def gossip_complete(cfg: Configuration) -> bool:
    """True iff every agent knows every agent's genuine token (garbage ignored)."""
    genuine = cfg.genuine.values()
    for agent in cfg.agents:
        if not agent.known.issuperset(genuine):
            return False
    return True


def default_cycle_budget(cfg: Configuration) -> int:
    return min(cfg.graph.node_count * max(cfg.timer_cap, 1) * 4**cfg.k, 200_000)


@dataclass(slots=True)
class CycleReport:
    """Exact eventual behavior of a deterministic synchronous run.

    ``prefix_len`` rounds lead into a cycle of ``period`` rounds that the
    system then repeats forever; all "forever" judgments below are decided
    on that cycle.  A :data:`BUDGET` report ran ``prefix_len`` rounds and
    found no cycle, so its cycle fields keep their empty defaults.
    ``records`` holds every round's :class:`StepRecord`, of which the
    cycle fields read only the cycle's.
    """

    status: str
    prefix_len: int
    period: int
    gossip_step: int | None
    records: list[StepRecord]
    quiescent: tuple[int, ...] = ()
    mover_visits: dict[int, frozenset[int]] = field(default_factory=dict)
    releases_in_cycle: int = 0

    @property
    def movers(self) -> tuple[int, ...]:
        q = set(self.quiescent)
        return tuple(i for i in self.mover_visits if i not in q)


def _first_repeat(
    key: tuple,
    candidates: list[int],
    checkpoints: list[tuple[int, Configuration]],
    duplex: str,
) -> int | None:
    """The candidate step whose state has ``key``, or None.

    ``checkpoints`` holds (step, state) pairs in ascending step order, the
    first at or before every candidate.  One probe walks forward through
    the ascending candidates from each one's latest checkpoint, jumping to
    a later checkpoint when that is closer, with a fresh index, settled
    when the checkpoint's gossip is; it calls no observer.  With
    :func:`detect_cycle`'s ladder a candidate c at step s lies fewer than
    max(128, 2·(s - c)/3) rounds past its latest checkpoint.
    """
    probe = index = None
    probe_step = -1
    j = 0
    for c in candidates:
        while j + 1 < len(checkpoints) and checkpoints[j + 1][0] <= c:
            j += 1
        start, state = checkpoints[j]
        if start > probe_step:
            probe, probe_step = state.clone(), start
            index = RoundIndex(probe)
        while probe_step < c:
            sync_round(probe, duplex, index)
            probe_step += 1
        if state_key(probe) == key:
            return c
    return None


def detect_cycle(
    cfg: Configuration,
    duplex: str = HALF,
    *,
    budget: int | None = None,
    observer=None,
) -> CycleReport:
    """Run synchronous rounds until an exact state repeat.

    The rounds carry one :class:`~gossipsim.scheduler.RoundIndex`, so a
    round in which k-1 agents wait costs about what its mover does.
    Each round's state is indexed by the
    :func:`~gossipsim.model.fingerprint` of its control state, which a
    :class:`~gossipsim.model.Fingerprint` updates from the boards and the
    agents the index records the round wrote (``index.boards`` and
    ``index.agents``) and from the round count, so no round re-encodes
    the whole state.  A fingerprint maps to its step, or to a list of
    steps once it recurs.

    A clone of the state (a checkpoint) is taken at step 0, at every
    power of two and at every multiple of 128.  The checkpoints form a
    ladder relative to the current step: after each new one, a later
    checkpoint t is dropped once the step is 4·lowbit(t) past it, where
    lowbit(t) is the largest power of two dividing t.  The first
    checkpoint, the anchor, is never dropped.  Gossip sets only grow, so
    no state before a merge that grew one (``index.grown`` moved) recurs
    after it: the index of fingerprints then starts afresh and every
    checkpoint but the latest one at or before that step, the new
    anchor, is dropped.  Only then, and at step 0, can gossip have
    completed or settled, so only then are :func:`gossip_complete` and
    :meth:`~gossipsim.scheduler.RoundIndex.settle` (also run by the
    index's build) checked; once gossip has settled, no merge runs again.

    When a fingerprint recurs, each earlier step with that fingerprint is
    re-simulated from its latest checkpoint and its :func:`state_key` is
    compared in full with a fresh :func:`state_key` of the current state,
    so the returned (prefix, period) pair is exact, not a fingerprint
    coincidence; a false hit (a collision) only lets the run go on.
    Without a false hit the re-simulation, which carries a fresh index
    from the checkpoint, costs fewer than max(128, 2·period/3) rounds: a
    multiple t of the smallest power of two L >= max(128, period/3) lies
    within L below the prefix, and the ladder keeps it (or an anchor after
    it), since the step is less than period + L <= 4·L past it.  Memory
    is at most 2·step.bit_length() + 2 clones (each lowbit keeps at most
    two), which share their gossip sets, plus the per-round records.

    ``cfg`` is mutated and ends at step prefix + period, a state on the
    cycle; clone first to keep the start state.  ``observer(cfg, record)``
    runs after every round, for monitoring; it must not write ``cfg``.
    """
    limit = budget if budget is not None else default_cycle_budget(cfg)
    fingerprint = Fingerprint(cfg)
    index = RoundIndex(cfg)
    seen: dict[int, int | list[int]] = {}
    checkpoints: list[tuple[int, Configuration]] = []
    records: list[StepRecord] = []
    gossip_step: int | None = None
    step = 0
    grown = -1  # step 0 starts afresh like a growth
    while True:
        if step & (step - 1) == 0 or step % 128 == 0:  # 0, a power of two or 128·j
            # the ladder: drop each checkpoint but the anchor once 4·lowbit old
            checkpoints[1:] = [(t, c) for t, c in checkpoints[1:] if step - t < 4 * (t & -t)]
            checkpoints.append((step, cfg.clone()))
        if index.grown != grown:
            seen, grown = {}, index.grown
            del checkpoints[:-1]
            index.settle(cfg)
            if gossip_step is None and gossip_complete(cfg):
                gossip_step = step
        fp = fingerprint.update(index.boards, index.agents)
        earlier = seen.get(fp)
        if earlier is None:
            seen[fp] = step
        else:
            if type(earlier) is int:
                earlier = seen[fp] = [earlier]
            prefix = _first_repeat(state_key(cfg), earlier, checkpoints, duplex)
            if prefix is not None:
                period = step - prefix
                break
            earlier.append(step)
        if step >= limit:
            return CycleReport(BUDGET, step, 0, gossip_step, records)
        rec = sync_round(cfg, duplex, index)
        records.append(rec)
        if observer is not None:
            observer(cfg, rec)
        step += 1

    # the state at step prefix + period is the one at step prefix, so an
    # agent's cycle positions are its final one and its cycle moves' targets
    visits: dict[int, set[int]] = {i: {a.pos} for i, a in enumerate(cfg.agents)}
    cycle = records[prefix:]
    for rec in cycle:
        for mv in rec.moves:
            if mv.accepted:
                visits[mv.agent].add(mv.to)
    return CycleReport(
        status=CYCLE,
        prefix_len=prefix,
        period=period,
        gossip_step=gossip_step,
        records=records,
        quiescent=tuple(i for i, v in visits.items() if len(v) == 1),
        mover_visits={i: frozenset(v) for i, v in visits.items()},
        releases_in_cycle=sum(len(r.releases) for r in cycle),
    )


def quiescence_holds(cfg: Configuration, report: CycleReport) -> bool:
    """The headline property of a :func:`detect_cycle` run on ``cfg``: the
    run reached a cycle in which k-1 agents are quiescent and the sole
    mover has the minimum live id."""
    movers = report.movers
    return (
        report.status == CYCLE
        and len(report.quiescent) == cfg.k - 1
        and len(movers) == 1
        and cfg.agents[movers[0]].ident == min(a.ident for a in cfg.agents)
    )


@dataclass(slots=True)
class MoveBoundsReport:
    segments_checked: int
    fwd_max: int
    back_max: int
    violations: list[tuple[int, int, int, int]]  # (agent, segment, fwd, back)

    @property
    def ok(self) -> bool:
        return not self.violations


def audit_move_bounds(records: list[StepRecord], graph: PortLabeledGraph) -> MoveBoundsReport:
    """Check per-traversal move counts against the stated bounds: at most
    m forward and n backtracking moves (m edges, n nodes of ``graph``).

    A segment is the span between two consecutive traversal-bit flips of
    one agent; the first and last segment of each agent are truncated by
    the record boundaries and therefore skipped.  A flip opens a segment
    even when its move is rejected (the protocol flipped the bit during
    the step, and duplex resolution does not undo it), but only accepted
    moves count (a rejected intent moves nobody).
    """
    m = graph.edge_count
    n = graph.node_count
    # per agent: list of closed segments plus the open one
    segments: dict[int, list[list[int]]] = {}
    for rec in records:
        for mv in rec.moves:
            segs = segments.setdefault(mv.agent, [[0, 0]])
            if mv.flipped:
                segs.append([0, 0])
            if not mv.accepted:
                continue
            cur = segs[-1]
            if mv.kind == FORWARD:
                cur[0] += 1
            elif mv.kind == BACKTRACK:
                cur[1] += 1
    checked = 0
    fwd_max = 0
    back_max = 0
    violations: list[tuple[int, int, int, int]] = []
    for agent, segs in segments.items():
        # segs[0] started before the trace, segs[-1] never closed
        for s_idx, (fwd, back) in enumerate(segs[1:-1], start=1):
            checked += 1
            fwd_max = max(fwd_max, fwd)
            back_max = max(back_max, back)
            if fwd > m or back > n:
                violations.append((agent, s_idx, fwd, back))
    return MoveBoundsReport(checked, fwd_max, back_max, violations)


@dataclass(slots=True)
class MirrorReport:
    k: int
    join_node: int
    frozen_status: str
    frozen_period: int
    cross_tokens_exchanged: bool
    control_gossip_step: int | None

    @property
    def ok(self) -> bool:
        return (
            self.frozen_status == CYCLE
            and not self.cross_tokens_exchanged
            and self.control_gossip_step is not None
        )


def _translate_board(board: Whiteboard, offset: int, max_live: int) -> Whiteboard:
    """Mirror a whiteboard into the second copy: live-id rows move to the
    offset id range so each mirrored agent sees its own marks."""

    def twin(i: int) -> int:
        return i + offset if i <= max_live else i

    out = board.clone()
    for table in ("t_table", "in_link", "out_link"):
        setattr(out, table, {twin(i): v for i, v in getattr(board, table).items()})
    out.waiting = frozenset(twin(i) for i in board.waiting)
    out.min_id = twin(board.min_id)
    return out


def _park_for_good(cfg: Configuration) -> None:
    """Park every agent at its node for good: ``parked`` set, its id in the
    node's waiting set, and that node's ``wait_t`` at ``timer_cap + 1``.
    Timers saturate at the cap, so no timeout releases anyone; nobody
    moves, so no min-id gate runs.  Rounds still merge co-located agents'
    gossip, and the timers still count up to the cap."""
    for agent in cfg.agents:
        board = cfg.boards[agent.pos]
        agent.parked = True
        board.waiting = board.waiting | {agent.ident}
        board.wait_t = cfg.timer_cap + 1


def witness_mirror(graph: PortLabeledGraph, k: int, seed: int = 0) -> MirrorReport:
    """Indistinguishability demonstration on a mirrored network.

    Converge k agents on the base graph, join the graph with its mirror
    image at an agent-free node, and mirror all agent and board state
    into the second copy (ids offset, gossip fresh), under the joined
    network's own timer cap.  The control run from that start completes
    gossip.  In the all-stop hypothetical every agent of it is parked for
    good (:func:`_park_for_good`): its node's ``wait_t`` lies above the
    cap, a value that no run writes and no fuzzed start draws.  The
    doubled system then cycles while the two groups' genuine tokens stay
    on their own sides.
    """
    n = graph.node_count
    if not 1 <= k < n:
        raise HarnessError("mirror witness needs 1 <= k < n")
    rng = random.Random(seed)
    nodes = rng.sample(range(n), k)
    agents = [Agent(ident=j + 1, pos=nodes[j]) for j in range(k)]
    base = make_configuration(graph, agents, CW)
    report = detect_cycle(base, HALF)
    if report.status != CYCLE:
        raise HarnessError("base system failed to converge")

    occupied = {a.pos for a in base.agents}
    w = next(v for v in range(n) if v not in occupied)  # k < n agents leave one free

    offset = k
    # fresh gossip: make_configuration gives each agent its own token only
    agents = [replace(a, known=frozenset()) for a in base.agents]
    agents += [
        replace(a, ident=a.ident + offset, pos=mirror_node(graph, w, a.pos), known=frozenset())
        for a in base.agents
    ]
    joined = make_configuration(mirror_join(graph, w), agents, CW)
    sources = base.boards + [base.boards[v] for v in range(n) if v != w]
    joined.boards = [b.clone() for b in base.boards] + [
        _translate_board(base.boards[v], offset, k) for v in range(n) if v != w
    ]
    # each copy holds the timer its source reads on the base's round clock
    for board, source in zip(joined.boards, sources):
        set_timer(joined, board, timer(base, source))

    control = joined.clone()

    _park_for_good(joined)
    frozen_report = detect_cycle(joined, HALF)
    a_tokens = {joined.genuine[i] for i in range(k)}
    b_tokens = {joined.genuine[i] for i in range(k, 2 * k)}
    cross = any(agent.known & b_tokens for agent in joined.agents[:k]) or any(
        agent.known & a_tokens for agent in joined.agents[k:]
    )

    trace = run(control, SchedulePolicy(kind=SYNC), HALF, stop=gossip_complete,
                max_steps=default_cycle_budget(control))
    return MirrorReport(
        k=k,
        join_node=w,
        frozen_status=frozen_report.status,
        frozen_period=frozen_report.period,
        cross_tokens_exchanged=cross,
        control_gossip_step=trace.stop_step,
    )


@dataclass(slots=True)
class SymmetryReport:
    n: int
    k: int
    board: str
    status: str
    prefix: int
    period: int
    meetings: int
    gossip_ever_complete: bool

    @property
    def ok(self) -> bool:
        return self.status == CYCLE and self.meetings == 0 and not self.gossip_ever_complete


def witness_symmetry(n: int, k: int, board_class: str) -> SymmetryReport:
    """Symmetric-ring demonstration: k identical anonymous agents placed
    at regular spacing run the walk enumerator in lock step, so they never
    meet and gossip never completes.  ``meetings`` counts, over every
    round up to the end of the first cycle, the nodes that hold two or
    more agents after the round.

    Restricted to rings (the construction needs a regular graph).
    """
    if k < 1:
        raise HarnessError(f"k must be at least 1, got {k}")
    if n % k != 0:
        raise HarnessError(f"{k} does not divide {n}")
    g = build_ring(n)
    agents = [Agent(ident=None, pos=j * (n // k), program=PROGRAM_PATH_ENUM) for j in range(k)]
    cfg = make_configuration(g, agents, board_class)
    crowded = []  # per round: the nodes holding two or more agents after it

    def meet(c: Configuration, _rec: StepRecord) -> None:
        crowded.append(sum(1 for m in Counter(a.pos for a in c.agents).values() if m > 1))

    report = detect_cycle(cfg, HALF, observer=meet)
    return SymmetryReport(
        n=n,
        k=k,
        board=board_class,
        status=report.status,
        prefix=report.prefix_len,
        period=report.period,
        meetings=sum(crowded),
        gossip_ever_complete=report.gossip_step is not None and k > 1,
    )
