"""Batch front-end: single runs, fuzz campaigns, and witness scenarios.

Machine-first output (JSON report, JSONL trace, CSV campaign summary)
with a short human table on stdout.

``run`` and ``fuzz`` share the simulation options (--graph, --protocol,
--k, --board, --schedule, --duplex, --max-steps, --script,
--unsafe-async; one the run would not read is a usage error) and one
simulation path, :func:`simulate`.  ``run`` adds --seed, --fuzz,
--report and --trace; ``fuzz`` adds --seeds, --jobs, --out and
--out-jsonl and always fuzzes the start, seeding it and the async
policy with each seed.  Without --max-steps an asynchronous or non-DFT
run stops after 10,000 steps under ``run`` and 50·m·k steps under
``fuzz`` (m edges, k agents); a synchronous dft_kminus1 run uses the
cycle detector's default budget.  ``witness
mirror`` takes --graph, --k, --seed and --report; ``witness symmetry``
takes --n, --k, --board and --report.  Option names must be spelled out
in full: an abbreviation is a usage error.

Exit codes are part of the contract:

0  stop condition met (cycle found / gossip complete / witness holds)
   and, for a synchronous dft_kminus1 run, the property holds
2  budget or script exhausted before the stop condition, or a cycle that is not
   (k-1)-quiescent with the minimum id as the sole mover
3  illegal protocol/board/schedule combination
4  internal assertion failure
5  parameter or input error, usage errors included (``--help`` exits 0)
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import ExitStack
from dataclasses import asdict
from functools import cache, partial
from itertools import count

from .harness import (
    CLEAN_SPEC,
    FuzzSpec,
    audit_move_bounds,
    detect_cycle,
    fuzz_config,
    gossip_complete,
    quiescence_holds,
    witness_mirror,
    witness_symmetry,
)
from .model import BOARD_CLASSES, PROGRAM_DFT, PROGRAMS, ModelError, refusal, snapshot_hash
from .scheduler import (
    ASYNC_RANDOM_FAIR,
    ASYNC_ROUND_ROBIN,
    ASYNC_SCRIPTED,
    FULL,
    HALF,
    SYNC,
    SchedulePolicy,
    run,
)
from .topology import GraphError, build_grid, build_ring, parse_graph, random_connected_graph

EXIT_OK = 0
EXIT_TRUNCATED = 2
EXIT_ILLEGAL = 3
EXIT_INTERNAL = 4
EXIT_PARAM = 5

SCHEDULES = (SYNC, ASYNC_RANDOM_FAIR, ASYNC_ROUND_ROBIN, ASYNC_SCRIPTED)


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_PARAM):
        super().__init__(message)
        self.code = code


def load_graph(spec: str):
    """Graph source: ring:N, grid:RxC, random:N[:EXTRA[:SEED]], or a file path."""
    try:
        if spec.startswith("ring:"):
            return build_ring(int(spec.split(":", 1)[1]))
        if spec.startswith("grid:"):
            rows, cols = spec.split(":", 1)[1].split("x")
            return build_grid(int(rows), int(cols))
        if spec.startswith("random:"):
            parts = spec.split(":")[1:]
            if len(parts) > 3:
                raise GraphError("random takes at most N:EXTRA:SEED")
            n = int(parts[0])
            extra = int(parts[1]) if len(parts) > 1 else 2
            seed = int(parts[2]) if len(parts) > 2 else 0
            return random_connected_graph(n, extra, seed)
        with open(spec, encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except (ValueError, OSError, GraphError) as exc:
        raise CliError(f"bad graph source {spec!r}: {exc}") from exc


def check_params(args) -> None:
    """Refuse (exit 3) a combination :func:`~gossipsim.model.refusal` rules
    out, then reject numeric options outside their documented ranges and
    options the run would never read, and parse ``--script`` into agent
    indices below ``--k``, before any output is opened."""
    reason = refusal(args.protocol, args.board, args.schedule == SYNC, args.unsafe_async)
    if reason:
        raise CliError(reason, EXIT_ILLEGAL)
    if args.k < 1:
        raise CliError(f"--k must be at least 1, got {args.k}")
    if args.max_steps < 0:
        raise CliError(f"--max-steps must be non-negative, got {args.max_steps}")
    if args.script and args.schedule != ASYNC_SCRIPTED:
        raise CliError("--script is read only by the async_scripted schedule")
    if args.duplex is None:
        args.duplex = HALF
    elif args.schedule != SYNC:
        raise CliError("--duplex is read only by the sync schedule")
    if args.unsafe_async and not refusal(args.protocol, args.board, args.schedule == SYNC, False):
        raise CliError(f"--unsafe-async forces nothing: {args.protocol} may run "
                       f"on {args.board} whiteboards under {args.schedule}")
    script = ()
    if args.schedule == ASYNC_SCRIPTED:
        if not args.script:
            raise CliError("async_scripted needs --script")
        try:
            script = tuple(int(x) for x in args.script.split(","))
        except ValueError:
            raise CliError(f"bad --script {args.script!r}") from None
        if any(not 0 <= idx < args.k for idx in script):
            raise CliError(f"bad --script {args.script!r}: agent indices run from 0 to {args.k - 1}")
    args.script = script


def _trace_observer(fh):
    steps = count()  # a CLI run starts from a fresh configuration

    def observer(cfg, rec):
        line = {
            "step": next(steps),
            "acting": list(rec.acting),
            "moves": [
                {
                    "agent": mv.agent,
                    "from": mv.frm,
                    "via": mv.via,
                    "to": mv.to,
                    "accepted": mv.accepted,
                }
                for mv in rec.moves
            ],
            "merges": list(rec.merges),
            "hash": snapshot_hash(cfg),
        }
        fh.write(json.dumps(line, sort_keys=True) + "\n")

    return observer


def _open_output(outputs: ExitStack, path: str, **kwargs):
    """Open ``path`` for writing on ``outputs``; None for an empty path."""
    if not path:
        return None
    return outputs.enter_context(open(path, "w", encoding="utf-8", **kwargs))


def _write_report(report: dict, fh) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    if fh is not None:
        fh.write(text + "\n")
    print(text)


def simulate(args, graph, spec: FuzzSpec, async_budget: int, seed: int, observer=None):
    """One simulation from the start ``fuzz_config`` draws for ``seed``:
    (report fields, property verdict).

    A synchronous dft_kminus1 run goes to an exact cycle and holds the
    property when :func:`quiescence_holds`; any other run goes to gossip
    completion within ``--max-steps`` or else ``async_budget`` steps.
    """
    cfg = fuzz_config(graph, args.k, spec, seed, board_class=args.board, program=args.protocol)
    if args.schedule == SYNC and args.protocol == PROGRAM_DFT:
        rep = detect_cycle(cfg, args.duplex, budget=args.max_steps or None, observer=observer)
        bounds = audit_move_bounds(rep.records, graph)
        report = {
            "status": rep.status,
            "prefix": rep.prefix_len,
            "period": rep.period,
            "quiescent": len(rep.quiescent),
            "movers": [cfg.agents[i].ident for i in rep.movers],
            "gossip_step": rep.gossip_step,
            "releases_in_cycle": rep.releases_in_cycle,
            "fwd_max": bounds.fwd_max,
            "back_max": bounds.back_max,
        }
        return report, quiescence_holds(cfg, rep)
    trace = run(
        cfg,
        SchedulePolicy(kind=args.schedule, seed=seed, script=args.script),
        args.duplex,
        stop=gossip_complete,
        max_steps=args.max_steps or async_budget,
        unsafe_async=args.unsafe_async,
        observer=observer,
    )
    report = {"status": trace.status, "steps": len(trace), "gossip_step": trace.stop_step}
    return report, trace.status == "met"


def cmd_run(args) -> int:
    check_params(args)
    graph = load_graph(args.graph)
    with ExitStack() as outputs:
        # open the outputs first, so a bad path fails before any round runs
        trace_fh = _open_output(outputs, args.trace)
        report_fh = _open_output(outputs, args.report)
        observer = _trace_observer(trace_fh) if trace_fh else None
        spec = FuzzSpec() if args.fuzz else CLEAN_SPEC
        report, ok = simulate(args, graph, spec, 10_000, args.seed, observer)
        _write_report(report, report_fh)
    return EXIT_OK if ok else EXIT_TRUNCATED


# the fuzz CSV columns: the seed, then the report fields a row keeps
FUZZ_COLUMNS = ("seed", "status", "prefix", "period", "quiescent", "gossip_step",
                "fwd_max", "back_max")


def cmd_fuzz(args) -> int:
    check_params(args)
    graph = load_graph(args.graph)
    try:
        lo, hi = (int(x) for x in args.seeds.split(":"))
    except ValueError:
        raise CliError(f"bad --seeds {args.seeds!r} (want LO:HI)") from None
    if lo >= hi:
        raise CliError(f"empty --seeds range {args.seeds!r} (want LO < HI)")
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    one_seed = partial(simulate, args, graph, FuzzSpec(), 50 * graph.edge_count * args.k)
    with ExitStack() as outputs:
        # open the outputs first, so a bad path fails before any seed runs
        csv_fh = _open_output(outputs, args.out, newline="")
        jsonl_fh = _open_output(outputs, args.out_jsonl)
        # the pool forks all its workers at its first submit; imported here,
        # multiprocessing costs a one-process run nothing
        jobs = min(args.jobs, hi - lo, os.cpu_count() or 1)
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(one_seed, range(lo, hi)))
        else:
            results = [one_seed(s) for s in range(lo, hi)]
        rows = []
        for seed, (report, ok) in zip(range(lo, hi), results):
            row = {col: report.get(col) for col in FUZZ_COLUMNS}
            row.update(seed=seed, ok=ok)
            # a field the run did not report, or reported as null, is blank
            rows.append({col: "" if val is None else val for col, val in row.items()})
        if csv_fh:
            writer = csv.DictWriter(csv_fh, fieldnames=FUZZ_COLUMNS, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        if jsonl_fh:
            for row in rows:
                jsonl_fh.write(json.dumps(row, sort_keys=True) + "\n")
    ok = sum(1 for r in rows if r["ok"])
    print(f"{ok}/{len(rows)} seeds satisfied the property set")
    return EXIT_OK if ok == len(rows) else EXIT_TRUNCATED


def cmd_witness(args) -> int:
    graph = load_graph(args.graph) if args.kind == "mirror" else None
    with ExitStack() as outputs:
        report_fh = _open_output(outputs, args.report)
        if graph is None:
            rep = witness_symmetry(args.n, args.k, args.board)
        else:
            rep = witness_mirror(graph, args.k, seed=args.seed)
        _write_report({"kind": args.kind, **asdict(rep), "ok": rep.ok}, report_fh)
    return EXIT_OK if rep.ok else EXIT_TRUNCATED


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`CliError` (exit 5) instead of exiting 2,
    which the contract reserves for an exhausted budget or a violated
    property, and option names must be spelled out (an abbreviation such
    as ``--seed`` for ``--seeds`` is an unknown option).  Subcommand
    parsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gossipsim")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", required=True, help="ring:N | grid:RxC | random:N[:E[:S]] | file")
        p.add_argument("--protocol", default=PROGRAM_DFT, choices=PROGRAMS)
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--board", default="CW", choices=BOARD_CLASSES)
        p.add_argument("--schedule", default=SYNC, choices=SCHEDULES)
        p.add_argument("--duplex", choices=[HALF, FULL], help="sync only; default half")
        p.add_argument("--max-steps", type=int, default=0, help="0 = protocol default budget")
        p.add_argument("--script", default="", help="comma-separated agent indices for async_scripted")
        p.add_argument("--unsafe-async", action="store_true")

    p_run = sub.add_parser("run", help="one simulation")
    common(p_run)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--fuzz", action="store_true", help="fuzz the initial configuration")
    p_run.add_argument("--report", default="", help="write JSON report here")
    p_run.add_argument("--trace", default="", help="write JSONL trace here")
    p_run.set_defaults(fn=cmd_run)

    p_fuzz = sub.add_parser("fuzz", help="seed campaign")
    common(p_fuzz)
    p_fuzz.add_argument("--seeds", default="0:100", help="LO:HI half-open range")
    p_fuzz.add_argument("--jobs", type=int, default=1)
    p_fuzz.add_argument("--out", default="", help="summary CSV path")
    p_fuzz.add_argument("--out-jsonl", default="", help="per-seed JSON records path")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_wit = sub.add_parser("witness", help="impossibility witnesses")
    kinds = p_wit.add_subparsers(dest="kind", required=True)
    p_mirror = kinds.add_parser("mirror", help="mirrored network")
    p_mirror.add_argument("--graph", default="ring:4")
    p_mirror.add_argument("--k", type=int, default=2)
    p_mirror.add_argument("--seed", type=int, default=0)
    p_mirror.add_argument("--report", default="")
    p_sym = kinds.add_parser("symmetry", help="symmetric ring")
    p_sym.add_argument("--n", type=int, default=6)
    p_sym.add_argument("--k", type=int, default=2)
    p_sym.add_argument("--board", default="CW", choices=BOARD_CLASSES)
    p_sym.add_argument("--report", default="")
    p_wit.set_defaults(fn=cmd_witness)

    return parser


# one parser per process: parsing leaves it as it was, and the commands it
# names look up the simulation functions when they run
_parser = cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ModelError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except AssertionError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
