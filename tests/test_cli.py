"""End-to-end command-line checks: exit codes and artifact formats."""

import concurrent.futures
import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gossipsim import cli
from gossipsim.cli import (
    EXIT_ILLEGAL,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARAM,
    EXIT_TRUNCATED,
    CliError,
    load_graph,
    main,
)
from gossipsim.harness import CLEAN_SPEC, fuzz_config
from gossipsim.model import BOARD_CLASSES, PROGRAMS, refusal
from gossipsim.scheduler import SchedulePolicy, SchedulerError, run
from gossipsim.topology import build_grid, build_ring, serialize_graph


class TestLoadGraph:
    def test_ring_spec(self):
        assert load_graph("ring:5") == build_ring(5)

    def test_grid_spec(self):
        assert load_graph("grid:2x3") == build_grid(2, 3)

    def test_random_spec_deterministic(self):
        assert load_graph("random:6:2:9") == load_graph("random:6:2:9")

    def test_file_spec(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(build_ring(4)))
        assert load_graph(str(path)) == build_ring(4)

    @pytest.mark.parametrize(
        "spec", ["ring:x", "grid:2", "missing.txt", "random:7:-1", "random:7:2:3:junk"]
    )
    def test_bad_specs(self, spec):
        with pytest.raises(CliError):
            load_graph(spec)


class TestLegality:
    def test_nw_always_illegal(self, capsys):
        reason = refusal("dft_kminus1", "NW", True, False)
        assert reason == "dft_kminus1 cannot run on NW whiteboards"
        assert main(["run", "--graph", "ring:3", "--board", "NW"]) == EXIT_ILLEGAL
        assert capsys.readouterr().err == f"error: {reason}\n"

    def test_dft_async_gated(self):
        assert "synchronous-only" in refusal("dft_kminus1", "CW", False, False)
        assert refusal("dft_kminus1", "CW", False, True) is None

    def test_fw_protocols_need_fw(self):
        assert refusal("fw_async_dft", "CW", False, False) == (
            "fw_async_dft cannot run on CW whiteboards")
        # the walker never writes a board, so every board class admits it
        for board in ("NW", "CW", "FW"):
            assert refusal("anon_path_enum", board, False, False) is None

    @pytest.mark.parametrize("unsafe", [False, True])
    @pytest.mark.parametrize("schedule", cli.SCHEDULES)
    @pytest.mark.parametrize("board", BOARD_CLASSES)
    @pytest.mark.parametrize("protocol", PROGRAMS)
    def test_cli_and_library_agree(self, protocol, board, schedule, unsafe, capsys):
        # `run` exits 3 exactly when scheduler.run refuses the same start
        # before its first step, and both give the same reason
        code = main(["run", "--graph", "ring:4", "--protocol", protocol, "--board", board,
                     "--schedule", schedule, "--script", "0", "--max-steps", "1"]
                    + ["--unsafe-async"] * unsafe)
        err = capsys.readouterr().err
        cfg = fuzz_config(build_ring(4), 2, CLEAN_SPEC, 0, board_class=board, program=protocol)
        steps = []
        refused = None
        try:
            run(cfg, SchedulePolicy(kind=schedule, script=(0,)), max_steps=1,
                unsafe_async=unsafe, observer=lambda c, rec: steps.append(rec))
        except SchedulerError as exc:
            if not steps:
                refused = str(exc)
        assert (code == EXIT_ILLEGAL) == (refused is not None)
        if refused is not None:
            assert err == f"error: {refused}\n"


class TestMainExitCodes:
    def test_one_parser_per_process(self, monkeypatch):
        # main reuses one parser, and a parse leaves nothing for the next
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        parser = cli._parser()
        assert cli._parser() is parser
        first = parser.parse_args(["run", "--graph", "ring:4", "--seed", "5", "--fuzz"])
        again = parser.parse_args(["run", "--graph", "ring:4"])
        assert (first.seed, first.fuzz) == (5, True)
        assert (again.seed, again.fuzz) == (0, False)
        assert main(["run", "--graph", "ring:one"]) == EXIT_PARAM

    def test_illegal_combo(self, capsys):
        code = main(["run", "--graph", "ring:4", "--board", "NW"])
        assert code == EXIT_ILLEGAL

    def test_param_error(self, capsys):
        assert main(["run", "--graph", "ring:one"]) == EXIT_PARAM

    def test_too_many_agents_for_the_id_domain(self, capsys):
        assert main(["run", "--graph", "ring:3", "--k", "200"]) == EXIT_PARAM
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: k=200 needs 200 distinct ids, but ids run from 1 to 99\n"

    def test_scripted_without_script(self, capsys):
        code = main(["run", "--graph", "ring:4", "--protocol", "anon_path_enum",
                     "--board", "FW", "--schedule", "async_scripted"])
        assert code == EXIT_PARAM

    def test_run_dft_sync_ok(self, capsys):
        code = main(["run", "--graph", "ring:4", "--k", "2", "--fuzz", "--seed", "5"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "cycle"
        assert report["quiescent"] == 1

    def test_run_exits_2_when_property_fails(self, capsys):
        # counterexample A: the clean start reaches a cycle with two movers
        code = main(["run", "--graph", "random:3:99"])
        assert code == EXIT_TRUNCATED
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "cycle"
        assert report["quiescent"] == 0 and len(report["movers"]) == 2

    def test_walker_on_nw_runs(self, capsys):
        # the clean start puts the two walkers on opposite nodes (2 and 5),
        # and under round robin they never meet: the run ends on its
        # budget instead of being refused
        code = main(["run", "--graph", "ring:6", "--protocol", "anon_path_enum",
                     "--board", "NW", "--schedule", "async_round_robin"])
        assert code == EXIT_TRUNCATED
        assert json.loads(capsys.readouterr().out)["status"] == "truncated"

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--graph", "ring:4", "--k", "-1"],
            ["run", "--graph", "ring:4", "--k", "0"],
            ["run", "--graph", "ring:4", "--max-steps", "-5"],
            ["fuzz", "--graph", "ring:4", "--k", "0", "--seeds", "0:2"],
            ["fuzz", "--graph", "ring:4", "--seeds", "5:2"],
            ["fuzz", "--graph", "ring:4", "--seeds", "2:2"],
            ["fuzz", "--graph", "ring:4", "--seeds", "0:2", "--jobs", "0"],
            ["fuzz", "--graph", "ring:4", "--seeds", "a:b"],
            ["run", "--graph", "random:1"],
            # usage errors: exit 5, not argparse's 2
            ["run", "--graph", "ring:4", "--duplex", "weird"],
            ["run", "--graph", "ring:4", "--k", "x"],
            ["run"],
            [],
            ["fuzz", "--graph", "ring:4", "--seeds", "0:2", "--report", "x.json"],
            ["fuzz", "--graph", "ring:4", "--protocol", "anon_path_enum", "--board", "FW",
             "--schedule", "async_scripted", "--script", "0,x", "--seeds", "0:2"],
            # unknown names, refused by the parser
            ["run", "--graph", "ring:4", "--protocol", "nope"],
            ["run", "--graph", "ring:4", "--board", "XX"],
            ["run", "--graph", "ring:4", "--schedule", "sometimes"],
            # abbreviated options are unknown options
            ["fuzz", "--graph", "ring:4", "--seeds", "0:4", "--seed", "0:2"],
            ["fuzz", "--graph", "ring:4", "--seed", "3"],
            ["run", "--graph", "ring:4", "--rep", "r.json"],
            ["run", "--graph", "ring:4", "--sched", "async_round_robin", "--unsafe"],
            # options the chosen run never reads
            ["run", "--graph", "ring:4", "--script", "0,x", "--max-steps", "3"],
            ["fuzz", "--graph", "ring:4", "--seeds", "0:2", "--script", "0"],
            ["run", "--graph", "ring:4", "--protocol", "anon_path_enum", "--board", "FW",
             "--schedule", "async_round_robin", "--duplex", "half"],
            ["run", "--graph", "ring:4", "--protocol", "fw_async_dft", "--board", "FW",
             "--duplex", "full", "--schedule", "async_round_robin", "--unsafe-async"],
            ["run", "--graph", "ring:4", "--protocol", "fw_async_dft", "--board", "FW",
             "--schedule", "async_round_robin", "--unsafe-async"],
            ["run", "--graph", "ring:4", "--unsafe-async"],
            # each witness kind takes only its own options
            ["witness", "mirror", "--n", "5"],
            ["witness", "mirror", "--board", "FW"],
            ["witness", "symmetry", "--graph", "ring:5"],
            ["witness", "symmetry", "--seed", "3"],
            # script indices must name one of the --k agents, even when
            # gossip would complete before the bad index is read
            ["run", "--graph", "ring:4", "--k", "2", "--board", "FW", "--protocol", "fw_async_dft",
             "--schedule", "async_scripted", "--script", "0,7"],
            ["run", "--graph", "ring:4", "--k", "2", "--board", "FW", "--protocol", "fw_async_dft",
             "--schedule", "async_scripted", "--script", "-1", "--trace", "t.jsonl"],
        ],
    )
    def test_bad_parameters(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a wrongly accepted output path lands here
        assert main(argv) == EXIT_PARAM
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert not any(tmp_path.iterdir())

    def test_assertion_exits_4(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("broken invariant")

        monkeypatch.setattr(cli, "simulate", broken)
        assert main(["run", "--graph", "ring:4"]) == EXIT_INTERNAL == 4
        out, err = capsys.readouterr()
        assert out == "" and err == "internal assertion failure: broken invariant\n"

    def test_unparsable_seeds_named(self, capsys):
        assert main(["fuzz", "--graph", "ring:4", "--seeds", "a:b"]) == EXIT_PARAM
        assert capsys.readouterr().err.startswith("error: bad --seeds 'a:b'")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["run", "--help"])
        assert stop.value.code == 0
        assert "--trace" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--graph", "ring:4", "--trace", "{bad}"],
            ["run", "--graph", "ring:4", "--report", "{bad}"],
            ["fuzz", "--graph", "ring:4", "--seeds", "0:2", "--out", "{bad}"],
            ["fuzz", "--graph", "ring:4", "--seeds", "0:2", "--out-jsonl", "{bad}"],
            ["run", "--graph", "ring:4", "--trace", "{trace}", "--report", "{bad}"],
            ["run", "--graph", "ring:4", "--schedule", "async_round_robin", "--unsafe-async",
             "--trace", "{trace}", "--report", "{bad}"],
            ["witness", "symmetry", "--report", "{bad}"],
            ["witness", "mirror", "--report", "{bad}"],
        ],
    )
    def test_bad_output_path(self, argv, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before opening every output")

        for name in ("simulate", "detect_cycle", "run", "witness_symmetry", "witness_mirror"):
            monkeypatch.setattr(cli, name, no_run)
        bad = str(tmp_path / "missing" / "out")
        trace = tmp_path / "t.jsonl"
        argv = [a.format(bad=bad, trace=trace) for a in argv]
        assert main(argv) == EXIT_PARAM
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        if str(trace) in argv:
            assert trace.read_text() == ""

    def test_witness_symmetry_ok(self, capsys):
        code = main(["witness", "symmetry", "--n", "6", "--k", "2", "--board", "CW"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_witness_symmetry_walkers_meet(self, capsys):
        # on a 2-ring the two walkers meet: the witness fails, exit 2
        code = main(["witness", "symmetry", "--n", "2", "--k", "2", "--board", "NW"])
        assert code == EXIT_TRUNCATED == 2
        report = json.loads(capsys.readouterr().out)
        assert (report["ok"], report["meetings"]) == (False, 8)

    @pytest.mark.parametrize("n, k", [(6, 0), (-2, -1)])
    def test_witness_symmetry_refuses_k_below_one(self, n, k, capsys):
        assert main(["witness", "symmetry", "--n", str(n), "--k", str(k)]) == EXIT_PARAM
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: k must be at least 1, got {k}\n"

    def test_witness_mirror_ok(self, capsys):
        code = main(["witness", "mirror", "--graph", "ring:4", "--k", "2"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ok"] is True


class TestArtifacts:
    def test_run_report_and_trace(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.jsonl"
        code = main(["run", "--graph", "ring:4", "--k", "2", "--fuzz", "--seed", "3",
                     "--report", str(report_path), "--trace", str(trace_path)])
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["status"] == "cycle" and report["period"] > 0
        lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert len(lines) == report["prefix"] + report["period"]
        assert all({"step", "acting", "moves", "merges", "hash"} <= set(l) for l in lines)

    def test_reports_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            argv = ["run", "--graph", "ring:5", "--k", "2", "--fuzz", "--seed", "7",
                    "--report", str(p)]
            assert main(argv) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_fuzz_csv_and_parallel_agreement(self, tmp_path, capsys):
        outs = [tmp_path / "one.csv", tmp_path / "two.csv"]
        for out, jobs in zip(outs, ("1", "2")):
            code = main(["fuzz", "--graph", "ring:4", "--k", "2", "--seeds", "0:6",
                         "--jobs", jobs, "--out", str(out)])
            assert code == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        rows = list(csv.DictReader(outs[0].read_text().splitlines()))
        assert len(rows) == 6
        assert rows[0]["status"] == "cycle"
        assert set(rows[0]) == {"seed", "status", "prefix", "period", "quiescent",
                                "gossip_step", "fwd_max", "back_max"}

    @pytest.mark.parametrize(
        "jobs, seeds, cores, workers",
        [("64", "0:2", 8, 2), ("64", "0:9", 4, 4), ("3", "0:9", 8, 3),
         ("2", "0:9", 1, None), ("5", "0:1", 8, None)],
    )
    def test_fuzz_jobs_capped(self, jobs, seeds, cores, workers, monkeypatch, capsys):
        # the pool would fork every worker at its first submit; a fake pool
        # records how many it was asked for and maps in this process
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        code = main(["fuzz", "--graph", "ring:4", "--seeds", seeds, "--jobs", jobs])
        assert code == EXIT_OK
        assert started == ([] if workers is None else [workers])
        lo, hi = (int(x) for x in seeds.split(":"))
        assert capsys.readouterr().out == f"{hi - lo}/{hi - lo} seeds satisfied the property set\n"

    def test_import_leaves_out_multiprocessing(self):
        # only a fuzz campaign with two or more jobs imports the process
        # pool; a fresh interpreter shows what importing the CLI loads
        src = str(Path(cli.__file__).resolve().parent.parent)
        script = ("import sys; sys.path.insert(0, sys.argv[1]); import gossipsim.cli; "
                  "print('multiprocessing' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", script, src], capture_output=True,
                             text=True, check=True)
        assert out.stdout == "False\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # the timer protocol forced under an async policy
            ["--schedule", "async_random_fair", "--unsafe-async", "--max-steps", "50"],
            # every seed replays the same script
            ["--protocol", "anon_path_enum", "--board", "FW", "--schedule", "async_scripted",
             "--script", "0,1,1", "--max-steps", "3"],
        ],
    )
    def test_fuzz_passes_run_options(self, argv, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        code = main(["fuzz", "--graph", "ring:4", "--seeds", "0:3", "--out-jsonl", str(out),
                     *argv])
        assert code == EXIT_OK
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["seed"] for r in rows] == [0, 1, 2]
        assert all(r["ok"] and r["status"] == "met" for r in rows)
        assert capsys.readouterr().out == "3/3 seeds satisfied the property set\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--graph", "ring:5", "--k", "3"],
            ["--graph", "ring:5", "--k", "2", "--protocol", "fw_async_dft", "--board", "FW",
             "--schedule", "async_random_fair", "--max-steps", "400"],
            ["--graph", "ring:4", "--schedule", "async_round_robin", "--unsafe-async",
             "--max-steps", "60"],
        ],
    )
    def test_run_and_fuzz_agree(self, argv, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        main(["fuzz", *argv, "--seeds", "0:4", "--out-jsonl", str(out)])
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 4
        capsys.readouterr()
        for row in rows:
            code = main(["run", *argv, "--fuzz", "--seed", str(row["seed"])])
            report = json.loads(capsys.readouterr().out)
            assert row["ok"] == (code == EXIT_OK)
            for col, val in report.items():
                if col in row:
                    assert row[col] == ("" if val is None else val), col

    def test_exhausted_script_truncates(self, tmp_path, capsys):
        # one scripted step completes gossip only from seed 2's start; the
        # other runs end with the script, truncated, and the CSV keeps them
        argv = ["--graph", "ring:6", "--k", "2", "--board", "FW", "--protocol", "fw_async_dft",
                "--schedule", "async_scripted", "--script", "0"]
        out = tmp_path / "f.csv"
        assert main(["fuzz", *argv, "--seeds", "0:3", "--out", str(out)]) == EXIT_TRUNCATED
        assert capsys.readouterr().out == "1/3 seeds satisfied the property set\n"
        rows = list(csv.DictReader(out.open()))
        assert [(r["seed"], r["status"]) for r in rows] == [
            ("0", "truncated"), ("1", "truncated"), ("2", "met")]
        assert main(["run", *argv, "--fuzz", "--seed", "1"]) == EXIT_TRUNCATED
        report = json.loads(capsys.readouterr().out)
        assert report == {"status": "truncated", "steps": 1, "gossip_step": None}

    def test_fuzz_jsonl(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        code = main(["fuzz", "--graph", "ring:4", "--k", "2", "--seeds", "0:3",
                     "--out-jsonl", str(out)])
        assert code == EXIT_OK
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 3 and all(r["ok"] for r in rows)

    def test_async_run_gossip(self, capsys):
        code = main(["run", "--graph", "ring:5", "--k", "2",
                     "--protocol", "fw_async_dft", "--board", "FW",
                     "--schedule", "async_random_fair", "--seed", "1"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "met" and report["gossip_step"] is not None


# SHA-256 of stdout and of every output file, pinned so that any change to
# an artifact shows; a change that alters one on purpose updates its digest
# and says why.
GOLDEN = [
    (["run", "--graph", "ring:6", "--k", "3", "--fuzz", "--seed", "7",
      "--report", "{tmp}/r.json", "--trace", "{tmp}/t.jsonl"], EXIT_OK, {
        "stdout": "9dbc7914bfc6fba8918dec6882958e1be5ff91d2750350bd4918ad1a9f781110",
        "r.json": "9dbc7914bfc6fba8918dec6882958e1be5ff91d2750350bd4918ad1a9f781110",
        "t.jsonl": "b93182815cf13fde83e5834efd5e55534698703a12a96992d045f171af573d07"}),
    (["run", "--graph", "random:3:99", "--report", "{tmp}/r.json", "--trace", "{tmp}/t.jsonl"],
     EXIT_TRUNCATED, {
        "stdout": "985dc8147bfc53748b822e5cb64b77c9d524a84d4ef196db6742a47e47d42512",
        "r.json": "985dc8147bfc53748b822e5cb64b77c9d524a84d4ef196db6742a47e47d42512",
        "t.jsonl": "bef3bf766d1944ed8dc44a6f85392190bd4ee05cbe8cca76c7932b13a0fda779"}),
    (["run", "--graph", "ring:5", "--k", "2", "--protocol", "fw_async_dft", "--board", "FW",
      "--schedule", "async_random_fair", "--trace", "{tmp}/t.jsonl"], EXIT_OK, {
        "stdout": "51331d3cc27bbe47c775a8efb6dec2907761252892b25ec820edd632a702162e",
        "t.jsonl": "b9b1fda9623a818cb098c5165289ac9edac36fa2912de7ccd20cfea8e56a65c1"}),
    (["fuzz", "--graph", "random:7:2:3", "--k", "3", "--seeds", "200:260",
      "--out", "{tmp}/o.csv", "--out-jsonl", "{tmp}/o.jsonl"], EXIT_TRUNCATED, {
        "stdout": "58ec79957d6079ae8f7783af350370b08c8743ca687c63c504fe0cae803d6bb4",
        "o.csv": "6442a7513cddb1e5e5b1ed5f24b97cb873472f50921d1f68ffc2016fd7d971f1",
        "o.jsonl": "2749f9129bafbba79fdefff615c57b5683e49ecaeca73c69a950da50f4bd0153"}),
    (["witness", "symmetry", "--n", "6", "--k", "3", "--board", "CW", "--report", "{tmp}/r.json"],
     EXIT_OK, {
        "stdout": "611b9260806303d959c0962c887155742c14db1f309865b5f1fcdaf5b50baee2",
        "r.json": "611b9260806303d959c0962c887155742c14db1f309865b5f1fcdaf5b50baee2"}),
    (["witness", "mirror", "--graph", "ring:4", "--k", "2", "--report", "{tmp}/r.json"], EXIT_OK, {
        "stdout": "e1fcffee1e66f3521f4a8cd52aee053dd82e2c0f1c6f7eab3c9faaaaadea1e04",
        "r.json": "e1fcffee1e66f3521f4a8cd52aee053dd82e2c0f1c6f7eab3c9faaaaadea1e04"}),
    (["witness", "symmetry", "--n", "6", "--k", "2", "--board", "NW", "--report", "{tmp}/r.json"],
     EXIT_OK, {
        "stdout": "f9932ef33f573761bb8614a4e4848f3d40910f17031fc92d8481683a243db6dd",
        "r.json": "f9932ef33f573761bb8614a4e4848f3d40910f17031fc92d8481683a243db6dd"}),
    (["witness", "mirror", "--graph", "grid:3x3", "--k", "3", "--seed", "4",
      "--report", "{tmp}/r.json"], EXIT_OK, {
        "stdout": "14a00767e6b333c82d14413a288bbdc2b6af5b0a24ed4267213d1498da04feef",
        "r.json": "14a00767e6b333c82d14413a288bbdc2b6af5b0a24ed4267213d1498da04feef"}),
]


def _case_ids(cases):
    """Each case's shortest argv prefix, of three words or more, that no
    earlier case's id took."""
    ids = []
    for argv, _, _ in cases:
        width = 3
        while " ".join(argv[:width]) in ids:
            width += 1
        ids.append(" ".join(argv[:width]))
    return ids


@pytest.mark.parametrize("argv, code, digests", GOLDEN, ids=_case_ids(GOLDEN))
def test_golden_artifacts(argv, code, digests, tmp_path, capsys):
    assert main([a.format(tmp=tmp_path) for a in argv]) == code
    got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    got.update({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()})
    assert got == digests
