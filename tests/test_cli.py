"""Command line tests: exit codes, output formats, file roundtrips."""

import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrsim
from mrsim import engine
from mrsim.cli import main, parse_graph_spec
from mrsim.engine import EngineFault
from mrsim.graph import (MAX_NODES, MAX_RANDOM_NODES, GraphError, diameter, gen_random,
                         load_edge_list)
from mrsim.oracle import union_find_components


def run_cli(capsys, *argv):
    code = main(list(argv))
    got = capsys.readouterr()
    return code, got.out, got.err


def test_parse_graph_spec_families():
    assert parse_graph_spec("path:5").n == 5
    assert parse_graph_spec("tree:7").m == 6
    assert parse_graph_spec("star:9").adj[0] == tuple(range(1, 9))
    g = parse_graph_spec("random:20:0.1", seed=3)
    assert g == gen_random(20, 0.1, seed=3)
    for bad in ["path", "path:x", "random:20", "random:x:0.1", "blob:3"]:
        with pytest.raises(GraphError):
            parse_graph_spec(bad)


def test_run_converged_json(capsys):
    code, out, err = run_cli(capsys, "run", "--graph", "path:64",
                             "--algo", "hash-min")
    assert code == 0
    doc = json.loads(out)
    assert doc["rounds"] == 64
    assert doc["converged"] is True
    assert doc["components"] == [list(range(64))]


def test_run_tree_full_gossip_round_bound(capsys):
    g = parse_graph_spec("tree:255")
    bound = math.ceil(math.log2(diameter(g))) + 1
    code, out, _ = run_cli(capsys, "run", "--graph", "tree:255",
                           "--algo", "hash-to-all")
    assert code == 0
    assert json.loads(out)["rounds"] <= bound


def test_run_csv_columns_and_seed_list(capsys):
    code, out, _ = run_cli(capsys, "run", "--graph", "random:30:0.1",
                           "--seed-list", "0,3,7", "--format", "csv",
                           "--verify")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["algo", "seed", "n", "rounds", "converged",
                       "n_components", "messages_total", "volume_total",
                       "max_reducer_in", "max_total_state", "verified"]
    assert [r[1] for r in rows[1:]] == ["0", "3", "7"]
    assert all(r[4] == "1" and r[10] == "1" for r in rows[1:])


def test_run_verify_has_no_size_cap(capsys):
    code, out, err = run_cli(capsys, "run", "--graph", "star:10001",
                             "--algo", "hash-to-min", "--format", "csv",
                             "--verify")
    assert code == 0
    assert err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[10] for r in rows[1:]] == ["1"]


def test_run_unconverged_exit_code(capsys):
    # lb's phase 1 on star:10 at tau 1 spends both rounds, leaving phase 2
    # none.
    for argv, rounds in [(["path:64", "--algo", "hash-min", "--max-rounds", "5"], 5),
                         (["star:10", "--algo", "hash-to-min-lb", "--tau", "1",
                           "--max-rounds", "2"], 2)]:
        code, out, err = run_cli(capsys, "run", "--graph", *argv)
        assert code == 2
        assert "did not converge" in err
        doc = json.loads(out)
        assert (doc["rounds"], doc["converged"], doc["components"]) == (rounds, False, None)


def test_run_verify_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("mrsim.oracle.union_find_components",
                        lambda g: [(0,)])
    code, _, err = run_cli(capsys, "run", "--graph", "path:8", "--verify")
    assert code == 3
    assert "differ" in err


def test_run_writes_each_row_as_its_run_ends(capsys):
    """--seeds counts past any list: the seeds are a range and each row is
    written as its run ends, so a fault in the third run leaves two rows
    printed, byte for byte those of --seeds 2, and exits 1."""
    real_run = engine.run
    calls = []

    def third_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise EngineFault("third run")
        return real_run(*args, **kwargs)
    for fmt in ("json", "csv"):
        code, want, _ = run_cli(capsys, "run", "--graph", "path:8", "--seeds", "2",
                                "--format", fmt)
        assert code == 0
        calls.clear()
        with mock.patch.object(engine, "run", third_fails):
            code, out, err = run_cli(capsys, "run", "--graph", "path:8", "--seeds",
                                     "99999999999999999999", "--format", fmt)
        assert (code, out, err) == (1, want, "error: third run\n")
        assert len(out.splitlines()) == (2 if fmt == "json" else 3)


def test_usage_and_input_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--graph", "path:8", "--algo", "nope"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert run_cli(capsys, "run", "--graph", "nope")[0] == 1
    assert run_cli(capsys, "run", "--graph", "path:8", "--algo", "hash-min",
                   "--tau", "4")[0] == 1
    assert run_cli(capsys, "run", "--graph", "file:/no/such/file")[0] == 1
    # Bad input found after parsing: main returns 1 with an error line.
    for argv in (["run", "--graph", "path:8", "--algo", "hash-to-min-lb", "--tau=-inf"],
                 ["run", "--graph", "path:8", "--algo", "hash-to-min-lb", "--tau", "nan"],
                 ["sweep", "--family", "path", "--sizes", "8",
                  "--algo", "hash-to-min-lb", "--tau", "2.5"],
                 ["gen", "--graph", "path:8", "--out", "/nonexistent/dir/g.txt"],
                 ["run", "--graph", "path:8", "--seed-list", ""]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "error:" in err and "Traceback" not in err
    assert "bad --seed-list" in err
    for argv in (["run", "--graph", "path:8", "--tau", "x"],
                 ["run", "--graph", "path:8", "--max-rounds", "0"],
                 ["run", "--graph", "path:8", "--seeds", "0"],
                 ["run", "--graph", "path:8", "--seeds", "3", "--seed-list", "5"],
                 ["sweep", "--family", "path", "--sizes", "8", "--seeds-per-size", "0"],
                 ["slc", "--graph", "random:10:0.5", "--max-rounds", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


def test_node_counts_past_the_int64_codes_exit_1(capsys):
    """The engine codes a (key, id) pair as key * n + id in an int64, so a
    size with n * n >= 2^63 is refused before any edge is built; below that
    only memory limits a size, so no test builds a graph near the bound."""
    assert MAX_NODES == 3037000499
    for n in (MAX_NODES + 1, 2 ** 63, 10 ** 20):
        for argv in (["run", "--graph", "path:%d" % n, "--algo", "hash-min"],
                     ["run", "--graph", "tree:%d" % n, "--algo", "hash-to-all"],
                     ["slc", "--graph", "star:%d" % n, "--stop", "never"],
                     ["gen", "--graph", "random:%d:0.5" % n],
                     ["sweep", "--family", "path", "--sizes", "8,%d" % n,
                      "--algo", "hash-min"],
                     ["sweep", "--family", "tree", "--sizes", str(n), "--algo", "hash-min"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == "", argv
            assert err == "error: node count %d above %d, where n * n overflows int64\n" % (
                n, MAX_NODES)


def test_random_with_a_tiny_p_or_past_its_node_limit(capsys):
    """A p so small that 1.0 - p rounds to 1.0 gives no edge on a small
    graph, where it once raised ZeroDivisionError; past gen_random's node
    limit the command exits 1 before anything is drawn."""
    for p in ("1e-17", "1e-300"):
        assert run_cli(capsys, "gen", "--graph", "random:10:" + p) == (0, "", "")
        code, out, err = run_cli(capsys, "run", "--graph", "random:10:" + p, "--verify")
        assert code == 0 and err == ""
        assert json.loads(out)["components"] == [[v] for v in range(10)]
    code, out, err = run_cli(capsys, "gen", "--graph",
                             "random:%d:1e-30" % (MAX_RANDOM_NODES + 1))
    assert code == 1 and out == ""
    assert err.startswith("error: node count %d above %d" % (MAX_RANDOM_NODES + 1,
                                                             MAX_RANDOM_NODES))


def test_start_up_loads_no_scipy():
    """scipy is imported inside the one function that uses it, the engine's
    product union, so neither importing mrsim nor a run that does not take
    that union loads it. The clustering oracle is a list union-find, so a
    verified slc run loads no scipy.cluster module."""
    src = str(Path(mrsim.__file__).resolve().parent.parent)

    def scipy_after(args):
        code = ("import sys, mrsim; from mrsim.cli import main; "
                "assert main(%r) == 0; "
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'), "
                "file=sys.stderr)" % (args,))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src},
                              timeout=120)
        assert done.returncode == 0, done.stderr
        return ast.literal_eval(done.stderr)

    assert scipy_after(["run", "--graph", "path:8", "--verify"]) == []
    loaded = scipy_after(["slc", "--graph", "random:80:0.1", "--stop", "dist:0.4",
                          "--verify"])
    assert not [m for m in loaded if m.startswith("scipy.cluster")], loaded


def test_gen_roundtrip_through_file(capsys, tmp_path):
    path = tmp_path / "g.txt"
    code, out, _ = run_cli(capsys, "gen", "--graph", "random:40:0.2",
                           "--weighted", "--graph-seed", "2",
                           "--out", str(path))
    assert code == 0
    assert out == ""
    text = path.read_text()
    code, out2, _ = run_cli(capsys, "gen", "--graph", "random:40:0.2",
                            "--weighted", "--graph-seed", "2")
    assert out2 == text
    g = load_edge_list(text, weighted=True)
    assert g == gen_random(40, 0.2, seed=2, weighted=True)
    code, out3, _ = run_cli(capsys, "run", "--graph", "file:" + str(path),
                            "--weighted", "--format", "json")
    assert code == 0
    doc = json.loads(out3)
    want = union_find_components(g)
    assert [tuple(c) for c in doc["components"]] == want


def test_run_lb_with_tau(capsys):
    code, out, _ = run_cli(capsys, "run", "--graph", "star:64",
                           "--algo", "hash-to-min-lb", "--tau", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["components"] == [list(range(64))]


def test_sweep_columns(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "path",
                           "--sizes", "4,8", "--algo", "hgtm-alt")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "d", "log2_d", "rounds_worst", "bound_2log2d",
                       "max_state_mean", "bound_3VE"]
    assert [r[0] for r in rows[1:]] == ["4", "8"]
    assert [r[1] for r in rows[1:]] == ["3", "7"]


def test_slc_json_and_verify(capsys):
    code, out, _ = run_cli(capsys, "slc", "--graph", "random:40:0.08",
                           "--stop", "dist:0.5", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["stop"] == "dist:0.5"
    assert doc["n_clusters"] == len(doc["clusters"])
    assert sorted(v for c in doc["clusters"] for v in c) == list(range(40))


def test_slc_csv_and_mismatch(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "slc", "--graph", "random:30:0.1",
                           "--stop", "size:5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["algo", "stop", "n", "rounds", "converged", "stopped",
                       "n_clusters", "largest"]
    assert rows[1][1] == "size:5"
    monkeypatch.setattr("mrsim.oracle.centralized_slc",
                        lambda g, kind, param=None: [])
    code, _, err = run_cli(capsys, "slc", "--graph", "random:30:0.1",
                           "--stop", "size:5", "--verify")
    assert code == 3
    assert "differ" in err


def test_slc_bad_stop_spec(capsys):
    assert run_cli(capsys, "slc", "--graph", "path:8",
                   "--stop", "blah:3")[0] == 1


# Counts at the edges of C and numpy integer widths, and just inside them.
COUNTS = ("1", "2", "3", str(2 ** 31 - 1), str(2 ** 31), str(2 ** 63 - 1), str(2 ** 63),
          str(10 ** 20))
NOT_COUNTS = ("0", "-1", str(-2 ** 63), "", "x", "1.5")
SEEDS = COUNTS + ("0", "-1", str(-2 ** 31), str(-2 ** 63))
# Graph sizes stay at most 64: a huge size builds a huge graph.
SIZES = ("1", "2", "3", "5", "8", "13", "31", "64")
NOT_SIZES = ("0", "-1", "", "x", "1e3", str(MAX_NODES + 1), str(10 ** 20))
FAMILIES = ("path", "tree", "star")


def _specs(sizes, probs):
    """family:N and random:N:P specs."""
    family = st.tuples(st.sampled_from(FAMILIES), st.sampled_from(sizes)).map(":".join)
    rand = st.tuples(st.sampled_from(SIZES), st.sampled_from(probs)).map(
        lambda t: "random:%s:%s" % t)
    return family | rand


# Each option's good and bad values.
OPTIONS = {
    "--graph": (_specs(SIZES, ["0", "0.05", "0.1", "0.5", "1"]) | st.just("file:EDGES"),
                _specs(NOT_SIZES, ["-0.1", "1.5", "nan", "inf", "x"])
                | st.sampled_from(["path", "file:", "file:NOFILE", "blob:3", "random:8",
                                    ""])),
    "--graph-seed": (st.sampled_from(SEEDS), st.sampled_from(["", "x", "1.5"])),
    "--seeds": (st.sampled_from(COUNTS), st.sampled_from(NOT_COUNTS)),
    "--seed-list": (st.lists(st.sampled_from(SEEDS), min_size=1, max_size=3).map(",".join),
                    st.sampled_from(["", "x", "1,,2", "1.5"])),
    "--max-rounds": (st.sampled_from(COUNTS), st.sampled_from(NOT_COUNTS)),
    "--tau": (st.sampled_from(["1", "2", "5", "inf", "1e400", str(2 ** 63)]),
              st.sampled_from(["-inf", "nan", "0", "0.5", "2.5", "x", "-1"])),
    "--stop": (st.sampled_from(["never", "size:1", "size:5", "size:20", "dist:0.5",
                                "dist:1", "size:99999999999999999999", "dist:1e-300"]),
               st.sampled_from(["size:0", "size:-1", "size:", "size:x", "dist:0",
                                "dist:1.5", "dist:nan", "dist:inf", "dist:x", "blah:3",
                                ""])),
    "--format": (st.sampled_from(["json", "csv"]), st.just("xml")),
    "--family": (st.sampled_from(["path", "tree"]), st.just("star")),
    "--sizes": (st.lists(st.sampled_from(SIZES), min_size=1, max_size=3).map(",".join),
                st.lists(st.sampled_from(SIZES + NOT_SIZES), max_size=3).map(
                    lambda s: ",".join(s + ["x"]))),
    "--seeds-per-size": (st.sampled_from(COUNTS), st.sampled_from(NOT_COUNTS)),
    "--out": (st.just("OUT"), st.just("NOFILE/x")),
}
ALGOS = ("hash-min", "hash-to-all", "hash-to-min", "hgtm-alt", "hash-to-min-lb")
# Per command: the options it needs, the ones it may take, and its algos.
COMMANDS = {
    "gen": (["--graph"], ["--graph-seed", "--out", "--weighted"], ()),
    "run": (["--graph", "--algo"],
            ["--graph-seed", "--seeds", "--max-rounds", "--format", "--verify",
             "--weighted"],
            ALGOS),
    "sweep": (["--family", "--sizes", "--algo"], ["--seeds-per-size", "--max-rounds"],
              ALGOS),
    "slc": (["--graph", "--algo", "--stop"],
            ["--graph-seed", "--max-rounds", "--format", "--verify"],
            ("hash-to-all", "hash-to-min")),
}
# Edge-list ids are compacted, so boundary ids still make a small graph.
_edge_ids = st.one_of(st.integers(0, 12), st.sampled_from([2 ** 31 - 1, 2 ** 63, 10 ** 20]))


@st.composite
def edge_list_text(draw):
    """A well-formed edge list, weighted or not, or one with a bad line in it."""
    pairs = draw(st.lists(st.tuples(_edge_ids, _edge_ids).filter(lambda e: e[0] != e[1]),
                          max_size=12, unique_by=frozenset))
    weighted = draw(st.booleans())
    lines = ["%d %d" % e + (" %r" % ((i + 1) / 16) if weighted else "")
             for i, e in enumerate(pairs)]
    if draw(st.booleans()):
        bad = draw(st.sampled_from(["# note", "", "1", "a b", "1 2 3 4", "-1 2", "3 3",
                                    "0 1 0", "0 1 1.5", "0 1 nan", "0 1 x", "\t5\t6"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines)


@st.composite
def cli_argv(draw):
    """A command line with good values, or with one bad value in it, and the
    edge-list text that file:EDGES reads."""
    command = draw(st.sampled_from(list(COMMANDS)))
    needed, optional, algos = COMMANDS[command]
    flags = needed + [f for f in optional if draw(st.booleans())]
    algo = draw(st.sampled_from(algos)) if algos else None
    if algo == "hash-to-min-lb" and draw(st.booleans()):
        flags.append("--tau")
    if command == "run" and "--seeds" not in flags and draw(st.booleans()):
        flags.append("--seed-list")
    broken = draw(st.sampled_from(flags)) if draw(st.booleans()) else None
    argv = [command]
    for flag in flags:
        if flag in ("--weighted", "--verify"):
            argv.append(flag)
        elif flag == "--algo":
            argv += [flag, "bogus" if broken == flag else algo]
        else:
            good, bad = OPTIONS[flag]
            argv += [flag, draw(bad if broken == flag else good)]
    return argv, draw(edge_list_text())


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(cli_argv())
def test_cli_fuzz_ends_in_a_documented_exit_code(case):
    """Every generated command line ends in exit 0, 1, 2 or 3 with no
    exception and no traceback. engine.run raises EngineFault after 12
    calls in one command, so a huge --seeds or --seeds-per-size ends in
    exit 1 instead of running for ever."""
    argv, text = case
    real_run = engine.run
    calls = []

    def budgeted(*args, **kwargs):
        calls.append(None)
        if len(calls) > 12:
            raise EngineFault("run budget spent")
        return real_run(*args, **kwargs)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "edges.txt").write_text(text)
        names = {"EDGES": "edges.txt", "OUT": "out.txt", "NOFILE": "none"}
        for key, name in names.items():
            argv = [a.replace(key, str(Path(tmp) / name)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(engine, "run", budgeted), redirect_stdout(out), \
                redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
