"""Command line tests: exit codes, output formats, file roundtrips."""

import csv
import io
import json
import math

import pytest

from mrsim.cli import main, parse_graph_spec
from mrsim.graph import GraphError, diameter, gen_random, load_edge_list
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
    code, _, err = run_cli(capsys, "run", "--graph", "path:64",
                           "--algo", "hash-min", "--max-rounds", "5")
    assert code == 2
    assert "did not converge" in err


def test_run_verify_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("mrsim.oracle.union_find_components",
                        lambda g: [(0,)])
    code, _, err = run_cli(capsys, "run", "--graph", "path:8", "--verify")
    assert code == 3
    assert "differ" in err


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
