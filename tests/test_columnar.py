"""The columnar hash-to-min round against the per-node spec.

run takes a CSR path for a scheme with hash_arrays. PerNodeHashToMin hides
it, so the same scheme runs through step, hash and merge_sorted_dedup; the
two must agree byte for byte, fail the same contract checks and hand back
only Python ints. The same holds for hash-to-min growth in run_slc.
"""

import json
from math import inf

import numpy as np
import pytest

from mrsim import engine, schemes, slc
from mrsim.engine import EngineFault, result_to_json, run
from mrsim.graph import (Graph, gen_complete_binary_tree, gen_path, gen_random,
                         gen_star, relabel_random)
from mrsim.schemes import HashToMin, LbHashToMin
from mrsim.slc import StopPredicate, run_slc


class PerNodeHashToMin(HashToMin):
    hash_arrays = None


@pytest.fixture
def columnar_rounds(monkeypatch):
    """Counts the rounds run on the columnar path."""
    calls = []
    inner = engine._columnar_step

    def counted(*args):
        calls.append(args[3])
        return inner(*args)
    monkeypatch.setattr(engine, "_columnar_step", counted)
    return calls


def _assert_same(g, fast, slow, initial_state=None):
    a = run(g, fast, 100000, initial_state=initial_state, record=True)
    b = run(g, slow, 100000, initial_state=initial_state, record=True)
    assert result_to_json(a, seed=1) == result_to_json(b, seed=1)
    assert a.final == b.final
    assert a.snapshots == b.snapshots
    assert a.phase_split == b.phase_split
    return a


def _graphs():
    for seed, (n, p) in enumerate([(1, 0.0), (40, 0.0), (60, 0.01), (80, 0.03),
                                   (120, 0.02), (150, 0.05), (200, 0.005)]):
        yield gen_random(n, p, seed=seed)
    # In id order a path's clusters grow quadratically, hence the acceptance
    # gate's cap of 512 for hash-to-min there.
    for size in (16, 64, 256, 512):
        yield gen_path(size)
    for size in (15, 63, 255, 1023, 4095):
        yield gen_complete_binary_tree(size)
    for size in (17, 129, 1025, 4097):
        yield gen_star(size)
    for exp in range(5, 13):
        yield relabel_random(gen_path(2 ** exp), exp)[0]
    # 2^16 nodes: key * n + id codes need int64; the path runs over the top ids.
    n = 2 ** 16
    yield Graph(n, [(v, v + 1) for v in range(n - 300, n - 1)] + [(0, n - 1)])
    yield Graph(0, [])
    yield Graph(1, [])


def test_columnar_hash_to_min_matches_per_node(columnar_rounds):
    for g in _graphs():
        before = len(columnar_rounds)
        res = _assert_same(g, HashToMin(), PerNodeHashToMin())
        assert res.converged
        assert len(columnar_rounds) - before == res.rounds


def test_array_width_follows_n():
    assert engine._pack([()] * 46340, 46340)[1].dtype == np.int32
    assert engine._pack([()] * 46341, 46341)[1].dtype == np.int64


def test_columnar_worked_trace_with_empty_states(columnar_rounds):
    g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5)])
    init = [(), (1, 2, 4), (), (), (), (3, 4, 5)]
    res = _assert_same(g, HashToMin(), PerNodeHashToMin(), initial_state=init)
    assert res.snapshots[1] == ((), (1, 2, 4), (1,), (3, 4, 5), (1, 3), (3,))
    assert columnar_rounds


@pytest.mark.parametrize("tau", [1, 5, inf])
def test_columnar_phase_two_of_load_capped(monkeypatch, columnar_rounds, tau):
    graphs = [gen_random(150, 0.03, seed=4), gen_star(300), gen_path(200),
              relabel_random(gen_path(512), 3)[0]]
    fast = [run(g, LbHashToMin(tau), 100000, record=True) for g in graphs]
    assert len(columnar_rounds) == sum(r.rounds - r.phase_split for r in fast)
    # finalize builds its phase-2 scheme from the module global.
    monkeypatch.setattr(schemes, "HashToMin", PerNodeHashToMin)
    for g, a in zip(graphs, fast):
        b = run(g, LbHashToMin(tau), 100000, record=True)
        assert result_to_json(a) == result_to_json(b)
        assert (a.final, a.snapshots, a.phase_split) == (b.final, b.snapshots, b.phase_split)


@pytest.mark.parametrize("init, match", [
    ([(0, 1), (1, 7), (2, 3), (3,)], "outside"),
    ([(-1, 0), (1,), (2,), (3,)], "outside"),
    ([(0,), (3, 1), (2,), (3,)], "sorted"),
    ([(0,), (1, 1), (2,), (3,)], "sorted"),
    ([(0, 2, 1), (1,), (2,), (3,)], "sorted"),
])
def test_contract_faults_match_per_node(columnar_rounds, init, match):
    g = gen_path(4)
    for scheme in (HashToMin(), PerNodeHashToMin()):
        with pytest.raises(EngineFault, match=match):
            run(g, scheme, 10, initial_state=init)
    assert columnar_rounds == [1]


def test_id_too_large_for_the_arrays_is_outside(columnar_rounds):
    init = [(0,), (1, 2 ** 40), (2,), (3,)]
    for scheme in (HashToMin(), PerNodeHashToMin()):
        with pytest.raises(EngineFault, match="outside"):
            run(gen_path(4), scheme, 10, initial_state=init)
    assert columnar_rounds == []


def _all_ints(res):
    ids = [v for st in res.final for v in st]
    ids += [v for comp in res.components for v in comp]
    ids += [v for snap in res.snapshots for st in snap for v in st]
    fields = [getattr(m, f) for m in res.per_round
              for f in ("round", "messages", "node_id_volume", "max_reducer_in",
                        "total_state")]
    return all(type(x) is int for x in ids + fields)


def test_columnar_results_hold_python_ints(columnar_rounds):
    for g in (gen_random(90, 0.03, seed=2), Graph(0, []), Graph(1, [])):
        res = run(g, HashToMin(), 1000, record=True)
        assert res.converged and _all_ints(res)
        json.dumps([res.final, res.components, res.snapshots, res.per_round[0].__dict__])
    assert columnar_rounds


def test_run_slc_growth_columnar_matches_per_node(monkeypatch, columnar_rounds):
    graphs = [gen_random(n, p, seed=seed, weighted=True)
              for seed, (n, p) in enumerate([(12, 0.0), (30, 0.04), (40, 0.08),
                                             (50, 0.15), (60, 0.3), (80, 0.06),
                                             (70, 0.1)])]
    graphs += [Graph(0, [], weights={}), Graph(1, [], weights={})]
    # A disconnected graph never stops (an isolated node's core never
    # does), so those runs go to the fixpoint; the connected ones stop.
    preds = [StopPredicate.parse(s) for s in ("dist:0.2", "dist:0.6", "size:3",
                                              "size:10", "never")]
    fast = []
    for g in graphs:
        for pred in preds:
            cache = {}
            before = len(columnar_rounds)
            res = run_slc(g, "hash-to-min", pred, 1000, cache)
            assert len(columnar_rounds) - before == res.rounds
            fast.append((res, set(cache)))
    monkeypatch.setitem(slc._SLC_SCHEMES, "hash-to-min", PerNodeHashToMin)
    slow = []
    for g in graphs:
        for pred in preds:
            cache = {}
            slow.append((run_slc(g, "hash-to-min", pred, 1000, cache), set(cache)))
    assert len(columnar_rounds) == sum(res.rounds for res, _ in fast)
    assert slow == fast
