"""The columnar rounds against the per-node spec.

run takes a CSR path for a scheme with hash_arrays: hash-to-min,
hash-to-min-lb, hash-min and hgtm-alt on the sort union (the last two
through their merge_arrays), hash-to-all on the bitset union or the sparse
product. Setting hash_arrays to None on an instance hides it, so the same
scheme runs through step, hash and merge; the two must agree byte for
byte, fail the same contract checks and hand back only Python ints. The
same holds for run_slc growth. A wrapper that copies only the names the
benchmark's tracer copies runs every gate variant through engine.step and
gives the bare scheme's output.

hash-to-all's two unions must give the same arrays. The bitset, ceil(n / 64)
uint64 words per cluster, is taken when its n rows fit in the held ids; the
product stays for large graphs of small clusters, where the bitset's words
outweigh the clusters' ids, and for n = 0. The tests below check the two
against each other and a set reference, the rule, its int64 width and the
bitset's memory against the product's.
"""

import json
import tracemalloc
from itertools import islice
from math import inf
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrsim import engine, schemes, slc
from mrsim.engine import EngineFault, RoundMetrics, merge_sorted_dedup, result_to_json, run
from mrsim.graph import (Graph, gen_complete_binary_tree, gen_path, gen_random,
                         gen_star, relabel_random)
from mrsim.schemes import AlternatingHGTM, HashMin, HashToAll, HashToMin, LbHashToMin
from mrsim.slc import StopPredicate, run_slc
from test_acceptance import ALL_VARIANTS
from test_slc_properties import csr


class PerNodeHashToMin(HashToMin):
    hash_arrays = None


class PerNodeHashToAll(HashToAll):
    hash_arrays = None


class ToMinOnly:
    """A union scheme whose pairs are not symmetric: every cluster goes to
    its minimum and nothing comes back. A key's intake then differs from
    the number of times its id is sent, which hash-to-min and lb cannot
    tell apart."""

    name = "to-min-only"
    check_every = 1

    def init_state(self, g):
        return HashToMin().init_state(g)

    def hash(self, rnd, v, st, g):
        return [(st[0], st)] if st else []

    def merge(self, rnd, v, payloads, prev):
        return merge_sorted_dedup(payloads)

    def hash_arrays(self, rnd, lens, ids, g):
        held = lens > 0
        starts = (np.cumsum(lens) - lens)[held]
        return np.repeat(ids[starts], lens[held]), ids, np.count_nonzero(held)

    def export(self, g, state):
        return [st for st in engine._unpack(state) if st]


SCHEMES = {"hash-to-min": HashToMin, "hash-to-all": HashToAll,
           "hash-to-min-lb": lambda: LbHashToMin(1), "hash-min": HashMin,
           "hgtm-alt": AlternatingHGTM}


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


def _per_node(make):
    """Runs make()'s scheme with hash_arrays hidden, and lb's phase 2
    (built in finalize from the module global) per node too."""
    scheme = make()
    scheme.hash_arrays = None

    def run_it(g, *args, **kwargs):
        with mock.patch.object(schemes, "HashToMin", PerNodeHashToMin):
            return run(g, scheme, *args, **kwargs)
    return run_it


def _assert_same(g, make, calls, initial_state=None):
    """make()'s run takes the columnar round every round, the per-node run
    never does, and the two agree byte for byte."""
    before = len(calls)
    a = run(g, make(), 100000, initial_state=initial_state, record=True)
    assert len(calls) - before == a.rounds
    b = _per_node(make)(g, 100000, initial_state=initial_state, record=True)
    assert len(calls) - before == a.rounds
    assert result_to_json(a, seed=1) == result_to_json(b, seed=1)
    assert engine._unpack(a.final) == engine._unpack(b.final)
    assert a.snapshots == b.snapshots
    assert a.phase_split == b.phase_split
    return a


def _graphs(quadratic=False, top=300):
    """The inputs of the per-node comparisons. quadratic caps them at
    paths of 64 ids, trees of 255 and stars of 129, for a scheme whose
    per-node run grows quadratically with component size: hash-to-all,
    whose clusters do (the benchmark caps it the same way), and hash-min,
    which takes a round per node of a path. top is the length of the path
    over the top ids of a 2^16-node graph, where every per-node round is a
    loop over 2^16 nodes."""
    for seed, (n, p) in enumerate([(1, 0.0), (40, 0.0), (60, 0.01), (80, 0.03),
                                   (120, 0.02), (150, 0.05), (200, 0.005)]):
        yield gen_random(n, p, seed=seed)
    # In id order a path's clusters grow quadratically, hence the acceptance
    # gate's cap of 512 for hash-to-min there.
    for size in (16, 64) if quadratic else (16, 64, 256, 512):
        yield gen_path(size)
    for size in (15, 63, 255) if quadratic else (15, 63, 255, 1023, 4095):
        yield gen_complete_binary_tree(size)
    for size in (17, 129) if quadratic else (17, 129, 1025, 4097):
        yield gen_star(size)
    for exp in range(5, 7 if quadratic else 13):
        yield relabel_random(gen_path(2 ** exp), exp)[0]
    # 2^16 nodes: key * n + id codes need int64.
    n = 2 ** 16
    yield Graph(n, [(v, v + 1) for v in range(n - top, n - 1)] + [(0, n - 1)])
    yield Graph(0, [])
    yield Graph(1, [])


def test_columnar_hash_to_min_matches_per_node(columnar_rounds):
    for g in _graphs():
        assert _assert_same(g, HashToMin, columnar_rounds).converged


def test_columnar_hash_to_all_matches_per_node(columnar_rounds):
    for g in _graphs(quadratic=True, top=40):
        assert _assert_same(g, HashToAll, columnar_rounds).converged


def test_columnar_hash_min_matches_per_node(columnar_rounds):
    for g in _graphs(quadratic=True, top=4):
        assert _assert_same(g, HashMin, columnar_rounds).converged


def test_columnar_hgtm_alt_matches_per_node(columnar_rounds):
    for g in _graphs(top=4):
        assert _assert_same(g, AlternatingHGTM, columnar_rounds).converged


def test_columnar_load_capped_matches_per_node(columnar_rounds):
    # At tau 1 a path in id order takes a round per node.
    for g in _graphs(top=8):
        assert _assert_same(g, SCHEMES["hash-to-min-lb"], columnar_rounds).converged


def test_columnar_asymmetric_union_matches_per_node(columnar_rounds):
    """Per-key intake is counted from the keys: a count taken from the sent
    ids agrees with it only while every pair has its mirror."""
    for g in _graphs():
        assert _assert_same(g, ToMinOnly, columnar_rounds).converged


class Delegating:
    """A wrapper that copies only what the benchmark's traced scheme does:
    name, check_every, hash, merge, init_state, export, and finalize when
    the scheme has it. With no hash_arrays, run takes engine.step, the name
    the tracer patches."""

    def __init__(self, inner):
        self.name = inner.name
        self.check_every = inner.check_every
        self.hash = inner.hash
        self.merge = inner.merge
        self.init_state = inner.init_state
        self.export = inner.export
        if hasattr(inner, "finalize"):
            self.finalize = inner.finalize


def test_delegating_wrapper_runs_as_the_bare_scheme(monkeypatch):
    """Every gate variant behind the wrapper runs its rounds through
    engine.step, lb's phase 1 included, and gives the bare scheme's
    result_to_json byte for byte."""
    steps = []
    inner = engine.step

    def counted(g, scheme, state, rnd):
        steps.append(rnd)
        return inner(g, scheme, state, rnd)
    monkeypatch.setattr(engine, "step", counted)
    graphs = [gen_random(60, 0.05, seed=1), gen_random(90, 0.02, seed=2),
              gen_path(33), gen_complete_binary_tree(31), gen_star(40),
              Graph(0, []), Graph(1, [])]
    for g in graphs:
        for name, tau in ALL_VARIANTS:
            bare = run(g, schemes.make_scheme(name, tau), 10000)
            del steps[:]
            wrapped = run(g, Delegating(schemes.make_scheme(name, tau)), 10000)
            assert result_to_json(wrapped) == result_to_json(bare), (name, tau)
            assert len(steps) == (wrapped.phase_split or wrapped.rounds), (name, tau)


def test_array_width_follows_n():
    assert engine._pack([()] * 46340, 46340)[1].dtype == np.int32
    assert engine._pack([()] * 46341, 46341)[1].dtype == np.int64
    # Every start state takes _pack's width; at tau 2 a path's inner
    # nodes are hubs and its ends are not.
    for n, width in ((46340, np.int32), (46341, np.int64), (0, np.int32)):
        g = gen_path(n) if n else Graph(0, [])
        for make in (HashMin, HashToAll, HashToMin, AlternatingHGTM, lambda: LbHashToMin(2)):
            lens, ids = make().init_state(g)
            assert lens.dtype == np.intp and ids.dtype == width
            assert lens.size == n and ids.size == int(lens.sum())


def test_columnar_worked_trace_with_empty_states(columnar_rounds):
    g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5)])
    init = [(), (1, 2, 4), (), (), (), (3, 4, 5)]
    # lb at tau 1 splits (1, 2, 4) at its holder 1, whose high half (2, 4)
    # stays on 1: the same clusters as hash-to-min, one message more.
    want = {
        "hash-to-min": ((), (1, 2, 4), (1,), (3, 4, 5), (1, 3), (3,)),
        "hash-to-all": ((), (1, 2, 4), (1, 2, 4), (3, 4, 5), (1, 2, 3, 4, 5), (3, 4, 5)),
        "hash-to-min-lb": ((), (1, 2, 4), (1,), (3, 4, 5), (1, 3), (3,)),
        # A label round inserts the least id received into the state.
        "hgtm-alt": ((), (1, 2, 4), (1,), (), (3,), (3, 4, 5)),
        # Node 3 hears nothing and keeps its empty state; node 0 never hears
        # a label, and export leaves it out.
        "hash-min": ((), (1,), (1,), (), (3,), (3,)),
    }
    runs = {}
    for name, snap in want.items():
        runs[name] = _assert_same(g, SCHEMES[name], columnar_rounds, initial_state=init)
        assert runs[name].snapshots[1] == snap, name
    res = _assert_same(g, ToMinOnly, columnar_rounds, initial_state=init)
    assert res.snapshots[1] == ((), (1, 2, 4), (), (3, 4, 5), (), ())
    assert res.per_round[0].messages == 2 and res.per_round[0].max_reducer_in == 3
    # hgtm-alt's first tail round: 1 sends (1, 2, 4) to 1 and 1 to each of
    # them, 5 sends (5,) to 3 and 3 to 5, and 2, 3 and 4 hold only ids
    # below themselves. Node 3 is left holding 5, not itself; node 0 stays
    # empty. Round 5 adds two hops, from 3 to 5 and from 5 to 3, which are
    # held elsewhere and hold a largest id other than their label.
    hgtm = runs["hgtm-alt"]
    assert hgtm.snapshots[2:6] == [((), (1, 2, 4), (1,), (1,), (3,), (3, 4, 5)),
                                   ((), (1, 2, 4), (1,), (5,), (1,), (3,)),
                                   ((), (1, 2, 4), (1,), (1, 5), (1,), (1, 3)),
                                   ((), (1, 2, 4), (1,), (1, 5), (1,), (1, 3))]
    assert hgtm.per_round[2] == RoundMetrics(3, 6, 8, 4, 7)
    assert [m.messages for m in hgtm.per_round[3:5]] == [13, 15]
    assert runs["hash-min"].components == runs["hash-to-min"].components == [(1, 2, 3, 4, 5)]


def test_columnar_hash_min_worked_trace(columnar_rounds):
    """Each holder sends its whole cluster to itself, so the id volume
    counts it, and its label, the cluster minimum, to its neighbors."""
    init = [(), (1, 3), (), (0, 2, 4), ()]
    res = _assert_same(gen_path(5), HashMin, columnar_rounds, initial_state=init)
    # 1 sends (1, 3) to 1 and 1 to 0 and 2; 3 sends (0, 2, 4) to 3 and 0 to
    # 2 and 4: 6 messages of 9 ids, at most 3 to one key.
    assert res.snapshots[1] == ((1,), (1,), (0,), (0,), (0,))
    assert res.per_round[0] == RoundMetrics(1, 6, 9, 3, 5)
    assert res.components == [(0, 1, 2, 3, 4)]


@pytest.mark.parametrize("tau", [1, 5, inf])
def test_columnar_load_capped_whole_run(columnar_rounds, tau):
    """Both phases of lb take the columnar round, and the run equals one
    made wholly per node."""
    graphs = [gen_random(150, 0.03, seed=4), gen_star(300), gen_path(200),
              relabel_random(gen_path(512), 3)[0]]
    for g in graphs:
        res = _assert_same(g, lambda: LbHashToMin(tau), columnar_rounds)
        assert res.converged and 0 < res.phase_split < res.rounds


@pytest.mark.parametrize("init, match", [
    ([(0, 1), (1, 7), (2, 3), (3,)], "outside"),
    ([(-1, 0), (1,), (2,), (3,)], "outside"),
    ([(0,), (3, 1), (2,), (3,)], "sorted"),
    ([(0,), (1, 1), (2,), (3,)], "sorted"),
    ([(0, 2, 1), (1,), (2,), (3,)], "sorted"),
])
def test_contract_faults_match_per_node(columnar_rounds, init, match):
    g = gen_path(4)
    for make in SCHEMES.values():
        with pytest.raises(EngineFault, match=match):
            run(g, make(), 10, initial_state=init)
        with pytest.raises(EngineFault, match=match):
            _per_node(make)(g, 10, initial_state=init)
    assert columnar_rounds == [1] * len(SCHEMES)


def test_id_too_large_for_the_arrays_is_outside(columnar_rounds):
    init = [(0,), (1, 2 ** 40), (2,), (3,)]
    for make in SCHEMES.values():
        with pytest.raises(EngineFault, match="outside"):
            run(gen_path(4), make(), 10, initial_state=init)
        with pytest.raises(EngineFault, match="outside"):
            _per_node(make)(gen_path(4), 10, initial_state=init)
    assert columnar_rounds == []


def _all_ints(res):
    ids = [v for comp in res.components for v in comp]
    ids += [v for snap in res.snapshots for st in snap for v in st]
    fields = [getattr(m, f) for m in res.per_round
              for f in ("round", "messages", "node_id_volume", "max_reducer_in",
                        "total_state")]
    return all(type(x) is int for x in ids + fields)


def test_columnar_results_hold_python_ints(columnar_rounds):
    for make in SCHEMES.values():
        for g in (gen_random(90, 0.03, seed=2), Graph(0, []), Graph(1, [])):
            res = run(g, make(), 1000, record=True)
            assert res.converged and _all_ints(res)
            assert engine._unpack(res.final) == res.snapshots[-1]
            json.dumps([res.components, res.snapshots, res.per_round[0].__dict__])
    assert columnar_rounds


def test_gossip_round_memory_stays_near_the_state():
    """hash-to-all's last round on the 255-node tree ships 16.6 M ids; as
    (key, id) pairs that alone is over 126 MiB. The product union needs a
    few MiB."""
    g = gen_complete_binary_tree(255)
    run(g, HashToAll(), 100)
    tracemalloc.start()
    try:
        res = run(g, HashToAll(), 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.per_round[-1].node_id_volume == 255 ** 3
    assert peak < 16 * 2 ** 20


def _reference_union(n, lens, ids, keys):
    """The whole-cluster union, its id volume and peak intake, from sets."""
    it = iter(ids.tolist())
    held = [list(islice(it, k)) for k in lens.tolist()]
    union = [set() for _ in range(n)]
    got = [0] * n
    sent = iter(keys.tolist())
    for cluster in held:
        for key in islice(sent, len(cluster)):
            union[key].update(cluster)
            got[key] += len(cluster)
    new = [sorted(c) for c in union]
    return new, sum(got), max(got, default=0)


@st.composite
def whole_cluster_sends(draw):
    """A CSR state on n nodes, rows empty or up to max_len ids, and the key
    each held id sends its cluster to: the id itself (hash-to-all) or any
    node."""
    n = draw(st.sampled_from([1, 63, 64, 65, 127, 128, 129]) | st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    max_len = draw(st.sampled_from([0, 1, 3, 70, n]))
    empty = draw(st.sampled_from([0.0, 0.5, 0.95]))
    lens = rng.integers(0, min(max_len, n) + 1, n) * (rng.random(n) >= empty)
    ids = np.concatenate([np.sort(rng.choice(n, k, replace=False)) for k in lens]
                         + [np.empty(0, int)]).astype(np.int32)
    keys = ids.copy() if draw(st.booleans()) else rng.integers(0, n, ids.size, np.int32)
    return n, lens.astype(np.intp), ids, keys


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(whole_cluster_sends())
def test_bitset_union_matches_sparse_product(sends):
    n, lens, ids, keys = sends
    product = engine._product_union(n, lens, ids, keys)
    bitset = engine._bitset_union(n, lens, ids, keys)
    for a, b in zip(product, bitset):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    new, volume, max_in = engine._whole_cluster_union(n, lens, ids, keys)
    want, want_volume, want_max_in = _reference_union(n, lens, ids, keys)
    assert engine._unpack(new) == tuple(map(tuple, want))
    assert new[1].dtype == np.int32 and (volume, max_in) == (want_volume, want_max_in)


def _balls(n, radius):
    """Every node of gen_path(n) holding the ids within radius of it."""
    v = np.arange(n)
    lo, hi = np.maximum(v - radius, 0), np.minimum(v + radius + 1, n)
    ids = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
    return (hi - lo).astype(np.intp), ids.astype(np.int32 if n * n < 2 ** 31 else np.int64)


@pytest.fixture
def unions(monkeypatch):
    """Records which union each _whole_cluster_union call takes."""
    taken = []
    for name in ("_bitset_union", "_product_union"):
        inner = getattr(engine, name)
        monkeypatch.setattr(engine, name,
                            lambda *a, name=name, inner=inner: taken.append(name) or inner(*a))
    return taken


def test_union_rule_reads_n_and_the_state(unions):
    """The bitset pays ceil(n / 64) words a held id and the product |C| ids,
    so small clusters on a large graph keep the product; n = 0 does too."""
    # At radius 0 on 64 nodes the 64 held ids just hold the 64 one-word rows.
    cases = [(64, 0, "_bitset_union"), (64, 5, "_bitset_union"),
             (4096, 32, "_bitset_union"), (4096, 1, "_product_union"),
             (4096, 31, "_product_union"), (300, 0, "_product_union")]
    for n, radius, want in cases:
        lens, ids = _balls(n, radius)
        engine._whole_cluster_union(n, lens, ids, ids.copy())
        assert unions.pop() == want, (n, radius)
    # A star's first round ships over n^2 ids, but its 3n - 2 held ids are
    # fewer than the 64n words of its rows.
    n = 4096
    lens = np.full(n, 2, np.intp)
    lens[0] = n
    ids = np.concatenate([np.arange(n), np.stack([np.zeros(n - 1, int),
                                                  np.arange(1, n)], 1).ravel()])
    ids = ids.astype(np.int32)
    assert engine._whole_cluster_union(n, lens, ids, ids.copy())[1] == n * n + 4 * (n - 1)
    empty = np.empty(0, np.int32)
    assert engine._whole_cluster_union(0, np.empty(0, np.intp), empty, empty)[1:] == (0, 0)
    assert unions == ["_product_union"] * 2


def test_int64_width_takes_the_product(unions):
    """At n >= 46341 ids are int64; a bitset of this state alone would be
    n * ceil(n / 64) words, 256 MiB."""
    n = 46341
    lens = np.zeros(n, np.intp)
    lens[[0, 7, n - 1]] = [2, 3, 1]
    ids = np.array([0, n - 1, 1, 7, n - 2, n - 1], np.int64)
    for keys in (ids.copy(), np.array([n - 1, 5, 5, 0, n - 1, 3], np.int64)):
        new, volume, max_in = engine._whole_cluster_union(n, lens, ids, keys)
        want, want_volume, want_max_in = _reference_union(n, lens, ids, keys)
        assert engine._unpack(new) == tuple(map(tuple, want))
        assert new[1].dtype == np.int64 and (volume, max_in) == (want_volume, want_max_in)
    assert unions == ["_product_union"] * 2


def test_bitset_round_memory_stays_within_the_products(unions, monkeypatch):
    """One round on gen_path(4096) holding radius-32 balls takes the bitset.
    Its senders' rows gathered at once would be 265184 * 64 words, about
    130 MiB; chunked, it peaks no higher than the sparse product on the
    same state."""
    n = 4096
    lens, ids = _balls(n, 32)

    def peak():
        tracemalloc.start()
        try:
            out = engine._whole_cluster_union(n, lens, ids, ids.copy())
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    bitset, bitset_peak = peak()
    monkeypatch.setattr(engine, "_bitset_union", engine._product_union)
    product, product_peak = peak()
    assert unions == ["_bitset_union", "_product_union"]
    assert all(np.array_equal(a, b) for a, b in zip(bitset[0], product[0]))
    assert bitset[1:] == product[1:]
    assert bitset_peak <= product_peak


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
    algos = ("hash-to-min", "hash-to-all")
    # The distinct grown clusters each stop check sees, in order.
    seen = []
    real_stop_round = slc.stop_round

    def recording_stop_round(g, state, pred, cache=None):
        clusters = sorted(set(engine._unpack(state)) - {()})
        seen.append(clusters)
        return real_stop_round(g, csr(clusters), pred, cache)
    monkeypatch.setattr(slc, "stop_round", recording_stop_round)

    def runs():
        out = []
        for algo in algos:
            for g in graphs:
                for pred in preds:
                    before, checks = len(columnar_rounds), len(seen)
                    res = run_slc(g, algo, pred, 1000)
                    out.append((res, seen[checks:], len(columnar_rounds) - before))
        return out
    fast = runs()
    assert all(res.rounds == calls for res, _, calls in fast)
    monkeypatch.setitem(slc._SLC_SCHEMES, "hash-to-min", PerNodeHashToMin)
    monkeypatch.setitem(slc._SLC_SCHEMES, "hash-to-all", PerNodeHashToAll)
    slow = runs()
    assert all(calls == 0 for _, _, calls in slow)
    assert [f[:2] for f in slow] == [f[:2] for f in fast]
