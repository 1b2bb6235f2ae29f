"""Clustering operator tests: stop rules, cores, repair, full runs. Cores
are checked against test_slc_properties' brute-force references, which
import nothing from mrsim.slc."""

import tracemalloc

import numpy as np
import pytest

from mrsim import engine, slc
from mrsim.graph import (Graph, GraphError, gen_complete_binary_tree, gen_path,
                         gen_random, gen_star, relabel_random)
from mrsim.oracle import centralized_slc, union_find_components
from mrsim.schemes import HashToMin
from mrsim.slc import StopPredicate, mcd, run_slc, split_repair, stop_round
from test_slc_properties import brute_cores, csr, reference_repair, top_split


def wgraph(n, edges, weights):
    return Graph(n, edges, weights=dict(zip(edges, weights)))


def connected_weighted(n, p, seed):
    """First seeded random weighted graph at or after seed that is connected."""
    while True:
        g = gen_random(n, p, seed=seed, weighted=True)
        if len(union_find_components(g)) == 1:
            return g, seed
        seed += 1


def test_stop_predicate_parse_and_str():
    assert StopPredicate.parse("never").kind == "never"
    assert str(StopPredicate.parse("never")) == "never"
    p = StopPredicate.parse("dist:0.35")
    assert (p.kind, p.param) == ("dist", 0.35)
    assert str(p) == "dist:0.35"
    q = StopPredicate.parse("size:100")
    assert (q.kind, q.param) == ("size", 100)
    assert str(q) == "size:100"
    # numpy numbers pass as the Python numbers they equal.
    for kind, param, want in [("never", 5, None), ("dist", 1, 1.0), ("size", 3, 3),
                              ("size", np.int64(5), 5), ("dist", np.float32(0.5), 0.5)]:
        pred = StopPredicate(kind, param)
        assert (pred.kind, pred.param) == (kind, want)
        assert type(pred.param) is type(want)


def test_stop_predicate_rejects_bad_specs():
    for text in ["nope", "dist", "dist:x", "dist:0", "dist:1.5", "size:2.5",
                 "size:0", "size:", ""]:
        with pytest.raises(GraphError):
            StopPredicate.parse(text)
    with pytest.raises(GraphError):
        StopPredicate("dist", None)
    with pytest.raises(GraphError):
        StopPredicate("size", 1.5)


def test_stop_predicate_boundaries():
    s = StopPredicate("size", 4)
    assert not s.stopped(4, 0.9)
    assert s.stopped(5, 0.0)
    d = StopPredicate("dist", 0.3)
    assert not d.stopped(99, 0.3)
    assert d.stopped(2, 0.30001)
    n = StopPredicate("never")
    assert not n.stopped(10 ** 9, 1.0)


def test_stop_predicate_local_on_singletons():
    g = wgraph(2, [(0, 1)], [0.4])
    assert not StopPredicate("size", 1).local(g, (0,))
    assert not StopPredicate("dist", 0.1).local(g, (1,))
    assert not StopPredicate("never").local(g, (0,))


def test_stop_predicate_local_uses_merge_tree_edges():
    g = wgraph(4, [(0, 1), (1, 2), (2, 3)], [0.1, 0.5, 0.2])
    d = StopPredicate("dist", 0.3)
    assert not d.local(g, (0, 1))
    assert not d.local(g, (2, 3))
    assert d.local(g, (0, 1, 2, 3))
    assert StopPredicate("size", 3).local(g, (0, 1, 2, 3))
    assert not StopPredicate("size", 4).local(g, (0, 1, 2, 3))
    # Every predicate reads the merge tree, so each needs a connected,
    # nonempty cluster of a weighted graph.
    for pred in (d, StopPredicate("size", 1), StopPredicate("never")):
        with pytest.raises(GraphError):
            pred.local(g, (0, 3))
        with pytest.raises(GraphError):
            pred.local(g, ())
        with pytest.raises(GraphError):
            pred.local(gen_path(4), (0, 1))
        # A float id is refused, never truncated to a member.
        for bad in ((-1,), (2, 4), (0, 1.5), (np.float64(1),), ("a",), (None,)):
            with pytest.raises(GraphError):
                pred.local(g, bad)


def test_stop_predicate_monotone_along_merge_tree():
    preds = [StopPredicate("dist", 0.3), StopPredicate("dist", 0.7),
             StopPredicate("size", 3), StopPredicate("never")]

    def walk(g, c, pred):
        if len(c) == 1:
            return
        for child in top_split(g, c)[1]:
            if len(child) > 1 and pred.local(g, child):
                assert pred.local(g, c)
            walk(g, child, pred)

    for seed in range(6):
        g = gen_random(24, 0.12, seed=seed, weighted=True)
        for comp in union_find_components(g):
            for pred in preds:
                walk(g, comp, pred)


def test_split_halves_reconnect_at_the_removed_weight():
    for seed in range(4):
        g, _ = connected_weighted(20, 0.2, seed * 10)
        comp = tuple(range(g.n))
        d, (lo, hi) = top_split(g, comp)
        assert d == min(g.weight(u, v) for u in lo for v in g.adj[u] if v in hi)
        # Stop_local reads that weight off the cluster's own tree, and each
        # half's tree stops below it.
        assert StopPredicate("dist", d * 0.999).local(g, comp)
        for c in (comp, lo, hi):
            if len(c) > 1:
                assert not StopPredicate("dist", d).local(g, c)


def test_is_core_examples():
    g = wgraph(3, [(0, 1), (1, 2)], [0.5, 0.1])
    # A connected cluster is a core when mcd leaves it whole.
    assert mcd(g, (0,)) == [(0,)]
    assert mcd(g, (1, 2)) == [(1, 2)]
    assert mcd(g, (0, 1)) != [(0, 1)]
    assert mcd(g, (0, 1, 2)) == [(0, 1, 2)]
    with pytest.raises(GraphError):
        mcd(g, (0, 2))
    # Ids outside 0..n-1 are rejected, not read as other nodes.
    with pytest.raises(GraphError):
        mcd(g, (-1,))


def test_whole_components_are_cores():
    for seed in range(5):
        g = gen_random(40, 0.08, seed=seed, weighted=True)
        for comp in union_find_components(g):
            assert mcd(g, comp) == [comp]


def test_mcd_examples():
    g = wgraph(3, [(0, 1), (1, 2)], [0.5, 0.1])
    assert mcd(g, (1, 2)) == [(1, 2)]
    assert mcd(g, (0, 1)) == [(0,), (1,)]
    assert mcd(g, (0, 1, 2)) == [(0, 1, 2)]
    assert mcd(g, (0,)) == [(0,)]
    with pytest.raises(GraphError):
        mcd(g, (0, 2))
    with pytest.raises(GraphError):
        mcd(wgraph(4, [(0, 1), (1, 2), (2, 3)], [0.1, 0.9, 0.15]), (0, 4))
    # Ids must pass operator.index: (0, 1.5) once answered for (0, 1).
    path = gen_path(4, weighted=True)
    for bad in ((0, 1.5), ("a",), (float("nan"),)):
        with pytest.raises(GraphError, match="integer ids"):
            mcd(path, bad)
        with pytest.raises(GraphError, match="integer ids"):
            split_repair(path, bad, StopPredicate("dist", 0.5))
    assert mcd(path, (np.int64(0), np.int32(1))) == mcd(path, (0, 1))
    # A set, a list and an array answer as the equal tuple.
    for same in ({0, 1}, frozenset((1, 2, 0)), [1, 0], np.array([2, 1])):
        key = tuple(sorted(same))
        assert mcd(path, same) == mcd(path, key)
        assert (split_repair(path, same, StopPredicate("dist", 0.5))
                == split_repair(path, key, StopPredicate("dist", 0.5)))


def test_mcd_partitions_into_maximal_cores():
    import random
    rng = random.Random(2)
    for seed in range(5):
        g, _ = connected_weighted(18, 0.25, seed * 10)
        for _ in range(10):
            size = rng.randrange(1, g.n + 1)
            start = rng.randrange(g.n)
            c = grow_connected(g, start, size, rng)
            got = mcd(g, c)
            flat = sorted(v for piece in got for v in piece)
            assert flat == sorted(c)
            assert got == sorted(core for core, _ in brute_cores(g, c))


def grow_connected(g, start, size, rng):
    """Random connected node subset via frontier growth."""
    chosen = {start}
    frontier = [u for u in g.adj[start]]
    while frontier and len(chosen) < size:
        u = frontier.pop(rng.randrange(len(frontier)))
        if u in chosen:
            continue
        chosen.add(u)
        frontier.extend(w for w in g.adj[u] if w not in chosen)
    return tuple(sorted(chosen))


def test_split_repair_examples():
    g = wgraph(4, [(0, 1), (1, 2), (2, 3)], [0.1, 0.5, 0.15])
    d = StopPredicate("dist", 0.3)
    assert split_repair(g, (0, 1, 2, 3), d) == [(0, 1), (2, 3)]
    assert split_repair(g, (0, 1), d) == [(0, 1)]
    assert split_repair(g, (0, 1, 2, 3), StopPredicate("never")) == [(0, 1, 2, 3)]
    assert split_repair(g, (0, 1, 2, 3), StopPredicate("size", 1)) == [
        (0,), (1,), (2,), (3,)]
    with pytest.raises(GraphError):
        split_repair(g, (0, 2), d)
    with pytest.raises(GraphError):
        split_repair(g, (-1,), StopPredicate("never"))


def test_split_repair_matches_centralized_on_whole_components():
    preds = [("never", None), ("dist", 0.3), ("dist", 0.7), ("size", 2),
             ("size", 5)]
    found = 0
    seed = 0
    while found < 12:
        g, seed = connected_weighted(30, 0.12, seed)
        seed += 1
        found += 1
        comp = tuple(range(g.n))
        for kind, param in preds:
            pred = StopPredicate(kind, param)
            assert split_repair(g, comp, pred) == centralized_slc(
                g, kind, param)


def test_stop_round_requires_coverage():
    """An uncovered node or an id outside 0..n-1 is refused under every
    predicate: under 'never', which answers False without the cores; under
    dist:0.95, whose root stands, so the cores are not read either; and
    under dist:0.5 and size:1, which read them."""
    g = wgraph(4, [(0, 1), (1, 2), (2, 3)], [0.1, 0.9, 0.15])
    assert not StopPredicate("dist", 0.95).stopped(4, 0.9)
    # Ids outside 0..n-1 are rejected, not read as other nodes.
    bad_states = [[(0, 1)], [(0, 1), (3,)], [], [(0, 1, 2, 3), (-1,)],
                  [(0, 1, 2, 3), (5,)], [(0, 1), (2, 3, 4)]]
    for spec in ("never", "dist:0.95", "dist:0.5", "size:1"):
        for state in bad_states:
            with pytest.raises(GraphError):
                stop_round(g, csr(state), StopPredicate.parse(spec))


def test_stop_round_refuses_malformed_lens_and_ids():
    """lens that do not split the ids into clusters, and lens or ids that
    are not 1-D integer arrays, are GraphErrors under every predicate, not
    numpy's broadcast, repeat or index errors or a list's AttributeError.
    The lens count need not be n."""
    g = gen_path(4, weighted=True)
    ids = np.arange(4)
    bad_states = [(np.array([1, 1, 1]), ids), (np.array([3, -1, 1, 1]), ids),
                  (np.array([2, 2, 1]), ids), (np.array([4]), ids.astype(float)),
                  (np.array([4.0]), ids), ([1, 1, 1, 1], [0, 1, 2, 3]),
                  (np.ones((2, 2), int), ids), (np.array([2, 2]), ids.reshape(2, 2))]
    for spec in ("never", "dist:0.5", "size:1"):
        pred = StopPredicate.parse(spec)
        for state in bad_states:
            with pytest.raises(GraphError):
                stop_round(g, state, pred)
        # Fewer or more lens than nodes: the same clusters, padded to n.
        for lens, clusters in (([4], [(0, 1, 2, 3), (), (), ()]),
                               ([2, 0, 2], [(0, 1), (), (2, 3), ()]),
                               ([1, 1, 1, 1, 0, 0], [(0,), (1,), (2,), (3,)])):
            assert stop_round(g, (np.array(lens), ids), pred) is stop_round(
                g, csr(clusters), pred)


def test_stop_round_cases():
    g = wgraph(4, [(0, 1), (1, 2), (2, 3)], [0.1, 0.9, 0.15])
    singles = [(0,), (1,), (2,), (3,)]
    assert stop_round(g, csr(singles), StopPredicate("never")) is False
    assert stop_round(g, csr(singles), StopPredicate("size", 1)) is False
    whole = [(0, 1, 2, 3)]
    assert stop_round(g, csr(whole), StopPredicate("never")) is False
    assert stop_round(g, csr(whole), StopPredicate("dist", 0.5)) is True
    assert stop_round(g, csr(whole), StopPredicate("dist", 0.95)) is False
    assert stop_round(g, csr([(0, 1), (2, 3)]), StopPredicate("dist", 0.5)) is False
    assert stop_round(g, csr(whole), StopPredicate("size", 3)) is True
    assert stop_round(g, csr(whole), StopPredicate("size", 4)) is False
    # A repeated id counts once.
    assert stop_round(g, csr([(0, 0, 1, 2, 3)]), StopPredicate("dist", 0.5)) is True
    assert stop_round(g, csr([(0, 0, 1), (2, 3)]), StopPredicate("dist", 0.5)) is False


def test_run_slc_extreme_thresholds():
    g = gen_random(40, 0.08, seed=4, weighted=True)
    weights = [g.weight(u, v) for u, v in g.edges()]
    lo, hi = min(weights), max(weights)
    for algo in ("hash-to-all", "hash-to-min"):
        if hi < 1.0:
            res = run_slc(g, algo, StopPredicate("dist", 1.0), 200)
            assert res.clusters == union_find_components(g)
        res = run_slc(g, algo, StopPredicate("dist", lo * 0.5), 200)
        assert res.clusters == [(v,) for v in range(g.n)]
        res = run_slc(g, algo, StopPredicate("never"), 200)
        assert res.clusters == union_find_components(g)


def test_run_slc_matches_centralized_reduced_sweep():
    preds = [("never", None), ("dist", 0.3), ("dist", 0.7), ("size", 2),
             ("size", 5)]
    for seed in range(8):
        g = gen_random(30, 0.1, seed=seed, weighted=True)
        for kind, param in preds:
            want = centralized_slc(g, kind, param)
            for algo in ("hash-to-all", "hash-to-min"):
                res = run_slc(g, algo, StopPredicate(kind, param), 200)
                assert res.converged
                assert res.clusters == want
                assert res.algo == algo
                assert res.rounds == len(res.per_round)
    # The path's rounds hold 2000 distinct grown clusters, so the core
    # search's cluster masks are far wider than a machine word.
    for gen, n in ((gen_path, 2000), (gen_complete_binary_tree, 1023),
                   (gen_star, 2001)):
        g = gen(n, weighted=True, seed=1)
        for kind, param in [("dist", 0.5), ("size", 20)]:
            res = run_slc(g, "hash-to-min", StopPredicate(kind, param), 200)
            assert res.clusters == centralized_slc(g, kind, param)


def test_run_slc_handles_disconnected_graphs():
    g = gen_random(50, 0.03, seed=11, weighted=True)
    assert len(union_find_components(g)) > 1
    for kind, param in [("dist", 0.4), ("size", 3)]:
        want = centralized_slc(g, kind, param)
        for algo in ("hash-to-all", "hash-to-min"):
            assert run_slc(g, algo, StopPredicate(kind, param),
                           200).clusters == want


def test_run_slc_repairs_even_when_out_of_rounds():
    """A run cut short returns the grown clusters' largest cores, split while
    Stop_local holds: the brute-force repair of the last grown state. Under
    'never' these graphs do not finish growing in 3 rounds."""
    g = gen_path(32, weighted=True)
    res = run_slc(g, "hash-to-min", StopPredicate("never"), 2)
    assert not res.converged
    assert not res.stopped
    assert res.rounds == 2
    flat = sorted(v for c in res.clusters for v in c)
    assert flat == list(range(g.n))
    for g in (gen_path(32, weighted=True), gen_complete_binary_tree(63, weighted=True),
              gen_random(60, 0.05, seed=1, weighted=True)):
        for scheme in slc._SLC_SCHEMES.values():
            for spec in ("never", "dist:0.5", "size:6"):
                pred = StopPredicate.parse(spec)
                for rounds in (1, 2, 3):
                    res = run_slc(g, scheme.name, pred, rounds)
                    assert res.converged or res.rounds == rounds
                    if spec == "never":
                        assert not res.converged
                    grown = engine.run(g, scheme(), res.rounds, record=True).snapshots[-1]
                    want = reference_repair(g, [c for c in grown if c], pred)
                    assert res.clusters == want, (g.n, scheme.name, spec, rounds)


def test_run_slc_errors():
    g = gen_path(8, weighted=True)
    with pytest.raises(GraphError):
        run_slc(gen_path(8), "hash-to-min", StopPredicate("never"), 10)
    with pytest.raises(GraphError):
        run_slc(g, "hash-min", StopPredicate("never"), 10)
    with pytest.raises(GraphError):
        run_slc(g, "hash-to-min", StopPredicate("never"), 0)
    # Checked once per call, before any round: a spec string is not a
    # predicate, and max_rounds must pass operator.index.
    with pytest.raises(GraphError, match="StopPredicate"):
        run_slc(g, "hash-to-all", "dist:0.5", 3)
    for rounds in (1.5, "3", 3.0):
        with pytest.raises(GraphError, match="max_rounds"):
            run_slc(g, "hash-to-min", StopPredicate("never"), rounds)
    assert (run_slc(g, "hash-to-min", StopPredicate("never"), np.int64(3))
            == run_slc(g, "hash-to-min", StopPredicate("never"), 3))


def test_stop_round_and_run_slc_on_empty_and_single_node_graphs():
    empty = Graph(0, [], weights={})
    single = Graph(1, [], weights={})
    for spec, stops_empty in [("never", False), ("dist:0.5", True), ("size:1", True)]:
        pred = StopPredicate.parse(spec)
        assert stop_round(empty, csr([]), pred) is stops_empty
        assert stop_round(single, csr([(0,)]), pred) is False
        for algo in ("hash-to-all", "hash-to-min"):
            res = run_slc(empty, algo, pred, 10)
            assert (res.rounds, res.converged, res.stopped, res.clusters) == (
                1, True, stops_empty, [])
            res = run_slc(single, algo, pred, 10)
            assert (res.rounds, res.converged, res.stopped, res.clusters) == (
                1, True, False, [(0,)])


def test_clustering_leaves_lazy_views_unbuilt():
    """run_slc, stop_round, centralized_slc, mcd, split_repair and
    StopPredicate.local read the graph's CSR arrays alone: neither the adj
    nor the weights view gets built."""
    g = relabel_random(gen_random(50, 0.1, seed=3, weighted=True), 4)[0]
    for algo in slc._SLC_SCHEMES:
        for spec in ("size:5", "dist:0.3", "never"):
            run_slc(g, algo, StopPredicate.parse(spec), 100)
        run_slc(g, algo, StopPredicate("never"), 1)
    everyone = csr([range(g.n)])
    for spec in ("size:5", "dist:1", "never"):
        pred = StopPredicate.parse(spec)
        stop_round(g, everyone, pred)
        centralized_slc(g, pred.kind, pred.param)
    u, v = next(g.edges())
    mcd(g, (u, v))
    split_repair(g, (u, v), StopPredicate("size", 1))
    StopPredicate("dist", 0.5).local(g, (u, v))
    assert (g._adj, g._weights) == (None, None)


def test_run_slc_builds_one_forest_per_graph(monkeypatch):
    # The whole graph's merge forest is built once per Graph object, on
    # first use, and kept on it: every round's stop check, both repairs,
    # later runs under either scheme and any predicate, and mcd,
    # split_repair and stop_round called directly all share it. A cache
    # handed to run_slc only receives it.
    builds = []
    forest = slc._forest

    def counting(g, members):
        builds.append(len(members))
        return forest(g, members)

    monkeypatch.setattr(slc, "_forest", counting)
    for seed in (0, 2):
        g = gen_random(16, 0.25, seed=seed, weighted=True)
        builds.clear()
        stopped = set()
        for algo in ("hash-to-min", "hash-to-all"):
            for spec in ("never", "dist:0.3", "size:6"):
                cache = {}
                res = run_slc(g, algo, StopPredicate.parse(spec), 100, cache)
                assert res.rounds > 1
                stopped.add(res.stopped)
                assert list(cache) == [g] and cache[g] is g._forest
        assert stopped == {False, True}
        assert builds == [g.n]
        # Direct calls build only their clusters' own trees.
        u, v = next(g.edges())
        mcd(g, (u, v))
        split_repair(g, (u, v), StopPredicate("size", 1))
        stop_round(g, csr([range(g.n)]), StopPredicate("dist", 0.5))
        assert builds == [g.n, 2, 2]
        # An equal graph built again is another object with its own forest.
        h = gen_random(16, 0.25, seed=seed, weighted=True)
        assert h == g and h is not g
        builds.clear()
        assert run_slc(h, "hash-to-min", StopPredicate("size", 6), 100) == run_slc(
            g, "hash-to-min", StopPredicate("size", 6), 100)
        assert builds == [h.n] and h._forest is not g._forest
    # A graph that mcd sees first builds its forest there, and two graphs
    # each answer from their own.
    a = wgraph(3, [(0, 1), (1, 2)], [0.1, 0.5])
    b = wgraph(3, [(0, 1), (1, 2)], [0.5, 0.1])
    builds.clear()
    assert mcd(a, (0, 1)) == [(0, 1)]
    assert mcd(b, (0, 1)) == [(0,), (1,)]
    assert mcd(b, (1, 2)) == [(1, 2)]
    assert builds == [2, 3, 2, 3, 2]


def test_run_slc_repair_adds_no_copy_of_the_grown_state():
    """The repair reads the state that growth's engine.run hands back, as
    run holds it. Unpacking the last state into tuples and packing it again
    for the repair raised this run's traced peak from 71.7 to 90.6 MiB."""
    g = gen_path(3000, weighted=True)
    pred = StopPredicate("size", 20)
    want = run_slc(g, "hash-to-min", pred, 1000)

    def peak(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    grown, base = peak(lambda: engine.run(g, HashToMin(), 1000,
                                          stop=lambda state: stop_round(g, state, pred)))
    res, seen = peak(lambda: run_slc(g, "hash-to-min", pred, 1000))
    assert grown.stopped and res.rounds == grown.rounds and res.clusters == want.clusters
    assert seen < base * 1.1 + 2 ** 20, (seen, base)
