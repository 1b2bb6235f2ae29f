"""Oracle tests: the reference answers get their own independent checks."""

import ast
import inspect
import random
from math import inf, nan

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mrsim.oracle
from mrsim.graph import (Graph, GraphError, gen_path, gen_random, gen_star,
                         relabel_random)
from mrsim.oracle import (canonical_partition, centralized_slc,
                          union_find_components)
from mrsim.slc import StopPredicate


def test_canonical_partition_sorts_and_drops_empties():
    assert canonical_partition([[3, 1], (2,), []]) == [(1, 3), (2,)]
    assert canonical_partition([]) == []
    assert canonical_partition([(5,), (0, 9)]) == [(0, 9), (5,)]


def flood_fill(g):
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        q = [s]
        while q:
            u = q.pop()
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    q.append(v)
        out.append(tuple(sorted(comp)))
    out.sort()
    return out


def test_union_find_components_matches_flood_fill():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randrange(1, 60)
        g = gen_random(n, rng.choice([0.0, 0.02, 0.1, 0.5]),
                       seed=rng.randrange(10 ** 6))
        assert union_find_components(g) == flood_fill(g)
    assert union_find_components(gen_path(1)) == [(0,)]
    # The benchmark's sizes: a long relabeled path, a wide star and a dense
    # random.
    for g in (relabel_random(gen_path(2 ** 15), 1)[0],
              relabel_random(gen_star(10001), 2)[0],
              relabel_random(gen_random(2000, 0.02, seed=2), 3)[0]):
        assert union_find_components(g) == flood_fill(g)


def test_centralized_slc_needs_weights():
    with pytest.raises(GraphError):
        centralized_slc(gen_path(4), "never")


def test_centralized_slc_extremes():
    g = gen_random(30, 0.1, seed=2, weighted=True)
    assert centralized_slc(g, "dist", 1.0) == union_find_components(g)
    assert centralized_slc(g, "never") == union_find_components(g)
    tiny = min(g.weight(u, v) for u, v in g.edges()) * 0.5
    assert centralized_slc(g, "dist", tiny) == [(v,) for v in range(g.n)]
    assert centralized_slc(g, "size", 1) == [(v,) for v in range(g.n)]


def test_centralized_slc_on_a_weighted_star():
    """The centre takes leaves lightest edge first until the stop rule
    refuses one, which freezes it; every later leaf stays alone."""
    g = gen_star(2001, weighted=True, seed=1)
    edges = g.sorted_edges()
    leaves = [v for _, _, v in edges]

    def centre_with(kept):
        rest = set(leaves) - set(kept)
        return canonical_partition([[0, *kept]] + [[v] for v in rest])

    assert centralized_slc(g, "never") == [tuple(range(g.n))]
    for s in (1, 2, 7, 2000, 2001, 5000):
        assert centralized_slc(g, "size", s) == centre_with(leaves[:s - 1]), s
    for x in (0.001, 0.3, 0.77, 1.0):
        want = centre_with([v for w, _, v in edges if w <= x])
        assert centralized_slc(g, "dist", x) == want, x


def test_centralized_slc_two_component_example():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)],
              weights={(0, 1): 0.1, (1, 2): 0.6, (3, 4): 0.2})
    assert centralized_slc(g, "never") == [(0, 1, 2), (3, 4)]
    assert centralized_slc(g, "dist", 0.5) == [(0, 1), (2,), (3, 4)]
    assert centralized_slc(g, "size", 2) == [(0, 1), (2,), (3, 4)]
    assert centralized_slc(g, "size", 3) == [(0, 1, 2), (3, 4)]


def test_centralized_slc_checks_its_stop_rule_before_any_edge():
    """A bad kind or param is refused on every graph, edges or none: the
    params StopPredicate refuses, a dist outside (0, 1] and a size that is
    not an integer >= 1, NaN included. The bounds themselves are taken."""
    for g in (gen_path(1, weighted=True), gen_path(4, weighted=True),
              gen_path(5, weighted=True)):
        for kind, param in (("bogus", None), ("bogus", 1), (None, None),
                            ("size", None), ("size", "3"), ("dist", "x"),
                            ("dist", None), ("dist", nan), ("size", nan),
                            ("size", 2.5), ("size", 2.0), ("size", -1), ("size", 0),
                            ("size", inf), ("dist", 0.0), ("dist", -0.5),
                            ("dist", 1.5), ("dist", inf)):
            with pytest.raises(GraphError):
                centralized_slc(g, kind, param)
            if kind in ("dist", "size"):
                with pytest.raises(GraphError):
                    StopPredicate(kind, param)
        singletons = [(v,) for v in range(g.n)]
        assert centralized_slc(g, "dist", 1.0) == union_find_components(g)
        assert centralized_slc(g, "dist", 5e-324) == singletons
        assert centralized_slc(g, "size", 1) == singletons
        assert centralized_slc(g, "size", np.int64(2)) == centralized_slc(g, "size", 2)


def _frozen_example():
    """A = {0, 1} and C = {2, 3, 4} meet at 0.3 and B = {5, 6} and
    D = {7, 8, 9} at 0.31; under size:4 both merges are refused, so A, B, C
    and D freeze. Three edges then join A and B, whose union (4 nodes) the
    cap alone would allow. The lone node 10 then meets D and is frozen by
    it, so it cannot take 11, which in turn cannot take 12."""
    weights = {(0, 1): 0.1, (2, 3): 0.11, (3, 4): 0.12, (5, 6): 0.13,
               (7, 8): 0.14, (8, 9): 0.15, (1, 2): 0.3, (6, 7): 0.31,
               (0, 5): 0.4, (1, 6): 0.41, (0, 6): 0.42, (9, 10): 0.5,
               (10, 11): 0.6, (11, 12): 0.7}
    return Graph(13, list(weights), weights=weights)


def test_frozen_clusters_never_merge_again():
    g = _frozen_example()
    cases = {
        ("size", 4): [(0, 1), (2, 3, 4), (5, 6), (7, 8, 9), (10,), (11,), (12,)],
        # A + C and B + D fit under 5; their union does not, which freezes
        # both, and so node 10 in turn.
        ("size", 5): [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9), (10,), (11,), (12,)],
        ("dist", 0.45): [(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), (10,), (11,), (12,)],
        ("never", None): [tuple(range(13))],
    }
    for (kind, param), want in cases.items():
        assert centralized_slc(g, kind, param) == want, (kind, param)
        for order_seed in range(3):
            got = mutual_nearest_brute(g, kind, param, random.Random(order_seed))
            assert got == want, (kind, param, order_seed)


def test_centralized_slc_on_edgeless_graphs():
    for g in (gen_path(1, weighted=True), gen_random(6, 0.0, seed=0, weighted=True),
              Graph(4, [], weights={})):
        for kind, param in (("never", None), ("size", 1), ("size", 3),
                            ("dist", 0.5), ("dist", 1.0)):
            assert centralized_slc(g, kind, param) == [(v,) for v in range(g.n)]


def _stopped(kind, param, size, w):
    if kind == "size":
        return size > param
    if kind == "dist":
        return w > param
    return False


def _part_dist(g, a, b):
    best = inf
    sb = set(b)
    for u in a:
        for v in g.adj[u]:
            if v in sb:
                w = g.weight(u, v)
                if w < best:
                    best = w
    return best


def mutual_nearest_brute(g, kind, param, rng):
    """Merge mutually nearest cluster pairs in random order; a merge whose
    result trips the stop rule is refused and freezes both sides."""
    parts = [((v,), True) for v in range(g.n)]
    out = []
    while True:
        k = len(parts)
        dm = [[inf] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                d = _part_dist(g, parts[i][0], parts[j][0])
                dm[i][j] = dm[j][i] = d
        cands = []
        for i in range(k):
            for j in range(i + 1, k):
                d = dm[i][j]
                if d < inf and d == min(dm[i]) and d == min(dm[j]):
                    cands.append((i, j))
        if not cands:
            break
        i, j = cands[rng.randrange(len(cands))]
        (mi, ai), (mj, aj) = parts[i], parts[j]
        keep = ai and aj and not _stopped(kind, param, len(mi) + len(mj),
                                          dm[i][j])
        if not keep:
            if ai:
                out.append(mi)
            if aj:
                out.append(mj)
        parts = [p for t, p in enumerate(parts) if t not in (i, j)]
        parts.append((mi + mj, keep))
    for m, alive in parts:
        if alive:
            out.append(m)
    return canonical_partition(out)


def test_centralized_slc_matches_mutual_nearest_merges():
    preds = [("never", None), ("dist", 0.3), ("dist", 0.7), ("size", 2),
             ("size", 3)]
    rng = random.Random(9)
    for case in range(40):
        n = rng.randrange(2, 8)
        g = gen_random(n, rng.choice([0.3, 0.5, 0.8]), seed=case,
                       weighted=True)
        for kind, param in preds:
            want = centralized_slc(g, kind, param)
            for order_seed in range(3):
                got = mutual_nearest_brute(g, kind, param,
                                           random.Random(order_seed))
                assert got == want, (case, kind, param, order_seed)


def disjoint_set_slc(g, kind, param=None):
    """centralized_slc as it ran on scipy's DisjointSet, kept as the
    reference for the list union-find: the same edge scan and freeze rule,
    with scipy's root lookups, subset sizes and subsets."""
    from scipy.cluster.hierarchy import DisjointSet

    ds = DisjointSet(range(g.n))
    frozen = set()
    for w, u, v in g.sorted_edges():
        ru = ds[u]
        rv = ds[v]
        if ru == rv:
            continue
        if (ru in frozen or rv in frozen
                or _stopped(kind, param, ds.subset_size(ru) + ds.subset_size(rv), w)):
            frozen.update((ru, rv))
        else:
            ds.merge(ru, rv)
    return canonical_partition(ds.subsets())


@st.composite
def weighted_graphs_and_chains(draw, max_n=16):
    """A weighted graph on 0 to max_n nodes: either of random density (often
    disconnected or edgeless), or a path through the nodes in a random
    order, where a refused merge freezes a chain of neighbours. Weights are
    distinct, in a random order."""
    n = draw(st.integers(0, max_n))
    perm = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        edges = list(zip(perm, perm[1:]))
    else:
        tenths = draw(st.integers(0, 9))
        edges = [(perm[u], perm[v]) for u in range(n) for v in range(u + 1, n)
                 if draw(st.integers(0, 9)) < tenths]
    ranks = draw(st.permutations(range(len(edges))))
    return Graph(n, edges, weights={e: (r + 1) / (len(edges) + 1)
                                    for e, r in zip(edges, ranks)})


stop_rules = st.one_of(
    st.sampled_from([("never", None), ("size", 1), ("dist", 1.0)]),
    st.tuples(st.just("size"), st.integers(1, 17)),
    st.tuples(st.just("dist"), st.floats(0.001, 1.0)))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(weighted_graphs_and_chains(), stop_rules)
@example(Graph(0, [], weights={}), ("never", None))
@example(Graph(1, [], weights={}), ("size", 1))
@example(Graph(4, [(0, 1), (1, 2), (2, 3)],
               weights={(0, 1): 0.1, (1, 2): 0.2, (2, 3): 0.3}), ("size", 2))
@example(_frozen_example(), ("size", 4))
def test_centralized_slc_matches_the_disjoint_set_reference(g, rule):
    kind, param = rule
    assert centralized_slc(g, kind, param) == disjoint_set_slc(g, kind, param)


def test_oracle_module_imports_only_the_graph_module():
    tree = ast.parse(inspect.getsource(mrsim.oracle))
    relative = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.add(node.module)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("mrsim")
    assert relative == {"graph"}
