import hashlib
import math
import random
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrsim.engine import run
from mrsim.graph import (
    MAX_NODES,
    MAX_RANDOM_NODES,
    _EXACT_DIAMETER_CAP,
    Graph,
    GraphError,
    _bfs_far,
    _draws,
    _edge_indices,
    _unique_weights,
    _unrank,
    components_nodes,
    diameter,
    dump_edge_list,
    gen_complete_binary_tree,
    gen_path,
    gen_random,
    gen_star,
    load_edge_list,
    relabel,
    relabel_random,
)
from mrsim.oracle import union_find_components
from mrsim.schemes import make_scheme
from test_acceptance import ALL_VARIANTS
from test_oracle import flood_fill


def bfs_dists(g, src):
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for v in g.adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def brute_diameter(g):
    best = 0
    for v in range(g.n):
        dist = bfs_dists(g, v)
        best = max(best, max(dist.values()))
    return best


def test_graph_basic_accessors():
    g = Graph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.adj == ((1,), (0, 2), (1, 3), (2,))
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.weights is None


def test_graph_weighted_accessors():
    g = Graph(3, [(0, 1), (1, 2)], weights={(1, 0): 0.5, (1, 2): 0.25})
    assert g.weight(0, 1) == 0.5
    assert g.weight(1, 0) == 0.5
    assert g.sorted_edges() == ((0.25, 1, 2), (0.5, 0, 1))
    assert g.sorted_edges() is g.sorted_edges()
    with pytest.raises(GraphError):
        g.weight(0, 2)
    with pytest.raises(GraphError):
        Graph(3, [(0, 1)], weights={(1, 0): 0.5}).weight(1, 2)


def test_graph_validation_errors():
    with pytest.raises(GraphError):
        Graph(2, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 2)])
    with pytest.raises(GraphError):
        Graph(-1, [])
    with pytest.raises(GraphError):
        Graph(2, [(0, 1)], weights={})
    with pytest.raises(GraphError):
        Graph(2, [(0, 1)], weights={(0, 1): 0.0})
    with pytest.raises(GraphError):
        Graph(2, [(0, 1)], weights={(0, 1): 1.5})
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 2)], weights={(0, 1): 0.3, (1, 2): 0.3})


def test_edge_given_two_weights_is_refused():
    with pytest.raises(GraphError, match="two weights"):
        Graph(2, [(0, 1)], weights={(0, 1): 0.5, (1, 0): 0.6})


def test_non_integer_ids_and_counts_are_refused():
    with pytest.raises(GraphError, match="integer"):
        Graph(2, [(0.5, 1)])
    with pytest.raises(GraphError, match="integer"):
        Graph(2, [(0.0, 1.0)])
    with pytest.raises(GraphError, match="integer"):
        Graph(3.0, [(0, 1)])
    with pytest.raises(GraphError, match="permutation"):
        relabel(gen_path(3), [0.0, 2.0, 1.0])
    weighted = gen_path(3, weighted=True)
    for u, v in ((0.5, 1), (0, 1.0), (1.0, 0), (0, None), (None, 0), ("0", 1),
                 (-1, 0), (0, 3), (2 ** 70, 0)):
        with pytest.raises(GraphError, match="no edge"):
            weighted.weight(u, v)
    # Both ends take the integer check of node counts, so a bool or a numpy
    # integer is its index.
    assert weighted.weight(True, 0) == weighted.weight(0, np.int64(1)) == weighted.weight(1, 0)


@st.composite
def edge_lists(draw, min_n=0, min_edges=0):
    """(n, edges, weights): distinct edges u < v on 0..n-1, fewer than every
    pair, and a weight for each, distinct in (0, 1]."""
    n = draw(st.integers(min_n, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=min_edges,
                          max_size=max(len(pairs) - 1, min_edges))) if pairs else []
    weights = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), unique=True,
                            min_size=len(edges), max_size=len(edges)))
    return n, edges, weights


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(edge_lists(), st.booleans(), st.data())
def test_array_build_matches_dict_of_sets(case, weighted, data):
    """Edges in any order and orientation build the graph a dict of sets
    describes, and two such builds are equal and hash alike."""
    n, edges, ws = case
    ref = {v: set() for v in range(n)}
    for u, v in edges:
        ref[u].add(v)
        ref[v].add(u)
    ref_weights = dict(zip(edges, ws)) if weighted else None

    def build():
        order = data.draw(st.permutations(range(len(edges))))
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        given_edges = [edges[i][::-1] if f else edges[i] for i, f in zip(order, flips)]
        weights = {e: ref_weights[tuple(sorted(e))] for e in given_edges} if weighted else None
        return Graph(n, given_edges, weights=weights)

    g = build()
    assert g.adj == tuple(tuple(sorted(ref[v])) for v in range(n))
    assert g.m == len(edges)
    assert list(g.edges()) == sorted(edges)
    assert g.weights == ref_weights
    if weighted:
        assert g.sorted_edges() == tuple(sorted((w, u, v) for (u, v), w in ref_weights.items()))
        assert all(g.weight(v, u) == w for (u, v), w in ref_weights.items())
    h = build()
    assert g == h and hash(g) == hash(h)
    if edges:
        fewer = Graph(n, edges[1:], weights=dict(zip(edges[1:], ws[1:])) if weighted else None)
        assert fewer != g


FAULTS = ("id out of range", "self-loop", "duplicate", "reversed duplicate",
          "weight missing", "weight added", "weight out of range", "weight repeated")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(edge_lists(min_n=3, min_edges=2), st.sampled_from(FAULTS), st.data())
def test_invalid_inputs_refused_by_constructor_and_loader(case, fault, data):
    """Each fault raises GraphError from Graph(...) and, written as an edge
    file, from load_edge_list. A file's ids are compacted, so its id out of
    range is a negative one, and a weight on an edge no weights cover is
    one written in an unweighted file."""
    n, edges, ws = case
    weighted = fault.startswith("weight")
    i, j = data.draw(st.lists(st.integers(0, len(edges) - 1), min_size=2, max_size=2,
                              unique=True))
    u, v = edges[i]
    lines = [[a, b, w] for (a, b), w in zip(edges, ws)]
    fresh = next(w for w in (0.5 ** k for k in range(1, 99)) if w not in ws)
    if fault == "id out of range":
        edges = edges + [(u, data.draw(st.sampled_from([n, n + 5, -1])))]
        lines.append([u, -1, fresh])
    elif fault == "self-loop":
        edges = edges + [(u, u)]
        lines.append([u, u, fresh])
    elif fault in ("duplicate", "reversed duplicate"):
        dup = (u, v) if fault == "duplicate" else (v, u)
        edges = edges + [dup]
        lines.append([dup[0], dup[1], fresh])
    elif fault == "weight missing":
        lines[i].pop()
    elif fault == "weight out of range":
        lines[i][2] = data.draw(st.sampled_from([0.0, -0.25, 1.5, math.inf, math.nan]))
    elif fault == "weight repeated":
        lines[i][2] = lines[j][2]
    weights = {(a, b): w[0] for a, b, *w in lines if w} if weighted else None
    if fault == "weight added":
        pairs = {(a, b) for a in range(n) for b in range(a + 1, n)} - set(edges)
        weights[min(pairs)] = fresh
    with pytest.raises(GraphError):
        Graph(n, edges, weights=weights)
    if fault == "weight added":
        weighted = False
    text = "".join(" ".join(map(repr, line if weighted or fault == "weight added"
                                    else line[:2])) + "\n" for line in lines)
    with pytest.raises(GraphError):
        load_edge_list(text, weighted=weighted)


def test_array_readers_leave_lazy_views_unbuilt():
    """==, hash, m, edges(), sorted_edges(), weight() and the schemes' runs
    (all seven gate variants) read the CSR arrays alone; only adj and
    weights build their views."""
    g = relabel_random(gen_random(50, 0.1, seed=3, weighted=True), 4)[0]
    h = relabel_random(gen_random(50, 0.1, seed=3, weighted=True), 4)[0]
    assert g == h and hash(g) == hash(h)
    assert g.m == len(list(g.edges())) == len(g.sorted_edges())
    u, v = next(g.edges())
    assert g.weight(v, u) == g.weight(u, v)
    for name, tau in ALL_VARIANTS:
        assert run(g, make_scheme(name, tau), 1000).converged, (name, tau)
    assert {g._adj, g._weights, h._adj, h._weights} == {None}
    assert g.adj is g.adj and g.weights is g.weights


def test_components_leave_lazy_views_unbuilt():
    """components_nodes and the oracle's components read the arrays alone,
    so a checked run on a long path never builds the adj tuples."""
    g = relabel_random(gen_path(2 ** 12, weighted=True, seed=1), 2)[0]
    assert len(components_nodes(g)) == len(union_find_components(g)) == 1
    assert (g._adj, g._weights) == (None, None)


def test_relabel_random_keeps_its_permutation_stream():
    assert relabel_random(gen_path(8), 3)[1] == [0, 5, 7, 2, 1, 6, 4, 3]


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)], weights={(0, 1): 0.1, (1, 2): 0.2})
    b = Graph(3, [(1, 2), (0, 1)], weights={(2, 1): 0.2, (1, 0): 0.1})
    c = Graph(3, [(0, 1), (1, 2)], weights={(0, 1): 0.1, (1, 2): 0.3})
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_gen_path():
    g = gen_path(64)
    assert g.n == 64
    assert g.m == 63
    assert diameter(g) == 63
    assert gen_path(1).m == 0
    big = gen_path(2 ** 19)
    assert big.m == 2 ** 19 - 1


def test_gen_path_weighted_deterministic():
    a = gen_path(10, weighted=True, seed=3)
    b = gen_path(10, weighted=True, seed=3)
    assert a == b
    assert len(set(a.weights.values())) == a.m


def test_gen_complete_binary_tree():
    g = gen_complete_binary_tree(7)
    assert g.m == 6
    assert g.adj[0] == (1, 2)
    assert g.adj[1] == (0, 3, 4)
    assert diameter(g) == 4
    assert diameter(gen_complete_binary_tree(15)) == 6


def test_gen_complete_binary_tree_big_diameter():
    # one straggler node sits a level below the full part, adding 1
    assert diameter(gen_complete_binary_tree(2 ** 19 - 1)) == 36
    assert diameter(gen_complete_binary_tree(2 ** 19)) == 37


def test_gen_star():
    g = gen_star(6)
    assert g.m == 5
    assert g.adj[0] == (1, 2, 3, 4, 5)
    assert diameter(g) == 2
    assert diameter(gen_star(2)) == 1


def test_gen_random_extremes():
    assert gen_random(50, 0.0, seed=1).m == 0
    full = gen_random(9, 1.0, seed=1)
    assert full.m == 9 * 8 // 2
    assert gen_random(1, 0.5, seed=1).m == 0
    # 1.0 - p rounds to 1.0 below p of about 1.1e-16, where log(1.0 - p)
    # once divided by zero: the skips are of order 1 / p.
    for p in (1e-17, 1e-300, 5e-324):
        for weighted in (False, True):
            assert gen_random(10, p, seed=0, weighted=weighted).m == 0


def test_gen_random_deterministic():
    a = gen_random(200, 0.02, seed=7)
    b = gen_random(200, 0.02, seed=7)
    c = gen_random(200, 0.02, seed=8)
    assert a == b
    assert a != c


def reference_edges(n, p, seed):
    """G(n, p)'s edges for 0 < p < 1 by the per-edge loop gen_random once
    ran: one rng.random() per skip and each pair index unranked in Python.
    Returns the rows, the columns, and the stream just past the skip that
    passed the last pair, where gen_random draws its weights."""
    rng = random.Random(seed)
    rows, cols = [], []
    total = n * (n - 1) // 2
    log1p = math.log(1.0 - p)
    idx = -1
    while True:
        u = rng.random()
        if u >= 1.0:
            continue
        idx += int(math.log(1.0 - u) / log1p) + 1
        if idx >= total:
            break
        # Unrank pair index: row a, then column offset.
        a = int((2 * n - 1 - math.sqrt((2 * n - 1) ** 2 - 8 * idx)) / 2)
        before = a * (2 * n - a - 1) // 2
        while before > idx:
            a -= 1
            before = a * (2 * n - a - 1) // 2
        while before + (n - a - 1) <= idx:
            before += n - a - 1
            a += 1
        rows.append(a)
        cols.append(a + 1 + (idx - before))
    return np.asarray(rows, np.int64), np.asarray(cols, np.int64), rng


@pytest.mark.parametrize("n", [1, 2, 10, 97, 300])
def test_gen_random_matches_the_per_edge_loop(n):
    """Equal graphs, and equal weights, so the stream is left where the
    loop left it."""
    for p in (0.001, 0.02, 0.5, 0.9):
        for seed in range(20):
            rows, cols, rng = reference_edges(n, p, seed)
            assert gen_random(n, p, seed=seed) == Graph._from_arrays(n, rows, cols)
            # Each edge once, (u, v) with u < v ascending: the loop's order.
            u, v, w = gen_random(n, p, seed=seed, weighted=True)._upper()
            assert np.array_equal(u, rows) and np.array_equal(v, cols), (n, p, seed)
            assert np.array_equal(w, _unique_weights(rng, rows.size)), (n, p, seed)


def test_gen_random_digest():
    """The components benchmark's dense random, pinned by the sha256 of its
    CSR arrays."""
    g = gen_random(2000, 0.02, seed=2)
    digest = hashlib.sha256(np.asarray(g.indptr, "<i8").tobytes()
                            + np.asarray(g.indices, "<i4").tobytes()).hexdigest()
    assert (g.m, digest) == (
        40074, "58594d3d8a63cd19f117f11b0c1a9828554c7aa9c7d694cde2874f0803e20a4b")


@pytest.mark.parametrize("k", [0, 1, 2, 7, 1000])
def test_draws_are_the_stream_of_random(k):
    """_draws(rng, k) is k calls to rng.random(): the same values, and an
    equal state after, from an odd or even word of the stream."""
    for seed, skip in ((0, 0), (1, 32), (2, 33)):
        a, b = random.Random(seed), random.Random(seed)
        a.getrandbits(skip)
        b.getrandbits(skip)
        got = _draws(a, k)
        assert got.dtype == np.float64
        assert got.tolist() == [b.random() for _ in range(k)]
        assert a.getstate() == b.getstate()


def exact_unrank(n, idx):
    """Row and column of pair index idx in Python ints: the row is the
    largest a whose start a * (2n - 1 - a) / 2 is at most idx, that is, the
    largest a with (2n - 1 - 2a)^2 >= (2n - 1)^2 - 8 * idx."""
    m = 2 * n - 1
    a = (m - (math.isqrt(m * m - 8 * idx - 1) + 1)) // 2
    return a, a + 1 + idx - a * (m - a) // 2


def test_unrank_is_exact_up_to_its_node_limit():
    n = 7
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    assert [exact_unrank(n, i) for i in range(len(pairs))] == pairs
    rows, cols = _unrank(n, np.arange(len(pairs)))
    assert list(zip(rows.tolist(), cols.tolist())) == pairs
    # The unranking's square is an int64 up to the limit and not past it,
    # and gen_random refuses a larger n before it draws or builds anything.
    assert (2 * MAX_RANDOM_NODES - 1) ** 2 < 2 ** 63 <= (2 * MAX_RANDOM_NODES + 1) ** 2
    for n, p in ((MAX_RANDOM_NODES + 1, 1e-30), (MAX_NODES, 0.5)):
        with pytest.raises(GraphError, match=str(MAX_RANDOM_NODES)):
            gen_random(n, p, seed=0)
    rng = random.Random(0)
    for n in (2, 3, 1000, 2 ** 26 + 1, MAX_RANDOM_NODES - 1, MAX_RANDOM_NODES):
        total = n * (n - 1) // 2
        idx = {0, total // 2, total - 1} | {rng.randrange(total) for _ in range(200)}
        # Each side of a row's start, at both ends of the triangle.
        for a in (1, 2, n // 3, n - 3, n - 2):
            start = a * (2 * n - 1 - a) // 2
            idx |= {start - 1, start, start + 1}
        idx = sorted(i for i in idx if 0 <= i < total)
        rows, cols = _unrank(n, np.array(idx, np.int64))
        assert list(zip(rows.tolist(), cols.tolist())) == [exact_unrank(n, i) for i in idx]


def reference_indices(rng, total, p):
    """The per-edge loop's pair indices in Python ints, with log1p(-p) where
    1.0 - p rounds to 1.0."""
    log_q = math.log(1.0 - p) or math.log1p(-p)
    out = []
    idx = -1
    while True:
        idx += int(math.log(1.0 - rng.random()) / log_q) + 1
        if idx >= total:
            return out
        out.append(idx)


def test_edge_indices_are_exact_for_huge_totals():
    """Skips that pass 2**53, totals up to the node limit's and past it to
    2**62 - 1, and a p so small that 1.0 - p rounds to 1.0: the same indices
    as Python ints give, from one draw per index and one more, so the loop
    leaves the stream where gen_random starts its weights."""
    def used(seed, got):
        rng = random.Random(seed)
        rng.getrandbits(64 * (got.size + 1))
        return rng.getstate()

    limit = MAX_RANDOM_NODES * (MAX_RANDOM_NODES - 1) // 2
    for total, p in ((limit, 1e-17), (limit, 3e-18), (2 ** 62 - 1, 2e-18),
                     (2 ** 62 - 1, 0.5 ** 62), (10, 1e-17), (10, 1e-300), (0, 0.5),
                     (1, 0.5), (1000, 0.3), (50, 0.999)):
        for seed in range(5):
            b = random.Random(seed)
            got = _edge_indices(random.Random(seed), total, p)
            assert got.dtype == np.int64
            assert got.tolist() == reference_indices(b, total, p), (total, p, seed)
            assert used(seed, got) == b.getstate()
    # Skips that overflow a float: no index, and one draw taken.
    b = random.Random(0)
    got = _edge_indices(random.Random(0), 10 ** 6, 5e-324)
    assert got.size == 0
    b.random()
    assert used(0, got) == b.getstate()


def test_gen_random_weights_unique_in_range():
    g = gen_random(150, 0.05, seed=2, weighted=True)
    vals = list(g.weights.values())
    assert len(set(vals)) == g.m
    assert all(0.0 < w <= 1.0 for w in vals)
    # same seed, same edges whether or not weights are drawn
    assert list(gen_random(150, 0.05, seed=2).edges()) == list(g.edges())


def test_load_edge_list_basic():
    g = load_edge_list("0 1\n1 2\n")
    assert g.n == 3
    assert g.m == 2
    assert g.original_ids == (0, 1, 2)


def test_load_edge_list_comments_blank_crlf_bytes():
    text = "# header\r\n\r\n0 1\r\n# mid\r\n1 2\r\n"
    g = load_edge_list(text.encode())
    assert g.m == 2


def test_load_edge_list_weighted():
    g = load_edge_list("0 1 0.5\n1 2 0.125\n", weighted=True)
    assert g.weight(1, 2) == 0.125


def test_load_edge_list_compacts_ids():
    g = load_edge_list("10 30\n30 20\n")
    assert g.n == 3
    assert g.original_ids == (10, 20, 30)
    assert list(g.edges()) == [(0, 2), (1, 2)]


def test_load_edge_list_errors_name_the_line():
    cases = [
        ("0 1\n2\n", False, "line 2"),
        ("0 0\n", False, "line 1"),
        ("0 1\n1 0\n", False, "line 2"),
        ("0 1 0.5\n1 2 0.5\n", True, "line 2"),
        ("0 1 nope\n", True, "line 1"),
        ("0 1 0.5\n", False, "line 1"),  # weight column under weighted=False
    ]
    for text, weighted, kw in cases:
        with pytest.raises(GraphError) as err:
            load_edge_list(text, weighted=weighted)
        assert kw in str(err.value), (text, str(err.value))


def test_dump_load_roundtrip():
    g = gen_random(40, 0.1, seed=5, weighted=True)
    back = load_edge_list(dump_edge_list(g), weighted=True)
    assert back.edges() is not None
    assert list(back.edges()) == list(g.edges())
    for u, v in g.edges():
        assert back.weight(u, v) == g.weight(u, v)


def test_relabel_roundtrip():
    g = gen_random(30, 0.1, seed=4, weighted=True)
    h, perm = relabel_random(g, seed=9)
    assert h != g or perm == tuple(range(g.n))
    inverse = [0] * g.n
    for old, new in enumerate(perm):
        inverse[new] = old
    back = relabel(h, inverse)
    assert back == g


def test_relabel_preserves_structure():
    g = gen_random(60, 0.05, seed=11)
    h, _ = relabel_random(g, seed=3)
    assert sorted(len(a) for a in g.adj) == sorted(len(a) for a in h.adj)
    assert diameter(g) == diameter(h)
    assert relabel_random(g, seed=3)[0] == h


def test_relabel_validates_permutation():
    g = gen_path(4)
    with pytest.raises(GraphError):
        relabel(g, [0, 0, 1, 2])
    with pytest.raises(GraphError):
        relabel(g, [0, 1, 2])


def test_components_nodes():
    """Each component is a list of its nodes ascending, and the lists are
    ordered by their least member, whatever order the search reaches
    them in."""
    g = Graph(5, [(0, 1), (3, 4)])
    assert components_nodes(g) == [[0, 1], [2], [3, 4]]
    assert components_nodes(Graph(0, [])) == []
    assert components_nodes(Graph(4, [])) == [[0], [1], [2], [3]]
    g = Graph(9, [(7, 2), (2, 5), (5, 0), (8, 3), (6, 1)])
    assert components_nodes(g) == [[0, 2, 5, 7], [1, 6], [3, 8], [4]]
    for seed in range(5):
        r = relabel_random(gen_random(60, 0.03, seed=seed), seed)[0]
        comps = components_nodes(r)
        assert all(c == sorted(c) for c in comps)
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)
        assert sorted(v for c in comps for v in c) == list(range(60))


def bfs_components_nodes(g):
    """components_nodes as a breadth-first search over g.adj, kept as the
    reference: a search from each node not yet reached, in increasing
    order, labels what it reaches with its source, the least member of its
    component; a stable argsort of the labels then lists the components'
    nodes in that order."""
    n = g.n
    adj = g.adj
    label = [-1] * n
    for s in range(n):
        if label[s] < 0:
            label[s] = s
            queue = [s]
            for x in queue:
                for y in adj[x]:
                    if label[y] < 0:
                        label[y] = s
                        queue.append(y)
    label = np.fromiter(label, np.intp, n)
    nodes = np.argsort(label, kind="stable").tolist()
    sizes = np.bincount(label, minlength=n)
    ends = np.cumsum(sizes[sizes > 0]).tolist()
    return [nodes[a:b] for a, b in zip([0] + ends, ends)]


def _numbered_path(order):
    """The path that visits the nodes in the given order."""
    return Graph(len(order), list(zip(order, order[1:])))


def _zigzag(n):
    return [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]


COMPONENT_GRAPHS = {
    "path 2^12 relabeled": lambda: relabel_random(gen_path(2 ** 12), 1)[0],
    "path 2^13 relabeled": lambda: relabel_random(gen_path(2 ** 13), 2)[0],
    "path 2^15 relabeled": lambda: relabel_random(gen_path(2 ** 15), 3)[0],
    "path zig-zag": lambda: _numbered_path(_zigzag(4097)),
    "path descending": lambda: _numbered_path(list(range(4096, -1, -1))),
    "star hub last": lambda: relabel(gen_star(1001), [1000] + list(range(1000))),
    "binary tree relabeled": lambda: relabel_random(gen_complete_binary_tree(4095), 4)[0],
    "sparse random": lambda: gen_random(2000, 0.0005, seed=5),
    "empty": lambda: Graph(0, []),
    "one node": lambda: Graph(1, []),
    "edgeless": lambda: Graph(7, []),
}


def _agrees_with_references(g):
    comps = components_nodes(g)
    assert comps == bfs_components_nodes(g)
    assert [tuple(c) for c in comps] == flood_fill(g) == union_find_components(g)


@pytest.mark.parametrize("name", sorted(COMPONENT_GRAPHS))
def test_components_nodes_matches_the_breadth_first_search(name):
    """The components, lists and order alike, are those of the
    breadth-first search and of the oracle tests' flood fill, on long
    paths under orders that lengthen chains of parents, a star whose hub
    is the largest id, a tree, many small components and no edges."""
    _agrees_with_references(COMPONENT_GRAPHS[name]())


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(edge_lists())
def test_components_nodes_matches_the_search_on_small_graphs(case):
    n, edges, _ = case
    _agrees_with_references(Graph(n, edges))


def test_bfs_far_is_the_first_node_reached_at_the_greatest_distance():
    """From 0 the search reaches 1 before 2, so 4, 1's child, before 3;
    both are at distance 2. The distance list is handed back all -1."""
    g = Graph(5, [(0, 2), (0, 1), (2, 3), (1, 4)])
    dist = [-1] * g.n
    assert _bfs_far(g.adj, 0, dist) == (4, 2)
    assert _bfs_far(g.adj, 4, dist) == (3, 4)
    assert dist == [-1] * g.n


def test_diameter_exact_small():
    assert diameter(gen_path(10)) == 9
    g = Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)])
    assert diameter(g) == 3
    for seed in range(5):
        r = gen_random(40, 0.08, seed=seed)
        assert diameter(r) == brute_diameter(r)


def test_diameter_errors_and_sampling():
    with pytest.raises(GraphError):
        diameter(Graph(0, []))
    # a big non-forest component falls back to sampled double sweeps
    n = 5000
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1), (0, n // 2)]
    g = Graph(n, edges)
    with pytest.warns(UserWarning):
        got = diameter(g)
    assert got <= n // 2


def test_diameter_exact_on_big_forest_no_warning():
    g = gen_path(2 ** 14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert diameter(g) == 2 ** 14 - 1


def _cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n):
    return gen_random(n, 1.0, seed=0)


def _union(n, *parts):
    """The disjoint union of the parts, placed one after another, on n
    nodes; the nodes past the last part are isolated."""
    edges, base = [], 0
    for part in parts:
        edges += [(u + base, v + base) for u, v in part.edges()]
        base += part.n
    return Graph(n, edges)


def _matches_the_search(g):
    """diameter(g) equals the per-source search of brute_diameter, and
    reads the CSR arrays alone."""
    got = diameter(g)
    assert g._adj is None
    assert got == brute_diameter(g)
    return got


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_diameter_matches_the_search_around_word_widths(n):
    """Complete graphs, cycles (the short ones take the bitset, the long
    ones the per-node searches) and slc-style weighted randoms, on a word's
    worth of nodes and either side of it."""
    assert _matches_the_search(_complete(n)) == 1
    assert _matches_the_search(_cycle(n)) == n // 2
    for seed in range(3):
        _matches_the_search(gen_random(n, min(0.5, 6.5 / n), seed=seed, weighted=True))
        _matches_the_search(gen_random(n, 0.03, seed=seed))


def test_diameter_mixes_tree_and_cyclic_components():
    """A long tree beside short cyclic components, a long cycle beside short
    trees, and cyclic components of different diameters with the longest in
    the middle; each cyclic component is searched on its own nodes."""
    short = [_cycle(5), _complete(9), gen_random(70, 0.1, seed=4)]
    assert _matches_the_search(_union(400, *short, gen_path(150), gen_star(6))) == 149
    assert _matches_the_search(_union(300, gen_path(7), _cycle(150), gen_star(9))) == 75
    assert _matches_the_search(
        _union(400, _cycle(12), _complete(65), _cycle(64), _cycle(41), gen_path(3))) == 32


def test_diameter_is_exact_at_the_size_cap():
    """A graph of exactly _EXACT_DIAMETER_CAP nodes with cyclic components
    gets the exact search and no warning; one node more is sampled."""
    parts = (gen_random(100, 0.03, seed=1), _cycle(30))
    g = _union(_EXACT_DIAMETER_CAP, *parts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _matches_the_search(g)
    with pytest.warns(UserWarning):
        diameter(_union(_EXACT_DIAMETER_CAP + 1, *parts))


def test_bitset_diameter_memory_stays_within_its_blocks():
    """On a dense random of _EXACT_DIAMETER_CAP nodes, the bitset's rows are
    k * W = 262144 words and its edges 2m = 334492. Gathering every
    neighbor row at once would take 2m * W words, about 163 MiB; in
    blocks, each temporary holds at most max(2m, k * W) words, and at most
    four of them (two levels of rows, a gathered block and its reduction)
    are live at once."""
    g = gen_random(_EXACT_DIAMETER_CAP, 0.02, seed=1)
    words = -(-g.n // 64)
    bound = 8 * max(2 * g.m, g.n * words)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert diameter(g) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * bound
    assert g._adj is None
