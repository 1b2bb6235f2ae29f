"""Property tests for the clustering on small generated graphs: run_slc
against the centralized oracle and against a networkx minimum spanning
forest cut at the distance threshold, mcd, stop_round and the repair
against brute-force references written from the definition of a core, and
the array-built merge forest against a Kruskal over adj and weights."""

from math import inf

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrsim import engine, slc
from mrsim.graph import Graph, GraphError
from mrsim.oracle import centralized_slc
from mrsim.schemes import HashToAll, HashToMin
from mrsim.slc import StopPredicate, mcd, run_slc, split_repair, stop_round

def csr(clusters):
    """A cluster collection as the CSR arrays (lens, ids) that stop_round
    reads, ids as given: unsorted, repeated or outside 0..n-1 ones too."""
    lens = np.array([len(c) for c in clusters], np.intp)
    ids = np.array([v for c in clusters for v in c], np.intp)
    return lens, ids


FUZZ = settings(max_examples=150, derandomize=True, deadline=None, database=None)
# stop_round answers one bool for a whole collection, and one singleton core
# already makes it False, so it needs more examples to see a difference.
FUZZ_STOP = settings(FUZZ, max_examples=300)


@st.composite
def weighted_graphs(draw, max_n=14):
    """A graph on at most max_n nodes with edge density 0 to 0.9 (so often
    disconnected, with isolated nodes, or empty), distinct weights in a
    random order, and a random relabeling."""
    n = draw(st.integers(0, max_n))
    tenths = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.integers(0, 9)) < tenths] if tenths else []
    ranks = draw(st.permutations(range(len(edges))))
    perm = draw(st.permutations(range(n)))
    edges = [(perm[u], perm[v]) for u, v in edges]
    weights = {e: (r + 1) / (len(edges) + 1) for e, r in zip(edges, ranks)}
    return Graph(n, edges, weights=weights)


predicates = st.one_of(
    st.floats(0.001, 1.0).map(lambda x: StopPredicate("dist", x)),
    st.integers(1, 15).map(lambda s: StopPredicate("size", s)),
    st.just(StopPredicate("never")))


@FUZZ
@given(weighted_graphs(), predicates, st.sampled_from(["hash-to-all", "hash-to-min"]))
def test_run_slc_matches_centralized(g, pred, algo):
    res = run_slc(g, algo, pred, 100)
    assert res.converged
    assert res.rounds == len(res.per_round)
    assert res.clusters == centralized_slc(g, pred.kind, pred.param)


def mst_cut(g, x):
    """Single linkage at distance x, computed apart from mrsim: the
    components left when every edge heavier than x is cut from networkx's
    minimum spanning forest."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_weighted_edges_from((u, v, w) for w, u, v in g.sorted_edges())
    forest = nx.minimum_spanning_tree(h)
    forest.remove_edges_from([(u, v) for u, v, w in forest.edges(data="weight")
                              if w > x])
    return sorted(tuple(sorted(c)) for c in nx.connected_components(forest))


@FUZZ
@given(weighted_graphs(), st.floats(0.001, 1.0),
       st.sampled_from(["hash-to-all", "hash-to-min"]))
def test_run_slc_distance_matches_networkx_mst_cut(g, x, algo):
    res = run_slc(g, algo, StopPredicate("dist", x), 100)
    assert res.converged
    assert res.clusters == mst_cut(g, x)


def bfs_pieces(g, c, below=inf):
    """Connected components of the subgraph induced by c, keeping only edges
    lighter than below, as sorted tuples."""
    inside = set(c)
    seen = set()
    out = []
    for s in c:
        if s in seen:
            continue
        seen.add(s)
        piece = [s]
        for u in piece:
            for v in g.adj[u]:
                if v in inside and v not in seen and g.weight(u, v) < below:
                    seen.add(v)
                    piece.append(v)
        out.append(tuple(sorted(piece)))
    return out


def top_split(g, c):
    """The heaviest edge weight of a connected cluster's induced minimum
    spanning tree, and the two halves that removing it leaves."""
    inside = set(c)
    root = {v: v for v in c}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    top = None
    for w, u, v in g.sorted_edges():
        if u in inside and v in inside and find(u) != find(v):
            root[find(u)] = find(v)
            top = w
    halves = bfs_pieces(g, c, below=top)
    assert len(halves) == 2
    return top, halves


def nearest(g, half):
    """The node at the far end of the lightest edge leaving half."""
    return min((g.weight(u, v), v) for u in half for v in g.adj[u] if v not in half)[1]


def brute_is_core(g, c):
    """The definition of a core, with nothing from mrsim.slc: a single node,
    or a connected cluster whose split at its heaviest induced spanning-tree
    edge gives two mutually nearest halves, each a core itself."""
    if len(c) == 1:
        return True
    _, (a, b) = top_split(g, c)
    return (nearest(g, a) in b and nearest(g, b) in a
            and brute_is_core(g, a) and brute_is_core(g, b))


def brute_cores(g, c):
    """Maximal cores of a connected cluster, as (members, top merge weight):
    the cluster itself when it is a core, else those of its two halves."""
    if len(c) == 1:
        return [(c, 0.0)]
    top, halves = top_split(g, c)
    if brute_is_core(g, c):
        return [(c, top)]
    return [core for half in halves for core in brute_cores(g, half)]


def largest_cores(g, clusters):
    """Each node's largest core (ties to the smaller minimum id) over the
    maximal cores of every cluster's connected pieces, as a dict from node
    to (members, top merge weight)."""
    best = {}
    for c in dict.fromkeys(tuple(sorted(c)) for c in clusters):
        for piece in bfs_pieces(g, c):
            for core, top in brute_cores(g, piece):
                for v in core:
                    cur = best.get(v)
                    if cur is None or (len(core), -core[0]) > (len(cur[0]), -cur[0][0]):
                        best[v] = (core, top)
    if len(best) != g.n:
        raise GraphError("cluster collection does not cover every node")
    return best


def reference_stop_round(g, clusters, pred):
    """Stop_local on every node's largest core; never stops under 'never'."""
    best = largest_cores(g, clusters)
    if pred.kind == "never":
        return False
    return all(pred.stopped(len(core), top) for core, top in best.values())


def reference_repair(g, clusters, pred):
    """Every node's largest core, split at its heaviest induced spanning-tree
    edge for as long as Stop_local holds, as a sorted partition."""
    out = []
    todo = list(dict.fromkeys(core for core, _ in largest_cores(g, clusters).values()))
    while todo:
        c = todo.pop()
        if len(c) > 1:
            top, halves = top_split(g, c)
            if pred.stopped(len(c), top):
                todo += halves
                continue
        out.append(c)
    return sorted(out)


@st.composite
def cluster_collections(draw):
    """A graph and nonempty, possibly disconnected and overlapping clusters in
    random order: the groups of a random partition, unions of two groups and
    random node sets. Now and then one cluster is dropped, which may leave a
    node uncovered."""
    g = draw(weighted_graphs())
    k = draw(st.integers(1, 5))
    label = [draw(st.integers(0, k - 1)) for _ in range(g.n)]
    groups = [[v for v in range(g.n) if label[v] == i] for i in range(k)]
    clusters = [c for c in groups if c]
    for _ in range(draw(st.integers(0, 3))):
        both = set(groups[draw(st.integers(0, k - 1))] + groups[draw(st.integers(0, k - 1))])
        if both:
            clusters.append(sorted(both))
    if g.n:
        nodes = st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n, unique=True)
        clusters += draw(st.lists(nodes, max_size=2))
    clusters = draw(st.permutations(clusters))
    if clusters and draw(st.integers(0, 9)) == 9:
        clusters = clusters[1:]
    return g, clusters


@FUZZ_STOP
@given(cluster_collections(), predicates)
def test_stop_round_matches_brute_force_reference(gc, pred):
    g, clusters = gc
    try:
        want = reference_stop_round(g, clusters, pred)
    except GraphError:
        with pytest.raises(GraphError):
            stop_round(g, csr(clusters), pred)
        return
    assert stop_round(g, csr(clusters), pred) is want


@FUZZ
@given(weighted_graphs(), predicates, st.sampled_from([HashToAll, HashToMin]))
def test_run_slc_stops_at_the_first_round_that_passes_global_stop(g, pred, scheme):
    """The distributed stop: replay the growth to its fixpoint and find the
    first round whose nonempty clusters pass the brute-force Stop_global.
    run_slc must stop at that round, or run to the fixpoint when none does."""
    grown = engine.run(g, scheme(), 100, record=True)
    assert grown.converged
    first = next((r for r, snap in enumerate(grown.snapshots[1:], 1)
                  if reference_stop_round(g, [c for c in snap if c], pred)), None)
    res = run_slc(g, scheme.name, pred, 100)
    if first is None:
        assert not res.stopped
        assert res.rounds == grown.rounds
    else:
        assert res.stopped
        assert res.rounds == first


@FUZZ
@given(weighted_graphs(), predicates, st.sampled_from([HashToAll, HashToMin]),
       st.integers(1, 3))
def test_run_slc_repairs_the_last_grown_state_when_out_of_rounds(g, pred, scheme, rounds):
    """With few rounds most runs neither stop nor finish growing. Those
    return the brute-force repair of their last grown state, as runs that
    reach their fixpoint do; a run that stops returns the centralized
    answer."""
    res = run_slc(g, scheme.name, pred, rounds)
    if res.stopped:
        assert res.clusters == centralized_slc(g, pred.kind, pred.param)
    else:
        grown = engine.run(g, scheme(), res.rounds, record=True).snapshots[-1]
        assert res.clusters == reference_repair(g, [c for c in grown if c], pred)


@st.composite
def subsets(draw):
    """A graph on at most 12 nodes and a node set of it, grown from one node
    through random neighbours. Now and then one more node from anywhere is
    added, which may disconnect the set."""
    g = draw(weighted_graphs(max_n=12).filter(lambda g: g.n > 0))
    c = {draw(st.integers(0, g.n - 1))}
    for _ in range(draw(st.integers(0, g.n - 1))):
        frontier = sorted({v for u in c for v in g.adj[u]} - c)
        if not frontier:
            break
        c.add(draw(st.sampled_from(frontier)))
    c.update(draw(st.lists(st.integers(0, g.n - 1), max_size=1)))
    return g, tuple(sorted(c))


@FUZZ_STOP
@given(subsets())
def test_is_core_matches_brute_force(gc):
    g, c = gc
    pieces = bfs_pieces(g, c)
    if len(pieces) > 1:
        with pytest.raises(GraphError):
            mcd(g, c)
    for piece in pieces:
        got = mcd(g, piece)
        assert got == sorted(core for core, _ in brute_cores(g, piece)), piece
        assert (got == [piece]) is brute_is_core(g, piece), piece


@FUZZ
@given(subsets(), predicates)
def test_split_repair_matches_reference_repair(gc, pred):
    """split_repair on a connected piece is the brute-force repair of that
    piece alone. The reference needs every node covered, so the nodes
    outside the piece come in as singletons and are dropped again."""
    g, c = gc
    pieces = bfs_pieces(g, c)
    if len(pieces) > 1:
        with pytest.raises(GraphError):
            split_repair(g, c, pred)
    for piece in pieces:
        inside = set(piece)
        rest = [(v,) for v in range(g.n) if v not in inside]
        want = [r for r in reference_repair(g, [piece] + rest, pred) if r[0] in inside]
        assert split_repair(g, piece, pred) == want, piece


def reference_forest(g, members):
    """Kruskal on the subgraph induced by members, walking g.adj and the
    g.weights dict with the edges sorted as (w, i, j) tuples, as the
    forest was first built; the same layout as slc._forest."""
    k = len(members)
    idx = {v: i for i, v in enumerate(members)}
    edges = sorted((g.weights[u, v], i, idx[v]) for i, u in enumerate(members)
                   for v in g.adj[u] if v in idx and u < v)
    size, topw, parent, off = [1] * k, [0.0] * k, [-1] * k, [0] * k
    uf = list(range(k))

    def find(x):
        while uf[x] != x:
            x = uf[x]
        return x

    node_of = list(range(k))
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        ta, tb = node_of[ri], node_of[rj]
        parent[ta] = parent[tb] = node_of[rj] = len(size)
        off[tb] = size[ta]
        size.append(size[ta] + size[tb])
        topw.append(w)
        parent.append(-1)
        off.append(0)
        uf[ri] = rj
    lo, at = [0] * len(size), 0
    for t in range(len(size) - 1, -1, -1):
        if parent[t] < 0:
            lo[t], at = at, at + size[t]
        else:
            lo[t] = lo[parent[t]] + off[t]
    order = [members[i] for i in sorted(range(k), key=lo.__getitem__)]
    return {"order": order, "lo": lo, "size": size, "topw": topw, "parent": parent,
            "roots": [t for t, p in enumerate(parent) if p < 0]}


member_lists = st.one_of(weighted_graphs().map(lambda g: (g, range(g.n))), subsets())


@FUZZ
@given(member_lists)
def test_forest_matches_kruskal_over_adj_and_weights(gm):
    """The forest gathered from the CSR arrays is the reference's, field by
    field, on whole graphs and on connected and disconnected node sets."""
    g, members = gm
    f = slc._forest(g, members)
    want = reference_forest(g, members)
    assert f.order == want["order"]
    for name in ("lo", "size", "topw", "parent", "roots"):
        assert getattr(f, name).tolist() == want[name], name


@FUZZ
@given(subsets(), predicates)
def test_a_repeated_id_is_refused(gc, pred):
    g, c = gc
    for bad in (c + c[:1], c[:1] + c):
        with pytest.raises(GraphError):
            mcd(g, bad)
        with pytest.raises(GraphError):
            split_repair(g, bad, pred)
        with pytest.raises(GraphError):
            pred.local(g, bad)


@FUZZ
@given(weighted_graphs(), predicates, st.sampled_from([HashToAll, HashToMin]))
def test_stopped_run_repair_is_the_general_repair(g, pred, scheme):
    """A run that stops is repaired from the forest alone. On every stopped
    run that is the repair read from the last grown state, and the
    centralized answer."""
    grown = engine.run(g, scheme(), 100, stop=lambda state: stop_round(g, state, pred))
    res = run_slc(g, scheme.name, pred, 100)
    assert (res.stopped, res.rounds) == (grown.stopped, grown.rounds)
    if res.stopped:
        f = slc._graph_forest(g)
        keep = slc._covered(f, *grown.final) & slc._standing(f, pred)
        general = slc._clusters(f, slc._highest(f, keep))
        assert res.clusters == general == centralized_slc(g, pred.kind, pred.param)
