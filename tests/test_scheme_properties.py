"""Property tests for the component schemes on small generated graphs.

Every gate variant, plus hash-to-min-lb at tau=2, runs as run drives it
(every scheme on the columnar round, both phases of lb included, and
hash-min and hgtm-alt through their merge_arrays) and on the per-node path
(hash_arrays hidden, lb's phase 2 included). Both must agree byte for
byte, converge to the oracle's partition and to networkx's, and keep every
recorded cluster strictly increasing within 0..n-1. The per-round metrics
of the schemes that run wholly on hash and merge equal a tally taken
around those calls. hash-to-min-lb's start state follows its edge rule,
checked edge by edge, and every scheme's init_state, CSR arrays, equals an
independent reference. lb's phase-2 start state equals the per-node loop it
replaced.
"""

from math import inf
from unittest import mock

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mrsim import engine, schemes
from mrsim.engine import result_to_json, run
from mrsim.graph import Graph
from mrsim.oracle import union_find_components
from test_engine import CountingScheme

VARIANTS = [("hash-min", None), ("hash-to-all", None), ("hash-to-min", None),
            ("hgtm-alt", None), ("hash-to-min-lb", 1), ("hash-to-min-lb", 2),
            ("hash-to-min-lb", 5), ("hash-to-min-lb", inf)]


class PerNodeHashToMin(schemes.HashToMin):
    hash_arrays = None


@st.composite
def graphs(draw, max_n=40):
    """A graph on at most max_n nodes under a random relabeling: a random
    edge set of up to 2n edges (often disconnected, with isolated nodes),
    a path, a star, or a set of disjoint paths. n <= 1 is drawn often."""
    n = draw(st.one_of(st.integers(0, 1), st.integers(0, max_n)))
    kind = draw(st.sampled_from(["random", "path", "star", "paths"]))
    if kind == "random":
        node = st.integers(0, max(n - 1, 0))
        pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
        edges = {(min(e), max(e)) for e in pairs if e[0] != e[1]}
    elif kind == "path":
        edges = {(v, v + 1) for v in range(n - 1)}
    elif kind == "star":
        edges = {(0, v) for v in range(1, n)}
    else:
        cuts = draw(st.sets(st.integers(0, max(n - 2, 0))))
        edges = {(v, v + 1) for v in range(n - 1) if v not in cuts}
    perm = draw(st.permutations(range(n)))
    return Graph(n, sorted((perm[u], perm[v]) for u, v in edges))


def nx_components(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return sorted(tuple(sorted(c)) for c in nx.connected_components(h))


def run_variant(g, name, tau, per_node):
    scheme = schemes.make_scheme(name, tau)
    if not per_node:
        return run(g, scheme, 100000, record=True)
    scheme.hash_arrays = None
    # lb's finalize builds its phase-2 scheme from the module global.
    with mock.patch.object(schemes, "HashToMin", PerNodeHashToMin):
        return run(g, scheme, 100000, record=True)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(graphs())
def test_component_schemes_match_oracles_on_both_paths(g):
    want = union_find_components(g)
    assert want == nx_components(g)
    for name, tau in VARIANTS:
        fast = run_variant(g, name, tau, per_node=False)
        slow = run_variant(g, name, tau, per_node=True)
        assert result_to_json(fast) == result_to_json(slow), (name, tau)
        assert fast.snapshots == slow.snapshots, (name, tau)
        assert fast.converged and fast.components == want, (name, tau)
        for snap in fast.snapshots:
            assert len(snap) == g.n
            for c in snap:
                assert all(0 <= v < g.n for v in c), (name, tau, c)
                assert all(a < b for a, b in zip(c, c[1:])), (name, tau, c)


# lb is left out: its phase 2 runs inside finalize, which the tally never sees.
TALLIED = ["hash-min", "hash-to-all", "hash-to-min", "hgtm-alt"]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(graphs())
def test_metrics_match_a_tally_of_hash_and_merge(g):
    for name in TALLIED:
        # The wrapper has no hash_arrays, so run calls hash and merge per
        # node; the test above holds the columnar round to the same metrics.
        wrapped = CountingScheme(schemes.make_scheme(name, None))
        res = run(g, wrapped, 100000)
        assert res.converged, name
        assert set(wrapped.rounds) <= {m.round for m in res.per_round}, name
        for m in res.per_round:
            rec = wrapped.tally(m.round)
            assert m.messages == rec["messages"], (name, m.round)
            assert m.node_id_volume == rec["volume"], (name, m.round)
            assert m.max_reducer_in == max(rec["per_key"].values(), default=0), (name, m.round)
            assert m.total_state == rec["state"], (name, m.round)


def lb_start_reference(g, tau):
    """hash-to-min-lb's start state from its edge rule, one edge at a time.
    Hub-hub and non-hub-non-hub edges are held on both sides. The hub of a
    hub-non-hub edge holds it when the non-hub is among its first tau
    non-hub neighbors in id order; otherwise the least id of the run of tau
    that the non-hub falls in holds it."""
    hub = [len(g.adj[v]) + 1 > tau for v in range(g.n)]
    held = [{v} for v in range(g.n)]
    for u, v in g.edges():
        if hub[u] == hub[v]:
            held[u].add(v)
            held[v].add(u)
            continue
        h, x = (u, v) if hub[u] else (v, u)
        rest = sorted(w for w in g.adj[h] if not hub[w])
        i = rest.index(x)
        held[h if i < tau else rest[i - i % tau]].add(x)
    return [tuple(sorted(c)) for c in held]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(graphs(), st.sampled_from([1, 2, 3, 5, inf]))
def test_lb_start_state_follows_the_edge_rule(g, tau):
    got = engine._unpack(schemes.LbHashToMin(tau).init_state(g))
    assert list(got) == lb_start_reference(g, tau)
    if tau == inf:
        assert got == engine._unpack(schemes.HashToMin().init_state(g))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(graphs(), st.sampled_from([1, 2, 3, 5, inf]))
def test_init_state_matches_independent_references(g, tau):
    closed = [tuple(sorted({v, *g.adj[v]})) for v in range(g.n)]
    single = [(v,) for v in range(g.n)]
    want = {schemes.HashMin(): single, schemes.AlternatingHGTM(): single,
            schemes.HashToAll(): closed, schemes.HashToMin(): closed,
            schemes.LbHashToMin(tau): lb_start_reference(g, tau)}
    for scheme, ref in want.items():
        lens, ids = scheme.init_state(g)
        assert lens.dtype == np.intp and ids.dtype == np.int32, scheme.name
        assert list(engine._unpack((lens, ids))) == ref, scheme.name


def lb_phase2_reference(g, labels):
    """The phase-2 start state as a loop over the nodes: each label holds
    itself and the labels of its members' neighbors."""
    seed = [[] for _ in range(g.n)]
    for v, a in enumerate(g.adj):
        s = seed[labels[v]]
        s.append(labels[v])
        s.extend(labels[u] for u in a)
    return [tuple(sorted(set(s))) for s in seed]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(graphs(), st.sampled_from([1, 2, 3, 5, inf]))
def test_lb_phase2_seed_matches_the_node_loop(g, tau):
    seeds = []

    def spy(g, scheme, max_rounds, initial_state=None, **kwargs):
        seeds.append(initial_state)
        return run(g, scheme, max_rounds, initial_state=initial_state, **kwargs)
    # finalize starts phase 2 through the module attribute.
    with mock.patch.object(engine, "run", spy):
        res = run(g, schemes.LbHashToMin(tau), 100000)
    (seed,) = seeds
    # res.final is phase 1's fixpoint; a label is a cluster's least id.
    labels = [c[0] if c else v for v, c in enumerate(engine._unpack(res.final))]
    assert seed[0].size == g.n
    assert list(engine._unpack(seed)) == lb_phase2_reference(g, labels)
