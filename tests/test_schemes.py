"""Scheme behavior tests: frozen small traces, growth laws, terminal shapes."""

from dataclasses import replace

import pytest

from mrsim.engine import _unpack, run
from mrsim.graph import (Graph, gen_complete_binary_tree, gen_path, gen_random,
                         gen_star)
from mrsim.oracle import union_find_components
from mrsim.schemes import (SCHEME_NAMES, HashToAll, HashToMin, LbHashToMin,
                           make_scheme)


def ball(g, v, r):
    """Nodes within distance r of v."""
    dist = {v: 0}
    frontier = [v]
    d = 0
    while frontier and d < r:
        d += 1
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return tuple(sorted(dist))


def test_make_scheme_names_and_validation():
    for name in SCHEME_NAMES:
        assert make_scheme(name).name == name
    assert sorted(SCHEME_NAMES) == sorted(
        ["hash-min", "hash-to-all", "hash-to-min", "hgtm-alt",
         "hash-to-min-lb"])
    with pytest.raises(ValueError):
        make_scheme("nope")
    with pytest.raises(ValueError):
        make_scheme("hash-min", tau=3)
    # tau >= 1 is tested before int(tau): -inf and nan would fail in int().
    for bad in (-float("inf"), float("nan"), 0, 2.5, "3"):
        with pytest.raises(ValueError, match="positive integer or inf"):
            make_scheme("hash-to-min-lb", tau=bad)
    assert make_scheme("hash-to-min-lb").tau == float("inf")
    assert make_scheme("hash-to-min-lb", tau=5).tau == 5
    assert type(make_scheme("hash-to-min-lb", tau=5.0).tau) is int


def test_hash_min_path3_trace():
    res = run(gen_path(3), make_scheme("hash-min"), 50, record=True)
    assert res.snapshots == [((0,), (1,), (2,)),
                             ((0,), (0,), (1,)),
                             ((0,), (0,), (0,)),
                             ((0,), (0,), (0,))]
    assert res.converged
    assert res.rounds == 3
    assert res.components == [(0, 1, 2)]


def test_hash_min_rounds_track_path_length():
    res = run(gen_path(64), make_scheme("hash-min"), 200)
    assert res.converged
    assert res.rounds == 64


def test_hash_to_all_triangle_one_round():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    res = run(g, make_scheme("hash-to-all"), 50)
    assert res.converged
    assert res.rounds == 1
    assert res.components == [(0, 1, 2)]


def test_hash_to_all_cluster_radius_doubles():
    graphs = [gen_path(17), gen_complete_binary_tree(15),
              gen_random(24, 0.08, seed=2), gen_random(128, 0.02, seed=5)]
    for g in graphs:
        res = run(g, make_scheme("hash-to-all"), 64, record=True)
        assert res.converged
        for k, snap in enumerate(res.snapshots):
            for v in range(g.n):
                assert snap[v] == ball(g, v, 2 ** k)


def test_hash_to_min_worked_trace():
    g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5)])
    init = [(), (1, 2, 4), (), (), (), (3, 4, 5)]
    res = run(g, make_scheme("hash-to-min"), 50, initial_state=init,
              record=True)
    assert res.snapshots[1] == ((), (1, 2, 4), (1,), (3, 4, 5), (1, 3), (3,))
    assert res.snapshots[2] == ((), (1, 2, 3, 4), (1,), (1, 3, 4, 5), (1, 3),
                                (3,))
    assert res.snapshots[3][1] == (1, 2, 3, 4, 5)


def test_hash_to_min_terminal_shape():
    for seed in range(5):
        g = gen_random(80, 0.03, seed=seed)
        res = run(g, make_scheme("hash-to-min"), 200)
        assert res.converged
        final = _unpack(res.final)
        for comp in union_find_components(g):
            m = comp[0]
            assert final[m] == comp
            for v in comp[1:]:
                assert final[v] == (m,)
        assert res.components == union_find_components(g)


def test_hash_to_min_minimum_never_regresses():
    g = gen_random(120, 0.02, seed=7)
    res = run(g, make_scheme("hash-to-min"), 200, record=True)
    assert res.converged
    for before, after in zip(res.snapshots, res.snapshots[1:]):
        for v in range(g.n):
            if before[v] and after[v]:
                assert after[v][0] <= before[v][0]


def test_alternating_path6_trace():
    g = gen_path(6)
    res = run(g, make_scheme("hgtm-alt"), 100, record=True)
    assert res.snapshots[1] == ((0,), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
    assert res.snapshots[2] == ((0,), (0, 1), (0, 1, 2), (1, 2, 3), (2, 3, 4),
                                (3, 4, 5))
    assert res.snapshots[3] == ((0, 1, 2), (0, 3), (0, 4), (1, 5), (2,), (3,))
    assert res.snapshots[6] == ((0, 1, 2, 3, 4, 5), (0,), (0,), (0,), (0,),
                                (0,))
    assert res.converged
    assert res.rounds == 9
    assert res.components == [(0, 1, 2, 3, 4, 5)]
    cap = 2 * (g.n + 5)
    assert [m.node_id_volume for m in res.per_round[:3]] == [16, 16, 12]
    assert all(m.node_id_volume <= cap for m in res.per_round)


def test_lb_tau_inf_matches_plain_hash_to_min():
    for seed in range(4):
        g = gen_random(60, 0.05, seed=seed)
        plain = run(g, make_scheme("hash-to-min"), 200)
        lb = run(g, make_scheme("hash-to-min-lb"), 200)
        assert lb.converged
        assert lb.phase_split == plain.rounds
        assert lb.rounds == plain.rounds + 1
        assert lb.per_round[:lb.phase_split] == plain.per_round
        assert lb.components == plain.components


def test_lb_small_tau_still_partitions_correctly():
    graphs = [gen_path(32), gen_star(64), gen_random(100, 0.04, seed=1),
              gen_random(100, 0.01, seed=2)]
    for g in graphs:
        want = union_find_components(g)
        for tau in (1, 5):
            res = run(g, make_scheme("hash-to-min-lb", tau=tau), 400)
            assert res.converged
            assert res.components == want
            assert res.phase_split is not None
            assert 1 <= res.phase_split < res.rounds
            assert [m.round for m in res.per_round] == list(
                range(1, res.rounds + 1))


def test_lb_phase_two_equals_hash_to_min_on_the_contraction():
    """Phase 2 runs on the graph itself, seeded at the phase-1 labels. Ranks
    keep the labels' order, so its rounds must equal plain hash-to-min on
    the contracted graph, built here apart from the scheme."""
    graphs = [gen_random(150, 0.03, seed=4), gen_star(300), gen_random(100, 0.01, seed=2),
              Graph(61, [(v, v + 1) for v in range(1, 60)] + [(0, 60)])]
    for g in graphs:
        for tau in (1, 5, None):
            res = run(g, make_scheme("hash-to-min-lb", tau=tau), 1000)
            labels = [st[0] if st else v for v, st in enumerate(_unpack(res.final))]
            rank = {lab: i for i, lab in enumerate(sorted(set(labels)))}
            edges = {tuple(sorted((rank[labels[u]], rank[labels[v]])))
                     for u, v in g.edges() if labels[u] != labels[v]}
            ref = run(Graph(len(rank), sorted(edges)), HashToMin(), 1000)
            assert res.converged and ref.converged, (g.n, tau)
            phase2 = [replace(m, round=m.round - res.phase_split)
                      for m in res.per_round[res.phase_split:]]
            assert phase2 == ref.per_round, (g.n, tau)
            assert res.components == union_find_components(g)


def test_lb_splits_oversized_clusters_in_phase_one():
    g = gen_star(50)
    tau = 5
    res = run(g, make_scheme("hash-to-min-lb", tau=tau), 400, record=True)
    assert res.converged
    phase1 = res.snapshots[1:res.phase_split + 1]
    grew = False
    for snap in phase1:
        grew = grew or any(len(st) > tau for st in snap)
    assert grew is True
    assert res.components == union_find_components(g)


def test_lb_hub_split_initial_clusters():
    # center 0 is a hub; its leaves, in id order, go out in runs of tau
    assert list(_unpack(LbHashToMin(3).init_state(gen_star(12)))) == [
        (0, 1, 2, 3), (1,), (2,), (3,), (4, 5, 6), (5,), (6,), (7, 8, 9),
        (8,), (9,), (10, 11), (11,)]
    # hubs 0, 1 and 4 keep their hub-hub edges on both sides
    g = Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (1, 5), (1, 6),
                  (1, 7)])
    assert list(_unpack(LbHashToMin(2).init_state(g))) == [
        (0, 1, 2, 3, 4), (0, 1, 4, 5, 6), (2,), (3,), (0, 1, 4), (5,), (6,),
        (7,)]


def test_lb_hub_split_caps_whole_run_peak_on_star():
    g = gen_star(2001)
    plain = run(g, make_scheme("hash-to-min"), 400)
    lb = run(g, make_scheme("hash-to-min-lb", tau=40), 400)
    assert lb.converged
    assert lb.components == plain.components
    plain_max = max(m.max_reducer_in for m in plain.per_round)
    lb_max = max(m.max_reducer_in for m in lb.per_round)
    assert plain_max >= 10 * lb_max, (plain_max, lb_max)


def test_lb_far_end_path_round_counts():
    """The least id hangs off the largest end of a path. Phase 1 of lb then
    moves the minimum about one hop a round at small tau. These counts pin
    the present split rule; ROADMAP item 5 may change it, and must then edit
    them on purpose."""
    g = Graph(301, [(v, v + 1) for v in range(1, 300)] + [(0, 300)])
    want = union_find_components(g)
    for name, tau, rounds in [("hash-to-min", None, 11),
                              ("hash-to-min-lb", None, 12),
                              ("hash-to-min-lb", 1, 302),
                              ("hash-to-min-lb", 5, 375)]:
        res = run(g, make_scheme(name, tau=tau), 1000)
        assert res.converged and res.components == want, (name, tau)
        assert res.rounds == rounds, (name, tau)


def test_all_schemes_agree_on_disconnected_graph():
    g = Graph(7, [(0, 3), (3, 5), (1, 6)])
    want = union_find_components(g)
    for name in SCHEME_NAMES:
        res = run(g, make_scheme(name), 100)
        assert res.converged
        assert res.components == want
