"""Acceptance gate: one test per stated criterion, in order.

The two clustering benchmarks share a session fixture, as do the shuffled-path
round sweeps. Soft targets warn instead of failing; every other check is hard.
"""

import math
import time
import warnings
from math import inf

import pytest

from mrsim.engine import run
from mrsim.graph import (diameter, gen_complete_binary_tree, gen_path,
                         gen_random, gen_star, relabel_random)
from mrsim.oracle import centralized_slc, union_find_components
from mrsim.schemes import make_scheme
from mrsim.slc import StopPredicate, run_slc

ALL_VARIANTS = [("hash-min", None), ("hash-to-all", None),
                ("hash-to-min", None), ("hgtm-alt", None),
                ("hash-to-min-lb", 1), ("hash-to-min-lb", 5),
                ("hash-to-min-lb", None)]
NO_GOSSIP = [v for v in ALL_VARIANTS if v[0] != "hash-to-all"]


def _check_partition(g, variants):
    want = union_find_components(g)
    for name, tau in variants:
        res = run(g, make_scheme(name, tau), 100000)
        assert res.converged, (name, tau, g.n)
        assert res.components == want, (name, tau, g.n)


def _ladder_variants(caps, size):
    return [(name, tau) for name, tau in ALL_VARIANTS
            if size <= caps.get(name, 4100)]


def test_all_component_schemes_match_union_find():
    t0 = time.monotonic()
    for i in range(200):
        n = 50 + (i * 7) % 101
        p = (0.001, 0.005, 0.02)[i % 3]
        _check_partition(gen_random(n, p, seed=i), ALL_VARIANTS)
    # larger randoms up to the stated size cap; full gossip grows
    # quadratically in component size and is exercised separately above
    for n in (500, 2000):
        for j, p in enumerate((0.001, 0.005, 0.02)):
            _check_partition(gen_random(n, p, seed=j), NO_GOSSIP)
    path_caps = {"hash-min": 1024, "hash-to-all": 128, "hash-to-min": 512,
                 "hash-to-min-lb": 512}
    for size in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096):
        _check_partition(gen_path(size), _ladder_variants(path_caps, size))
    tree_caps = {"hash-to-all": 511}
    for size in (15, 63, 255, 1023, 4095):
        _check_partition(gen_complete_binary_tree(size),
                         _ladder_variants(tree_caps, size))
    star_caps = {"hash-to-all": 129}
    for size in (17, 129, 1025, 4097):
        _check_partition(gen_star(size), _ladder_variants(star_caps, size))
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, "budget exceeded: %.1fs" % elapsed


def test_full_gossip_rounds_track_log_diameter():
    graphs = [gen_path(n) for n in (2, 4, 8, 16, 32, 64, 128)]
    graphs += [gen_complete_binary_tree(n) for n in (3, 7, 15, 31, 63, 127)]
    for g in graphs:
        d = diameter(g)
        res = run(g, make_scheme("hash-to-all"), 100)
        assert res.converged
        assert res.rounds == math.ceil(math.log2(d)) + 1, (g.n, d, res.rounds)
    # beyond engine-affordable sizes the radius-doubling law fixes the count:
    # after round k each node holds its radius 2^k ball, so the confirming
    # repeat happens at the first k with 2^(k-1) covering the diameter
    for exp in range(8, 15):
        for g in (gen_path(2 ** exp), gen_complete_binary_tree(2 ** exp - 1)):
            d = diameter(g)
            predicted = next(k for k in range(1, 64) if 2 ** (k - 1) >= d)
            assert predicted == math.ceil(math.log2(d)) + 1, (g.n, d)


@pytest.fixture(scope="session")
def shuffled_path_sweep():
    data = {}
    for exp in range(5, 16):
        n = 2 ** exp
        g = gen_path(n)
        runs = []
        for seed in range(1, 11):
            gs, _ = relabel_random(g, seed)
            res = run(gs, make_scheme("hash-to-min"), 100000)
            assert res.converged
            runs.append(res)
        data[n] = runs
    return data


def test_min_propagation_rounds_within_4log_on_paths(shuffled_path_sweep):
    for n, runs in shuffled_path_sweep.items():
        worst = max(r.rounds for r in runs)
        assert worst <= 4 * math.log2(n), (n, worst)


def test_min_propagation_soft_targets(shuffled_path_sweep):
    for n, runs in shuffled_path_sweep.items():
        d = n - 1
        cap_rounds = math.ceil(2 * math.log2(d))
        worst = max(r.rounds for r in runs)
        if worst > cap_rounds:
            warnings.warn("paths n=%d: worst rounds %d over soft cap %d"
                          % (n, worst, cap_rounds))
        maxes = [max(m.total_state for m in r.per_round) for r in runs]
        mean_max = sum(maxes) / len(maxes)
        cap_state = 3 * (n + n - 1)
        if mean_max > cap_state:
            warnings.warn("paths n=%d: mean peak state %.0f over soft cap %d"
                          % (n, mean_max, cap_state))


def _alternating_runs(g, orderings):
    cap = 2 * (g.n + g.m)
    rounds = []
    for seed in range(orderings):
        gs = g if seed == 0 else relabel_random(g, seed)[0]
        res = run(gs, make_scheme("hgtm-alt"), 100000)
        assert res.converged
        for m in res.per_round:
            assert m.node_id_volume <= cap, (g.n, seed, m.round)
        rounds.append(res.rounds)
    return rounds


def test_alternating_volume_cap_and_mean_rounds():
    for g in (gen_path(4096), gen_complete_binary_tree(4095), gen_star(4097)):
        _alternating_runs(g, 1)
    for n, p in ((300, 0.01), (1024, 0.003), (2048, 0.0015)):
        g = gen_random(n, p, seed=1)
        n_big = max(len(c) for c in union_find_components(g))
        rounds = _alternating_runs(g, 20)
        mean_rounds = sum(rounds) / len(rounds)
        assert mean_rounds <= 1.5 * 3 * math.log2(n_big), (n, mean_rounds)


def test_alternating_min_holders_match_cluster_tails():
    for i in range(100):
        n = 20 + (i * 24) % 481
        p = min(0.5, (2.0 / n, 4.0 / n, 0.02)[i % 3])
        g = gen_random(n, p, seed=1000 + i)
        res = run(g, make_scheme("hgtm-alt"), 100000, record=True)
        assert res.converged
        for r in range(3, res.rounds + 1, 3):
            snap = res.snapshots[r]
            holders = {}
            for v, st in enumerate(snap):
                if st:
                    holders.setdefault(st[0], set()).add(v)
            for m, vs in holders.items():
                assert vs == set(u for u in snap[m] if u >= m), (i, r, m)


def _clustering_bench_instances():
    """200 connected weighted graphs, diameter <= 4, with a light edge so
    every stop rule keeps at least one merged pair."""
    out = []
    seed = 0
    for i in range(200):
        n = 20 + (i * 13) % 81
        p = min(0.5, 6.5 / n)
        while True:
            g = gen_random(n, p, seed=seed, weighted=True)
            seed += 1
            if (len(union_find_components(g)) == 1 and diameter(g) <= 4
                    and min(g.weight(u, v) for u, v in g.edges()) < 0.1):
                out.append(g)
                break
    return out


@pytest.fixture(scope="session")
def clustering_bench():
    preds = [("dist", t / 10) for t in range(1, 10)]
    preds += [("size", s) for s in (2, 5, 20)]
    records = []
    t0 = time.monotonic()
    for g in _clustering_bench_instances():
        for kind, param in preds:
            want = centralized_slc(g, kind, param)
            for algo in ("hash-to-all", "hash-to-min"):
                res = run_slc(g, algo, StopPredicate(kind, param), 1000)
                records.append((g, want, res))
    return time.monotonic() - t0, records


def test_distributed_clustering_matches_centralized(clustering_bench):
    elapsed, records = clustering_bench
    for g, want, res in records:
        assert res.converged, (g.n, res.stop, res.algo)
        assert res.clusters == want, (g.n, res.stop, res.algo)
    assert elapsed < 180.0, "budget exceeded: %.1fs" % elapsed


def test_clustering_round_bound_tracks_largest_cluster(clustering_bench):
    _, records = clustering_bench
    for g, _, res in records:
        if res.algo != "hash-to-all":
            continue
        n_max = max(len(c) for c in res.clusters)
        assert res.rounds <= math.ceil(math.log2(n_max)) + 2, (
            g.n, res.rounds, n_max)


def test_core_decomposition_exhaustive_small_graphs():
    from mrsim.slc import mcd
    for n, p, seed in [(10, 0.4, 0), (11, 0.35, 1), (12, 0.3, 2),
                       (12, 0.35, 3), (12, 0.4, 4)]:
        g = gen_random(n, p, seed=seed, weighted=True)
        _exhaustive_core_check(g)


def _exhaustive_core_check(g):
    n = g.n
    adj = g.adj
    wedge = {(u, v): g.weight(u, v) for u, v in g.edges()}

    def connected(mask):
        start = (mask & -mask).bit_length() - 1
        seen = 1 << start
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                b = 1 << v
                if mask & b and not seen & b:
                    seen |= b
                    stack.append(v)
        return seen == mask

    def members(mask):
        return tuple(v for v in range(n) if mask >> v & 1)

    def top_split(mask):
        # last union while scanning induced edges ascending is the top merge
        ms = members(mask)
        uf = {v: v for v in ms}

        def find(x):
            while uf[x] != x:
                uf[x] = uf[uf[x]]
                x = uf[x]
            return x

        es = sorted((w, u, v) for (u, v), w in wedge.items()
                    if mask >> u & 1 and mask >> v & 1)
        last = None
        for w, u, v in es:
            ru, rv = find(u), find(v)
            if ru != rv:
                uf[ru] = rv
                last = w
        halves = []
        seen_all = 0
        for s in ms:
            b = 1 << s
            if seen_all & b:
                continue
            comp = b
            stack = [s]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    by = 1 << y
                    if (mask & by and not comp & by
                            and wedge[(x, y) if x < y else (y, x)] < last):
                        comp |= by
                        stack.append(y)
            seen_all |= comp
            halves.append(comp)
        return last, halves

    core_memo = {}

    def brute_core(mask):
        got = core_memo.get(mask)
        if got is not None:
            return got
        if mask & (mask - 1) == 0:
            core_memo[mask] = True
            return True
        wmax, halves = top_split(mask)
        ok = len(halves) == 2
        if ok:
            for h in halves:
                ext = inf
                for u in members(h):
                    for v in adj[u]:
                        if not mask >> v & 1:
                            w = wedge[(u, v) if u < v else (v, u)]
                            if w < ext:
                                ext = w
                if ext <= wmax:
                    ok = False
                    break
        if ok:
            ok = all(brute_core(h) for h in halves)
        core_memo[mask] = ok
        return ok

    from mrsim.slc import mcd
    conn = [m for m in range(1, 1 << n) if connected(m)]
    cores = [m for m in conn if brute_core(m)]
    for cmask in conn:
        pieces = mcd(g, members(cmask))
        pmasks = []
        acc = 0
        for piece in pieces:
            pm = 0
            for v in piece:
                pm |= 1 << v
            pmasks.append(pm)
            assert acc & pm == 0
            acc |= pm
            assert brute_core(pm), (cmask, pm)
        assert acc == cmask
        for s in cores:
            if s & cmask == s:
                assert any(s & pm == s for pm in pmasks), (cmask, s)


def test_load_capped_star_partition_correct():
    g = gen_star(10001)
    res = run(g, make_scheme("hash-to-min-lb", 100), 100000)
    assert res.converged
    assert res.components == union_find_components(g)


def test_load_capped_star_reducer_ratio_target():
    g = gen_star(10001)
    plain = run(g, make_scheme("hash-to-min"), 100000)
    capped = run(g, make_scheme("hash-to-min-lb", 100), 100000)
    plain_max = max(m.max_reducer_in for m in plain.per_round)
    capped_max = max(m.max_reducer_in
                     for m in capped.per_round[:capped.phase_split])
    ratio = plain_max / capped_max
    assert ratio >= 10.0, "measured reducer-load ratio %.3f" % ratio
