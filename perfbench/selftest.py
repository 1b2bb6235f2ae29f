"""Self-test of the benchmark's checks: each must pass the program's real
output and reject a deliberately corrupted copy of it.

    python3 perfbench/selftest.py

Exits 0 when every check does both, 1 otherwise.
"""

import math
import sys
from dataclasses import replace

from run import import_program

import_program()

from mrsim import engine, graph, schemes, slc  # noqa: E402

import checks  # noqa: E402
from workloads import VARIANTS, WORKLOADS, Group  # noqa: E402


def run(g, name, tau=None):
    return engine.run(g, schemes.make_scheme(name, tau), 100000)


def bump(res, i, **changes):
    """res with round i's metrics changed."""
    per_round = list(res.per_round)
    per_round[i] = replace(per_round[i], **changes)
    return replace(res, per_round=per_round)


def move_node(parts):
    """Move the last member of the first multi-member part to the next part."""
    parts = [list(p) for p in parts]
    i = next(i for i, p in enumerate(parts) if len(p) > 1)
    j = (i + 1) % len(parts)
    parts[j].append(parts[i].pop())
    return sorted(tuple(sorted(p)) for p in parts)


def merge_two(parts):
    parts = list(parts)
    a, b = parts.pop(0), parts.pop(0)
    return sorted([tuple(sorted(a + b))] + parts)


def cases():
    """(name, check on the real output, check on the corrupted output)."""
    rnd = graph.gen_random(120, 0.02, seed=7)
    truth = checks.components_of(rnd.n, list(rnd.edges()))
    res = run(rnd, "hash-to-min")
    bad = replace(res, components=move_node(res.components))
    yield ("components vs csgraph", checks.matches(res, res.components, truth, "csgraph"),
           checks.matches(bad, bad.components, truth, "csgraph"))
    stalled = replace(res, converged=False)
    yield ("convergence", None, checks.matches(stalled, stalled.components, truth, "csgraph"))

    alt = run(rnd, "hgtm-alt")
    cap = 2 * (rnd.n + rnd.m)
    yield ("hgtm-alt volume cap", checks.volume_cap(alt, rnd.n, rnd.m),
           checks.volume_cap(bump(alt, 1, node_id_volume=cap + 1), rnd.n, rnd.m))

    tree = graph.gen_complete_binary_tree(255)
    gossip = run(tree, "hash-to-all")
    yield ("hash-to-all rounds", checks.gossip_rounds(gossip, 14),
           checks.gossip_rounds(replace(gossip, rounds=gossip.rounds + 1), 14))

    path, _ = graph.relabel_random(graph.gen_path(4096), 3)
    h2m = run(path, "hash-to-min")
    yield ("hash-to-min 4 log2 n rounds", checks.log_rounds(h2m, path.n),
           checks.log_rounds(replace(h2m, rounds=49), path.n))

    star = graph.gen_star(2001)
    plain, capped = run(star, "hash-to-min"), run(star, "hash-to-min-lb", 40)
    worse = bump(capped, 0, max_reducer_in=max(m.max_reducer_in for m in plain.per_round) // 5)
    yield ("star phase-1 ratio", checks.star_ratio(plain, capped), checks.star_ratio(plain, worse))

    wg = graph.gen_random(60, 0.12, seed=5, weighted=True)
    edges = [(w, u, v) for (u, v), w in wg.weights.items()]
    dist = slc.run_slc(wg, "hash-to-min", slc.StopPredicate("dist", 0.3), 1000)
    dtruth = checks.components_of(wg.n, [(u, v) for w, u, v in edges if w <= 0.3])
    yield ("dist:x vs threshold components",
           checks.matches(dist, dist.clusters, dtruth, "threshold components"),
           checks.matches(dist, merge_two(dist.clusters), dtruth, "threshold components"))
    size = slc.run_slc(wg, "hash-to-all", slc.StopPredicate("size", 5), 1000)
    struth = checks.size_capped_kruskal(wg.n, edges, 5)
    split = [c for c in size.clusters if len(c) > 1][0]
    halves = sorted([split[:1], split[1:]] + [c for c in size.clusters if c != split])
    yield ("size:s vs size-capped Kruskal",
           checks.matches(size, size.clusters, struth, "size-capped Kruskal"),
           checks.matches(size, halves, struth, "size-capped Kruskal"))

    shape = checks.clustering_shape(wg.n, wg.adj, size.clusters, 5)
    big = size.clusters
    while len(big[0]) <= 5:
        big = merge_two(big)
    yield ("clusters within size cap", shape, checks.clustering_shape(wg.n, wg.adj, big, 5))
    yield ("clusters cover every node", shape,
           checks.clustering_shape(wg.n, wg.adj, size.clusters[1:], 5))
    yield ("clusters disjoint", shape,
           checks.clustering_shape(wg.n, wg.adj, size.clusters + [size.clusters[0]], 5))
    far = [c for c in size.clusters if not set(c[1:]) & set(wg.adj[c[0]])]
    loose = sorted([tuple(sorted(size.clusters[0] + far[-1]))]
                   + [c for c in size.clusters[1:] if c != far[-1]])
    yield ("clusters connected", shape, checks.clustering_shape(wg.n, wg.adj, loose, None))

    # The workloads route each check to the operations it applies to.
    comps = WORKLOADS["components"]
    group = Group("path:64", graph.gen_path(64), VARIANTS, 63)
    outs = [comps.run(group, op) for op in group.ops]
    want = comps.want(group)
    yield ("components workload wiring", _any(comps.check(group, want, outs)),
           _any(comps.check(group, want, [bump(o, 0, node_id_volume=10 ** 6)
                                          if op[0] == "hgtm-alt" else o
                                          for op, o in zip(group.ops, outs)])))
    sl = WORKLOADS["slc"]
    group = Group("wrandom:60", wg, tuple((k, p, "hash-to-min") for k, p in (("dist", 0.3),
                                                                            ("size", 5))))
    outs = [sl.run(group, op) for op in group.ops]
    want = sl.want(group)
    broken = [(replace(res, clusters=merge_two(res.clusters)), n) for res, n in outs]
    yield ("slc workload wiring", _any(sl.check(group, want, outs)),
           _any(sl.check(group, want, broken)))


def _any(msgs):
    bad = [m for m in msgs if m is not None]
    return bad[0] if bad else None


def main():
    ok = True
    for name, real, corrupted in cases():
        good = real is None and corrupted is not None
        ok = ok and good
        print("%-34s %s  real: %s  corrupted: %s"
              % (name, "ok  " if good else "FAIL", real or "accepted", corrupted or "accepted"))
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
