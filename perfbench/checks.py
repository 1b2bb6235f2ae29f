"""Checks made apart from the program.

Components come from scipy's csgraph, size-capped single linkage from a
Kruskal pass written here, and the rest are properties the methods must
have. Every check returns None when the output passes and a message when it
does not; none of them imports mrsim.
"""

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


def _groups(labels):
    out = {}
    for v, lab in enumerate(labels):
        out.setdefault(lab, []).append(v)
    return sorted(tuple(grp) for grp in out.values())


def components_of(n, edges):
    """Connected components of the graph on 0..n-1 with these (u, v) edges,
    as sorted tuples in order of least member."""
    if not edges:
        return [(v,) for v in range(n)]
    u, v = np.array(edges, dtype=np.int64).T
    adj = coo_matrix((np.ones(len(u), dtype=np.int8), (u, v)), shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    return _groups(labels.tolist())


def size_capped_kruskal(n, weighted_edges, cap):
    """Single linkage over (w, u, v) edges: scan ascending and merge, except
    that a merge whose result would exceed cap members is rejected and
    freezes both sides, which then take part in no later merge."""
    parent = list(range(n))
    size = [1] * n
    frozen = [False] * n

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, u, v in sorted(weighted_edges):
        a, b = find(u), find(v)
        if a == b:
            continue
        if frozen[a] or frozen[b] or size[a] + size[b] > cap:
            frozen[a] = frozen[b] = True
            continue
        parent[a] = b
        size[b] += size[a]
    return _groups([find(v) for v in range(n)])


def matches(result, got, want, what):
    """A converged run whose output (components or clusters) equals want."""
    if not result.converged:
        return "did not converge in %d rounds" % result.rounds
    if got != want:
        return "output differs from %s" % what
    return None


def volume_cap(result, n, m):
    """hgtm-alt ships at most 2(|V|+|E|) ids in every round."""
    cap = 2 * (n + m)
    for r in result.per_round:
        if r.node_id_volume > cap:
            return "round %d shipped %d ids, over 2(|V|+|E|) = %d" % (
                r.round, r.node_id_volume, cap)
    return None


def gossip_rounds(result, d):
    """hash-to-all doubles the cluster radius each round, so it converges
    after ceil(log2 d) rounds plus the confirming one."""
    want = math.ceil(math.log2(d)) + 1
    if result.rounds != want:
        return "took %d rounds, want ceil(log2 %d)+1 = %d" % (result.rounds, d, want)
    return None


def log_rounds(result, n):
    """hash-to-min on a path converges within 4 log2 n rounds."""
    if result.rounds > 4 * math.log2(n):
        return "took %d rounds, over 4 log2 %d = %.1f" % (result.rounds, n, 4 * math.log2(n))
    return None


def star_ratio(plain, capped, factor=10):
    """The load cap keeps the phase-1 reducer peak at least factor times
    below plain hash-to-min's peak on a large star."""
    plain_peak = max(r.max_reducer_in for r in plain.per_round)
    capped_peak = max(r.max_reducer_in for r in capped.per_round[:capped.phase_split])
    if capped_peak * factor > plain_peak:
        return "phase-1 peak %d is not %dx below plain peak %d" % (
            capped_peak, factor, plain_peak)
    return None


def clustering_shape(n, adj, clusters, cap=None):
    """Clusters partition 0..n-1, each induces a connected subgraph, and
    none has more than cap members."""
    seen = [False] * n
    for c in clusters:
        if cap is not None and len(c) > cap:
            return "cluster of %d members over size cap %d" % (len(c), cap)
        for v in c:
            if not 0 <= v < n or seen[v]:
                return "node %r missing from the range or in two clusters" % (v,)
            seen[v] = True
        inside = set(c)
        reached = {c[0]}
        stack = [c[0]]
        while stack:
            for y in adj[stack.pop()]:
                if y in inside and y not in reached:
                    reached.add(y)
                    stack.append(y)
        if len(reached) != len(c):
            return "cluster starting at %d is not connected" % c[0]
    if not all(seen):
        return "node %d is in no cluster" % seen.index(False)
    return None
