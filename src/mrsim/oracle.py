"""Centralized reference answers used for verification. This module must stay
independent of the round engine and the hashing schemes: it may import graph
only, so simulator bugs cannot leak into the expected values. The components
come from graph's union-find over the CSR arrays, which graph's diameter
also runs, so the tests check the schemes against networkx as well, and the
benchmark against scipy.sparse.csgraph. The clustering runs Kruskal over a
union-find of plain Python lists and loads no scipy."""

from numbers import Integral, Real

from .graph import GraphError, components_nodes


def canonical_partition(groups):
    """Sort members and groups (by first member) for stable comparison."""
    out = [tuple(sorted(grp)) for grp in groups if len(grp) > 0]
    out.sort()
    return out


def union_find_components(g):
    """Connected components by union-find over the graph's arrays:
    graph.components_nodes, whose lists are already ascending and ordered
    by least member, as tuples."""
    return [tuple(c) for c in components_nodes(g)]


def _stopped(kind, param, size, max_internal_edge):
    if kind == "size":
        return size > param
    return kind == "dist" and max_internal_edge > param


def centralized_slc(g, kind, param=None):
    """Single-linkage clustering with a stop rule, computed in one pass.

    A cluster only ever merges with the cluster holding the other end of its
    lightest outgoing edge, so scanning edges ascending visits candidate
    merges in the order they would happen. A merge whose result satisfies the
    stop predicate is refused and freezes both sides: the blocked cluster's
    nearest neighbor can only grow from there, and the predicate only gets
    more satisfied as clusters grow, so no later merge involving either side
    is admissible. An edge that reaches a frozen cluster freezes the other
    side too. A frozen cluster never merges again, so the clusters are the
    union-find's own sets. The union-find is three lists (parent, size and
    frozen, the last two read at roots) with path halving and union by size.
    kind is "dist" (param = distance threshold, a real number in (0, 1]),
    "size" (param = size cap, an integer >= 1), or "never"; any other kind
    or param is a GraphError before any edge is read.
    """
    if g.edge_weights is None:
        raise GraphError("single-linkage clustering needs edge weights")
    if kind not in ("never", "size", "dist"):
        raise GraphError("unknown stop predicate kind %r" % (kind,))
    if kind == "dist" and not (isinstance(param, Real) and 0.0 < param <= 1.0):
        raise GraphError("dist threshold must be a real number in (0, 1], got %r"
                         % (param,))
    if kind == "size" and not (isinstance(param, Integral) and param >= 1):
        raise GraphError("size threshold must be an integer >= 1, got %r" % (param,))
    n = g.n
    parent = list(range(n))
    size = [1] * n
    frozen = [False] * n
    for w, u, v in g.sorted_edges():
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            continue
        if frozen[u] or frozen[v] or _stopped(kind, param, size[u] + size[v], w):
            frozen[u] = frozen[v] = True
        else:
            if size[u] < size[v]:
                u, v = v, u
            parent[v] = u
            size[u] += size[v]
    # Each node's root, found in increasing node order: every set's list is
    # ascending, and the sets come in the order of their least members.
    sets = {}
    for x in range(n):
        r = x
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        sets.setdefault(r, []).append(x)
    return [tuple(c) for c in sets.values()]
