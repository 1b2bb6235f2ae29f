"""Centralized reference answers used for verification. This module must stay
independent of the round engine and the hashing schemes: it may import graph
only, so simulator bugs cannot leak into the expected values. The components
come from graph's breadth-first search, which graph's diameter also runs, so
the tests check the schemes against networkx as well, and the benchmark
against scipy.sparse.csgraph."""

from scipy.cluster.hierarchy import DisjointSet

from .graph import GraphError, components_nodes


def canonical_partition(groups):
    """Sort members and groups (by first member) for stable comparison."""
    out = [tuple(sorted(grp)) for grp in groups if len(grp) > 0]
    out.sort()
    return out


def union_find_components(g):
    """Connected components by breadth-first search: graph.components_nodes,
    whose lists are already ascending and ordered by least member, as
    tuples."""
    return [tuple(c) for c in components_nodes(g)]


def _stopped(kind, param, size, max_internal_edge):
    if kind == "never":
        return False
    if kind == "size":
        return size > param
    if kind == "dist":
        return max_internal_edge > param
    raise GraphError("unknown stop predicate kind %r" % kind)


def centralized_slc(g, kind, param=None):
    """Single-linkage clustering with a stop rule, computed in one pass.

    A cluster only ever merges with the cluster holding the other end of its
    lightest outgoing edge, so scanning edges ascending visits candidate
    merges in the order they would happen. A merge whose result satisfies the
    stop predicate is rejected and freezes both sides: the blocked cluster's
    nearest neighbor can only grow from there, and the predicate only gets
    more satisfied as clusters grow, so no later merge involving either side
    is admissible. Frozen sides are emitted as final clusters, read off the
    DisjointSet's own subsets; the union still proceeds internally only to
    mark the merged set dead, so no node is emitted twice.
    kind is "dist" (param = distance threshold), "size" (param = size cap),
    or "never".
    """
    if g.edge_weights is None:
        raise GraphError("single-linkage clustering needs edge weights")
    ds = DisjointSet(range(g.n))
    alive = {v: True for v in range(g.n)}
    out = []
    for w, u, v in g.sorted_edges():
        ru = ds[u]
        rv = ds[v]
        if ru == rv:
            continue
        size = ds.subset_size(ru) + ds.subset_size(rv)
        keep = alive[ru] and alive[rv] and not _stopped(kind, param, size, w)
        if not keep:
            if alive[ru]:
                out.append(ds.subset(ru))
            if alive[rv]:
                out.append(ds.subset(rv))
        alive.pop(ru)
        alive.pop(rv)
        ds.merge(u, v)
        alive[ds[u]] = keep
    for r, live in alive.items():
        if live:
            out.append(ds.subset(r))
    return canonical_partition(out)
