"""Centralized reference answers used for verification. This module must stay
independent of the round engine and the hashing schemes: it may import graph
only, so simulator bugs cannot leak into the expected values. The components
come from graph's breadth-first search, which graph's diameter also runs, so
the tests check the schemes against networkx as well, and the benchmark
against scipy.sparse.csgraph."""

from numbers import Integral, Real

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
    DisjointSet's own sets.
    kind is "dist" (param = distance threshold, a real number in (0, 1]),
    "size" (param = size cap, an integer >= 1), or "never"; any other kind
    or param is a GraphError before any edge is read. scipy is imported
    here, so that importing the oracle does not load it.
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
