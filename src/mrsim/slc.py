"""Distributed single-linkage clustering on the round engine.

Clusters grow by blind union rounds (hash-to-all or hash-to-min emissions on
closed neighborhoods) driven by engine.run, the distributed stop check is
run's stop test after every round, on the engine's CSR state, and a final
split-repair pass undoes merges the last rounds overshot.

Cluster analysis runs on single-linkage merge forests, all built by one
Kruskal (_forest) on the subgraph induced by a member list, with the leaves
laid out so that the members under each node are one slice. The induced
edges are gathered from the graph's CSR arrays and sorted by weight there;
the union-find loop runs over Python lists. A cluster's own tree serves
Stop_local and the connectivity checks. The stop check and the repair read
masks over the whole graph's forest, which is built once per Graph object,
on first use, and kept on it (the graph is immutable), so every round's
stop check, the repair and every later run on the graph share it. A node
is covered when one cluster holds its slice, and stands when Stop_local
does not stop it. Leaves always stand, and Stop_local is monotone up the
forest, so a node's standing ancestors form a chain up from it.

Cores come off the forest of the whole graph, because a connected set is a
core (every recursive split gives two mutually nearest halves) exactly when
it is a node of that forest. By induction on size: split a set S at the top
merge w of its own tree into halves A and B. The lightest edge between A and
B weighs w, or S's tree would have joined them earlier.
- S is a forest node iff A and B are and no edge leaving S weighs less than
  w: then A and B meet nothing before the edge of weight w joins them, and a
  lighter edge leaving S would have grown A or B first.
- A and B are mutually nearest iff the lightest edge leaving each goes to
  the other, that is iff no edge leaving S weighs less than w.
A single node is both, and a core is a set whose halves are mutually nearest
cores, so the two notions agree at every size. Two forest nodes are nested
or disjoint. So the maximal cores of a cluster are the highest forest nodes
whose slice lies inside it, and two distinct cores never tie for a node.

One rule reads the stop check and the repair off the two masks. For a leaf
v, let h be its highest standing ancestor and c its core, its highest
covered ancestor. A cluster that holds a node's slice holds its children's
too, so the covered nodes also form a chain up from v.
- c is stopped iff h lies strictly under c, that is iff h has a parent and
  that parent is covered.
- Every highest standing node is the h of the leaves under it, so the stop
  check (every leaf's core stopped) holds iff every highest standing node
  has a covered parent. A standing root has no parent and fails it.
- The repair keeps, for each leaf, its highest covered node that stands:
  the highest nodes of covered & standing. When the stop check holds, each
  leaf's h is covered, so the repair is the highest standing nodes.
"""

from dataclasses import dataclass
from numbers import Integral, Real
from operator import index

import numpy as np

from . import engine
from .graph import GraphError
from .schemes import HashToAll, HashToMin


class StopPredicate:
    """Monotone per-cluster stop rule: once true it stays true as the cluster
    grows along the merge tree."""

    def __init__(self, kind, param=None):
        if kind == "dist":
            if not (isinstance(param, Real) and 0.0 < param <= 1.0):
                raise GraphError("distance threshold must be in (0, 1]")
            param = float(param)
        elif kind == "size":
            if not (isinstance(param, Integral) and param >= 1):
                raise GraphError("size threshold must be an integer >= 1")
            param = int(param)
        elif kind == "never":
            param = None
        else:
            raise GraphError("unknown stop predicate %r" % kind)
        self.kind = kind
        self.param = param

    @classmethod
    def parse(cls, text):
        """Parse 'dist:0.35', 'size:100', or 'never'."""
        if text == "never":
            return cls("never")
        kind, sep, arg = text.partition(":")
        if not sep or kind not in ("dist", "size"):
            raise GraphError("bad stop spec %r (want dist:x, size:n, never)" % text)
        try:
            param = float(arg) if kind == "dist" else int(arg)
        except ValueError:
            raise GraphError("bad stop parameter in %r" % text) from None
        return cls(kind, param)

    def stopped(self, size, max_internal_edge):
        if self.kind == "never":
            return False
        if self.kind == "size":
            return size > self.param
        return max_internal_edge > self.param

    def local(self, g, c):
        """Stop_local on one connected cluster of a weighted graph: the rule
        on its size and its top merge-tree edge."""
        f, r, _ = _tree(g, c)
        return bool(self.stopped(f.size[r], f.topw[r]))

    def __str__(self):
        if self.kind == "never":
            return "never"
        if self.kind == "dist":
            return "dist:%g" % self.param
        return "size:%d" % self.param


class _Forest:
    """Merge forest of the subgraph induced by some members: leaves 0..k-1
    are the members in the given order, and internal nodes follow in merge
    (ascending weight) order. lo, size, topw and parent are arrays over the
    nodes, parent -1 at a root. The members under node t are
    order[lo[t]:lo[t] + size[t]]."""

    __slots__ = ("order", "lo", "size", "topw", "parent", "roots")


def _forest(g, members):
    """Kruskal on the subgraph of g induced by members, distinct node ids.
    The induced edges are gathered from g's CSR arrays through one array of
    entry positions, each edge once (from its lesser end), and taken in
    ascending weight order; weights are distinct, so no tie needs a rule."""
    if g.edge_weights is None:
        raise GraphError("cluster analysis needs edge weights")
    members = np.asarray(members, np.intp)
    k = members.size
    idx = np.full(g.n, -1, np.intp)
    idx[members] = np.arange(k)
    first = g.indptr[members]
    count = g.indptr[members + 1] - first
    pos = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
    u, v = g.rows[pos], g.indices[pos]
    pos = pos[(u < v) & (idx[v] >= 0)]
    pos = pos[np.argsort(g.edge_weights[pos])]
    # off[t] is where node t's slice starts inside its parent's.
    size, topw, parent, off = [1] * k, [0.0] * k, [-1] * k, [0] * k
    uf = list(range(k))
    node_of = list(range(k))
    for w, ri, rj in zip(g.edge_weights[pos].tolist(), idx[g.rows[pos]].tolist(),
                         idx[g.indices[pos]].tolist()):
        # Find both roots, halving the paths.
        while uf[ri] != ri:
            uf[ri] = ri = uf[uf[ri]]
        while uf[rj] != rj:
            uf[rj] = rj = uf[uf[rj]]
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
        if len(size) == 2 * k - 1:
            break  # one tree holds every member: no edge left can merge
    # Parents come after their children, so walking down from the last node
    # places each parent before its children read its lo; roots go end to end.
    lo, at = [0] * len(size), 0
    for t in range(len(size) - 1, -1, -1):
        if parent[t] < 0:
            lo[t], at = at, at + size[t]
        else:
            lo[t] = lo[parent[t]] + off[t]
    f = _Forest()
    f.size, f.parent, f.lo = (np.array(a, np.intp) for a in (size, parent, lo))
    f.topw = np.array(topw, float)
    f.roots = np.flatnonzero(f.parent < 0)
    order = np.empty(k, np.intp)
    order[f.lo[:k]] = members
    f.order = order.tolist()
    return f


def _tree(g, c):
    """A connected cluster's own merge tree, its root, and its ids as a
    sorted tuple of ints. The cluster may be any collection of ids, a set
    included; each id must pass operator.index, as Graph.weight's ends do:
    a float id is refused, never truncated."""
    try:
        c = tuple(sorted(map(index, c)))
    except TypeError:
        raise GraphError("cluster %r must hold integer ids" % (c,)) from None
    if not c:
        raise GraphError("empty cluster")
    if c[0] < 0 or c[-1] >= g.n:
        raise GraphError("cluster %r has ids outside 0..%d" % (c, g.n - 1))
    if any(a == b for a, b in zip(c, c[1:])):
        raise GraphError("cluster %r repeats an id" % (c,))
    f = _forest(g, c)
    if len(f.roots) != 1:
        raise GraphError("cluster %r is not connected" % (c,))
    return f, f.roots[0], c


def _covered(f, lens, ids):
    """The nodes of the graph's forest f (leaf v is node v) that one of the
    CSR clusters (lens, ids) holds whole, as a mask: its highest nodes are
    each node's largest core among the clusters. A cluster holds a node
    whole when one run of consecutive leaf positions in it covers the
    node's slice; reach[p] is the furthest end of a run that starts at or
    before p. Min-propagating growth can hand a node the ids of two
    far-apart minima, so a grown cluster may be disconnected; that does not
    change its cores. Repeated clusters and ids set the same reach, and
    empty clusters none."""
    n = len(f.order)
    # Codes of one cluster lie n + 1 apart from the next cluster's, so no
    # run of consecutive codes crosses from one cluster into the next.
    code = np.repeat(np.arange(lens.size, dtype=np.intp), lens)
    code *= n + 1
    code += f.lo[ids]
    code.sort()
    # A run starts where a code is not one more than the code before it.
    gap = np.ones(code.size, bool)
    np.greater(code[1:], code[:-1] + 1, out=gap[1:])
    starts = np.flatnonzero(gap)
    ends = np.append(starts, code.size)[1:] - 1
    reach = np.zeros(n, np.intp)
    np.maximum.at(reach, code[starts] % (n + 1), code[ends] % (n + 1) + 1)
    np.maximum.accumulate(reach, out=reach)
    return reach[f.lo] >= f.lo + f.size


def _standing(f, pred):
    """The nodes of the forest f that Stop_local does not stop, as a mask
    (a scalar True under 'never')."""
    return np.logical_not(pred.stopped(f.size, f.topw))


def _highest(f, keep):
    """The nodes of the mask keep over f's nodes whose parent is not kept."""
    # Index -1, a root's parent, reads the appended False.
    return np.flatnonzero(keep & ~np.append(keep, False)[f.parent])


def _clusters(f, nodes):
    """The forest nodes' member sets as a sorted list of sorted tuples."""
    order = f.order
    return sorted(tuple(sorted(order[lo:lo + k]))
                  for lo, k in zip(f.lo[nodes].tolist(), f.size[nodes].tolist()))


def _graph_forest(g):
    """The whole graph's forest, built on first use and kept on g, which is
    immutable, the way its adj and weights views are."""
    if g._forest is None:
        g._forest = _forest(g, np.arange(g.n))
    return g._forest


def mcd(g, c):
    """Minimal core decomposition: the highest nodes of the graph's merge
    forest inside the connected cluster c, a partition of it."""
    return split_repair(g, c, StopPredicate("never"))


def split_repair(g, c, pred):
    """Highest nodes of the graph's merge forest inside the connected
    cluster c that are not stopped: keeps every valid core, recursively
    splits the rest."""
    _, _, c = _tree(g, c)
    f = _graph_forest(g)
    covered = _covered(f, np.array([len(c)], np.intp), np.array(c, np.intp))
    return _clusters(f, _highest(f, covered & _standing(f, pred)))


def stop_round(g, state, pred):
    """Global stop on the CSR clusters state = (lens, ids): hand each node
    the largest of the clusters' maximal cores that holds it, read off the
    graph's merge forest, and require Stop_local on all of them. The state
    is checked first, under every predicate: a GraphError unless lens and
    ids are 1-D integer arrays, lens are at least 0 and sum to ids.size, every
    id is in 0..n-1 and every node is held. Any number of clusters may be
    given. Every core is stopped iff every highest standing node has a
    covered parent (see the module docstring)."""
    lens, ids = state
    if not (isinstance(lens, np.ndarray) and isinstance(ids, np.ndarray)
            and lens.ndim == ids.ndim == 1
            and lens.dtype.kind in "iu" and ids.dtype.kind in "iu"):
        raise GraphError("a cluster state's lens and ids must be 1-D integer arrays")
    if lens.min(initial=0) < 0 or lens.sum() != ids.size:
        raise GraphError("a cluster state's lens must be at least 0 and sum to "
                         "its %d ids" % ids.size)
    if ids.size and (ids.min() < 0 or ids.max() >= g.n):
        raise GraphError("a cluster has ids outside 0..%d" % (g.n - 1))
    held = np.zeros(g.n, bool)
    held[ids] = True
    if not held.all():
        raise GraphError("cluster collection does not cover every node")
    f = _graph_forest(g)
    if pred.kind == "never":
        return False
    stands = _standing(f, pred)
    # A root's parent is -1, which would read the last node's mask.
    if stands[f.roots].any():
        return False
    return bool(_covered(f, lens, ids)[f.parent[_highest(f, stands)]].all())


@dataclass
class SlcResult:
    algo: str
    stop: str
    rounds: int
    converged: bool
    stopped: bool
    per_round: list
    clusters: list


_SLC_SCHEMES = {"hash-to-all": HashToAll, "hash-to-min": HashToMin}


def run_slc(g, algo, pred, max_rounds, cache=None):
    """Grow, stop, repair. Returns the final clustering as a partition.

    Growth is an engine.run of the scheme with stop_round as its stop test,
    so both growth schemes take the columnar round. A run that stops or
    reaches its fixpoint counts as converged. A run that runs out of rounds
    first does not, and still returns the repair of its last grown state:
    every node's largest core among the grown clusters, split while
    Stop_local holds. Each of those clusters lies inside one of
    centralized_slc's, so the answer can be finer. The graph's forest is
    kept on g; a cache dict, when given, only receives it under g."""
    if g.edge_weights is None:
        raise GraphError("single-linkage clustering needs edge weights")
    if algo not in _SLC_SCHEMES:
        raise GraphError("unknown growth scheme %r (choose from %s)"
                         % (algo, ", ".join(sorted(_SLC_SCHEMES))))
    if not isinstance(pred, StopPredicate):
        raise GraphError("stop predicate must be a StopPredicate, got %r" % (pred,))
    try:
        max_rounds = index(max_rounds)
    except TypeError:
        raise GraphError("max_rounds must be an integer, got %r" % (max_rounds,)) from None
    if max_rounds < 1:
        raise GraphError("max_rounds must be at least 1")
    res = engine.run(g, _SLC_SCHEMES[algo](), max_rounds,
                     stop=lambda state: stop_round(g, state, pred))
    f = _graph_forest(g)
    if cache is not None:
        cache[g] = f
    # A stopped run's repair is the highest standing nodes, with no read of
    # its last state (see the module docstring).
    keep = _standing(f, pred)
    if not res.stopped:
        keep &= _covered(f, *res.final)
    clusters = _clusters(f, _highest(f, keep))
    return SlcResult(algo=algo, stop=str(pred), rounds=res.rounds,
                     converged=res.converged or res.stopped, stopped=res.stopped,
                     per_round=res.per_round, clusters=clusters)
