"""Distributed single-linkage clustering on the round engine.

Clusters grow by blind union rounds (hash-to-all or hash-to-min emissions on
closed neighborhoods) driven by engine.run, the distributed stop check is
run's stop test after every round, and a final split-repair pass undoes
merges the last rounds overshot.

Cluster analysis runs on single-linkage merge forests, all built by one
Kruskal (_forest) on the subgraph induced by a member list, with the leaves
laid out so that the members under each node are one slice. A cluster's own
tree serves Stop_local and the connectivity checks.

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
"""

from dataclasses import dataclass
from itertools import accumulate

from . import engine
from .graph import GraphError
from .schemes import HashToAll, HashToMin


class StopPredicate:
    """Monotone per-cluster stop rule: once true it stays true as the cluster
    grows along the merge tree."""

    def __init__(self, kind, param=None):
        if kind == "dist":
            if not (isinstance(param, (int, float)) and 0.0 < param <= 1.0):
                raise GraphError("distance threshold must be in (0, 1]")
            param = float(param)
        elif kind == "size":
            if not (isinstance(param, int) and param >= 1):
                raise GraphError("size threshold must be an integer >= 1")
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
        f, r = _tree(g, c)
        return self.stopped(f.size[r], f.topw[r])

    def __str__(self):
        if self.kind == "never":
            return "never"
        if self.kind == "dist":
            return "dist:%g" % self.param
        return "size:%d" % self.param


class _Forest:
    """Merge forest of the subgraph induced by some members: leaves 0..k-1
    are the members in the given order, internal nodes follow in merge
    (ascending weight) order, and roots are the tops in the order of their
    lowest leaf. The members under node t are order[lo[t]:lo[t] + size[t]]."""

    __slots__ = ("order", "lo", "size", "topw", "left", "right", "roots")

    def members(self, t):
        """Sorted member ids under node t."""
        lo = self.lo[t]
        return tuple(sorted(self.order[lo:lo + self.size[t]]))


def _forest(g, members):
    """Kruskal on the subgraph of g induced by the sequence members."""
    if g.weights is None:
        raise GraphError("cluster analysis needs edge weights")
    k = len(members)
    idx = {v: i for i, v in enumerate(members)}
    edges = []
    for i, u in enumerate(members):
        for v in g.adj[u]:
            j = idx.get(v)
            if j is not None and u < v:
                edges.append((g.weights[u, v], i, j))
    edges.sort()
    f = _Forest()
    f.size, f.topw, f.left, f.right = [1] * k, [0.0] * k, [-1] * k, [-1] * k
    uf = list(range(k))

    def find(x):
        while uf[x] != x:
            uf[x] = x = uf[uf[x]]
        return x

    node_of = list(range(k))
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        ta, tb = node_of[ri], node_of[rj]
        f.size.append(f.size[ta] + f.size[tb])
        f.topw.append(w)
        f.left.append(ta)
        f.right.append(tb)
        uf[ri] = rj
        node_of[rj] = len(f.size) - 1
    f.roots = list(dict.fromkeys(node_of[find(i)] for i in range(k)))
    f.lo = lo = [0] * len(f.size)
    at = 0
    for r in f.roots:
        lo[r] = at
        at += f.size[r]
    # Parents come after their children, so walking down from the last node
    # hands each child its part of the parent's slice, the left one in front.
    for t in range(len(lo) - 1, k - 1, -1):
        lo[f.left[t]] = lo[t]
        lo[f.right[t]] = lo[t] + f.size[f.left[t]]
    f.order = [members[i] for i in sorted(range(k), key=lo.__getitem__)]
    return f


def _checked(g, c):
    """c sorted, after checking that its ids are nodes of g."""
    c = tuple(sorted(c))
    if c and (c[0] < 0 or c[-1] >= g.n):
        raise GraphError("cluster %r has ids outside 0..%d" % (c, g.n - 1))
    return c


def _tree(g, c):
    """A connected cluster's own merge tree and its root."""
    c = _checked(g, c)
    if not c:
        raise GraphError("empty cluster")
    f = _forest(g, c)
    if len(f.roots) != 1:
        raise GraphError("cluster %r is not connected" % (c,))
    return f, f.roots[0]


def _cores(f, clusters):
    """Each node's largest core among the clusters: the highest nodes of the
    graph's forest f (leaf v is node v) that one cluster holds whole, that is
    whose leaf slice one run of consecutive positions in a cluster covers.
    reach[p] is the furthest end of a run that starts at or before p."""
    reach = [0] * len(f.order)
    for c in clusters:
        end = -1
        for p in sorted({f.lo[v] for v in c}):
            if p != end:
                start = p
            end = p + 1
            if reach[start] < end:
                reach[start] = end
    reach = list(accumulate(reach, max))
    out = []
    stack = list(f.roots)
    while stack:
        t = stack.pop()
        if reach[f.lo[t]] >= f.lo[t] + f.size[t]:
            out.append(t)
        elif f.left[t] >= 0:
            stack += (f.left[t], f.right[t])
    return out


def _unstopped(f, t, pred):
    """The highest nodes under t that Stop_local lets stand (every leaf does)."""
    stack = [t]
    while stack:
        t = stack.pop()
        if pred.stopped(f.size[t], f.topw[t]):
            stack += (f.left[t], f.right[t])
        else:
            yield t


def _graph_forest(g, cache):
    """The whole graph's forest, kept in cache under g."""
    cache = {} if cache is None else cache
    if g not in cache:
        cache[g] = _forest(g, range(g.n))
    return cache[g]


def _connected_cores(g, c, cache=None):
    """The graph's forest and the maximal cores of a connected cluster."""
    _tree(g, c)
    f = _graph_forest(g, cache)
    return f, _cores(f, [c])


def mcd(g, c, cache=None):
    """Minimal core decomposition: the highest nodes of the graph's merge
    forest inside the connected cluster c, a partition of it. cache keeps
    the graph's forest."""
    f, cores = _connected_cores(g, c, cache)
    return sorted(f.members(t) for t in cores)


def split_repair(g, c, pred):
    """Highest nodes of the graph's merge forest inside the connected
    cluster c that are not stopped: keeps every valid core, recursively
    splits the rest."""
    f, cores = _connected_cores(g, c)
    return sorted(f.members(s) for t in cores for s in _unstopped(f, t, pred))


def _grown_cores(g, clusters, cache):
    """The graph's forest and each node's largest core among the clusters.
    Min-propagating growth can hand a node the ids of two far-apart minima, so
    a grown cluster may be disconnected; that does not change its cores."""
    f = _graph_forest(g, cache)
    cores = _cores(f, dict.fromkeys(_checked(g, c) for c in clusters))
    if sum(f.size[t] for t in cores) != g.n:
        raise GraphError("cluster collection does not cover every node")
    return f, cores


def stop_round(g, clusters, pred, cache=None):
    """Global stop: hand each node the largest of the clusters' maximal
    cores that holds it, read off the graph's merge forest, and require
    Stop_local on all of them."""
    f, cores = _grown_cores(g, clusters, cache)
    return pred.kind != "never" and all(pred.stopped(f.size[t], f.topw[t]) for t in cores)


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
    centralized_slc's, so the answer can be finer. cache keeps the graph's
    forest."""
    if g.weights is None:
        raise GraphError("single-linkage clustering needs edge weights")
    if algo not in _SLC_SCHEMES:
        raise GraphError("unknown growth scheme %r (choose from %s)"
                         % (algo, ", ".join(sorted(_SLC_SCHEMES))))
    if max_rounds < 1:
        raise GraphError("max_rounds must be at least 1")
    cache = {} if cache is None else cache
    res = engine.run(g, _SLC_SCHEMES[algo](), max_rounds,
                     stop=lambda st: stop_round(g, (c for c in st if c), pred, cache))
    f, cores = _grown_cores(g, (st for st in res.final if st), cache)
    clusters = sorted(f.members(s) for t in cores for s in _unstopped(f, t, pred))
    return SlcResult(algo=algo, stop=str(pred), rounds=res.rounds,
                     converged=res.converged or res.stopped, stopped=res.stopped,
                     per_round=res.per_round, clusters=clusters)
