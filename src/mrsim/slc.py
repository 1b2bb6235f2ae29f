"""Distributed single-linkage clustering on the round engine.

Clusters grow by blind union rounds (hash-to-all or hash-to-min emissions on
closed neighborhoods) driven by engine.run, the distributed stop check is
run's stop test after every round, and a final split-repair pass undoes
merges the last rounds overshot.

Cluster analysis (split, cores, maximal core decomposition) runs on the
single-linkage merge forest of the cluster's induced subgraph, one tree per
connected piece: removing the heaviest tree edge is the same as stepping down
one merge, and a merge is "mutually nearest" exactly when neither side has an
edge leaving the whole cluster lighter than the merge weight (any lighter
edge staying inside would have merged earlier). That turns the recursive
definitions into one linear walk per cluster. A piece's or a core's own
merge tree is the subtree at its forest node, so the stop check and the
repair build one forest per grown cluster and nothing more.
"""

from dataclasses import dataclass
from math import inf

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
        a = _analyze(g, tuple(sorted(c)))
        r = _root(a)
        return self.stopped(a.size[r], a.topw[r])

    def key(self):
        return (self.kind, self.param)

    def __str__(self):
        if self.kind == "never":
            return "never"
        if self.kind == "dist":
            return "dist:%g" % self.param
        return "size:%d" % self.param


def distance_threshold(theta):
    return StopPredicate("dist", theta)


def size_threshold(s):
    return StopPredicate("size", s)


def never_stop():
    return StopPredicate("never")


class _Analysis:
    """Merge forest of one cluster: leaves 0..k-1 are the members in the
    given order, internal nodes follow in merge (ascending weight) order, and
    roots holds the top of each connected piece's tree."""

    __slots__ = ("members", "size", "topw", "ok", "left", "right", "roots", "_sets")

    def __init__(self, members):
        self.members = members
        k = len(members)
        self.size = [1] * k
        self.topw = [0.0] * k
        self.ok = [True] * k
        self.left = [-1] * k
        self.right = [-1] * k
        self._sets = None

    def node_members(self, t):
        """Sorted member ids under merge-tree node t (cached per tree)."""
        if self._sets is None:
            self._sets = {}
        got = self._sets.get(t)
        if got is None:
            out = []
            stack = [t]
            while stack:
                x = stack.pop()
                if self.left[x] < 0:
                    out.append(self.members[x])
                else:
                    stack.append(self.left[x])
                    stack.append(self.right[x])
            out.sort()
            got = tuple(out)
            self._sets[t] = got
        return got


def _analyze(g, c, cache=None):
    if cache is not None:
        hit = cache.get(c)
        if hit is not None:
            return hit
    if g.weights is None:
        raise GraphError("cluster analysis needs edge weights")
    if len(c) == 0:
        raise GraphError("empty cluster")
    k = len(c)
    idx = {v: i for i, v in enumerate(c)}
    ext = [inf] * k
    edges = []
    for i, u in enumerate(c):
        for v in g.adj[u]:
            w = g.weight(u, v)
            j = idx.get(v)
            if j is None:
                if w < ext[i]:
                    ext[i] = w
            elif i < j:
                edges.append((w, i, j))
    edges.sort()
    a = _Analysis(c)
    min_ext = ext
    uf = list(range(k))

    def find(x):
        r = x
        while uf[r] != r:
            r = uf[r]
        while uf[x] != r:
            uf[x], x = r, uf[x]
        return r

    node_of = list(range(k))
    nxt = k
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        ta, tb = node_of[ri], node_of[rj]
        a.size.append(a.size[ta] + a.size[tb])
        a.topw.append(w)
        a.ok.append(a.ok[ta] and a.ok[tb]
                    and min_ext[ta] > w and min_ext[tb] > w)
        a.left.append(ta)
        a.right.append(tb)
        min_ext.append(min_ext[ta] if min_ext[ta] < min_ext[tb] else min_ext[tb])
        uf[ri] = rj
        node_of[rj] = nxt
        nxt += 1
    a.roots = [node_of[r] for r in range(k) if uf[r] == r]
    if cache is not None:
        cache[c] = a
    return a


def _root(a):
    """The one tree root of a connected cluster's forest."""
    if len(a.roots) != 1:
        raise GraphError("cluster %r is not connected" % (a.members,))
    return a.roots[0]


def cluster_distance(g, a, b):
    """Lightest edge between two disjoint clusters, inf if none."""
    if g.weights is None:
        raise GraphError("cluster distance needs edge weights")
    sa, sb = set(a), set(b)
    if not sa or not sb:
        raise GraphError("clusters must be nonempty")
    if sa & sb:
        raise GraphError("clusters overlap")
    if len(sa) > len(sb):
        sa, sb = sb, sa
    best = inf
    for u in sa:
        for v in g.adj[u]:
            if v in sb:
                w = g.weight(u, v)
                if w < best:
                    best = w
    return best


def split(g, c):
    """Remove the heaviest merge-tree edge: the top two sub-merges."""
    c = tuple(sorted(c))
    if len(c) < 2:
        raise GraphError("cannot split a cluster of size %d" % len(c))
    a = _analyze(g, c)
    r = _root(a)
    lo = a.node_members(a.left[r])
    hi = a.node_members(a.right[r])
    return (lo, hi) if lo[0] < hi[0] else (hi, lo)


def is_core(g, c):
    """True when every recursive split is a pair of mutually nearest halves."""
    a = _analyze(g, tuple(sorted(c)))
    return a.ok[_root(a)]


def _kept(a, roots, keep):
    """The highest merge-tree nodes t under roots for which keep(a, t) holds;
    they partition the members under roots, as every leaf passes keep."""
    stack = list(roots)
    while stack:
        t = stack.pop()
        if keep(a, t):
            yield t
        else:
            stack.append(a.left[t])
            stack.append(a.right[t])


def _highest(g, c, keep, cache=None):
    """Members of the kept nodes of a connected cluster, sorted."""
    a = _analyze(g, tuple(sorted(c)), cache)
    return sorted(a.node_members(t) for t in _kept(a, (_root(a),), keep))


def mcd(g, c, cache=None):
    """Minimal core decomposition: the maximal merge-tree nodes that are
    cores, a partition of the cluster."""
    return _highest(g, c, lambda a, t: a.ok[t], cache)


def _repairable(pred):
    return lambda a, t: a.ok[t] and not pred.stopped(a.size[t], a.topw[t])


def split_repair(g, c, pred):
    """Highest merge-tree nodes that are cores and not stopped: keeps every
    valid core, recursively splits the rest."""
    return _highest(g, c, _repairable(pred))


def _largest_per_node(g, clusters, keep, cache):
    """Walk the merge forest of each distinct cluster, hand every node the
    largest kept merge-tree node holding it (ties to the smaller minimum id)
    and require every node to get one. Returns the chosen (members, topw)
    pairs, distinct, in node order.

    Min-propagating growth can leave a node holding ids of two far-apart
    minima, so a grown cluster may be disconnected; each connected piece is
    one tree of the forest. Pieces share no edges, so the lightest edge
    leaving a piece is the one it has leaving the cluster, and its tree is
    the one it would have on its own. The kept nodes of one cluster are
    disjoint, so only the order of the clusters can break a tie."""
    best = {}
    for c in dict.fromkeys(tuple(sorted(c)) for c in clusters):
        a = _analyze(g, c, cache)
        for t in _kept(a, a.roots, keep):
            core = a.node_members(t)
            for v in core:
                cur = best.get(v)
                if cur is None or (len(core), -core[0]) > (len(cur[0]), -cur[0][0]):
                    best[v] = (core, a.topw[t])
    if len(best) != g.n:
        raise GraphError("cluster collection does not cover every node")
    return list(dict.fromkeys(best[v] for v in range(g.n)))


def stop_round(g, clusters, pred, cache=None):
    """Global stop: hand each node its largest core from the merge forests of
    the clusters (ties to the smaller minimum id), and require Stop_local on
    all of them."""
    cores = _largest_per_node(g, clusters, lambda a, t: a.ok[t], cache)
    if pred.kind == "never":
        return False
    return all(pred.stopped(len(core), topw) for core, topw in cores)


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
    reaches its fixpoint counts as converged."""
    if g.weights is None:
        raise GraphError("single-linkage clustering needs edge weights")
    if algo not in _SLC_SCHEMES:
        raise GraphError("unknown growth scheme %r (choose from %s)"
                         % (algo, ", ".join(sorted(_SLC_SCHEMES))))
    if max_rounds < 1:
        raise GraphError("max_rounds must be at least 1")
    if cache is None:
        cache = {}
    res = engine.run(g, _SLC_SCHEMES[algo](), max_rounds,
                     stop=lambda st: stop_round(g, (c for c in st if c), pred, cache))
    chosen = [p for p, _ in _largest_per_node(g, (st for st in res.final if st),
                                              _repairable(pred), cache)]
    if sum(len(p) for p in chosen) != g.n:
        raise GraphError("repair did not produce a partition")
    clusters = sorted(chosen)
    return SlcResult(algo=algo, stop=str(pred), rounds=res.rounds,
                     converged=res.converged or res.stopped, stopped=res.stopped,
                     per_round=res.per_round, clusters=clusters)
