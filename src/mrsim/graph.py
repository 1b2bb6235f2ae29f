"""Undirected graphs on compact integer ids: validation, generators, edge-list I/O,
random relabeling, connected components and BFS diameters.

A Graph holds CSR arrays. Node u's neighbors are indices[indptr[u]:indptr[u + 1]],
ascending; rows[k] is the node whose list holds entry k; and edge_weights, None
on an unweighted graph, gives each entry's weight. So every edge, and its
weight, appears once in each direction. Every build (the constructor, the
generators, relabel and load_edge_list) goes through one validated path over
arrays. The ids as given are checked against the range and for self-loops
by reductions, and then cast once to the id dtype, _id_dtype(n): int32
while every code u * n + v fits in it, int64 otherwise. The rest of the
build is in that dtype: one sort of both directions' codes checks for
duplicates in either orientation and gives the CSR order, and the codes
split, in place, into rows and indices. Then the weights are checked for
one per edge, range (0, 1] and distinctness. Integer node counts and ids
are required: a float id is refused, never cast. Every fault is a
GraphError.

adj (a tuple of neighbor tuples) and weights (a dict keyed by (u, v) with
u < v) are views built on first use and cached, for the readers that walk
nodes in Python: the schemes' per-node hash, the tests and the
benchmark's checks. The components (so the oracle's), diameter, slc's
forests and the oracle's clustering read the arrays. sorted_edges() (a
tuple, which the oracle scans once per clustering) and a weighted graph's
merge forest, which slc builds from the arrays, are cached the same way;
slc fills the forest's slot on first use.

gen_random draws G(n, p) by geometric edge skipping from a seeded
random.Random stream. It reads the stream in bulk, with the same values as
one rng.random() per skip, and sums and unranks the skips in arrays. The
skips are math.log's, though np.log computes them: only quotients near an
integer are taken again with math.log (see _edge_indices). A weighted
build draws its weights in bulk from the stream just past the skips, as
the per-skip loop would, and nudges them one by one only on a repeat.

relabel_random draws its permutation by random.shuffle, and relabel reads
it as one id-dtype array.

components_nodes finds each node's root, its component's least member, by
a union-find over the upper edges in arrays, and groups the nodes by a
stable argsort of the roots. diameter counts each component's edges from
the degrees. Below the size cap every cyclic component takes a
bit-parallel all-source search in arrays, and the cyclic components of at
most 64 nodes share one bitset of one word a node. Trees, and graphs
above the cap, take double sweeps of breadth-first searches: these walk
neighbor tuples cut from the CSR arrays for the one call, keep one list
of n distances and use a plain list as their queue, handing the
distances back all -1 after each search so that one list serves every
source.
"""

import itertools
import math
import numbers
import operator
import random
import warnings
from collections.abc import Mapping

import numpy as np

# Above this many nodes the exact all-source search gives way to sampled
# double sweeps.
_EXACT_DIAMETER_CAP = 4096
_DIAMETER_SAMPLES = 32

# The build, and the engine, code a pair (u, v) as u * n + v in
# _id_dtype(n), whose widest is int64.
MAX_NODES = math.isqrt(2 ** 63 - 1)
# gen_random's unranking takes (2n - 1)^2 in an int64 for 0 < p < 1.
MAX_RANDOM_NODES = (MAX_NODES + 1) // 2


class GraphError(Exception):
    pass


def _id_dtype(n):
    """The dtype of node ids on n nodes, in a Graph's arrays and in the
    engine's CSR states: int32 while every u * n + v code fits in it, int64
    otherwise."""
    return np.int32 if n * n < 2 ** 31 else np.int64


def _node_count(n):
    try:
        n = operator.index(n)
    except TypeError:
        raise GraphError("node count must be an integer, got %r" % (n,)) from None
    if n < 0:
        raise GraphError("node count must be nonnegative")
    if n > MAX_NODES:
        raise GraphError("node count %d above %d, where n * n overflows int64"
                         % (n, MAX_NODES))
    return n


def _pairs(pairs, n):
    """A sequence of (u, v) integer id pairs as two int64 arrays. Ids are not
    yet checked against the range, except those no int64 holds."""
    seq = pairs if isinstance(pairs, np.ndarray) else list(pairs)
    try:
        a = np.asarray(seq)
    except (TypeError, ValueError):
        raise GraphError("edges must be (u, v) pairs") from None
    if a.size == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    if a.ndim != 2 or a.shape[1] != 2:
        raise GraphError("edges must be (u, v) pairs")
    if a.dtype.kind not in "biu" or (a.dtype.kind == "u" and a.max() >> 63):
        # Some id is not an integer, or is past what an int64 holds.
        listed = seq.tolist() if isinstance(seq, np.ndarray) else seq
        bad = next(x for pair in listed for x in pair
                   if not (isinstance(x, numbers.Integral) and 0 <= x < n))
        raise GraphError("node id %r is not an integer in 0..%d" % (bad, n - 1))
    a = a.astype(np.int64)
    return a[:, 0], a[:, 1]


def _first_repeat(x):
    """The least index i such that x[i] equals some x[j] with j < i, or None."""
    order = np.argsort(x, kind="stable")
    s = x[order]
    later = order[1:][s[1:] == s[:-1]]
    return int(later.min()) if later.size else None


def _keyed_weights(n, codes, weights):
    """The mapping weights, keyed by edges in either orientation, as an array
    aligned with the edges whose codes (least end * n + other end) are
    given."""
    ku, kv = _pairs(list(weights), n)
    vals = list(weights.values())
    if not all(isinstance(w, numbers.Real) for w in vals):
        raise GraphError("weights must be real numbers")
    if ((ku < 0) | (ku >= n) | (kv < 0) | (kv >= n) | (ku == kv)).any():
        raise GraphError("weights must cover exactly the edge set")
    kc = np.minimum(ku, kv) * n + np.maximum(ku, kv)
    i = _first_repeat(kc)
    if i is not None:
        raise GraphError("edge (%d, %d) given two weights" % divmod(int(kc[i]), n))
    korder, eorder = np.argsort(kc), np.argsort(codes)
    if not np.array_equal(kc[korder], codes[eorder]):
        raise GraphError("weights must cover exactly the edge set")
    w = np.empty(codes.size)
    w[eorder] = np.asarray(vals, dtype=np.float64)[korder]
    return w


class Graph:
    """Immutable undirected graph. Nodes are 0..n-1, edges have no self-loops or
    duplicates, optional weights are pairwise distinct floats in (0, 1].

    Graph(n, edges, weights) takes (u, v) pairs and a mapping from each
    edge, in either orientation, to its weight. Its CSR fields and cached
    views are described in the module docstring."""

    __slots__ = ("n", "indptr", "indices", "rows", "edge_weights", "original_ids",
                 "_adj", "_weights", "_sorted_edges", "_forest")

    def __init__(self, n, edges, weights=None, original_ids=None):
        n = _node_count(n)
        if not (weights is None or isinstance(weights, Mapping)):
            raise GraphError("weights must map each edge to its weight")
        self._fill(n, *_pairs(edges, n), weights, original_ids)

    def _fill(self, n, u, v, w, original_ids, lines=None):
        """The one validated build: edge i is (u[i], v[i]) with weight w[i],
        w an array, a dict keyed by edge, or None. lines[i], when given, is
        the line that edge i came from, for error messages, which name nodes
        by their original ids."""
        if original_ids is not None:
            original_ids = tuple(original_ids)
            if len(original_ids) != n:
                raise GraphError("original_ids must name each of the %d nodes" % n)

        def fail(i, msg):
            raise GraphError(msg if lines is None else "line %d: %s" % (lines[i], msg))

        def name(x):
            return int(x) if original_ids is None else original_ids[x]

        # The ids as given are checked by reductions; the offending edge is
        # looked for only once a check fails.
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            i = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n))[0]
            fail(i, "edge (%d, %d) outside id range 0..%d" % (u[i], v[i], n - 1))
        loops = u == v
        if loops.any():
            i = loops.argmax()
            fail(i, "self-loop at node %r" % (name(u[i]),))
        # Everything below is in the id dtype, where each code u * n + v fits.
        dtype = _id_dtype(n)
        u, v = u.astype(dtype, copy=False), v.astype(dtype, copy=False)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        # One sort of both directions' codes gives the CSR order, and an
        # edge given twice, in either orientation, shows as an equal pair.
        m = lo.size
        codes = np.empty(2 * m, dtype)
        np.multiply(lo, n, out=codes[:m])
        codes[:m] += hi
        np.multiply(hi, n, out=codes[m:])
        codes[m:] += lo
        if w is None:
            order = None
            codes.sort()
        else:
            order = np.argsort(codes)
            codes = codes[order]
        if (codes[1:] == codes[:-1]).any():
            i = _first_repeat(lo * n + hi)
            fail(i, "duplicate edge (%r, %r)" % (name(lo[i]), name(hi[i])))
        if isinstance(w, Mapping):
            w = _keyed_weights(n, lo * n + hi, w)
        if w is not None:
            w = np.asarray(w, dtype=np.float64)
            # A NaN weight makes both reductions NaN, so it fails too.
            if not (w.min(initial=1.0) > 0.0 and w.max(initial=1.0) <= 1.0):
                i = np.flatnonzero(~((w > 0.0) & (w <= 1.0)))[0]
                fail(i, "weight %r outside (0, 1]" % float(w[i]))
            i = _first_repeat(w)
            if i is not None:
                fail(i, "duplicate weight %r" % float(w[i]))
            w = np.concatenate((w, w))[order]
            w.flags.writeable = False
        # The sorted codes split into rows and, in place, indices.
        rows = codes // n
        indices = codes
        indices -= rows * n
        indptr = np.zeros(n + 1, np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        for a in (indptr, indices, rows):
            a.flags.writeable = False
        self.n = n
        self.indptr, self.indices, self.rows, self.edge_weights = indptr, indices, rows, w
        self.original_ids = original_ids
        self._adj = self._weights = self._sorted_edges = self._forest = None

    @classmethod
    def _from_arrays(cls, n, u, v, w=None, original_ids=None, lines=None):
        """The graph of integer arrays u, v and weights w aligned with them,
        built without the constructor's conversions."""
        g = cls.__new__(cls)
        g._fill(n, u, v, w, original_ids, lines)
        return g

    @property
    def adj(self):
        """Each node's neighbors as a tuple of ints, ascending."""
        if self._adj is None:
            self._adj = _neighbors(self.indptr, self.indices)
        return self._adj

    @property
    def weights(self):
        """None when unweighted, else {(u, v): weight} with u < v."""
        if self.edge_weights is None:
            return None
        if self._weights is None:
            up = self.rows < self.indices
            self._weights = dict(zip(zip(self.rows[up].tolist(), self.indices[up].tolist()),
                                     self.edge_weights[up].tolist()))
        return self._weights

    @property
    def m(self):
        return self.indices.size // 2

    def weight(self, u, v):
        if self.edge_weights is None:
            raise GraphError("graph is unweighted")
        try:
            a, b = operator.index(u), operator.index(v)
        except TypeError:
            raise GraphError("no edge (%s, %s)" % (u, v)) from None
        if 0 <= a < self.n and 0 <= b < self.n:
            lo, hi = self.indptr[a], self.indptr[a + 1]
            k = lo + np.searchsorted(self.indices[lo:hi], b)
            if k < hi and self.indices[k] == b:
                return float(self.edge_weights[k])
        raise GraphError("no edge (%s, %s)" % (u, v))

    def _upper(self):
        """Each edge once, as (u, v) with u < v: rows, indices and weights
        masked to those entries."""
        up = self.rows < self.indices
        w = None if self.edge_weights is None else self.edge_weights[up]
        return self.rows[up], self.indices[up], w

    def edges(self):
        """Iterate over the edges as (u, v) with u < v, ascending."""
        u, v, _ = self._upper()
        return zip(u.tolist(), v.tolist())

    def sorted_edges(self):
        """Weighted edges as a tuple of (w, u, v), ascending by weight, built
        on first use and cached."""
        if self.edge_weights is None:
            raise GraphError("graph is unweighted")
        if self._sorted_edges is None:
            u, v, w = self._upper()
            order = np.argsort(w)
            self._sorted_edges = tuple(zip(w[order].tolist(), u[order].tolist(),
                                           v[order].tolist()))
        return self._sorted_edges

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        a, b = self.edge_weights, other.edge_weights
        return (self.n == other.n and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and (a is None) == (b is None) and (a is None or np.array_equal(a, b)))

    def __hash__(self):
        return hash((self.n, self.indptr.tobytes(), self.indices.tobytes()))

    def __repr__(self):
        return "Graph(n=%d, m=%d%s)" % (
            self.n, self.m, ", weighted" if self.edge_weights is not None else "")


def _neighbors(indptr, indices):
    """Each node's neighbors as a tuple of ints, cut from the CSR arrays."""
    ids = indices.tolist()
    ptr = indptr.tolist()
    return tuple(tuple(ids[a:b]) for a, b in zip(ptr, ptr[1:]))


def _require_positive(n):
    if isinstance(n, numbers.Integral) and n < 1:
        raise GraphError("need at least one node, got %d" % n)
    return _node_count(n)


def _unique_weights(rng, count):
    """Distinct weights in (0, 1], deterministic in draw order: 1.0 - u for
    the next count draws u of rng, read in bulk, with each weight that
    repeats an earlier one nudged down to the next float not yet taken.
    1.0 - u is at least 2**-53 and each nudge steps past a weight already
    taken, so no weight reaches 0 short of some 2**62 weights. The nudging
    walks the weights one by one only when some value repeats."""
    w = 1.0 - _draws(rng, count)
    s = np.sort(w)
    if not (s[1:] == s[:-1]).any():
        return w
    seen = set()
    out = []
    for x in w.tolist():
        while x in seen:
            x = math.nextafter(x, 0.0)
        seen.add(x)
        out.append(x)
    return np.array(out)


def _generated(n, u, v, weighted, seed):
    """The graph of edges (u[i], v[i]), weighted in edge order from seed when
    asked to be."""
    w = _unique_weights(random.Random(seed), u.size) if weighted else None
    return Graph._from_arrays(n, u, v, w)


def gen_path(n, weighted=False, seed=0):
    """Path 0-1-...-(n-1)."""
    n = _require_positive(n)
    u = np.arange(n - 1, dtype=_id_dtype(n))
    return _generated(n, u, u + 1, weighted, seed)


def gen_complete_binary_tree(n, weighted=False, seed=0):
    """Heap-shaped binary tree: node i has children 2i+1 and 2i+2."""
    n = _require_positive(n)
    child = np.arange(1, n, dtype=_id_dtype(n))
    return _generated(n, (child - 1) // 2, child, weighted, seed)


def gen_star(n, weighted=False, seed=0):
    """Star with center 0 and n-1 leaves."""
    n = _require_positive(n)
    dtype = _id_dtype(n)
    return _generated(n, np.zeros(n - 1, dtype), np.arange(1, n, dtype=dtype), weighted, seed)


def _draws(rng, k):
    """The next k values rng.random() would return, as a float64 array, and
    rng left where k calls would leave it. random() builds each value from
    two 32-bit Mersenne Twister outputs a and b as
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53, and getrandbits(64 * k) draws the
    same 2k outputs in the same order, the first in the lowest bits."""
    words = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0


def _edge_indices(rng, total, p):
    """The pair indices below total that geometric edge skipping (Batagelj
    and Brandes, 2005) picks with edge probability 0 < p < 1, ascending.
    Each skip is int(x) + 1, x = math.log(1 - u) / log(1 - p), for the next
    draw u of rng, so the skips use one draw per index and one more, the
    draw whose skip reaches total. The draws are read in chunks, and rng is
    left past the last chunk, which may hold draws no skip used. Every index
    stays exact for total < 2**62.

    A chunk's quotients are taken with np.log, which need not be correctly
    rounded, and those inside a band around an integer,
    |x - rint(x)| <= 1e-9 * max(x, 1), are taken again with math.log. A log
    a few ulps off moves x by a few parts in 2**52 of x, far less than the
    band, so a quotient outside it truncates to the same integer either way:
    the skips, and so the graphs, do not depend on which log numpy runs.
    Every float from 2**52 up is an integer, so a huge skip is always
    taken again."""
    log_q = math.log(1.0 - p)
    if log_q == 0.0:
        # 1.0 - p rounds to 1.0, so every skip is of order 1 / p.
        log_q = math.log1p(-p)
    # A skip is clipped to total + 1, which still reaches total, so no chunk
    # of this many positions passes what an int64 holds.
    most = (2 ** 63 - 1 - total) // (total + 1)
    parts = []
    idx = -1
    while True:
        mean = (total - idx) * p
        k = min(int(mean + 4.0 * math.sqrt(mean)) + 8, most)
        y = 1.0 - _draws(rng, k)
        with np.errstate(over="ignore"):  # a subnormal p: inf, clipped
            x = np.log(y) / log_q
            # A skip of 2**62 or more reaches total; no larger float is cast.
            np.minimum(x, 2.0 ** 62, out=x)
            near = np.flatnonzero(np.abs(x - np.rint(x)) <= 1e-9 * np.maximum(x, 1.0))
            exact = np.array([math.log(v) for v in y[near].tolist()]) / log_q
            x[near] = np.minimum(exact, 2.0 ** 62)
        skip = x.astype(np.int64)
        np.minimum(skip, total, out=skip)
        pos = idx + np.cumsum(skip + 1)
        end = int(np.searchsorted(pos, total))
        if end < k:
            parts.append(pos[:end])
            return np.concatenate(parts)
        parts.append(pos)
        idx = int(pos[-1])


def _unrank(n, idx):
    """Rows and columns (a, b), a < b, of the pairs at indices idx in the
    row-major order of the pairs of n nodes, for n up to MAX_RANDOM_NODES.
    The first guess of each row solves the quadratic for its start in
    floats; a row is then moved by one, and again, until its start is at
    most its index and the next row's start is past it."""
    m = 2 * n - 1
    a = ((m - np.sqrt((m * m - 8 * idx).astype(np.float64))) / 2).astype(np.int64)
    while True:
        before = a * (m - a) // 2
        move = (before + (n - 1 - a) <= idx).astype(np.int64) - (before > idx)
        if not move.any():
            return a, a + 1 + (idx - before)
        a += move


def gen_random(n, p, seed, weighted=False):
    """G(n, p) by geometric edge skipping; independent of weight draws. The
    skips are computed in arrays from the random.Random(seed) stream read in
    bulk, the same draws one rng.random() per skip would make, and the
    weights are drawn from that stream after them. The skips are those
    math.log gives, whichever log numpy runs: _edge_indices takes again
    with math.log each quotient that a log a few ulps off could move across
    an integer. A p so small that 1.0 - p rounds to 1.0 draws skips of
    order 1 / p, so a small graph gets no edge. For 0 < p < 1, n is at most
    MAX_RANDOM_NODES."""
    n = _require_positive(n)
    if not (0.0 <= p <= 1.0):
        raise GraphError("edge probability %r outside [0, 1]" % p)
    rng = random.Random(seed)
    rows, cols = [], []
    if p >= 1.0:
        rows, cols = np.triu_indices(n, 1)
    elif p > 0.0:
        if n > MAX_RANDOM_NODES:
            raise GraphError("node count %d above %d, where G(n, p)'s pair unranking "
                             "overflows int64" % (n, MAX_RANDOM_NODES))
        rows, cols = _unrank(n, _edge_indices(rng, n * (n - 1) // 2, p))
        if weighted:
            # The weights' draws start just past the rows.size + 1 skips.
            rng = random.Random(seed)
            rng.getrandbits(64 * (rows.size + 1))
    rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
    w = _unique_weights(rng, rows.size) if weighted else None
    return Graph._from_arrays(n, rows, cols, w)


def load_edge_list(text, weighted=False):
    """Parse an edge list: one 'u v' or 'u v w' per line, '#' comments, blank
    lines ignored. Original ids are compacted to 0..n-1 preserving order.
    Errors name the line, and the nodes by their ids in the file."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [ln.rstrip("\r\n") for ln in text]
    us, vs, ws, linenos = [], [], [], []
    want = 3 if weighted else 2
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != want:
            raise GraphError("line %d: expected %d fields, got %d"
                             % (lineno, want, len(parts)))
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError:
            raise GraphError("line %d: node ids must be integers" % lineno) from None
        if u < 0 or v < 0:
            raise GraphError("line %d: node ids must be nonnegative" % lineno)
        if weighted:
            try:
                ws.append(float(parts[2]))
            except ValueError:
                raise GraphError("line %d: weight must be a decimal" % lineno) from None
        us.append(u)
        vs.append(v)
        linenos.append(lineno)
    order = sorted(set(us) | set(vs))
    rank = {orig: i for i, orig in enumerate(order)}
    dtype = _id_dtype(len(order))
    u = np.fromiter(map(rank.__getitem__, us), dtype, len(us))
    v = np.fromiter(map(rank.__getitem__, vs), dtype, len(vs))
    return Graph._from_arrays(len(order), u, v, ws if weighted else None,
                              original_ids=order, lines=linenos)


def dump_edge_list(g):
    """Inverse of load_edge_list for generated graphs (compact ids)."""
    u, v, w = g._upper()
    if w is None:
        out = ["%d %d" % e for e in zip(u.tolist(), v.tolist())]
    else:
        out = ["%d %d %.17g" % e for e in zip(u.tolist(), v.tolist(), w.tolist())]
    return "\n".join(out) + ("\n" if out else "")


def relabel(g, perm):
    """Apply permutation perm (old id -> new id), a sequence of integers or
    an integer ndarray, which is read as it is. Once its ids are in range,
    they are cast to the id dtype, and each node must be named once."""
    n = g.n
    p = perm if isinstance(perm, np.ndarray) else np.asarray(list(perm))
    if p.shape != (n,) or n and (p.dtype.kind not in "iu" or p.min() < 0 or p.max() >= n):
        raise GraphError("not a permutation of 0..%d" % (n - 1))
    p = p.astype(_id_dtype(n), copy=False)
    named = np.zeros(n, bool)
    named[p] = True
    if not named.all():
        raise GraphError("not a permutation of 0..%d" % (n - 1))
    u, v, w = g._upper()
    return Graph._from_arrays(n, p[u], p[v], w)


def relabel_random(g, seed):
    """Random relabeling; returns (graph, perm) with perm[old] = new, a
    list. random.shuffle draws perm, and relabel gets it as one array."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, np.array(perm, _id_dtype(g.n))), perm


def _bfs_far(adj, src, dist):
    """(farthest node, eccentricity) from src, by a breadth-first search
    with a list as its queue: far is the first node the search reaches at
    the greatest distance. dist holds -1 for every node and is handed back
    so, after serving as the search's distances."""
    dist[src] = 0
    queue = [src]
    far, ecc = src, 0
    for x in queue:
        d = dist[x]
        if d > ecc:
            far, ecc = x, d
        d += 1
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = d
                queue.append(y)
    for x in queue:
        dist[x] = -1
    return far, ecc


def components_nodes(g):
    """The node lists of the connected components, each ascending, ordered
    by least member. A union-find over the arrays (the hook-and-shortcut
    scheme of Shiloach and Vishkin, 1982) gives each node's root. Each edge
    (u, v), u < v, is held as the pair of its ends' roots, and each pass
    hooks the larger root of every pair under the smaller, takes p = p[p]
    until nothing changes, moves each pair to its roots' new roots and
    drops the pairs whose ends now share one. Every parent is at most its
    node, so each root is its component's least member, and a stable
    argsort of the roots lists the components' nodes in that order."""
    n = g.n
    u, v, _ = g._upper()
    # np.minimum.at is many times slower when its indices and values are
    # not of p's dtype.
    u, v = u.astype(np.intp), v.astype(np.intp)
    p = np.arange(n)
    while u.size:
        np.minimum.at(p, np.maximum(u, v), np.minimum(u, v))
        while True:
            pp = p[p]
            if (pp == p).all():
                break
            p = pp
        u, v = p[u], p[v]
        cross = u != v
        u, v = u[cross], v[cross]
    nodes = np.argsort(p, kind="stable").tolist()
    sizes = np.bincount(p, minlength=n)
    ends = np.cumsum(sizes[sizes > 0]).tolist()
    return [nodes[a:b] for a, b in zip([0] + ends, ends)]


def _component_csr(indptr, indices, comp):
    """The CSR arrays (ptr, nbr) of the subgraph on comp, an ascending
    list of the nodes of whole components, renumbered 0..k-1 in that
    order."""
    if len(comp) == indptr.size - 1:
        return indptr, indices
    comp = np.asarray(comp)
    lo = indptr[comp]
    deg = indptr[comp + 1] - lo
    ptr = np.zeros(comp.size + 1, np.intp)
    np.cumsum(deg, out=ptr[1:])
    pos = np.repeat(lo - ptr[:-1], deg) + np.arange(ptr[-1])
    return ptr, np.searchsorted(comp, indices[pos])


def _bitset_diameter(ptr, nbr, bits, full):
    """The greatest diameter of the connected components (of at least 2
    nodes each) of a graph given as CSR arrays, by an all-source search 64
    sources to a machine word (the bit-parallel BFS of Akiba, Iwata and
    Yoshida, 2013). Each node has a bit of its own among its component's,
    and row x of the k x W uint64 array bits starts with x's bit alone set;
    full is each row with all its component's bits set, or one row for
    every row. A row has v's bit set when dist(v, x) is at most the level,
    and each level ORs every row with its neighbors' rows; the answer is
    the first level at which every row is full. A component's nodes fit in
    W words, so it has at most 64 * W of them and every row is full before
    level 64 * W; start rows that cannot fill raise there. The neighbors'
    rows are gathered for blocks of whole rows of at most max(2m, k * W) // W
    CSR entries, which one row's k - 1 never passes, so no temporary holds
    more than max(2m, k * W) words."""
    k, words = bits.shape
    most = max(nbr.size, k * words) // words
    blocks = []
    a = 0
    while a < k:
        b = int(np.searchsorted(ptr, ptr[a] + most, "right")) - 1
        blocks.append((a, b, nbr[ptr[a]:ptr[b]], ptr[a:b] - ptr[a]))
        a = b
    level = 0
    while not (bits == full).all():
        if level == 64 * words:
            raise GraphError("bitset rows not full after %d levels" % level)
        grown = np.empty_like(bits)
        for a, b, block, heads in blocks:
            np.bitwise_or(bits[a:b], np.bitwise_or.reduceat(bits.take(block, axis=0), heads),
                          out=grown[a:b])
        bits = grown
        level += 1
    return level


def _own_bits(k):
    """The start rows and the full row of _bitset_diameter on one component
    of k nodes: node x has bit x % 64 of word x // 64."""
    words = -(-k // 64)
    x = np.arange(k)
    bits = np.zeros((k, words), np.uint64)
    bits[x, x >> 6] = np.left_shift(np.uint64(1), (x & 63).astype(np.uint64))
    full = np.full(words, np.uint64(2 ** 64 - 1))
    full[-1] >>= np.uint64(-k % 64)
    return bits, full


def _small_diameter(indptr, indices, comps):
    """The greatest diameter of the components comps, each ascending and of
    2 to 64 nodes, by one _bitset_diameter over all of them with one word a
    row (W = 1): a node's bit is its rank in its component."""
    sizes = np.array([len(c) for c in comps])
    nodes = np.fromiter(itertools.chain.from_iterable(comps), np.intp, sizes.sum())
    rank = np.arange(nodes.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    order = np.argsort(nodes)
    ptr, nbr = _component_csr(indptr, indices, nodes[order])
    bits = np.left_shift(np.uint64(1), rank[order].astype(np.uint64))
    full = np.right_shift(np.uint64(2 ** 64 - 1),
                          (64 - np.repeat(sizes, sizes)[order]).astype(np.uint64))
    return _bitset_diameter(ptr, nbr, bits[:, None], full[:, None])


def diameter(g):
    """Longest shortest path over all components. Exact on forests (double
    sweep) and below a size cap, where every cyclic component takes the
    bit-parallel all-source search of _bitset_diameter; sampled above, with
    a warning.

    Every cyclic component of at most 64 nodes is searched in one bitset of
    one word a row, so many small components pay the bitset's fixed cost
    once. A larger one is searched on its own, in W = ceil(k / 64) words a
    row. Each level ORs 2m * W words, so a long thin component, whose
    diameter is near its k nodes, takes some k * 2m * W: a long cycle runs
    slower than one breadth-first search per node would."""
    if g.n == 0:
        raise GraphError("diameter of empty graph")
    adj = None
    degree = np.diff(g.indptr)
    dist = [-1] * g.n
    best = 0
    sampled = False
    small = []
    for comp in components_nodes(g):
        k = len(comp)
        if int(degree[comp].sum()) == 2 * (k - 1):
            srcs = comp[:1]
        elif g.n > _EXACT_DIAMETER_CAP:
            sampled = True
            rng = random.Random(0)
            srcs = comp if k <= _DIAMETER_SAMPLES else rng.sample(comp, _DIAMETER_SAMPLES)
        elif k <= 64:
            small.append(comp)
            continue
        else:
            ptr, nbr = _component_csr(g.indptr, g.indices, comp)
            best = max(best, _bitset_diameter(ptr, nbr, *_own_bits(k)))
            continue
        if adj is None:
            adj = _neighbors(g.indptr, g.indices)
        for s in srcs:
            s, _ = _bfs_far(adj, s, dist)
            _, ecc = _bfs_far(adj, s, dist)
            best = max(best, ecc)
    if small:
        best = max(best, _small_diameter(g.indptr, g.indices, small))
    if sampled:
        warnings.warn("diameter sampled above %d nodes; value is a lower bound"
                      % _EXACT_DIAMETER_CAP)
    return best
