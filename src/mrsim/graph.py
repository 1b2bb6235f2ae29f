"""Undirected graphs on compact integer ids: validation, generators, edge-list I/O,
random relabeling, and BFS diameters."""

import math
import random
import warnings
from collections import deque

# All-source BFS above this size is replaced by sampled double sweeps.
_EXACT_DIAMETER_CAP = 4096
_DIAMETER_SAMPLES = 32


class GraphError(Exception):
    pass


class Graph:
    """Immutable undirected graph. Nodes are 0..n-1, edges have no self-loops or
    duplicates, optional weights are pairwise distinct floats in (0, 1]."""

    __slots__ = ("n", "adj", "weights", "original_ids")

    def __init__(self, n, edges, weights=None, original_ids=None):
        if n < 0:
            raise GraphError("node count must be nonnegative")
        seen = set()
        nbrs = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError("edge (%r, %r) outside id range 0..%d" % (u, v, n - 1))
            if u == v:
                raise GraphError("self-loop at node %d" % u)
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError("duplicate edge (%d, %d)" % key)
            seen.add(key)
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.n = n
        self.adj = tuple(tuple(sorted(a)) for a in nbrs)
        if weights is not None:
            norm = {}
            for (u, v), w in weights.items():
                key = (u, v) if u < v else (v, u)
                norm[key] = w
            if set(norm) != seen:
                raise GraphError("weights must cover exactly the edge set")
            vals = list(norm.values())
            for w in vals:
                if not (0.0 < w <= 1.0):
                    raise GraphError("weight %r outside (0, 1]" % w)
            if len(set(vals)) != len(vals):
                raise GraphError("edge weights must be pairwise distinct")
            self.weights = norm
        else:
            self.weights = None
        self.original_ids = tuple(original_ids) if original_ids is not None else None

    @property
    def m(self):
        return sum(len(a) for a in self.adj) // 2

    def weight(self, u, v):
        if self.weights is None:
            raise GraphError("graph is unweighted")
        key = (u, v) if u < v else (v, u)
        try:
            return self.weights[key]
        except KeyError:
            raise GraphError("no edge (%d, %d)" % (u, v)) from None

    def edges(self):
        """Yield (u, v) with u < v."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def sorted_edges(self):
        """Weighted edges as (w, u, v) ascending by weight."""
        if self.weights is None:
            raise GraphError("graph is unweighted")
        return sorted((w, u, v) for (u, v), w in self.weights.items())

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.adj == other.adj
                and self.weights == other.weights)

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return "Graph(n=%d, m=%d%s)" % (
            self.n, self.m, ", weighted" if self.weights else "")


# The engine codes a (key, id) pair as key * n + id in an int64.
MAX_NODES = math.isqrt(2 ** 63 - 1)


def _require_positive(n):
    if n < 1:
        raise GraphError("need at least one node, got %d" % n)
    if n > MAX_NODES:
        raise GraphError("node count %d above %d, where n * n overflows int64"
                         % (n, MAX_NODES))


def _unique_weights(rng, count):
    """Distinct weights in (0, 1], deterministic in draw order."""
    seen = set()
    out = []
    for _ in range(count):
        w = 1.0 - rng.random()
        while w in seen or w <= 0.0:
            w = math.nextafter(w, 2.0) if w <= 0.0 else math.nextafter(w, 0.0)
        seen.add(w)
        out.append(w)
    return out


def _attach_weights(n, edge_list, seed):
    rng = random.Random(seed)
    ws = _unique_weights(rng, len(edge_list))
    return Graph(n, edge_list, weights=dict(zip(edge_list, ws)))


def gen_path(n, weighted=False, seed=0):
    """Path 0-1-...-(n-1)."""
    _require_positive(n)
    edge_list = [(i, i + 1) for i in range(n - 1)]
    if weighted:
        return _attach_weights(n, edge_list, seed)
    return Graph(n, edge_list)


def gen_complete_binary_tree(n, weighted=False, seed=0):
    """Heap-shaped binary tree: node i has children 2i+1 and 2i+2."""
    _require_positive(n)
    edge_list = []
    for i in range(n):
        for c in (2 * i + 1, 2 * i + 2):
            if c < n:
                edge_list.append((i, c))
    if weighted:
        return _attach_weights(n, edge_list, seed)
    return Graph(n, edge_list)


def gen_star(n, weighted=False, seed=0):
    """Star with center 0 and n-1 leaves."""
    _require_positive(n)
    edge_list = [(0, i) for i in range(1, n)]
    if weighted:
        return _attach_weights(n, edge_list, seed)
    return Graph(n, edge_list)


def gen_random(n, p, seed, weighted=False):
    """G(n, p) by geometric edge skipping; independent of weight draws."""
    _require_positive(n)
    if not (0.0 <= p <= 1.0):
        raise GraphError("edge probability %r outside [0, 1]" % p)
    rng = random.Random(seed)
    edge_list = []
    total = n * (n - 1) // 2
    if p >= 1.0:
        edge_list = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif p > 0.0:
        log1p = math.log(1.0 - p)
        idx = -1
        while True:
            u = rng.random()
            if u >= 1.0:
                continue
            idx += int(math.log(1.0 - u) / log1p) + 1
            if idx >= total:
                break
            # Unrank pair index: row a, then column offset.
            a = int((2 * n - 1 - math.sqrt((2 * n - 1) ** 2 - 8 * idx)) / 2)
            before = a * (2 * n - a - 1) // 2
            while before > idx:
                a -= 1
                before = a * (2 * n - a - 1) // 2
            while before + (n - a - 1) <= idx:
                before += n - a - 1
                a += 1
            b = a + 1 + (idx - before)
            edge_list.append((a, b))
    if weighted:
        ws = _unique_weights(rng, len(edge_list))
        return Graph(n, edge_list, weights=dict(zip(edge_list, ws)))
    return Graph(n, edge_list)


def load_edge_list(text, weighted=False):
    """Parse an edge list: one 'u v' or 'u v w' per line, '#' comments, blank
    lines ignored. Original ids are compacted to 0..n-1 preserving order."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [ln.rstrip("\r\n") for ln in text]
    raw_edges = []
    raw_weights = {}
    weight_values = set()
    seen_edges = set()
    ids = set()
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        want = 3 if weighted else 2
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
        if u == v:
            raise GraphError("line %d: self-loop at %d" % (lineno, u))
        key = (u, v) if u < v else (v, u)
        if key in seen_edges:
            raise GraphError("line %d: duplicate edge (%d, %d)" % (lineno, u, v))
        seen_edges.add(key)
        if weighted:
            try:
                w = float(parts[2])
            except ValueError:
                raise GraphError("line %d: weight must be a decimal" % lineno) from None
            if not (0.0 < w <= 1.0):
                raise GraphError("line %d: weight %r outside (0, 1]" % (lineno, w))
            if w in weight_values:
                raise GraphError("line %d: duplicate weight %r" % (lineno, w))
            raw_weights[key] = w
            weight_values.add(w)
        raw_edges.append(key)
        ids.add(u)
        ids.add(v)
    order = sorted(ids)
    rank = {orig: i for i, orig in enumerate(order)}
    edge_list = sorted(set((rank[u], rank[v]) for u, v in raw_edges))
    weights = None
    if weighted:
        weights = {(rank[u], rank[v]): w for (u, v), w in raw_weights.items()}
    return Graph(len(order), edge_list, weights=weights, original_ids=order)


def dump_edge_list(g):
    """Inverse of load_edge_list for generated graphs (compact ids)."""
    out = []
    for u, v in g.edges():
        if g.weights is not None:
            out.append("%d %d %.17g" % (u, v, g.weight(u, v)))
        else:
            out.append("%d %d" % (u, v))
    return "\n".join(out) + ("\n" if out else "")


def relabel(g, perm):
    """Apply permutation perm (old id -> new id)."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("not a permutation of 0..%d" % (g.n - 1))
    edge_list = [(perm[u], perm[v]) for u, v in g.edges()]
    weights = None
    if g.weights is not None:
        weights = {(perm[u], perm[v]): w for (u, v), w in g.weights.items()}
    return Graph(g.n, edge_list, weights=weights)


def relabel_random(g, seed):
    """Random relabeling; returns (graph, perm) with perm[old] = new."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm), perm


def _bfs_far(adj, src):
    """(farthest node, eccentricity, visited set) from src."""
    dist = {src: 0}
    q = deque([src])
    far, ecc = src, 0
    while q:
        x = q.popleft()
        d = dist[x]
        if d > ecc:
            far, ecc = x, d
        for y in adj[x]:
            if y not in dist:
                dist[y] = d + 1
                q.append(y)
    return far, ecc, dist


def components_nodes(g):
    """Node sets of connected components (BFS), ascending by smallest member."""
    seen = set()
    out = []
    for s in range(g.n):
        if s in seen:
            continue
        _, _, dist = _bfs_far(g.adj, s)
        seen.update(dist)
        out.append(sorted(dist))
    return out


def diameter(g):
    """Longest shortest path over all components. Exact on forests (double
    sweep) and below a size cap (all-source BFS); sampled above, with a warning."""
    if g.n == 0:
        raise GraphError("diameter of empty graph")
    best = 0
    sampled = False
    for comp in components_nodes(g):
        edges_in = sum(len(g.adj[v]) for v in comp) // 2
        if edges_in == len(comp) - 1:
            far, _, _ = _bfs_far(g.adj, comp[0])
            _, ecc, _ = _bfs_far(g.adj, far)
            best = max(best, ecc)
        elif g.n <= _EXACT_DIAMETER_CAP:
            for v in comp:
                _, ecc, _ = _bfs_far(g.adj, v)
                best = max(best, ecc)
        else:
            sampled = True
            rng = random.Random(0)
            srcs = comp if len(comp) <= _DIAMETER_SAMPLES else rng.sample(comp, _DIAMETER_SAMPLES)
            for s in srcs:
                far, _, _ = _bfs_far(g.adj, s)
                _, ecc, _ = _bfs_far(g.adj, far)
                best = max(best, ecc)
    if sampled:
        warnings.warn("diameter sampled above %d nodes; value is a lower bound"
                      % _EXACT_DIAMETER_CAP)
    return best
