"""Connected-component hashing schemes for the round engine.

Every node state is a strictly increasing tuple of node ids (a "cluster"),
held by engine.run as CSR arrays (lens, ids). Each scheme provides:
- init_state, its start state as CSR arrays, built by engine._pair_union
  where a node starts with more than itself;
- hash (emit (key, payload) messages) and merge, the per-node spec that
  engine.step runs on each node's cluster as a tuple;
- hash_arrays, its hash on the CSR state, which engine.run uses;
- export, which reads components off a converged CSR state.
_Scheme gives every scheme the union of what a node receives as its merge
and the export of the clusters held by their own minimum; HashMin and
AlternatingHGTM, whose merge is not a plain union, override merge and add
merge_arrays, their merge on that union and the previous state.
"""

from bisect import bisect_left, bisect_right
from dataclasses import replace
from itertools import chain
from math import inf
from numbers import Real

import numpy as np

from . import engine
from .engine import merge_sorted_dedup


def _edge_arrays(g, dtype):
    """Every edge in both directions, as arrays (src, dst) ordered by src."""
    deg = np.fromiter(map(len, g.adj), np.intp, g.n)
    dst = np.fromiter(chain.from_iterable(g.adj), dtype, int(deg.sum()))
    return np.repeat(np.arange(g.n, dtype=dtype), deg), dst


def _singletons(g):
    """Every node holding only itself, as CSR arrays."""
    return np.ones(g.n, np.intp), np.arange(g.n, dtype=engine._id_dtype(g.n))


def _closed_neighborhoods(g):
    """Every node holding itself and its neighbors, as CSR arrays."""
    src, dst = _edge_arrays(g, engine._id_dtype(g.n))
    own = np.arange(g.n, dtype=dst.dtype)
    return engine._pair_union(g.n, np.concatenate((src, own)),
                              np.concatenate((dst, own)))


def _labels(lens, ids):
    """Each node's least held id, its label, or itself where it holds none."""
    held = lens > 0
    label = np.arange(lens.size, dtype=ids.dtype)
    label[held] = ids[(np.cumsum(lens) - lens)[held]]
    return label


def _grouped(nodes, label):
    """The increasing nodes grouped by their labels, as sorted tuples."""
    sizes = np.bincount(label)
    order = np.argsort(label, kind="stable")
    return sorted(engine._unpack((sizes[sizes > 0], nodes[order])))


class _Scheme:
    """What the schemes share: a convergence check every round, merge as
    the union of what a node receives, and export of the CSR state's
    clusters whose minimum is their holder, the terminal shape of the
    min-propagating schemes."""

    check_every = 1

    def merge(self, rnd, v, payloads, prev):
        return merge_sorted_dedup(payloads)

    def export(self, g, state):
        lens, ids = state
        own = (lens > 0) & (_labels(lens, ids) == np.arange(lens.size))
        return sorted(engine._unpack((lens[own], ids[np.repeat(own, lens)])))


class HashMin(_Scheme):
    """Label propagation: each node keeps the least id it has heard of and
    tells its static neighbors every round."""

    name = "hash-min"

    def init_state(self, g):
        return _singletons(g)

    def hash(self, rnd, v, st, g):
        if not st:
            return []
        lab = (st[0],)
        out = [(v, st)]
        for u in g.adj[v]:
            out.append((u, lab))
        return out

    def merge(self, rnd, v, payloads, prev):
        if not payloads:
            return prev
        return (min(p[0] for p in payloads),)

    def hash_arrays(self, rnd, lens, ids, g):
        """hash on CSR state: each held cluster goes whole to its holder,
        one message, and its label to each of the holder's neighbors, one
        message each."""
        held = lens > 0
        label = _labels(lens, ids)
        src, dst = _edge_arrays(g, ids.dtype)
        tell = held[src]
        rows = np.repeat(np.arange(lens.size, dtype=ids.dtype), lens)
        return (np.concatenate((rows, dst[tell])),
                np.concatenate((ids, label[src[tell]])),
                np.count_nonzero(held) + np.count_nonzero(tell))

    def merge_arrays(self, rnd, new, prev):
        """merge on CSR state: the least id each node received. A node that
        holds anything sends it to itself, so a node that receives nothing
        held nothing, and its state stays empty."""
        got = new[0] > 0
        return got.astype(np.intp), _labels(*new)[got]

    def export(self, g, state):
        held = np.flatnonzero(state[0] > 0)
        return _grouped(held, _labels(*state)[held])


class HashToAll(_Scheme):
    """Full gossip: send the whole cluster to every member; cluster radius
    doubles each round."""

    name = "hash-to-all"

    def init_state(self, g):
        return _closed_neighborhoods(g)

    def hash(self, rnd, v, st, g):
        return [(u, st) for u in st]

    def hash_arrays(self, rnd, lens, ids, g):
        """hash on CSR state: every held id receives its holder's whole
        cluster (vals None), one message per held id."""
        return ids, None, ids.size


class HashToMin(_Scheme):
    """Send the cluster to its minimum and the minimum to the rest.

    This class owns LbHashToMin's split of a cluster larger than tau in
    both forms, hash and hash_arrays; here tau is inf."""

    name = "hash-to-min"
    tau = inf

    def init_state(self, g):
        return _closed_neighborhoods(g)

    def hash(self, rnd, v, st, g):
        """Each half of the cluster goes to its target and the target to
        every other member of the half. The low half is the whole cluster,
        with the minimum as target; in a cluster larger than tau it is the
        ids at most v, and the high half, the rest, has v as target."""
        j = bisect_right(st, v) if len(st) > self.tau else len(st)
        out = []
        for target, half in ((st[:1], st[:j]), ((v,), st[j:])):
            if half:
                out.append((target[0], half))
                out.extend((u, target) for u in half if u != target[0])
        return out

    def hash_arrays(self, rnd, lens, ids, g):
        """hash on CSR state: (key, id) pairs and the message count. Each
        held id goes to a target and the target to every other member. The
        target is the cluster minimum; in a cluster larger than tau (only
        LbHashToMin sets one) an id greater than the holder v has v as its
        target instead, and that half is a message of its own."""
        held = lens > 0
        starts = (np.cumsum(lens) - lens)[held]
        target = np.repeat(ids[starts], lens[held])
        messages = ids.size
        big = lens > self.tau
        if big.any():
            rows = np.repeat(np.arange(lens.size, dtype=ids.dtype), lens)
            high = big[rows] & (ids > rows)
            target[high] = rows[high]
            messages += np.count_nonzero(np.logical_or.reduceat(high, starts))
        rest = ids != target
        return (np.concatenate((target, ids[rest])),
                np.concatenate((ids, target[rest])), messages)


class AlternatingHGTM(_Scheme):
    """Three-round schedule: two label rounds over edges and cluster
    pointers, then one round shipping each node's greater-than-self cluster
    tail to the cluster minimum. Convergence is judged on whole super-steps."""

    name = "hgtm-alt"
    check_every = 3

    def init_state(self, g):
        return _singletons(g)

    def hash(self, rnd, v, st, g):
        if not st:
            return []
        m = st[0]
        if rnd % 3 != 0:
            # Label rounds ship only single minima; shipping whole states
            # would break the per-round volume cap of 2(|V|+|E|). A node held
            # elsewhere also forwards to the largest id it knows, its old
            # cluster minimum. Without that hop a minimum more than two edges
            # from its cluster boundary never hears of a smaller one and the
            # run stalls on a fragmented fixpoint.
            single = (m,)
            out = [(v, single)]
            for u in g.adj[v]:
                out.append((u, single))
            i = bisect_left(st, v)
            if (i == len(st) or st[i] != v) and st[-1] != m:
                out.append((st[-1], single))
            return out
        i = bisect_left(st, v)
        gt = st[i:]
        if not gt:
            return []
        single = (m,)
        out = [(m, gt)]
        for u in gt:
            out.append((u, single))
        return out

    def merge(self, rnd, v, payloads, prev):
        if rnd % 3 != 0:
            if not payloads:
                return prev
            m = min(p[0] for p in payloads)
            if not prev:
                return (m,)
            i = bisect_left(prev, m)
            if i < len(prev) and prev[i] == m:
                return prev
            return prev[:i] + (m,) + prev[i:]
        return merge_sorted_dedup(payloads)

    def hash_arrays(self, rnd, lens, ids, g):
        """hash on CSR state, as hash sends it. On a label round each node
        v with label m sends m to itself, to each neighbor and, when v is
        held elsewhere and its largest id is not m, to that id. On a tail
        round v sends its ids >= v to m, one message per nonempty tail, and
        m to each of them."""
        n = lens.size
        rows = np.repeat(np.arange(n, dtype=ids.dtype), lens)
        label = _labels(lens, ids)
        if rnd % 3 == 0:
            tail = ids >= rows
            gt = ids[tail]
            m = label[rows[tail]]
            tails = np.count_nonzero(np.bincount(rows[tail]))
            return np.concatenate((m, gt)), np.concatenate((gt, m)), tails + gt.size
        held = lens > 0
        src, dst = _edge_arrays(g, ids.dtype)
        tell = held[src]
        last = np.zeros(n, ids.dtype)
        last[held] = ids[np.cumsum(lens)[held] - 1]
        holds_self = np.zeros(n, bool)
        holds_self[ids[ids == rows]] = True
        hop = held & ~holds_self & (last != label)
        keys = np.concatenate((np.arange(n, dtype=ids.dtype)[held], dst[tell], last[hop]))
        vals = np.concatenate((label[held], label[src[tell]], label[hop]))
        return keys, vals, keys.size

    def merge_arrays(self, rnd, new, prev):
        """merge on CSR state. On a label round each node that received
        anything inserts the least id it received into its previous state,
        and one that received nothing (so held nothing) keeps it; a tail
        round's union is the new state, which may leave a node empty."""
        if rnd % 3 == 0:
            return new
        lens, ids = new
        n = lens.size
        got = lens > 0
        rows = np.arange(n, dtype=ids.dtype)
        return engine._pair_union(n, np.concatenate((np.repeat(rows, prev[0]), rows[got])),
                                  np.concatenate((prev[1], _labels(lens, ids)[got])))


class LbHashToMin(HashToMin):
    """Hash-to-min with a reducer load cap.

    A hub is a node whose closed neighborhood has more than tau ids. Every
    node starts with itself and its neighbors of the same kind, hub or
    non-hub, as in plain hash-to-min. A hub's non-hub neighbors are ranked
    0, 1, ... in id order, and the neighbor of rank k falls in run
    k // tau: run 0 is added to the hub's own state, and each run r > 0 to
    the state of its first member, the neighbor of rank r * tau. In later
    rounds a cluster larger than tau ships only its members at most v to
    the cluster minimum, keeping the rest on v as a new intermediate
    cluster; HashToMin's hash and hash_arrays do that split. A second
    phase stitches the resulting sub-clusters together over the real edges
    between them, so the partition never depends on which edges phase one
    saw.

    With tau=inf there are no hubs and the scheme is plain hash-to-min plus
    a one-round stitch. The cap is not a bound on reducer input:
    - a hub keeps all its hub neighbors, tau non-hub neighbors and itself;
    - when the holder is the cluster minimum, both halves go to one key;
    - a minimum that many mid-sized clusters share takes them all: on
      gen_random(2000, 0.02, seed=2) at tau=5 every node is a hub, and the
      phase-1 peak is 77411 ids against 65143 for plain hash-to-min;
    - phase 1 can take one round per node: on the path 1..300 plus the edge
      (0, 300) it takes 301 rounds at tau=1 and 374 at tau=5, where plain
      hash-to-min converges in 11."""

    name = "hash-to-min-lb"

    def __init__(self, tau=inf):
        # tau >= 1 comes first: it turns away nan and -inf, which int() cannot
        # take.
        if not (isinstance(tau, Real) and tau >= 1
                and (tau == inf or int(tau) == tau)):
            raise ValueError("tau must be a positive integer or inf, got %r" % (tau,))
        self.tau = tau if tau == inf else int(tau)

    def init_state(self, g):
        """The start state as one pair union: (v, v) for every node, both
        directions of every edge between two of a kind, and each hub's
        non-hub neighbors given to the holders of their runs."""
        n = g.n
        src, dst = _edge_arrays(g, engine._id_dtype(n))
        hub = np.bincount(src, minlength=n) + 1 > self.tau
        same = hub[src] == hub[dst]
        # Hub-to-non-hub edges, ordered by hub and then by neighbor id. No
        # node is a hub when tau > n, so tau can be taken as an int.
        cross = np.flatnonzero(hub[src] & ~same)
        tau = min(self.tau, n + 1)
        hubs, rest = src[cross], dst[cross]
        # A neighbor's rank is its distance from its hub's first cross edge.
        first = np.searchsorted(hubs, hubs)
        run = (np.arange(cross.size) - first) // tau
        holder = np.where(run == 0, hubs, rest[first + run * tau])
        own = np.arange(n, dtype=dst.dtype)
        return engine._pair_union(n, np.concatenate((own, src[same], holder)),
                                  np.concatenate((own, dst[same], rest)))

    def finalize(self, g, result, max_rounds):
        """Phase 2: plain hash-to-min among the phase-1 labels, in g's own
        ids. Each label starts holding itself and the labels of its members'
        neighbors, and every other node nothing. At the fixpoint each label
        holds its component's minimum first, and every node joins the
        component of its label."""
        labels = _labels(*result.final)
        src, dst = _edge_arrays(g, labels.dtype)
        seed = engine._pair_union(g.n, np.concatenate((labels, labels[src])),
                                  np.concatenate((labels, labels[dst])))
        phase2 = engine.run(g, HashToMin(), max_rounds, initial_state=seed)
        top = _labels(*phase2.final)[labels]
        shifted = [replace(m, round=m.round + result.rounds)
                   for m in phase2.per_round]
        return replace(
            result,
            rounds=result.rounds + phase2.rounds,
            converged=result.converged and phase2.converged,
            per_round=result.per_round + shifted,
            components=_grouped(np.arange(g.n), top) if phase2.converged else None,
            phase_split=result.rounds,
        )


_BUILDERS = {
    "hash-min": HashMin,
    "hash-to-all": HashToAll,
    "hash-to-min": HashToMin,
    "hgtm-alt": AlternatingHGTM,
    "hash-to-min-lb": LbHashToMin,
}

SCHEME_NAMES = tuple(_BUILDERS)


def make_scheme(name, tau=None):
    """Build a scheme by selector name; tau applies to hash-to-min-lb only."""
    if name not in _BUILDERS:
        raise ValueError("unknown scheme %r (choose from %s)"
                         % (name, ", ".join(SCHEME_NAMES)))
    if name == "hash-to-min-lb":
        return LbHashToMin(inf if tau is None else tau)
    if tau is not None:
        raise ValueError("tau only applies to hash-to-min-lb")
    return _BUILDERS[name]()
