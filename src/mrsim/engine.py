"""Single-process round engine for key-grouped message passing.

Each round: every node's hash function emits (key, payload) messages, the
engine groups them by key, and each node's merge function folds its incoming
payloads into a new state. States and payloads are strictly increasing tuples
of node ids. Merging is defined purely by the incoming payloads plus the
previous state passed as an explicit argument; a node with no incoming
messages keeps nothing implicitly.

Every boundary of run takes and gives the state in one form, CSR arrays
(lens, ids): each node's cluster length and all clusters' ids laid end to
end. The start state, scheme.init_state(g) or an initial_state, is
normalized once (a list of clusters, still accepted as initial_state, is
packed); each round maps it to the next; stop, export and RunResult.final
see it as held. Lists of clusters exist only inside the per-node spec
(step's body, a scheme's hash and merge) and in the outputs (snapshots and
components). run takes one of two round functions, both
(g, scheme, (lens, ids), rnd) -> ((lens, ids), RoundMetrics): step, the
per-node spec, which unpacks the state for hash and merge and packs their
result, and _columnar_step for a scheme with hash_arrays, the array form
of its hash, where the union and the metrics are done with numpy. A
wrapped scheme without hash_arrays, such as the benchmark's traced runs,
takes step. A state is checked where a caller or a scheme hands it in:
the start state once, as round 0, and each round's merge results (step's,
packed) or merge_arrays' result. The unions, sorted by construction from
checked keys and ids, are not re-checked.

_pair_union, a sort of (key, id) codes, is the one pair union: the round's
union for hash-to-min, both phases of hash-to-min-lb, hash-min and
hgtm-alt, and also how the schemes build their start states, lb its
phase-2 state and hgtm-alt its label-round merge. It is two steps: sort the
codes key * n + id, then drop repeats and take each id as its code less
key * n. A round reads its peak reducer intake between the two, as the
longest run of one key in the sorted codes; the other callers skip that.
hash-to-all ships whole
clusters, and its union is either a bitset OR, each cluster as
ceil(n / 64) uint64 words, or a boolean sparse product: the bitset when
its n rows fit in the held ids, the product otherwise, since on a large
graph of small clusters the bitset's words outweigh the product's ids.
The bitset's rows come from graph._bit_rows, the one builder of the
bit-row format, which diameter's search shares. A
scheme whose merge is more than the union of what a node receives also
offers merge_arrays(rnd, new, prev), which maps each node's union and its
previous state, both CSR, to its new state: hash-min keeps the least id
received, and hgtm-alt inserts it into the previous state on its label
rounds. Without merge_arrays the union is the new state.

run is the one round driver: component runs go to convergence, and
single-linkage growth passes its stop check as run's stop test.
"""

import json
from dataclasses import dataclass
from itertools import chain, islice
from operator import index, lt

import numpy as np

from .graph import _bit_rows, _firsts, _id_dtype


class EngineFault(Exception):
    """A scheme broke an engine contract (bad key, empty or unsorted payload)."""


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    messages: int
    node_id_volume: int
    max_reducer_in: int
    total_state: int


@dataclass
class RunResult:
    algo: str
    rounds: int
    converged: bool
    per_round: list
    final: tuple
    components: list | None
    snapshots: list | None = None
    phase_split: int | None = None
    stopped: bool = False


def merge_sorted_dedup(seqs):
    """Union of strictly increasing id sequences as a strictly increasing tuple.

    Every input payload is checked for strict increase before it joins the
    union; an unsorted one is an EngineFault, even when a sorted payload
    already covers its ids.
    """
    out = set()
    for p in seqs:
        if not all(map(lt, p, islice(p, 1, None))):
            raise EngineFault("merge input was not sorted strictly increasing")
        out.update(p)
    return tuple(sorted(out))


def step(g, scheme, state, rnd):
    """Run one map-reduce round of the per-node spec on the CSR state
    (lens, ids): scheme.hash and scheme.merge see each node's cluster as a
    tuple of ints. Returns merge's results packed and checked, and the
    RoundMetrics."""
    n = g.n
    state = _unpack(state)
    incoming = [None] * n
    messages = 0
    volume = 0
    hash_fn = scheme.hash
    for v in range(n):
        for key, payload in hash_fn(rnd, v, state[v], g):
            if not 0 <= key < n:
                raise EngineFault("round %d: node %d emitted key %r outside 0..%d"
                                  % (rnd, v, key, n - 1))
            if not payload:
                raise EngineFault("round %d: node %d emitted an empty payload to %d"
                                  % (rnd, v, key))
            bucket = incoming[key]
            if bucket is None:
                incoming[key] = [payload]
            else:
                bucket.append(payload)
            messages += 1
            volume += len(payload)
    max_in = 0
    total = 0
    merge_fn = scheme.merge
    new_state = [()] * n
    for v in range(n):
        payloads = incoming[v]
        if payloads is None:
            payloads = ()
        else:
            got = sum(map(len, payloads))
            if got > max_in:
                max_in = got
        c = merge_fn(rnd, v, payloads, state[v])
        new_state[v] = c
        total += len(c)
    return (_check_held(rnd, n, *_pack(new_state, n, rnd)),
            RoundMetrics(rnd, messages, volume, max_in, total))


_OUTSIDE = "round %d: %s %d outside 0..%d"
_COVER = "initial state must cover all %d nodes"


def _pack(state, n, rnd=0):
    """A list of clusters as CSR arrays (lens, ids), ids of _id_dtype(n).
    An id the dtype cannot hold is an EngineFault of round rnd, named as
    _check_range names the first id outside 0..n-1."""
    lens = np.fromiter(map(len, state), np.intp, n)
    try:
        ids = np.fromiter(chain.from_iterable(state), _id_dtype(n), int(lens.sum()))
    except OverflowError:
        bad = next(x for x in chain.from_iterable(state) if not 0 <= x < n)
        raise EngineFault(_OUTSIDE % (rnd, "held id", bad, n - 1)) from None
    return lens, ids


def _start(state, n):
    """The start state as CSR arrays of the engine's dtypes, checked as
    round 0. A tuple of two numpy arrays is a CSR pair (lens, ids), the form
    RunResult.final has: lens are cast to intp and ids to _id_dtype(n), and
    a lens or ids array that is not 1-D, or a value either cast would
    change, is an EngineFault, an id outside 0..n-1 with the message _pack
    gives it. Anything else is a list of clusters, packed, whose every id
    must pass operator.index: a float id is refused, never truncated.
    Either form must hold n clusters."""
    if not (isinstance(state, tuple) and len(state) == 2
            and all(isinstance(a, np.ndarray) for a in state)):
        try:
            state = [tuple(map(index, c)) for c in state]
        except TypeError:
            raise EngineFault("initial state must be clusters of integer ids") from None
        if len(state) != n:
            raise EngineFault(_COVER % n)
        return _check_held(0, n, *_pack(state, n))
    lens, ids = state
    if lens.ndim != 1 or ids.ndim != 1:
        raise EngineFault("initial state's lens and ids must be 1-D arrays")
    if lens.size != n:
        raise EngineFault(_COVER % n)
    lens = _exact(lens, np.intp)
    if lens is None:
        raise EngineFault("initial state's lens must be whole numbers")
    cast = _exact(ids, _id_dtype(n))
    if cast is None:
        _check_range(0, n, "held id", ids)
        raise EngineFault("initial state's ids must be whole numbers")
    return _check_held(0, n, lens, cast)


def _exact(a, dtype):
    """a as dtype, or None where the cast would change a value."""
    if a.dtype == dtype:
        return a
    with np.errstate(invalid="ignore"):
        cast = a.astype(dtype)
    return cast if np.array_equal(cast, a) else None


def _unpack(state):
    """CSR arrays back to a tuple of clusters of Python ints."""
    lens, ids = state
    it = iter(ids.tolist())
    return tuple(tuple(islice(it, k)) for k in lens.tolist())


def _same_csr(a, b):
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def _check_held(rnd, n, lens, ids):
    """(lens, ids), once lens are n integers at least 0 that sum to ids.size,
    every id is in 0..n-1 and every cluster is strictly increasing."""
    if lens.dtype.kind not in "iu":
        raise EngineFault("round %d: lens of dtype %s, not integers" % (rnd, lens.dtype))
    if lens.size != n:
        raise EngineFault("round %d: %d lens for %d nodes" % (rnd, lens.size, n))
    if n and lens.min() < 0:
        raise EngineFault("round %d: lens holds %d, below 0" % (rnd, lens.min()))
    if lens.sum() != ids.size:
        raise EngineFault("round %d: lens sum to %d, not to the %d ids"
                          % (rnd, lens.sum(), ids.size))
    _check_range(rnd, n, "held id", ids)
    # With every id in range, row * n + id increases strictly over the
    # whole array exactly when every cluster does.
    code = np.arange(n, dtype=ids.dtype).repeat(lens)
    code *= n
    code += ids
    if not (code[1:] > code[:-1]).all():
        raise EngineFault("round %d: a cluster was not sorted strictly increasing" % rnd)
    return lens, ids


def _check_range(rnd, n, what, a):
    if a.size and (a.min() < 0 or a.max() >= n):
        bad = a[(a < 0) | (a >= n)][0]
        raise EngineFault(_OUTSIDE % (rnd, what, bad, n - 1))


def _columnar_step(g, scheme, state, rnd):
    """One round on CSR state. scheme.hash_arrays returns (keys, vals,
    messages). When vals is an array, keys[i] is sent the id vals[i], and
    keys, an array of its own, is overwritten; when vals is None, keys[i]
    is sent the whole cluster of the node that holds ids[i]. Each node's
    union is the set of ids sent to it. scheme.merge_arrays(rnd, union,
    state), when the scheme has it, maps the unions and the previous state,
    both CSR, to the new state; otherwise the union is the new state.
    total_state counts the new state. Checks and metrics match step's, with
    merge_arrays' result checked as step checks merge's."""
    n = g.n
    lens, ids = state
    keys, vals, messages = scheme.hash_arrays(rnd, lens, ids, g)
    _check_range(rnd, n, "key", keys)
    if vals is None:
        new, volume, max_in = _whole_cluster_union(n, lens, ids, keys)
    else:
        _check_range(rnd, n, "sent id", vals)
        volume = keys.size
        code, key = _sorted_codes(n, keys, vals)
        del keys, vals
        max_in = _longest_run(key)
        new = _dedup(n, code, key)
    merge_arrays = getattr(scheme, "merge_arrays", None)
    if merge_arrays is not None:
        new = _check_held(rnd, n, *merge_arrays(rnd, new, state))
    return new, RoundMetrics(rnd, int(messages), volume, max_in, new[1].size)


def _pair_union(n, keys, vals):
    """The set of vals sent to each key, as CSR (lens, ids). keys, an array
    of its own, is overwritten; every key and val is in 0..n-1. A round
    takes the same two steps, and reads its peak intake between them."""
    return _dedup(n, *_sorted_codes(n, keys, vals))


def _sorted_codes(n, keys, vals):
    """The key * n + val codes, sorted, and each code's key. The codes are
    built in keys, and the sort is numpy's default: np.unique, hash-based
    in numpy 2.4, took over 20 times as long on these arrays, and a stable
    sort about 10 times."""
    code = keys
    code *= n
    code += vals
    del keys, vals
    code.sort()
    return code, code // n


def _dedup(n, code, key):
    """CSR (lens, ids) from sorted codes and their keys, repeats dropped.
    The codes and keys kept are gathered through one array of positions,
    in range, so take skips its check (mode="clip"). Each id is its code
    less key * n, written over the kept codes, and key * n over the kept
    keys once lens are counted from them."""
    kept = _firsts(code).nonzero()[0]
    code = code.take(kept, mode="clip")
    key = key.take(kept, mode="clip")
    del kept
    lens = np.bincount(key, minlength=n)
    key *= n
    code -= key
    return lens, code


def _longest_run(a):
    """The length of the longest run of equal values in a sorted array, 0
    when it is empty: the peak intake of a round whose sorted keys it is."""
    edge = np.empty(a.size + 1, bool)
    edge[0] = edge[-1] = True
    np.not_equal(a[1:], a[:-1], out=edge[1:-1])
    head = edge.nonzero()[0]
    return int(np.maximum.reduce(head[1:] - head[:-1], initial=0))


def _whole_cluster_union(n, lens, ids, keys):
    """The union, its id volume and its peak reducer input when every key
    receives its holder's whole cluster. Each key receives |C| ids from
    every cluster C that sends to it, so the volume is the sum of |C|^2.

    _bitset_union and _product_union give the same arrays. The bitset pays
    about W = ceil(n / 64) words per held id and the product about |C| ids.
    The bitset is taken when its n * W words of rows are at most ids.size,
    and the product otherwise. That also bounds the bitset's W * ids.size
    by the volume, since sum |C|^2 >= (sum |C|)^2 / n >= W * sum |C|. The
    product cannot go: on a large graph of small clusters, W words per held
    id outweigh |C|, and at n = 0 there are no words at all."""
    got = np.repeat(lens, lens)
    volume = int(got.sum())
    max_in = int(np.bincount(keys, weights=got, minlength=n).max()) if n else 0
    del got
    words = -(-n // 64)
    if 0 < n * words <= ids.size:
        return _bitset_union(n, lens, ids, keys), volume, max_in
    return _product_union(n, lens, ids, keys), volume, max_in


def _product_union(n, lens, ids, keys):
    """The union as a boolean sparse product: with the state as a boolean
    matrix A (A[v, x] when v holds x) and K the same for the keys, the new
    clusters are the rows of K^T A. No (key, id) pair is built, so memory
    stays near the sum of the cluster sizes, not of their squares. The data
    is bool so that a sum never wraps to 0. scipy is imported here, its one
    use in the engine, so that importing mrsim does not load it."""
    from scipy import sparse

    indptr = np.zeros(n + 1, np.intp)
    np.cumsum(lens, out=indptr[1:])
    ones = np.ones(ids.size, bool)
    held = sparse.csr_array((ones, ids, indptr), shape=(n, n))
    sent = sparse.csr_array((ones, keys, indptr), shape=(n, n))
    union = (sent.T @ held).tocsr()
    union.sort_indices()
    return np.diff(union.indptr).astype(np.intp), union.indices.astype(ids.dtype)


def _bitset_union(n, lens, ids, keys):
    """The union with each cluster held as a row of ceil(n / 64) uint64
    words, bit x of a row set when the cluster holds x, built by the shared
    graph._bit_rows from the state's sorted (node, id) pairs. The sends are
    sorted by key and each key's senders' rows ORed together. The senders'
    rows are gathered at most ids.size words at a time, and the union is
    unpacked at most 8 * ids.size bytes at a time, so no temporary grows
    with the id volume."""
    words = -(-n // 64)
    rows = np.repeat(np.arange(n), lens)
    bits = _bit_rows(rows, ids, n, words)
    order = np.argsort(keys)
    senders = rows[order]
    keys = keys[order]
    del rows, order
    acc = np.zeros((n, words), np.uint64)
    step = max(1, ids.size // words)
    for a in range(0, keys.size, step):
        k = keys[a:a + step]
        head = np.flatnonzero(_firsts(k))
        acc[k[head]] |= np.bitwise_or.reduceat(bits[senders[a:a + step]], head)
    del bits, senders, keys
    new_lens = []
    new_ids = []
    step = max(1, ids.size // (8 * words))
    for a in range(0, n, step):
        block = acc[a:a + step].astype("<u8", copy=False).view(np.uint8)
        held = np.unpackbits(block, axis=1, bitorder="little").view(bool)
        new_lens.append(np.count_nonzero(held, axis=1))
        # The block's rows are 64 * words bits wide, so a flat position
        # modulo that width is its id.
        at = np.flatnonzero(held)
        at %= 64 * words
        new_ids.append(at.astype(ids.dtype))
        del block, held, at
    return np.concatenate(new_lens), np.concatenate(new_ids)


def run(g, scheme, max_rounds, initial_state=None, record=False, stop=None):
    """Drive a scheme to convergence, a stop, or max_rounds.

    Convergence is state equality checked every scheme.check_every rounds
    (the confirming round is counted). The state is held as CSR arrays
    (lens, ids) throughout. It starts as initial_state when given, else as
    scheme.init_state(g): a CSR pair, the form RunResult.final has, whose
    ids are cast to _id_dtype(n), or a list of clusters, packed. A scheme
    with hash_arrays (every scheme in mrsim.schemes) runs each round
    through _columnar_step, and one without through step. record=True
    keeps a state snapshot per round for replay inspection. stop, when
    given, is called after every round with the state's (lens, ids)
    arrays, before the convergence test; when it returns true the run ends
    with stopped=True and converged=False, and export and finalize are
    skipped. export and final get the last state as held, checked as every
    state is; snapshots are tuples of tuples of Python ints, as _unpack(final).
    """
    try:
        max_rounds = index(max_rounds)
    except TypeError:
        raise EngineFault("max_rounds must be an integer, got %r" % (max_rounds,)) from None
    if max_rounds < 1:
        raise EngineFault("max_rounds must be at least 1")
    state = _start(scheme.init_state(g) if initial_state is None else initial_state, g.n)
    round_fn = step
    if getattr(scheme, "hash_arrays", None) is not None:
        round_fn = _columnar_step
    check_every = getattr(scheme, "check_every", 1)
    snapshots = [_unpack(state)] if record else None
    per_round = []
    last_checked = state
    converged = stopped = False
    rounds = 0
    for rnd in range(1, max_rounds + 1):
        state, metrics = round_fn(g, scheme, state, rnd)
        rounds = rnd
        per_round.append(metrics)
        if record:
            snapshots.append(_unpack(state))
        if stop is not None and stop(state):
            stopped = True
            break
        if rnd % check_every == 0:
            if _same_csr(state, last_checked):
                converged = True
                break
            last_checked = state
    components = scheme.export(g, state) if converged else None
    result = RunResult(algo=scheme.name, rounds=rounds, converged=converged,
                       per_round=per_round, final=state,
                       components=components, snapshots=snapshots,
                       stopped=stopped)
    finalize = getattr(scheme, "finalize", None)
    if finalize is not None and converged:
        result = finalize(g, result, max_rounds)
    return result


def result_to_json(result, seed=None):
    """Stable JSON for a run; byte-identical across repeats of the same run."""
    doc = {
        "algo": result.algo,
        "seed": seed,
        "rounds": result.rounds,
        "converged": result.converged,
        "per_round": [
            {
                "round": m.round,
                "messages": m.messages,
                "node_id_volume": m.node_id_volume,
                "max_reducer_in": m.max_reducer_in,
                "total_state": m.total_state,
            }
            for m in result.per_round
        ],
        "components": [list(c) for c in result.components]
        if result.components is not None else None,
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=False)
