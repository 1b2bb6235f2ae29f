"""Single-process round engine for key-grouped message passing.

Each round: every node's hash function emits (key, payload) messages, the
engine groups them by key, and each node's merge function folds its incoming
payloads into a new state. States and payloads are strictly increasing tuples
of node ids. Merging is defined purely by the incoming payloads plus the
previous state passed as an explicit argument; a node with no incoming
messages keeps nothing implicitly.
"""

import json
from dataclasses import dataclass
from itertools import islice
from operator import lt


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
    """Run one map-reduce round; returns (new_state, RoundMetrics)."""
    n = g.n
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
    return new_state, RoundMetrics(rnd, messages, volume, max_in, total)


def run(g, scheme, max_rounds, initial_state=None, record=False):
    """Drive a scheme to convergence or max_rounds.

    Convergence is state equality checked every scheme.check_every rounds
    (the confirming round is counted). record=True keeps a state snapshot
    per round for replay inspection.
    """
    if max_rounds < 1:
        raise EngineFault("max_rounds must be at least 1")
    if initial_state is None:
        state = scheme.init_state(g)
    else:
        state = [tuple(c) for c in initial_state]
        if len(state) != g.n:
            raise EngineFault("initial state must cover all %d nodes" % g.n)
    check_every = getattr(scheme, "check_every", 1)
    snapshots = [tuple(state)] if record else None
    per_round = []
    last_checked = list(state)
    converged = False
    rounds = 0
    for rnd in range(1, max_rounds + 1):
        state, metrics = step(g, scheme, state, rnd)
        rounds = rnd
        per_round.append(metrics)
        if record:
            snapshots.append(tuple(state))
        if rnd % check_every == 0:
            if state == last_checked:
                converged = True
                break
            last_checked = list(state)
    components = scheme.export(g, state) if converged else None
    result = RunResult(algo=scheme.name, rounds=rounds, converged=converged,
                       per_round=per_round, final=tuple(state),
                       components=components, snapshots=snapshots)
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
