"""Engine contract tests: merging, metrics, convergence, fault paths."""

import json
import random
import tracemalloc

import numpy as np
import pytest

from mrsim import engine
from mrsim.engine import (EngineFault, merge_sorted_dedup, result_to_json, run,
                          step)
from mrsim.graph import Graph, gen_path, gen_random
from mrsim.schemes import AlternatingHGTM, HashMin, HashToAll, HashToMin, LbHashToMin


def test_merge_sorted_dedup_examples():
    assert merge_sorted_dedup([]) == ()
    assert merge_sorted_dedup([()]) == ()
    assert merge_sorted_dedup([(1, 2, 3)]) == (1, 2, 3)
    assert merge_sorted_dedup([(1, 2), (1, 2), (1, 2)]) == (1, 2)
    assert merge_sorted_dedup([(1, 3), (2, 3), (1, 2)]) == (1, 2, 3)
    assert merge_sorted_dedup([(), (5,), (0, 9)]) == (0, 5, 9)
    assert merge_sorted_dedup([[4, 7], (4,)]) == (4, 7)


def test_merge_sorted_dedup_matches_set_union():
    rng = random.Random(11)
    for _ in range(300):
        seqs = []
        for _ in range(rng.randrange(0, 5)):
            m = rng.randrange(0, 6)
            seqs.append(tuple(sorted(rng.sample(range(30), m))))
        want = tuple(sorted(set(x for s in seqs for x in s)))
        assert merge_sorted_dedup(seqs) == want


def test_merge_sorted_dedup_rejects_unsorted_input():
    with pytest.raises(EngineFault):
        merge_sorted_dedup([(2, 1)])
    with pytest.raises(EngineFault):
        merge_sorted_dedup([(5,), (9, 0)])
    with pytest.raises(EngineFault):
        merge_sorted_dedup([(0, 1, 2), (2, 1)])
    with pytest.raises(EngineFault):
        merge_sorted_dedup([[3, 1]])


class _BadKeyScheme:
    name = "bad-key"
    check_every = 1

    def init_state(self, g):
        return [(v,) for v in range(g.n)]

    def hash(self, rnd, v, st, g):
        return [(g.n, st)] if v == 0 else []

    def merge(self, rnd, v, payloads, prev):
        return merge_sorted_dedup(payloads)

    def export(self, g, state):
        return []


class _EmptyPayloadScheme(_BadKeyScheme):
    name = "empty-payload"

    def hash(self, rnd, v, st, g):
        return [(v, ())] if v == 0 else []


def test_step_rejects_key_out_of_range():
    g = gen_path(3)
    with pytest.raises(EngineFault, match="outside"):
        run(g, _BadKeyScheme(), 5)


def test_step_rejects_empty_payload():
    g = gen_path(3)
    with pytest.raises(EngineFault, match="empty payload"):
        run(g, _EmptyPayloadScheme(), 5)


def test_run_rejects_bad_max_rounds_and_state_length():
    g = gen_path(3)
    with pytest.raises(EngineFault):
        run(g, HashMin(), 0)
    with pytest.raises(EngineFault):
        run(g, HashMin(), 5, initial_state=[(0,), (1,)])


class _SilentScheme:
    """Only node 0 speaks; everyone else receives nothing."""

    name = "silent"
    check_every = 1

    def init_state(self, g):
        return [(v,) for v in range(g.n)]

    def hash(self, rnd, v, st, g):
        return [(0, (0,))] if v == 0 else []

    def merge(self, rnd, v, payloads, prev):
        return merge_sorted_dedup(payloads)

    def export(self, g, state):
        return []


def test_nodes_keep_nothing_implicitly():
    # A merge built purely from payloads wipes any node the hash skipped;
    # the engine must not smuggle the previous state back in.
    g = gen_path(3)
    state, _ = step(g, _SilentScheme(), _csr([(0,), (1,), (2,)]), 1)
    assert engine._unpack(state) == ((0,), (), ())


def test_snapshots_one_per_round_plus_initial():
    g = gen_path(5)
    res = run(g, HashToMin(), 50, record=True)
    assert res.converged
    assert len(res.snapshots) == res.rounds + 1
    assert res.snapshots[0] == ((0, 1), (0, 1, 2), (1, 2, 3), (2, 3, 4),
                                (3, 4))
    assert res.snapshots[-1] == engine._unpack(res.final)
    plain = run(g, HashToMin(), 50)
    assert plain.snapshots is None


def test_initial_state_override_is_used():
    g = gen_path(4)
    res = run(g, HashMin(), 50, initial_state=[(0,), (0,), (0,), (0,)],
              record=True)
    assert res.snapshots[0] == ((0,), (0,), (0,), (0,))
    assert res.rounds == 1


def test_resuming_from_final_converges_at_once():
    """A converged run's .final, handed back as a CSR initial state, is a
    fixpoint: the run converges at its first check with the same
    components. lb's .final is its phase-1 state, so its phase 1 does."""
    g = gen_random(120, 0.02, seed=3)
    for make in (HashMin, HashToAll, HashToMin, AlternatingHGTM, lambda: LbHashToMin(2)):
        first = run(g, make(), 1000)
        again = run(g, make(), 1000, initial_state=first.final)
        assert again.converged and again.components == first.components
        assert (again.phase_split or again.rounds) == make().check_every


def _csr(clusters, dtype=np.int64):
    """A list of clusters as CSR arrays, built apart from the engine."""
    return (np.array([len(c) for c in clusters], np.intp),
            np.array([v for c in clusters for v in c], dtype))


@pytest.mark.parametrize("init", [
    [(0,), (1,), (2,)],
    [(0, 1), (1, 7), (2, 3), (3,)],
    [(-1, 0), (1,), (2,), (3,)],
    [(0, 1), (1, 2 ** 40), (2,), (3,)],
    [(0,), (3, 1), (2,), (3,)],
])
def test_csr_initial_state_fails_as_the_list_form(init):
    g = gen_path(4)
    for scheme in (HashMin(), HashToMin(), LbHashToMin(1)):
        with pytest.raises(EngineFault) as listed:
            run(g, scheme, 10, initial_state=init)
        with pytest.raises(EngineFault) as packed:
            run(g, scheme, 10, initial_state=_csr(init))
        assert str(packed.value) == str(listed.value)


def test_csr_initial_state_lens_must_cover_its_ids():
    """lens must be whole numbers at least 0 that sum to the ids. lens the
    cast to intp would change are a fault, not a state cut short:
    [1.5, 0.5, 1, 1] sums to the 4 ids but holds no whole cluster. Whole
    floats are taken as their ints."""
    ids = np.arange(4, dtype=np.int32)
    for lens in ([1, 1, 1, 2], [2, 2, -1, 1], [1.5, 0.5, 1, 1], [1, 1, 1, np.nan]):
        with pytest.raises(EngineFault, match="lens"):
            run(gen_path(4), HashMin(), 10, initial_state=(np.array(lens), ids))
    res = run(gen_path(4), HashMin(), 10, initial_state=(np.ones(4), ids), record=True)
    assert res.converged and res.snapshots[0] == ((0,), (1,), (2,), (3,))


class _StartsWith(_SilentScheme):
    """A scheme whose init_state is the given start state."""

    def __init__(self, start):
        self.start = start

    def init_state(self, g):
        return self.start


@pytest.mark.parametrize("k", [3, 5])
def test_start_state_of_wrong_length_fails_as_the_list_form(k):
    """A scheme's init_state that gives k != n clusters, as a list or as
    CSR arrays, fails with the same EngineFault as such an initial_state,
    and is never cut to n clusters."""
    g = gen_path(4)
    start = [(v,) for v in range(k)]
    with pytest.raises(EngineFault) as listed:
        run(g, HashMin(), 10, initial_state=start)
    for form in (start, _csr(start)):
        with pytest.raises(EngineFault) as started:
            run(g, _StartsWith(form), 10)
        assert str(started.value) == str(listed.value)


def test_csr_initial_state_of_int64_runs_as_the_list_form():
    g = gen_path(6)
    init = [(0, 1, 4), (), (1, 2), (3,), (3, 4, 5), (5,)]
    for scheme in (HashToAll(), HashToMin(), LbHashToMin(2)):
        listed = run(g, scheme, 100, initial_state=init, record=True)
        packed = run(g, scheme, 100, initial_state=_csr(init), record=True)
        assert result_to_json(packed) == result_to_json(listed)
        assert packed.snapshots == listed.snapshots
        assert packed.final[1].dtype == listed.final[1].dtype == np.int32


def test_unconverged_run_reports_no_components():
    g = gen_path(64)
    res = run(g, HashMin(), 5)
    assert not res.converged
    assert res.rounds == 5
    assert res.components is None
    assert len(res.per_round) == 5


def test_convergence_checked_on_super_step_boundaries():
    res = run(gen_path(2), AlternatingHGTM(), 100)
    assert res.converged
    assert res.rounds % 3 == 0


class _Stops:
    """A stop test that holds from its k-th call on and keeps what it saw."""

    def __init__(self, k):
        self.k = k
        self.seen = []

    def __call__(self, state):
        self.seen.append(state)
        return len(self.seen) >= self.k


class _NoFinalize(LbHashToMin):
    def finalize(self, g, result, max_rounds):
        raise AssertionError("finalize ran on a stopped run")


def test_stop_ends_the_run_before_export_and_finalize():
    g = gen_path(64)
    full = run(g, LbHashToMin(2), 100, record=True)
    phase1 = full.phase_split
    assert phase1 > 3
    for k in (1, 3, phase1):
        # k == phase1 is the round that confirms the fixpoint: stop is
        # checked first and wins.
        stop = _Stops(k)
        res = run(g, _NoFinalize(2), 100, stop=stop)
        assert (res.rounds, res.stopped, res.converged) == (k, True, False)
        assert res.components is None and res.phase_split is None
        assert res.per_round == full.per_round[:k]
        assert engine._unpack(res.final) == full.snapshots[k]
        assert [engine._unpack(st) for st in stop.seen] == full.snapshots[1:k + 1]
    res = run(g, LbHashToMin(2), 100, stop=lambda st: False)
    assert not res.stopped
    assert result_to_json(res) == result_to_json(full)


class _PerNodeHashToMin(HashToMin):
    hash_arrays = None


def test_stop_sees_the_csr_state_on_both_round_kinds():
    """stop gets each round's state as the engine holds it, CSR (lens, ids)
    arrays, on the columnar round and on the per-node one, and the arrays
    it keeps are not changed by later rounds."""
    g = gen_random(50, 0.04, seed=2)
    ref = run(g, HashToMin(), 100, record=True)
    for scheme in (HashToMin(), _PerNodeHashToMin()):
        seen, copies = [], []

        def stop(state):
            seen.append(state)
            copies.append([a.copy() for a in state])
            return False
        res = run(g, scheme, 100, stop=stop)
        assert res.converged and not res.stopped
        for lens, ids in seen:
            assert isinstance(lens, np.ndarray) and isinstance(ids, np.ndarray)
            assert lens.size == g.n and ids.size == lens.sum()
        assert [engine._unpack(st) for st in seen] == ref.snapshots[1:]
        assert all(np.array_equal(a, b) for st, copy in zip(seen, copies)
                   for a, b in zip(st, copy))


def test_stop_test_adds_no_copy_of_the_state():
    """A stop test that only looks costs no memory. On a path in id order
    each round doubles every cluster; handing stop a copy of the state as
    Python tuples every round raised this run's traced peak from 36 to
    51 MiB."""
    g = gen_path(3000)

    def peak(**kwargs):
        tracemalloc.start()
        try:
            res = run(g, HashToMin(), 7, **kwargs)
            return res, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    plain, base = peak()
    watched, seen = peak(stop=lambda state: False)
    assert result_to_json(watched) == result_to_json(plain)
    assert seen < base * 1.1 + 2 ** 20, (seen, base)


class CountingScheme:
    """Delegating wrapper that tallies traffic independently of the engine."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.check_every = inner.check_every
        self.rounds = {}

    def tally(self, rnd):
        """The counts of round rnd, zero until a call lands in it."""
        return self.rounds.setdefault(
            rnd, {"messages": 0, "volume": 0, "per_key": {}, "state": 0})

    def init_state(self, g):
        return self.inner.init_state(g)

    def hash(self, rnd, v, st, g):
        out = self.inner.hash(rnd, v, st, g)
        rec = self.tally(rnd)
        for key, payload in out:
            rec["messages"] += 1
            rec["volume"] += len(payload)
            rec["per_key"][key] = rec["per_key"].get(key, 0) + len(payload)
        return out

    def merge(self, rnd, v, payloads, prev):
        out = self.inner.merge(rnd, v, payloads, prev)
        self.tally(rnd)["state"] += len(out)
        return out

    def export(self, g, state):
        return self.inner.export(g, state)


def test_metrics_match_independent_tally():
    g = gen_random(60, 0.05, seed=3)
    wrapped = CountingScheme(HashToMin())
    res = run(g, wrapped, 100)
    assert res.converged
    for m in res.per_round:
        rec = wrapped.rounds[m.round]
        assert m.messages == rec["messages"]
        assert m.node_id_volume == rec["volume"]
        assert m.max_reducer_in == max(rec["per_key"].values(), default=0)
        assert m.total_state == rec["state"]


def test_result_to_json_is_deterministic_and_compact():
    g = gen_random(40, 0.08, seed=9)
    a = result_to_json(run(g, HashToMin(), 100), seed=9)
    b = result_to_json(run(g, HashToMin(), 100), seed=9)
    assert a == b
    assert " " not in a
    doc = json.loads(a)
    assert doc["seed"] == 9
    assert doc["converged"] is True
    assert doc["rounds"] == len(doc["per_round"])
    keys = ["round", "messages", "node_id_volume", "max_reducer_in",
            "total_state"]
    assert all(list(m) == keys for m in doc["per_round"])
    flat = sorted(v for comp in doc["components"] for v in comp)
    assert flat == list(range(g.n))


def test_result_to_json_null_fields():
    g = gen_path(64)
    doc = json.loads(result_to_json(run(g, HashMin(), 3)))
    assert doc["seed"] is None
    assert doc["components"] is None
    assert doc["converged"] is False


def test_package_all_names_resolve():
    import mrsim
    assert len(set(mrsim.__all__)) == len(mrsim.__all__)
    for name in mrsim.__all__:
        assert getattr(mrsim, name) is not None, name
    ns = {}
    exec("from mrsim import *", ns)
    assert set(ns) - {"__builtins__"} == set(mrsim.__all__)
