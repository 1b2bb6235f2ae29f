"""Timing wrappers put around mrsim's public entry points from outside the
program, for one traced pass, and taken off after it.

Spans are aggregated per operation, round and name in memory: a scheme's
hash and merge are timed on every node call but only their per-round sums
are kept. A span's self time is its duration minus the spans nested in it.
"""

from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter
from unittest import mock

from mrsim import engine, graph, oracle, slc

GENERATORS = ("gen_path", "gen_complete_binary_tree", "gen_star", "gen_random",
              "relabel_random")


class TracedScheme:
    """Delegates to a scheme and times each of its entry points."""

    def __init__(self, tracer, inner):
        self.name = inner.name
        self.check_every = getattr(inner, "check_every", 1)
        self.hash = tracer.lean(inner.hash, "map")
        self.merge = tracer.lean(inner.merge, "reduce")
        self.init_state = tracer.span("init_state", inner.init_state)
        self.export = tracer.span("export", inner.export)
        if hasattr(inner, "finalize"):
            self.finalize = tracer.span("finalize", inner.finalize)


class Tracer:
    """Spans of one traced pass or set-up, and the wrappers that record them."""

    def __init__(self):
        self.op = "setup"
        self.round = 0
        # (op, round, name) -> [calls, total_s, self_s]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack = []
        self._lean = {"map": [0, 0.0], "reduce": [0, 0.0]}

    def begin(self, op):
        self.op = op
        self.round = 0

    def _record(self, name, rnd, calls, total, self_time):
        rec = self.spans[(self.op, rnd, name)]
        rec[0] += calls
        rec[1] += total
        rec[2] += self_time

    def span(self, name, fn):
        """Wrap fn in a span that nests: its time also counts as child time
        of the span it runs in."""
        def wrapper(*args, **kwargs):
            rnd = self.round
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dur
                self._record(name, rnd, 1, dur, dur - child)
        return wrapper

    def lean(self, fn, name):
        """Wrap a per-node call: only a running count and time are kept."""
        acc = self._lean[name]

        def wrapper(*args):
            t0 = perf_counter()
            out = fn(*args)
            acc[1] += perf_counter() - t0
            acc[0] += 1
            return out
        return wrapper

    def scheme(self, s):
        return s if isinstance(s, TracedScheme) else TracedScheme(self, s)

    def _step(self, fn):
        lean = self._lean

        def step(g, scheme, state, rnd):
            self.round = rnd
            before = [tuple(acc) for acc in lean.values()]
            t0 = perf_counter()
            try:
                return fn(g, self.scheme(scheme), state, rnd)
            finally:
                dur = perf_counter() - t0
                inner = 0.0
                for (name, (calls, total)), (c0, s0) in zip(lean.items(), before):
                    self._record(name, rnd, calls - c0, total - s0, total - s0)
                    inner += total - s0
                if self._stack:
                    self._stack[-1] += dur
                # Self time of a step, without its map and reduce, is the
                # shuffle: bucketing by key plus the engine's checks.
                self._record("step", rnd, 1, dur, dur - inner)
        return step

    @contextmanager
    def installed(self):
        """Patch the wrappers in where the program looks the names up."""
        with ExitStack() as stack:
            def patch(obj, name, wrapper):
                stack.enter_context(mock.patch.object(obj, name, wrapper))

            run_span = self.span("run", engine.run)
            patch(engine, "run",
                  lambda g, scheme, *a, **k: run_span(g, self.scheme(scheme), *a, **k))
            patch(engine, "step", self._step(engine.step))
            # run_slc builds its own scheme from this table.
            stack.enter_context(mock.patch.dict(slc._SLC_SCHEMES, {
                algo: (lambda cls=cls: self.scheme(cls()))
                for algo, cls in slc._SLC_SCHEMES.items()}))
            for name in ("stop_round", "mcd", "split_repair"):
                patch(slc, name, self.span(name, getattr(slc, name)))
            patch(slc.StopPredicate, "local", self.span("local", slc.StopPredicate.local))
            for name in ("union_find_components", "centralized_slc"):
                patch(oracle, name, self.span("oracle", getattr(oracle, name)))
            for name in GENERATORS:
                patch(graph, name, self.span("build", getattr(graph, name)))
            patch(graph, "diameter", self.span("diameter", graph.diameter))
            yield self

    def totals(self):
        """name -> [calls, total_s, self_s] summed over operations and rounds."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, _, name), rec in self.spans.items():
            acc = out[name]
            for i, x in enumerate(rec):
                acc[i] += x
        return out

    def records(self, pass_no):
        for (op, rnd, name), (calls, total, self_time) in self.spans.items():
            yield {"pass": pass_no, "op": op, "round": rnd, "span": name,
                   "calls": calls, "total_s": total, "self_s": self_time}
