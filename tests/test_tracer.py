"""The benchmark's tracer patches mrsim's entry points by name, so a refactor
that renames or bypasses one breaks traced passes while every other test
passes. One small call of each traced layer must record its span."""

import sys
from pathlib import Path

from mrsim import engine, graph, oracle, schemes, slc

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def test_tracer_records_a_span_for_every_patched_layer():
    g = graph.gen_path(12, weighted=True, seed=1)
    pred = slc.StopPredicate("size", 3)
    plain = slc.run_slc(g, "hash-to-min", pred, 50)
    t = tracer.Tracer()
    with t.installed():
        traced = slc.run_slc(g, "hash-to-min", pred, 50)
        slc.mcd(g, (0, 1, 2))
        slc.split_repair(g, (0, 1, 2), pred)
        pred.local(g, (0, 1, 2))
        oracle.centralized_slc(g, pred.kind, pred.param)
        engine.run(g, schemes.HashToMin(), 50)
    # The wrappers come off again, and leave the answer as it was.
    assert slc.stop_round.__name__ == "stop_round"
    assert traced == plain
    totals = t.totals()
    for name in ("stop_round", "step", "mcd", "split_repair", "local", "oracle"):
        assert totals[name][0] >= 1, name
