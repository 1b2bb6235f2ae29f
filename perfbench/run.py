"""Benchmark for mrsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (set-up), then runs whole passes
over its operations until S seconds have gone, building the inputs again
after each pass. The first pass is checked apart from the program; every
later pass and every later build must reproduce the first byte for byte.
The last line of standard output is one JSON object with the end-to-end
metrics (--trace 0) or the per-layer split (--trace 1, which alternates
untraced and traced passes). --workload all runs every workload, each in a
fresh interpreter.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
NAMES = ("components", "paths", "slc")


def import_program():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import mrsim
    except ImportError as exc:
        sys.exit("perfbench: cannot import mrsim from %s: %s" % (src, exc))
    if src not in Path(mrsim.__file__).resolve().parents:
        sys.exit("perfbench: mrsim was imported from %s, not from %s" % (mrsim.__file__, src))


def set_up(wl, seed, tracer=None):
    """Build the inputs once, traced when a tracer is given. Returns them
    and the seconds taken."""
    t0 = perf_counter()
    if tracer is None:
        groups = wl.setup(seed)
    else:
        with tracer.installed():
            groups = wl.setup(seed)
    return groups, perf_counter() - t0


def same_inputs(a, b):
    return [(x.label, x.g, x.ops) for x in a] == [(x.label, x.g, x.ops) for x in b]


def run_pass(wl, groups, tracer=None):
    """Run every operation once. Returns the seconds spent in the program's
    calls and, per group, the oracle's answer and the outputs (or the
    exception an operation raised)."""
    times = []
    done = []
    for group in groups:
        if tracer is not None:
            tracer.begin(group.label + "/oracle")
        t0 = perf_counter()
        want = wl.want(group)
        times.append(perf_counter() - t0)
        outs = []
        for op in group.ops:
            if tracer is not None:
                tracer.begin(wl.op_label(group, op))
            t0 = perf_counter()
            try:
                out = wl.run(group, op)
            except Exception as exc:  # a failed operation, reported below
                out = exc
            times.append(perf_counter() - t0)
            outs.append(out)
        done.append((want, outs))
    return sum(times), done


def verdicts(wl, groups, done):
    """Per operation, None or why it failed, from checks made apart from
    the program."""
    msgs = []
    for group, (want, outs) in zip(groups, done):
        if any(isinstance(o, Exception) for o in outs):
            msgs += ["raised %r" % o if isinstance(o, Exception)
                     else "not checked: another run on this graph raised" for o in outs]
        else:
            msgs += wl.check(group, want, outs)
    return msgs


def summarise(wl, done):
    """Canonical-output hashes per operation and the simulated cost."""
    hashes = []
    sim = dict.fromkeys(("rounds", "messages", "id_volume", "reducer_peak",
                         "state_peak", "state_total", "analyses"), 0)
    for _, outs in done:
        for out in outs:
            if isinstance(out, Exception):
                hashes.append("raised " + repr(out))
                continue
            hashes.append(hashlib.sha256(wl.canonical(out).encode()).hexdigest())
            per_round = wl.per_round(out)
            sim["rounds"] += len(per_round)
            sim["messages"] += sum(m.messages for m in per_round)
            sim["id_volume"] += sum(m.node_id_volume for m in per_round)
            sim["reducer_peak"] += max(m.max_reducer_in for m in per_round)
            sim["state_peak"] += max(m.total_state for m in per_round)
            sim["state_total"] += sum(m.total_state for m in per_round)
            sim["analyses"] += wl.analyses(out)
    return hashes, sim


# Per-layer metric -> (span name, field of its [calls, total_s, self_s], unit).
SETUP_LAYERS = {
    "graph.build_s": ("build", 1, "s"),
    "graph.diameter_s": ("diameter", 1, "s"),
}
PASS_LAYERS = {
    "engine.map_s": ("map", 1, "s"),
    "engine.shuffle_s": ("step", 2, "s"),
    "engine.reduce_s": ("reduce", 1, "s"),
    "engine.check_s": ("run", 2, "s"),
    "engine.steps": ("step", 0, "count"),
    "engine.hash_calls": ("map", 0, "count"),
    "engine.merge_calls": ("reduce", 0, "count"),
    "schemes.init_s": ("init_state", 1, "s"),
    "schemes.export_s": ("export", 1, "s"),
    "schemes.finalize_s": ("finalize", 2, "s"),
    "slc.stop_round_s": ("stop_round", 1, "s"),
    "slc.stop_round_calls": ("stop_round", 0, "count"),
    "slc.mcd_s": ("mcd", 1, "s"),
    "slc.local_s": ("local", 1, "s"),
    "slc.split_repair_s": ("split_repair", 1, "s"),
    "oracle.s": ("oracle", 1, "s"),
    "oracle.calls": ("oracle", 0, "count"),
}


def layer_metrics(tracers, table):
    """Each metric of the table as its median over the tracers."""
    totals = [t.totals() for t in tracers]
    return {metric: (statistics.median(tot[span][field] for tot in totals), unit)
            for metric, (span, field, unit) in table.items()}


def bench(name, seed, seconds, trace):
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    correct = True
    setup_tracers = [Tracer()] if trace else [None]
    groups, took = set_up(wl, seed, setup_tracers[0])
    setup_times = [took]
    n_ops = sum(len(x.ops) for x in groups)
    plain_walls, traced_walls, tracers = [], [], []
    first = msgs = sim = None
    attempted = failed = 0
    # Each pass (each untraced and traced pair with --trace 1) runs on the
    # next of the CPUs this process may use, so that the figure does not
    # hang on how busy the one CPU the scheduler picked is.
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    while True:
        traced = trace and len(plain_walls) > len(traced_walls)
        os.sched_setaffinity(0, {cpus[len(plain_walls) % len(cpus)]})
        tracer = Tracer() if traced else None
        if tracer is None:
            wall, done = run_pass(wl, groups)
        else:
            with tracer.installed():
                wall, done = run_pass(wl, groups, tracer)
            tracers.append(tracer)
        (traced_walls if traced else plain_walls).append(wall)
        hashes, pass_sim = summarise(wl, done)
        if first is None:
            first, sim = hashes, pass_sim
            msgs = verdicts(wl, groups, done)
            labels = [wl.op_label(x, op) for x in groups for op in x.ops]
            for label, msg in zip(labels, msgs):
                if msg is not None:
                    print("FAILED %s: %s" % (label, msg), file=sys.stderr)
        elif hashes != first or pass_sim != sim:
            correct = False
            print("pass %d differs from the first pass (%s)"
                  % (len(plain_walls) + len(traced_walls), "traced" if traced else "untraced"),
                  file=sys.stderr)
        del done
        # The inputs are built again after every pass, so that set-up is
        # timed across the whole run like the passes are.
        setup_tracers.append(Tracer() if trace else None)
        built, took = set_up(wl, seed, setup_tracers[-1])
        setup_times.append(took)
        if not same_inputs(built, groups):
            correct = False
            print("set-up gave different inputs on the same seed", file=sys.stderr)
        del built
        attempted += n_ops
        failed += sum(m is not None for m in msgs)
        passes = len(plain_walls) + len(traced_walls)
        if passes >= MIN_PASSES * (2 if trace else 1) and perf_counter() - start >= seconds:
            break
    os.sched_setaffinity(0, cpus)
    digest = hashlib.sha256("\n".join(first).encode()).hexdigest()
    print("workload %s seed %d: %d passes of %d operations, output digest %s"
          % (name, seed, len(plain_walls) + len(traced_walls), n_ops, digest))
    print("untraced pass seconds: %s" % " ".join("%.4f" % w for w in plain_walls))
    if trace:
        print("traced pass seconds: %s" % " ".join("%.4f" % w for w in traced_walls))
        metrics = layer_metrics(setup_tracers, SETUP_LAYERS)
        metrics.update(layer_metrics(tracers, PASS_LAYERS))
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(plain_walls), "s")
        metrics["engine.kept_ratio"] = (sim["state_total"] / sim["id_volume"], "ratio")
        metrics["slc.analyses"] = (sim["analyses"], "count")
        write_trace(name, seed, tracers, setup_tracers[0])
    else:
        print("set-up seconds: %s" % " ".join("%.4f" % t for t in setup_times))
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(plain_walls), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "sim_rounds": (sim["rounds"], "rounds"),
            "sim_messages": (sim["messages"], "messages"),
            "sim_id_volume": (sim["id_volume"], "ids"),
            "sim_reducer_peak": (sim["reducer_peak"], "ids"),
            "sim_state_peak": (sim["state_peak"], "ids"),
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def write_trace(name, seed, tracers, setup_tracer):
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    path = out / ("trace-%s-seed%d.jsonl" % (name, seed))
    with open(path, "w") as fh:
        for rec in setup_tracer.records("setup"):
            fh.write(json.dumps(rec) + "\n")
        for i, tracer in enumerate(tracers):
            for rec in tracer.records(i):
                fh.write(json.dumps(rec) + "\n")
    print("trace spans written to %s" % path.relative_to(ROOT))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        code = 0
        for name in NAMES:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd).returncode)
        return code
    import_program()
    print(json.dumps(bench(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
