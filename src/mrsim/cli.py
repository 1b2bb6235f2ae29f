"""Command line driver: generate graphs, run schemes, sweep bounds, cluster.

Exit codes: 0 success/converged, 1 usage or input error (a bad count such as
--max-rounds 0, a bad --tau, an unwritable --out, or a broken engine
contract), 2 round budget exhausted before convergence, 3 verification
mismatch.
"""

import argparse
import csv
import io
import json
import math
import sys

from . import engine, oracle, slc
from .graph import (GraphError, diameter, dump_edge_list, gen_complete_binary_tree,
                    gen_path, gen_random, gen_star, load_edge_list, relabel_random)
from .schemes import SCHEME_NAMES, make_scheme

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(1)


def parse_graph_spec(spec, weighted=False, seed=0):
    """family:params or file:path -> Graph. Families: path:N, tree:N, star:N,
    random:N:P."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise GraphError("bad graph spec %r (want family:params or file:path)" % spec)
    if kind == "file":
        try:
            with open(rest, "rb") as fh:
                return load_edge_list(fh.read(), weighted=weighted)
        except OSError as exc:
            raise GraphError("cannot read %r: %s" % (rest, exc)) from None
    if kind == "random":
        try:
            n_str, p_str = rest.split(":")
            n, p = int(n_str), float(p_str)
        except ValueError:
            raise GraphError("bad random spec %r (want random:N:P)" % spec) from None
        return gen_random(n, p, seed=seed, weighted=weighted)
    makers = {"path": gen_path, "tree": gen_complete_binary_tree, "star": gen_star}
    if kind not in makers:
        raise GraphError("unknown graph family %r" % kind)
    try:
        n = int(rest)
    except ValueError:
        raise GraphError("bad size in graph spec %r" % spec) from None
    return makers[kind](n, weighted=weighted, seed=seed)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer, got %r" % text)
    return value


def _parse_seeds(args):
    if args.seed_list is not None:
        try:
            return [int(s) for s in args.seed_list.split(",")]
        except ValueError:
            raise GraphError("bad --seed-list %r" % args.seed_list) from None
    return range(args.seeds)


def _ordered(g, seed):
    """Seed 0 runs the graph as built; higher seeds shuffle the ids."""
    if seed == 0:
        return g
    return relabel_random(g, seed)[0]


def cmd_gen(args):
    g = parse_graph_spec(args.graph, weighted=args.weighted, seed=args.graph_seed)
    text = dump_edge_list(g)
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise GraphError("cannot write %r: %s" % (args.out, exc)) from None
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args):
    g = parse_graph_spec(args.graph, weighted=args.weighted, seed=args.graph_seed)
    any_unconverged = False
    any_mismatch = False
    if args.format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["algo", "seed", "n", "rounds", "converged", "n_components",
                    "messages_total", "volume_total", "max_reducer_in",
                    "max_total_state", "verified"])
    for seed in _parse_seeds(args):
        gs = _ordered(g, seed)
        scheme = make_scheme(args.algo, args.tau)
        result = engine.run(gs, scheme, args.max_rounds)
        if not result.converged:
            any_unconverged = True
        ok = None
        if args.verify and result.converged:
            ok = result.components == oracle.union_find_components(gs)
            if not ok:
                any_mismatch = True
        if args.format == "json":
            print(engine.result_to_json(result, seed=seed))
        else:
            w.writerow([
                result.algo, seed, g.n, result.rounds, int(result.converged),
                len(result.components) if result.components is not None else "",
                sum(m.messages for m in result.per_round),
                sum(m.node_id_volume for m in result.per_round),
                max((m.max_reducer_in for m in result.per_round), default=0),
                max((m.total_state for m in result.per_round), default=0),
                "" if ok is None else int(ok),
            ])
    if any_mismatch:
        sys.stderr.write("verify: components differ from oracle\n")
        return 3
    if any_unconverged:
        sys.stderr.write("did not converge within %d rounds\n" % args.max_rounds)
        return 2
    return 0


def cmd_sweep(args):
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise GraphError("bad --sizes %r" % args.sizes) from None
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["n", "d", "log2_d", "rounds_worst", "bound_2log2d",
                "max_state_mean", "bound_3VE"])
    exhausted = False
    for n in sizes:
        g = parse_graph_spec("%s:%d" % (args.family, n))
        d = diameter(g)
        rounds_worst = 0
        state_maxes = []
        for seed in range(args.seeds_per_size):
            gs = _ordered(g, seed)
            scheme = make_scheme(args.algo, args.tau)
            result = engine.run(gs, scheme, args.max_rounds)
            if not result.converged:
                exhausted = True
            rounds_worst = max(rounds_worst, result.rounds)
            state_maxes.append(max((m.total_state for m in result.per_round), default=0))
        log2_d = math.log2(d) if d > 0 else 0.0
        bound = math.ceil(2 * log2_d) if d > 0 else 0
        w.writerow([n, d, "%.4f" % log2_d, rounds_worst, bound,
                    "%.2f" % (sum(state_maxes) / len(state_maxes)),
                    3 * (g.n + g.m)])
    sys.stdout.write(out.getvalue())
    return 2 if exhausted else 0


def cmd_slc(args):
    g = parse_graph_spec(args.graph, weighted=True, seed=args.graph_seed)
    pred = slc.StopPredicate.parse(args.stop)
    result = slc.run_slc(g, args.algo, pred, args.max_rounds)
    mismatch = False
    if args.verify and result.converged:
        expect = oracle.centralized_slc(g, pred.kind, pred.param)
        mismatch = result.clusters != expect
    if args.format == "json":
        doc = {
            "algo": result.algo,
            "stop": result.stop,
            "rounds": result.rounds,
            "converged": result.converged,
            "stopped": result.stopped,
            "n_clusters": len(result.clusters),
            "largest": max((len(c) for c in result.clusters), default=0),
            "clusters": [list(c) for c in result.clusters],
        }
        print(json.dumps(doc, separators=(",", ":")))
    else:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["algo", "stop", "n", "rounds", "converged", "stopped",
                    "n_clusters", "largest"])
        w.writerow([result.algo, result.stop, g.n, result.rounds,
                    int(result.converged), int(result.stopped),
                    len(result.clusters),
                    max((len(c) for c in result.clusters), default=0)])
    if mismatch:
        sys.stderr.write("verify: clusters differ from centralized reference\n")
        return 3
    if not result.converged:
        sys.stderr.write("did not converge within %d rounds\n" % args.max_rounds)
        return 2
    return 0


def build_parser():
    p = _Parser(prog="mrsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", required=True,
                        help="family:params (path:N, tree:N, star:N, random:N:P) or file:PATH")
    common.add_argument("--graph-seed", type=int, default=0,
                        help="seed for random family and weight draws")

    g = sub.add_parser("gen", parents=[common], help="write an edge list")
    g.add_argument("--weighted", action="store_true")
    g.add_argument("--out", help="output file (default stdout)")
    g.set_defaults(fn=cmd_gen)

    r = sub.add_parser("run", parents=[common], help="run a component scheme")
    r.add_argument("--algo", choices=SCHEME_NAMES, default="hash-to-min")
    r.add_argument("--weighted", action="store_true")
    r.add_argument("--tau", type=float,
                   help="reducer load threshold for hash-to-min-lb (integer >= 1 or inf)")
    seeds = r.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", type=_positive_int, default=1,
                       help="run orderings 0..N-1, N >= 1 (ordering 0 = as built)")
    seeds.add_argument("--seed-list", help="comma-separated ordering seeds")
    r.add_argument("--max-rounds", type=_positive_int, default=10000)
    r.add_argument("--format", choices=("json", "csv"), default="json")
    r.add_argument("--verify", action="store_true",
                   help="compare components against the centralized reference")
    r.set_defaults(fn=cmd_run)

    s = sub.add_parser("sweep", help="round/state bounds over a size ladder (CSV)")
    s.add_argument("--family", choices=("path", "tree"), required=True)
    s.add_argument("--sizes", required=True, help="comma-separated node counts")
    s.add_argument("--seeds-per-size", type=_positive_int, default=3)
    s.add_argument("--algo", choices=SCHEME_NAMES, default="hash-to-min")
    s.add_argument("--tau", type=float,
                   help="reducer load threshold for hash-to-min-lb (integer >= 1 or inf)")
    s.add_argument("--max-rounds", type=_positive_int, default=10000)
    s.set_defaults(fn=cmd_sweep)

    c = sub.add_parser("slc", parents=[common], help="distributed single-linkage clustering")
    c.add_argument("--algo", choices=("hash-to-all", "hash-to-min"),
                   default="hash-to-all")
    c.add_argument("--stop", default="never", help="dist:x, size:n, or never")
    c.add_argument("--max-rounds", type=_positive_int, default=10000)
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.add_argument("--verify", action="store_true",
                   help="compare against the centralized reference")
    c.set_defaults(fn=cmd_slc)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, ValueError, engine.EngineFault) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
