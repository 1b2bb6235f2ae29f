"""The benchmark's workloads.

A workload builds its inputs from the seed (set-up), runs the program on
them (timed: the simulation runs plus the program's own oracle), and checks
every output apart from the program. One operation is one simulation run.
The program is always called through its modules' attributes, so that the
tracer's wrappers are seen.
"""

import json
import math
import random
from dataclasses import dataclass

from mrsim import engine, graph, oracle, schemes, slc

import checks

MAX_ROUNDS = 100000
SLC_MAX_ROUNDS = 1000

VARIANTS = (("hash-min", None), ("hash-to-all", None), ("hash-to-min", None),
            ("hgtm-alt", None), ("hash-to-min-lb", 1), ("hash-to-min-lb", 5),
            ("hash-to-min-lb", math.inf))


@dataclass
class Group:
    """One input graph and the operations run on it."""

    label: str
    g: graph.Graph
    ops: tuple
    diameter: int | None = None


def _seed(rng):
    return rng.randrange(2 ** 31)


class Components:
    """The seven scheme variants on seeded sparse randoms and on path, tree
    and star ladders as built, plus hash-to-min-lb on the 10^4-leaf star and
    on a dense random. Relabeled paths are the paths workload's."""

    name = "components"
    RANDOMS = 12
    # Full gossip grows quadratically in component size, so it stops short
    # of the longer paths and the larger star.
    LADDERS = (("path", "gen_path", (64, 256), {"hash-to-all": 64}),
               ("tree", "gen_complete_binary_tree", (63, 255), {}),
               ("star", "gen_star", (129, 1025), {"hash-to-all": 129}))

    def setup(self, seed):
        rng = random.Random(seed)
        groups = []
        for i in range(self.RANDOMS):
            n = 50 + (i * 37) % 51
            p = (0.001, 0.005, 0.02)[i % 3]
            groups.append(Group("random:%d:%g" % (n, p),
                                graph.gen_random(n, p, seed=_seed(rng)), VARIANTS))
        for family, maker, sizes, caps in self.LADDERS:
            for n in sizes:
                g = getattr(graph, maker)(n)
                ops = tuple(v for v in VARIANTS if n <= caps.get(v[0], n))
                d = {"path": n - 1, "tree": 2 * (n.bit_length() - 1), "star": 2}[family]
                groups.append(Group("%s:%d" % (family, n), g, ops, d))
        groups.append(Group("star:10001", graph.gen_star(10001),
                            (("hash-to-min", None), ("hash-to-min-lb", 100))))
        groups.append(Group("random:2000:0.02:seed=2", graph.gen_random(2000, 0.02, seed=2),
                            (("hash-to-min-lb", 5),)))
        return groups

    def want(self, group):
        return oracle.union_find_components(group.g)

    def run(self, group, op):
        name, tau = op
        return engine.run(group.g, schemes.make_scheme(name, tau), MAX_ROUNDS)

    def op_label(self, group, op):
        name, tau = op
        return "%s/%s" % (group.label, name if tau is None else "%s@%s" % (name, tau))

    def check(self, group, want, outs):
        g = group.g
        truth = checks.components_of(g.n, list(g.edges()))
        msgs = []
        for (name, tau), res in zip(group.ops, outs):
            msg = (checks.matches(res, res.components, want, "mrsim.oracle")
                   or checks.matches(res, res.components, truth, "scipy csgraph"))
            if msg is None:
                msg = self.property_check(group, name, tau, res, outs)
            msgs.append(msg)
        return msgs

    def property_check(self, group, name, tau, res, outs):
        if name == "hgtm-alt":
            return checks.volume_cap(res, group.g.n, group.g.m)
        if name == "hash-to-all" and group.diameter is not None:
            return checks.gossip_rounds(res, group.diameter)
        if name == "hash-to-min-lb" and tau == 100:
            return checks.star_ratio(outs[0], res)
        return None

    def canonical(self, out):
        return engine.result_to_json(out)

    def per_round(self, out):
        return out.per_round

    def analyses(self, out):
        return 0


class Paths(Components):
    """hash-to-min on random relabelings of long paths."""

    name = "paths"
    SIZES = (2 ** 12, 2 ** 13, 2 ** 15)

    def setup(self, seed):
        rng = random.Random(seed)
        return [Group("path:%d" % n, graph.relabel_random(graph.gen_path(n), _seed(rng))[0],
                      (("hash-to-min", None),))
                for n in self.SIZES]

    def property_check(self, group, name, tau, res, outs):
        return checks.log_rounds(res, group.g.n)


PREDICATES = tuple([("dist", t / 10) for t in range(1, 10)] + [("size", s) for s in (2, 5, 20)])
GROWTH = ("hash-to-all", "hash-to-min")


class Slc:
    """run_slc with both growth schemes over dist:x and size:s predicates on
    connected weighted randoms of diameter at most 4 with a light edge.

    The graphs are the first admissible ones drawn from a fixed stream, and
    the seed relabels them. Drawing the graphs from the seed made the
    simulated cost of a pass vary by up to a fifth between seeds: one graph
    needing one more round of full-gossip growth ships several times the
    ids."""

    name = "slc"
    SIZES = (30, 40, 50, 60, 70, 80)
    DEGREE = 6.5

    def setup(self, seed):
        rng = random.Random(seed)
        stream = random.Random(0)
        ops = tuple((kind, param, algo) for kind, param in PREDICATES for algo in GROWTH)
        return [Group("wrandom:%d" % n,
                      graph.relabel_random(self._instance(n, stream), _seed(rng))[0], ops)
                for n in self.SIZES]

    def _instance(self, n, stream):
        while True:
            g = graph.gen_random(n, min(0.5, self.DEGREE / n), seed=_seed(stream),
                                 weighted=True)
            if (len(graph.components_nodes(g)) == 1 and graph.diameter(g) <= 4
                    and min(g.weights.values()) < 0.1):
                return g

    def want(self, group):
        return {(kind, param): oracle.centralized_slc(group.g, kind, param)
                for kind, param in PREDICATES}

    def run(self, group, op):
        kind, param, algo = op
        cache = {}
        res = slc.run_slc(group.g, algo, slc.StopPredicate(kind, param), SLC_MAX_ROUNDS, cache)
        return res, len(cache)

    def op_label(self, group, op):
        return "%s/%s:%g/%s" % ((group.label,) + op)

    def check(self, group, want, outs):
        g = group.g
        truths = {}
        for kind, param in PREDICATES:
            if kind == "dist":
                truths[kind, param] = checks.components_of(
                    g.n, [e for e, w in g.weights.items() if w <= param])
            else:
                truths[kind, param] = checks.size_capped_kruskal(
                    g.n, [(w, u, v) for (u, v), w in g.weights.items()], param)
        msgs = []
        for (kind, param, _), (res, _) in zip(group.ops, outs):
            msgs.append(
                checks.matches(res, res.clusters, want[kind, param], "mrsim.oracle")
                or checks.matches(res, res.clusters, truths[kind, param],
                                  "threshold components" if kind == "dist"
                                  else "size-capped Kruskal")
                or checks.clustering_shape(g.n, g.adj, res.clusters,
                                           param if kind == "size" else None))
        return msgs

    def canonical(self, out):
        res, _ = out
        return json.dumps([res.algo, res.stop, res.rounds, res.converged, res.stopped,
                           res.clusters,
                           [[m.round, m.messages, m.node_id_volume, m.max_reducer_in,
                             m.total_state] for m in res.per_round]],
                          separators=(",", ":"))

    def per_round(self, out):
        return out[0].per_round

    def analyses(self, out):
        return out[1]


WORKLOADS = {wl.name: wl for wl in (Components(), Paths(), Slc())}
