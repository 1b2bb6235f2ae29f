"""Deterministic single-process simulator for round-synchronized map-reduce
graph algorithms: connected components by hashing schemes, plus distributed
single-linkage clustering with stop predicates."""

from .engine import EngineFault, RoundMetrics, RunResult, merge_sorted_dedup, run, step
from .graph import (Graph, GraphError, diameter, gen_complete_binary_tree, gen_path,
                    gen_random, gen_star, load_edge_list, relabel, relabel_random)
from .schemes import SCHEME_NAMES, make_scheme
from .slc import StopPredicate, mcd, run_slc, split_repair, stop_round

__all__ = [
    "EngineFault", "Graph", "GraphError", "RoundMetrics", "RunResult",
    "SCHEME_NAMES", "StopPredicate", "diameter", "gen_complete_binary_tree",
    "gen_path", "gen_random", "gen_star", "load_edge_list", "make_scheme", "mcd",
    "merge_sorted_dedup", "relabel", "relabel_random", "run", "run_slc",
    "split_repair", "step", "stop_round",
]
