"""Dominating-set heuristics: a reduce/greedy/prune/swap pipeline (hedom5),
a plain greedy baseline, greedy-seeded simulated annealing, a verifier, an
exact small-instance oracle, instance generators, and a benchmark harness.
"""

from .annealing import AnnealConfig, decay, sa_solve
from .bench import BenchRecord, render_csv, run_bench, summarize
from .generators import generate_instance, gnp, grid, random_tree, star_forest, to_ds
from .graph import Graph, ParseError, Solution, parse_ds, parse_solution, write_solution
from .greedy import add_to_d, apply_isolate_rule, apply_leaf_rule, greedy_ln, lazy_greedy, safety_patch, true_gain
from .pipeline import ALGORITHMS, SolverConfig, StageTrace, solve
from .state import Budget, Cover, compute_cover_counts
from .swaps import backward_prune, swap_phase, try_one_swap
from .verification import ORACLE_MAX_N, VerifyReport, brute_force_optimum, verify

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AnnealConfig",
    "BenchRecord",
    "Budget",
    "Cover",
    "Graph",
    "ORACLE_MAX_N",
    "ParseError",
    "Solution",
    "SolverConfig",
    "StageTrace",
    "VerifyReport",
    "add_to_d",
    "apply_isolate_rule",
    "apply_leaf_rule",
    "backward_prune",
    "brute_force_optimum",
    "compute_cover_counts",
    "decay",
    "generate_instance",
    "gnp",
    "greedy_ln",
    "grid",
    "lazy_greedy",
    "parse_ds",
    "parse_solution",
    "random_tree",
    "render_csv",
    "run_bench",
    "sa_solve",
    "safety_patch",
    "solve",
    "star_forest",
    "summarize",
    "swap_phase",
    "to_ds",
    "true_gain",
    "try_one_swap",
    "verify",
    "write_solution",
]
