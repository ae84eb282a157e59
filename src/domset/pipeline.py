"""End-to-end solver orchestration and algorithm selection.

The hedom5 pipeline runs reductions, lazy greedy, backward pruning, the
1-swap phase, and a final safety patch, in that order, on one shared
:class:`~domset.state.Cover`. :func:`solve` builds one
:class:`~domset.state.Budget` per run: in wall-clock mode its deadline is
the global time budget minus a 5% reserve for output, and the stop event
ends it early. Greedy, swap and annealing poll it; once it has expired,
the best set so far is patched to validity and returned.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from .annealing import AnnealConfig, sa_solve
from .graph import Graph, Solution
from .greedy import greedy_ln, lazy_greedy
from .pruning import backward_prune
from .reductions import apply_isolate_rule, apply_leaf_rule
from .state import Budget, compute_cover_counts
from .swaps import safety_patch, swap_phase
from .verification import verify

__all__ = ["ALGORITHMS", "SolverConfig", "StageTrace", "solve"]

ALGORITHMS = ("hedom5", "greedy", "sa")

_OUTPUT_RESERVE = 0.05


@dataclass(frozen=True)
class StageTrace:
    """Size of the solution after one pipeline stage, with elapsed wall ms."""

    stage: str
    size: int
    ms: float


@dataclass
class SolverConfig:
    """Algorithm choice plus every budget and schedule knob.

    ``wallclock=False`` drops the deadline, so only attempt counts (swap
    sweeps, annealing epochs) bound the run and runs are bit-reproducible.
    ``seed`` seeds both the swap sweep order and the annealing moves.
    """

    algorithm: str = "hedom5"
    time_budget_ms: float = 10_000.0
    attempt_cap: int = 20
    seed: int = 0
    anneal: AnnealConfig = field(default_factory=AnnealConfig)
    wallclock: bool = True

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.time_budget_ms <= 0:
            raise ValueError("time_budget_ms must be strictly positive")
        if self.attempt_cap < 1:
            raise ValueError("attempt_cap must be strictly positive")


def _record(trace: list[StageTrace] | None, stage: str, size: int, start: float) -> None:
    if trace is not None:
        trace.append(StageTrace(stage, size, (time.perf_counter() - start) * 1000.0))


def _run_hedom5(
    g: Graph,
    cfg: SolverConfig,
    trace: list[StageTrace] | None,
    budget: Budget,
    start: float,
) -> Solution:
    cover = compute_cover_counts(g)
    sol = cover.solution
    apply_isolate_rule(cover)
    apply_leaf_rule(cover)
    _record(trace, "reductions", len(sol), start)

    lazy_greedy(cover, budget)
    _record(trace, "greedy", len(sol), start)
    if not budget.expired():
        backward_prune(cover)
        _record(trace, "prune", len(sol), start)
        swap_phase(cover, cfg.attempt_cap, budget, rng=random.Random(cfg.seed))
        _record(trace, "swap", len(sol), start)

    safety_patch(g, sol)
    _record(trace, "patch", len(sol), start)
    return sol


def solve(
    g: Graph,
    cfg: SolverConfig,
    trace: list[StageTrace] | None = None,
    stop: threading.Event | None = None,
) -> Solution:
    """Run the configured algorithm and return a verified dominating set.

    ``trace`` collects per-stage sizes and timings (hedom5 only). ``stop``
    is polled throughout; when set, the best solution found so far is
    patched to validity and returned early.
    """
    start = time.perf_counter()
    budget = Budget(cfg.time_budget_ms * (1.0 - _OUTPUT_RESERVE) if cfg.wallclock else None, stop)
    if cfg.algorithm == "hedom5":
        sol = _run_hedom5(g, cfg, trace, budget, start)
    else:
        sol = greedy_ln(g, budget)
        if budget.expired():
            safety_patch(g, sol)
        elif cfg.algorithm == "sa":
            sol = sa_solve(g, sol, cfg.anneal, cfg.seed, budget)
    report = verify(g, sol)
    if not report.valid:
        raise RuntimeError(f"internal error: solver left vertex {report.first_uncovered} uncovered")
    return sol
