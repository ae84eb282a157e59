"""End-to-end solver orchestration and algorithm selection.

:func:`solve` runs every algorithm as construct, improve, finish on the one
:class:`~domset.state.Cover` it builds per run. hedom5 constructs with the
isolate/leaf reductions and lazy greedy and improves with backward pruning
and the 1-swap phase; greedy and sa construct with lazy greedy alone, and
sa improves by annealing. Every run finishes with one safety patch, which
reloads that Cover, and one verify. :func:`solve` builds one
:class:`~domset.state.Budget` per run: in wall-clock mode its deadline is
the global time budget minus a 5% reserve for output, and the stop event
ends it early. Greedy, swap and annealing poll it; once it has expired,
the improvement stage is skipped.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field

from .annealing import AnnealConfig, sa_solve
from .graph import Graph, Solution
# solve constructs with lazy_greedy alone; greedy_ln stays a name of this
# module because the benchmark's tracer hooks domset.pipeline.greedy_ln.
from .greedy import apply_isolate_rule, apply_leaf_rule, greedy_ln, lazy_greedy, safety_patch  # noqa: F401
from .state import Budget, compute_cover_counts
from .swaps import backward_prune, swap_phase
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
        if not (math.isfinite(self.time_budget_ms) and self.time_budget_ms > 0):
            raise ValueError(f"time_budget_ms must be finite and strictly positive, got {self.time_budget_ms}")
        if self.attempt_cap < 1:
            raise ValueError("attempt_cap must be strictly positive")


def solve(
    g: Graph,
    cfg: SolverConfig,
    trace: list[StageTrace] | None = None,
    stop: threading.Event | None = None,
) -> Solution:
    """Run the configured algorithm and return ``cover.solution``, verified.

    ``trace`` collects the size and elapsed ms after every stage: hedom5
    records reductions, greedy, prune, swap and patch; greedy records
    greedy and patch; sa records greedy, anneal and patch. ``stop`` is
    polled throughout; when set, the improvement stage is skipped or cut
    short and the best set so far is patched to validity and returned.
    """
    start = time.perf_counter()
    budget = Budget(cfg.time_budget_ms * (1.0 - _OUTPUT_RESERVE) if cfg.wallclock else None, stop)

    def record(stage: str) -> None:
        if trace is not None:
            trace.append(StageTrace(stage, len(cover.members), (time.perf_counter() - start) * 1000.0))

    cover = compute_cover_counts(g)
    if cfg.algorithm == "hedom5":
        apply_isolate_rule(cover)
        apply_leaf_rule(cover)
        record("reductions")
    lazy_greedy(cover, budget)
    record("greedy")

    if not budget.expired():
        if cfg.algorithm == "hedom5":
            backward_prune(cover)
            record("prune")
            swap_phase(cover, cfg.attempt_cap, budget, random.Random(cfg.seed))
            record("swap")
        elif cfg.algorithm == "sa":
            sa_solve(cover, cfg.anneal, cfg.seed, budget)
            record("anneal")

    safety_patch(cover)
    record("patch")
    sol = cover.solution
    report = verify(g, sol)
    if not report.valid:
        raise RuntimeError(f"internal error: solver left vertex {report.first_uncovered} uncovered")
    return sol
