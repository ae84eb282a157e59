"""Greedy-seeded simulated annealing over feasible dominating sets.

Moves are vertex removals (always accepted), size-neutral exchanges
(always accepted), and additions (accepted with probability exp(-1/T));
every accepted state keeps full domination, and the best state seen is
what comes back.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .graph import Graph, Solution
from .state import Budget, compute_cover_counts
from .verification import verify

__all__ = ["AnnealConfig", "decay", "sa_solve", "TEMPERATURE_FLOOR"]

TEMPERATURE_FLOOR = 1e-6

# removal : exchange : addition proposal mix.
_P_REMOVAL = 0.4
_P_EXCHANGE = 0.8


@dataclass
class AnnealConfig:
    """Schedule and epoch cap for one annealing run.

    ``moves_per_epoch=None`` resolves to max(100, n) at solve time. The run
    ends after ``max_epochs`` epochs or when the caller's budget expires,
    whichever comes first.
    """

    initial_temperature: float = 1.0
    cooling_factor: float = 0.995
    moves_per_epoch: int | None = None
    max_epochs: int = 200

    def __post_init__(self) -> None:
        if self.initial_temperature <= 0:
            raise ValueError("initial_temperature must be positive")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling_factor must lie in (0, 1)")
        if self.moves_per_epoch is not None and self.moves_per_epoch < 1:
            raise ValueError("moves_per_epoch must be positive")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")


def decay(temperature: float, cfg: AnnealConfig) -> float:
    """Geometric cooling applied after each epoch, clamped at the floor."""
    return max(temperature * cfg.cooling_factor, TEMPERATURE_FLOOR)


def sa_solve(
    g: Graph,
    seed_solution: Solution,
    cfg: AnnealConfig,
    seed: int = 0,
    budget: Budget | None = None,
    validate_each_move: bool = False,
) -> Solution:
    """Anneal from a feasible seed solution; returns the smallest dominating
    set seen.

    ``seed`` seeds the move rng. ``budget`` is polled before every epoch and
    every 256 moves. Raises ValueError if the seed solution does not
    dominate. ``validate_each_move`` re-verifies feasibility after every
    accepted move (tests only; the normal path relies on the incremental
    cover counts).
    """
    report = verify(g, seed_solution)
    if not report.valid:
        raise ValueError(f"seed solution is not dominating (vertex {report.first_uncovered} uncovered)")
    n = g.n
    if n == 0:
        return seed_solution.copy()

    cover = compute_cover_counts(g, seed_solution.copy())
    # The cover's pick array: its order, kept by swap-with-last drops,
    # drives the random picks.
    cur = cover.members
    in_set = cover.in_set
    best = list(cur)
    off = g.off
    nbr = g.nbr
    rng = random.Random(seed)
    moves_per_epoch = cfg.moves_per_epoch if cfg.moves_per_epoch is not None else max(100, n)
    temperature = cfg.initial_temperature

    def feasible() -> bool:
        return all(c >= 1 for c in cover.counts)

    epoch = 0
    while epoch < cfg.max_epochs and not (budget is not None and budget.expired()):
        for step in range(moves_per_epoch):
            if budget is not None and (step & 255) == 0 and budget.expired():
                break
            out = put = -1
            r = rng.random()
            if r < _P_REMOVAL:
                out = cur[rng.randrange(len(cur))]
                if not cover.is_redundant(out):
                    continue
            elif r < _P_EXCHANGE:
                out = cur[rng.randrange(len(cur))]
                cands = [t for t in nbr[off[out] : off[out + 1]] if not in_set[t]]
                if not cands:
                    continue
                put = cands[rng.randrange(len(cands))]
                unique = cover.unique_of(out)
                if unique:
                    uset = set(unique)
                    hits = 1 if put in uset else 0
                    for y in nbr[off[put] : off[put + 1]]:
                        if y in uset:
                            hits += 1
                    if hits != len(uset):
                        continue
            else:
                if len(cur) == n:
                    continue
                for _ in range(8):
                    c = rng.randrange(n)
                    if not in_set[c]:
                        put = c
                        break
                if put < 0:
                    continue
                if rng.random() >= math.exp(-1.0 / temperature):
                    continue
            if out >= 0:
                cover.drop(out)
            if put >= 0:
                cover.add(put)
            if validate_each_move:
                assert feasible(), "annealing move broke domination"
            if len(cur) < len(best):
                best = list(cur)
        if not feasible():
            raise RuntimeError("internal error: annealing state lost domination")
        temperature = decay(temperature, cfg)
        epoch += 1
    return Solution.from_members(n, best)
