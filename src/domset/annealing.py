"""Greedy-seeded simulated annealing over feasible dominating sets.

Moves are vertex removals (always accepted), size-neutral exchanges
(always accepted), and additions (accepted with probability exp(-1/T));
every accepted state keeps full domination, and the best state seen is
what comes back.

Every random index is drawn inline as ``getrandbits(k.bit_length())``,
redrawn while it is ``>= k``. That is the whole of ``Random.randrange(k)``
for an int ``k > 0`` on CPython 3.10 to 3.13 (``_randbelow_with_getrandbits``),
so the moves, and the set that comes back, are the ones the
``randrange`` calls gave, without its two Python-level frames per draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .graph import Graph, Solution
from .state import UNBOUNDED, Budget, compute_cover_counts

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
        if not (math.isfinite(self.initial_temperature) and self.initial_temperature > 0):
            raise ValueError(f"initial_temperature must be finite and positive, got {self.initial_temperature}")
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
    budget: Budget = UNBOUNDED,
) -> Solution:
    """Anneal from a feasible seed solution; returns the smallest dominating
    set seen.

    ``seed`` seeds the move rng; the draws consume it exactly as
    ``randrange`` would (see the module docstring). ``budget`` is polled
    every 256 moves from each epoch's first; the run ends at the poll that
    finds it expired. Raises ValueError if a seed member is out of range or
    the seed solution does not dominate. The moves keep the incremental
    cover counts, which are checked at the end of every epoch, a cut-short
    one included.
    """
    n = g.n
    for d in seed_solution.members:
        if not 0 <= d < n:
            raise ValueError(f"solution member {d} out of range 0..{n - 1}")
    cover = compute_cover_counts(g, seed_solution.copy())
    if cover.uncovered:
        raise ValueError(f"seed solution is not dominating (vertex {cover.counts.index(0)} uncovered)")
    if n == 0:
        return cover.solution

    # The cover's pick array: its order, kept by swap-with-last drops,
    # drives the random picks.
    cur = cover.members
    in_set = cover.in_set
    counts = cover.counts
    best = list(cur)
    adj = g.adj
    rng = random.Random(seed)
    rand = rng.random
    getrandbits = rng.getrandbits
    n_bits = n.bit_length()
    moves_per_epoch = cfg.moves_per_epoch if cfg.moves_per_epoch is not None else max(100, n)
    temperature = cfg.initial_temperature

    expired = False
    for _ in range(cfg.max_epochs):
        accept = math.exp(-1.0 / temperature)
        for step in range(moves_per_epoch):
            if (step & 255) == 0 and budget.expired():
                expired = True
                break
            r = rand()
            if r < _P_EXCHANGE:
                k = len(cur)
                bits = k.bit_length()
                i = getrandbits(bits)
                while i >= k:
                    i = getrandbits(bits)
                out = cur[i]
                nb = adj[out]
                if r < _P_REMOVAL:
                    # Dropping out must leave all of N[out] dominated.
                    if counts[out] < 2:
                        continue
                    for x in nb:
                        if counts[x] < 2:
                            break
                    else:
                        cover.drop(out)
                        if len(cur) < len(best):
                            best = list(cur)
                    continue
                cands = [t for t in nb if not in_set[t]]
                if not cands:
                    continue
                k = len(cands)
                bits = k.bit_length()
                i = getrandbits(bits)
                while i >= k:
                    i = getrandbits(bits)
                put = cands[i]
                # put must dominate every vertex that only out dominates:
                # out itself is a neighbor of put, and any other such x
                # must be put or adjacent to it. Only those x are tested,
                # each by one lookup in its neighbour tuple.
                for x in nb:
                    if counts[x] == 1 and x != put and put not in adj[x]:
                        break
                else:
                    cover.drop(out)
                    cover.add(put)
                continue
            # Addition: up to 8 draws for a non-member.
            if len(cur) == n:
                continue
            for _ in range(8):
                put = getrandbits(n_bits)
                while put >= n:
                    put = getrandbits(n_bits)
                if not in_set[put]:
                    break
            else:
                continue
            if rand() < accept:
                cover.add(put)
        if 0 in counts:
            raise RuntimeError("internal error: annealing state lost domination")
        if expired:
            break
        temperature = decay(temperature, cfg)
    return Solution.from_members(n, best)
