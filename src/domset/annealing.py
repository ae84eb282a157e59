"""Greedy-seeded simulated annealing over feasible dominating sets.

Moves are vertex removals (always accepted), size-neutral exchanges
(always accepted), and additions (accepted with probability exp(-1/T));
every accepted state keeps full domination, and the best state seen is
what comes back: :func:`sa_solve` anneals the run's one
:class:`~domset.state.Cover` in place and leaves it holding the best set.

Moves draw from the caller's rng, in a solve the run's one generator.
Every random index is drawn inline as ``getrandbits(k.bit_length())``,
redrawn while it is ``>= k``. That is the whole of ``Random.randrange(k)``
for an int ``k > 0`` on CPython 3.10 to 3.13 (``_randbelow_with_getrandbits``),
so the moves, and the set that comes back, are the ones the
``randrange`` calls gave, without its two Python-level frames per draw.

An exchange draws the vertex to put in among the non-members next to the
member ``out`` it takes out, without listing them. ``counts[out]`` is the
number of members in N[out], so ``k = len(closed[out]) - counts[out]``
counts the non-members in O(1); the draw ``i`` from ``k`` then picks the
i-th non-member in ``closed[out]``, as an index into the list of them
would.

The budget is polled before each block of ``POLL_BATCH`` moves of an epoch,
the batch every stage polls by, so no move tests the step count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .graph import Solution
from .state import POLL_BATCH, UNBOUNDED, Budget, Cover

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


def sa_solve(cover: Cover, cfg: AnnealConfig, rng: random.Random, budget: Budget = UNBOUNDED) -> Solution:
    """Anneal ``cover`` in place from its feasible set, leave it holding the
    smallest dominating set seen, and return that as ``cover.solution``.

    Every move draws from ``rng``, seeded by the caller, exactly as
    ``randrange`` would (see the module docstring); an exchange counts its
    candidates as ``len(closed[out]) - counts[out]``, with no list.
    ``budget`` is polled before each block of ``POLL_BATCH`` moves, the
    first block of an epoch included; the run ends at the poll that finds
    it expired. Raises ValueError if the set does not dominate. The moves
    keep the incremental cover counts, which are checked at the end of
    every epoch, a cut-short one included. At the end :meth:`Cover.load`
    puts back the best set in the member order it had when it was seen.
    """
    n = cover.g.n
    if 0 in cover.counts:
        raise ValueError(f"seed solution is not dominating (vertex {cover.counts.index(0)} uncovered)")
    if n == 0:
        return cover.solution

    # The cover's pick array: its order, kept by swap-with-last drops,
    # drives the random picks. size and bits follow len(cur) and change
    # only when a removal or an addition is applied.
    cur = cover.members
    in_set = cover.in_set
    counts = cover.counts
    add = cover.add
    drop = cover.drop
    size = len(cur)
    bits = size.bit_length()
    best = list(cur)
    closed = cover.closed
    rand = rng.random
    getrandbits = rng.getrandbits
    n_bits = n.bit_length()
    moves_per_epoch = cfg.moves_per_epoch if cfg.moves_per_epoch is not None else max(100, n)
    temperature = cfg.initial_temperature

    expired = False
    for _ in range(cfg.max_epochs):
        accept = math.exp(-1.0 / temperature)
        for block in range(0, moves_per_epoch, POLL_BATCH):
            if budget.expired():
                expired = True
                break
            for _ in range(min(POLL_BATCH, moves_per_epoch - block)):
                r = rand()
                if r < _P_EXCHANGE:
                    i = getrandbits(bits)
                    while i >= size:
                        i = getrandbits(bits)
                    out = cur[i]
                    nb = closed[out]
                    if r < _P_REMOVAL:
                        # Dropping out must leave all of N[out] dominated.
                        for x in nb:
                            if counts[x] < 2:
                                break
                        else:
                            drop(out)
                            size -= 1
                            bits = size.bit_length()
                            if size < len(best):
                                best = list(cur)
                        continue
                    # counts[out] is the number of members in N[out]: k is
                    # its number of non-members, so of non-member neighbours.
                    k = len(nb) - counts[out]
                    if not k:
                        continue
                    kbits = k.bit_length()
                    i = getrandbits(kbits)
                    while i >= k:
                        i = getrandbits(kbits)
                    for put in nb:
                        if not in_set[put]:
                            if not i:
                                break
                            i -= 1
                    # put must dominate every vertex of N[out] that only out
                    # dominates. Only those x are tested, each by one lookup
                    # in put's closed tuple.
                    near = closed[put]
                    for x in nb:
                        if counts[x] == 1 and x not in near:
                            break
                    else:
                        drop(out)
                        add(put)
                    continue
                # Addition: up to 8 draws for a non-member.
                if size == n:
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
                    add(put)
                    size += 1
                    bits = size.bit_length()
        if 0 in counts:
            raise RuntimeError("internal error: annealing state lost domination")
        if expired:
            break
        temperature = decay(temperature, cfg)
    # The best set goes back in the pick order it had when it was seen.
    cover.load(best)
    return cover.solution
