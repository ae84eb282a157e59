"""Local search: the backward prune, and the 1-swap phase that exchanges
members for neighbours under the run budget and prunes after each."""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass

from .state import POLL_BATCH, Budget, Cover

__all__ = ["SwapMove", "backward_prune", "try_one_swap", "swap_phase"]


def backward_prune(cover: Cover, near: int | None = None) -> None:
    """Single pass, last member first, removing every member whose closed
    neighborhood is still covered at least twice.

    Members are scanned from the end of the pick array ``cover.members``
    back. Until the first drop that is reverse insertion order, as after
    the pipeline's reductions and greedy. Counts are maintained live, so
    members that only become redundant through removals later in the scan
    are still caught. Only redundant members leave, so no count drops to
    zero. The redundancy test is written inline, over the cover's lists as
    locals: a call per member is measurably slower on this hot path.

    With ``near`` set, it prunes after an exchange that added ``near``:
    the caller guarantees that no member was redundant before the exchange
    (the set was prune-minimal). An exchange raises counts only on
    N[near]. A member v that is redundant now then had a private vertex x,
    covered by v alone, whose count has gone up, so x lies in N[near] and
    now has a count of exactly 2, with v as its one dominator besides
    ``near``. ``near`` itself is never redundant, because it now alone
    covers the vertices the removed member covered alone. So only those
    other dominators of count-2 vertices x in N[near], each the member of
    N[x] that is not ``near``, are scanned, in the full pass's order: by
    position in ``members``, last first. Every member left out is not
    redundant now, and removals only lower counts, so it would not have
    been removed later in the pass: the result equals the full pass's, and
    the set is prune-minimal again for the next exchange.
    """
    in_set = cover.in_set
    counts = cover.counts
    closed = cover.closed
    if near is not None:
        cand = set()
        for x in closed[near]:
            if counts[x] == 2:
                for y in closed[x]:
                    if y != near and in_set[y]:
                        cand.add(y)
                        break
        order = sorted(cand, key=cover.pos.__getitem__, reverse=True)
    else:
        order = cover.members[::-1]
    for v in order:
        for x in closed[v]:
            if counts[x] < 2:
                break
        else:
            cover.drop(v)


@dataclass(frozen=True)
class SwapMove:
    """An applied exchange: member ``removed`` out, non-member ``added`` in."""

    removed: int
    added: int


def try_one_swap(cover: Cover, w: int) -> SwapMove | None:
    """Attempt to exchange member ``w`` for a neighbour.

    The candidates t in N[w] outside the set, so neighbours of ``w``, are
    scanned in ascending ID for those whose closed neighborhood contains
    every vertex of N[w] that ``w`` covers alone; among them the one
    absorbing the most uniquely covered vertices overall wins (the smallest
    ID on ties), since every uniqueness it erases is a future pruning
    opportunity. Returns the applied move, or None with the state
    untouched. A member that covers nothing alone also gets None: removing
    it is :func:`backward_prune`'s job.

    A qualifying t must cover each uniquely covered u, so the candidates
    are the non-members of N[w] in N[u], found in one pass over N[w] with a
    binary search of N[u] for each. u is a uniquely covered vertex other
    than ``w`` when there is one, since u == w would filter nothing. A
    candidate qualifies when every uniquely covered x is in N[t], and only
    a qualifying one has its absorbed vertices counted. That skips only
    candidates that could not qualify, so the same t wins.
    """
    closed = cover.closed
    counts = cover.counts
    nw = closed[w]
    # A loop, not a comprehension: on CPython 3.11 the comprehension's
    # extra frame is measurable on this hot path.
    unique = []
    for x in nw:
        if counts[x] == 1:
            unique.append(x)
    if not unique:
        return None
    in_set = cover.in_set
    # unique ascends; N[u] holds u, so it is never empty, and as it
    # ascends, its last entry not above t is t iff t is in N[u].
    u = unique[0] if unique[-1] == w else unique[-1]
    nu = closed[u]
    best_t = -1
    best_absorbed = -1
    for t in nw:
        if in_set[t] or nu[bisect_right(nu, t) - 1] != t:
            continue
        near = closed[t]
        for x in unique:
            if x not in near:
                break
        else:
            absorbed = 0
            for y in near:
                if counts[y] == 1:
                    absorbed += 1
            if absorbed > best_absorbed:
                best_t = t
                best_absorbed = absorbed
    if best_t < 0:
        return None
    cover.drop(w)
    cover.add(best_t)
    return SwapMove(w, best_t)


def swap_phase(cover: Cover, attempt_cap: int, budget: Budget, rng: random.Random) -> None:
    """Sweep the members attempting one swap each, for at most
    ``attempt_cap`` sweeps or until ``budget`` expires.

    ``cover`` must hold a prune-minimal dominating set, as the pipeline's
    is after its full :func:`backward_prune`: no member is redundant. The
    prune near each exchange's added vertex keeps it so (the argument is in
    :func:`backward_prune`), which is why :func:`try_one_swap` only
    exchanges. A budget
    that has already expired changes nothing. The set size never
    increases. Each sweep shuffles a copy of ``cover.members`` with
    ``rng``, which keeps the equal-size exchanges walking new plateaus
    instead of oscillating; a seeded rng makes the phase reproducible. A
    sweep that applies nothing visited every member against an unchanged
    state, so it proves a fixpoint for any order and ends the phase early.
    """
    if attempt_cap < 1:
        raise ValueError(f"attempt_cap must be strictly positive, got {attempt_cap}")
    if budget.expired():
        return
    in_set = cover.in_set
    closed = cover.closed
    checks = 0
    for _ in range(attempt_cap):
        order = list(cover.members)
        rng.shuffle(order)
        changed = False
        for w in order:
            if not in_set[w]:
                continue
            checks += len(closed[w])
            if checks >= POLL_BATCH:
                checks = 0
                if budget.expired():
                    return
            move = try_one_swap(cover, w)
            if move is None:
                continue
            changed = True
            backward_prune(cover, near=move.added)
        if not changed or budget.expired():
            return

