"""Redundancy removal: the backward prune pass over the pick array."""

from __future__ import annotations

from .state import Cover

__all__ = ["backward_prune"]


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
    the caller guarantees that no member was redundant before the exchange.
    A member v that is redundant now then had a private vertex x, covered
    by v alone, whose count has gone up, so x lies in N[near] and now has
    a count of exactly 2, with v as its one dominator besides ``near``.
    ``near`` itself is never redundant, because it now alone covers the
    vertices the removed member covered alone. So only those other
    dominators of count-2 vertices in N[near] are scanned, in the full
    pass's order: by position in ``members``, last first. Every member
    left out is not redundant now, and removals only lower counts, so it
    would not have been removed later in the pass: the result equals the
    full pass's.
    """
    in_set = cover.in_set
    counts = cover.counts
    adj = cover.adj
    if near is not None:
        cand = set()
        for x in (near, *adj[near]):
            if counts[x] != 2:
                continue
            if x != near and in_set[x]:
                cand.add(x)
                continue
            for y in adj[x]:
                if y != near and in_set[y]:
                    cand.add(y)
                    break
        order = sorted(cand, key=cover.pos.__getitem__, reverse=True)
    else:
        order = cover.members[::-1]
    for v in order:
        if counts[v] < 2:
            continue
        redundant = True
        for x in adj[v]:
            if counts[x] < 2:
                redundant = False
                break
        if redundant:
            cover.drop(v)
