"""Redundancy removal: the reverse-insertion prune pass."""

from __future__ import annotations

from .state import Cover

__all__ = ["backward_prune"]


def backward_prune(cover: Cover, near: int | None = None) -> None:
    """Single newest-first pass removing every member whose closed
    neighborhood is still covered at least twice.

    Members are scanned in reverse insertion order (:meth:`Cover.in_order`).
    Counts are maintained live, so members that only become redundant
    through removals later in the scan are still caught. Only redundant
    members leave, so ``cover.uncovered`` is unchanged. The redundancy test
    reads the cover's lists as locals instead of calling
    :meth:`Cover.is_redundant` per member: a call per member is measurably
    slower on this hot path.

    With ``near`` set, only the members whose closed neighborhood meets
    N[near] are scanned, newest first. When no member was redundant before
    ``near``'s counts went up, only those members can have become
    redundant, and the result equals the full pass's.
    """
    in_set = cover.in_set
    counts = cover.counts
    adj = cover.g.adj
    if near is not None:
        cand = {near} if in_set[near] else set()
        for x in adj[near]:
            if in_set[x]:
                cand.add(x)
            for y in adj[x]:
                if in_set[y]:
                    cand.add(y)
    else:
        cand = cover.members
    for v in sorted(cand, key=cover.stamp.__getitem__, reverse=True):
        if counts[v] < 2:
            continue
        redundant = True
        for x in adj[v]:
            if counts[x] < 2:
                redundant = False
                break
        if redundant:
            cover.drop(v)
