"""Redundancy removal: the reverse-insertion prune pass."""

from __future__ import annotations

from .state import Cover

__all__ = ["backward_prune"]


def backward_prune(cover: Cover) -> None:
    """Single newest-first pass removing every member whose closed
    neighborhood is still covered at least twice.

    Counts are maintained live, so members that only become redundant
    through removals later in the scan are still caught. Survivors keep
    their relative insertion order. Only redundant members leave, so
    ``cover.uncovered`` is unchanged. The scan reads the cover's lists as
    locals instead of calling :meth:`Cover.is_redundant` per member: a call
    per member is measurably slower on this hot path.
    """
    members = cover.members
    in_set = cover.in_set
    counts = cover.counts
    off = cover.g.off
    nbr = cover.g.nbr
    removed = False
    for i in range(len(members) - 1, -1, -1):
        v = members[i]
        if counts[v] < 2:
            continue
        redundant = True
        for x in nbr[off[v] : off[v + 1]]:
            if counts[x] < 2:
                redundant = False
                break
        if redundant:
            in_set[v] = False
            counts[v] -= 1
            for x in nbr[off[v] : off[v + 1]]:
                counts[x] -= 1
            members[i] = -1
            removed = True
    if removed:
        members[:] = [v for v in members if v >= 0]
