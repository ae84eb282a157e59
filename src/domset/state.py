"""Per-run solver state shared by the stages: the :class:`Cover` record of
how often each vertex is dominated, and the :class:`Budget` that says when a
run must stop."""

from __future__ import annotations

import itertools
import math
import threading
import time

from .graph import Graph, Solution

__all__ = ["Budget", "Cover", "compute_cover_counts"]


class Cover:
    """Domination counts of a vertex set, kept in step with its membership
    and member order.

    ``counts[x]`` is the number of members whose closed neighborhood
    contains ``x``, so ``x`` is dominated iff ``counts[x] > 0``;
    ``uncovered`` is the number of zero entries. ``in_set`` and ``members``
    are the flag list and member list of ``solution``, and :meth:`add` and
    :meth:`drop` are the only ways a stage changes them. ``members`` is a
    pick array: ``members[pos[v]] == v``, and a drop moves the last member
    into the freed slot, so both moves are O(deg). Insertion order, which
    the prune and the swap sweeps read, is kept apart as a per-vertex stamp
    and read back by :meth:`in_order`. ``adj`` is the graph's own
    neighbour tuple list (``g.adj``, not a copy), held so that a move reads
    ``N(v)`` with one attribute lookup.
    """

    __slots__ = ("g", "adj", "solution", "in_set", "members", "counts", "uncovered", "pos", "stamp", "clock")

    def __init__(self, g: Graph, solution: Solution, counts: list[int]) -> None:
        self.g = g
        self.adj = g.adj
        self.solution = solution
        self.in_set = solution.in_set
        self.members = solution.members
        self.counts = counts
        self.uncovered = counts.count(0)
        self.pos = [0] * g.n
        self.stamp = [0] * g.n
        for i, v in enumerate(self.members):
            self.pos[v] = i
            self.stamp[v] = i
        self.clock = itertools.count(len(self.members))

    def add(self, v: int) -> None:
        """Make non-member ``v`` the newest member and count its closed
        neighborhood once more."""
        self.in_set[v] = True
        members = self.members
        self.pos[v] = len(members)
        members.append(v)
        self.stamp[v] = next(self.clock)
        counts = self.counts
        newly = 0 if counts[v] else 1
        counts[v] += 1
        for x in self.adj[v]:
            c = counts[x]
            counts[x] = c + 1
            if not c:
                newly += 1
        self.uncovered -= newly

    def drop(self, v: int) -> None:
        """Remove member ``v``, moving the last member into its slot, and
        count its closed neighborhood once less."""
        self.in_set[v] = False
        members = self.members
        last = members.pop()
        if last != v:
            pos = self.pos
            i = pos[v]
            members[i] = last
            pos[last] = i
        counts = self.counts
        counts[v] -= 1
        lost = 0 if counts[v] else 1
        for x in self.adj[v]:
            c = counts[x] - 1
            counts[x] = c
            if not c:
                lost += 1
        self.uncovered += lost

    def in_order(self) -> list[int]:
        """The members in insertion order, oldest first."""
        return sorted(self.members, key=self.stamp.__getitem__)


def compute_cover_counts(g: Graph, sol: Solution | None = None) -> Cover:
    """Count from scratch how often ``sol`` (a fresh empty set by default)
    dominates each vertex. The returned Cover shares ``sol``'s flags and
    member list and takes the list's order as insertion order."""
    if sol is None:
        sol = Solution(g.n)
    counts = [0] * g.n
    adj = g.adj
    for d in sol.members:
        counts[d] += 1
        for x in adj[d]:
            counts[x] += 1
    return Cover(g, sol, counts)


# Greedy and the swap phase poll their budget once per this many units of
# work (bucket visits, degree-weighted candidate checks), which keeps clock
# and stop-event reads negligible relative to the work they bound.
POLL_BATCH = 64


class Budget:
    """When a run must stop: once the stop event is set, or at a wall-clock
    deadline ``ms`` milliseconds after construction.

    ``ms=None`` sets no deadline (attempt-counted mode), leaving the stages'
    own sweep and epoch caps to end the run; ``ms=0`` is a budget that has
    already run out. A non-finite ``ms`` is rejected: a NaN deadline would
    never fire.
    """

    __slots__ = ("deadline", "stop")

    def __init__(self, ms: float | None = None, stop: threading.Event | None = None) -> None:
        if ms is not None and not (math.isfinite(ms) and ms >= 0):
            raise ValueError(f"budget must be finite and non-negative, got {ms} ms")
        self.deadline = None if ms is None else time.perf_counter() + ms / 1000.0
        self.stop = stop

    def expired(self) -> bool:
        """True once the stop event is set or the deadline has passed."""
        if self.stop is not None and self.stop.is_set():
            return True
        return self.deadline is not None and time.perf_counter() >= self.deadline


# The default budget of a stage called on its own: no deadline, no stop.
UNBOUNDED = Budget()
