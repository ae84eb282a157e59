"""Per-run solver state shared by the stages: the :class:`Cover` that owns
the set under construction and how often each vertex is dominated, and the
:class:`Budget` that says when a run must stop."""

from __future__ import annotations

import math
import threading
import time
from typing import Iterable

from .graph import Graph, Solution, member_flags

__all__ = ["Budget", "Cover", "compute_cover_counts"]


class Cover:
    """The set under construction: its membership, member order and how
    often each vertex is dominated.

    ``counts[x]`` is the number of members whose closed neighborhood
    contains ``x``, so ``x`` is dominated iff ``counts[x] > 0``. The Cover
    owns its flag list ``in_set`` and member list ``members``: a new Cover
    loads ``members`` in their order, :meth:`load` sets the whole state
    from a member list, :meth:`add` and :meth:`drop` change it one vertex at
    a time, and no other code changes a Cover or its lists. What a run hands
    back is :attr:`solution`, a snapshot that shares no list with the Cover.
    ``members`` is a pick array: ``members[pos[v]] == v``, :meth:`add`
    appends, and a drop moves the last member into the freed slot, so both
    moves are O(deg). It is the Cover's one member order: until the first
    drop it is insertion order, the order the backward prune reads.
    ``closed`` is the graph's own closed-neighbourhood list (``g.closed``,
    not a copy), held so that a move reads ``N[v]`` with one attribute
    lookup; every move counts ``v`` in its one loop over ``closed[v]``.
    """

    __slots__ = ("g", "closed", "in_set", "members", "counts", "pos")

    def __init__(self, g: Graph, members: Iterable[int] = ()) -> None:
        self.g = g
        self.closed = g.closed
        self.in_set, self.members, self.counts, self.pos = [], [], [], []  # sized by load
        self.load(members)

    def load(self, members: Iterable[int]) -> None:
        """Make ``members`` (distinct vertex IDs) the set, counted from
        scratch, with their order as pick order. Raises ValueError, with the
        Cover unchanged, for an ID outside 0..n-1 or one given twice."""
        order = list(members)
        n = self.g.n
        self.in_set[:] = member_flags(n, order)
        self.members[:] = order
        counts, pos, closed = self.counts, self.pos, self.closed
        counts[:] = pos[:] = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
            for x in closed[v]:
                counts[x] += 1

    def add(self, v: int) -> None:
        """Append non-member ``v`` to the members and count its closed
        neighborhood once more."""
        self.in_set[v] = True
        members = self.members
        self.pos[v] = len(members)
        members.append(v)
        counts = self.counts
        for x in self.closed[v]:
            counts[x] += 1

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
        for x in self.closed[v]:
            counts[x] -= 1

    @property
    def solution(self) -> Solution:
        """The members in pick order, copied into a new :class:`Solution`
        that later moves on the Cover leave unchanged."""
        return Solution(self.g.n, self.members)


def compute_cover_counts(g: Graph) -> Cover:
    """The run's empty Cover of ``g``, from which greedy builds the set;
    ``Cover(g, members)`` builds one from any member list."""
    return Cover(g)


# Every stage polls its budget once per this many units of work (greedy's
# bucket visits, swap's degree-weighted candidate checks, annealing's moves),
# which keeps timer and stop-event reads negligible next to that work.
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
