"""Gain-based greedy construction: the lazy priority-queue variant used by
the pipeline, the plain greedy-ln baseline, and an eager reference used to
cross-check the lazy one. The lazy variant keeps every gain exact;
:func:`true_gain` recounts one from the cover counts.
"""

from __future__ import annotations

import heapq

from .graph import Graph, Solution
from .reductions import add_to_d
from .state import Budget, Cover, compute_cover_counts

__all__ = ["true_gain", "lazy_greedy", "greedy_ln", "eager_greedy"]


def true_gain(cover: Cover, v: int) -> int:
    """Number of currently undominated vertices in the closed neighborhood of ``v``."""
    counts = cover.counts
    gain = 0 if counts[v] else 1
    off = cover.g.off
    for x in cover.g.nbr[off[v] : off[v + 1]]:
        if not counts[x]:
            gain += 1
    return gain


def lazy_greedy(cover: Cover, budget: Budget | None = None) -> None:
    """Extend the solution until every vertex is dominated, or until
    ``budget`` expires (polled before every heap pop).

    ``gain[v]`` is kept exact: it starts as the number of undominated
    vertices in N[v] under ``cover.counts`` (so reductions and partial sets
    handed in are respected), and when a pick dominates ``x`` for the first
    time, every gain over N[x] drops by one, n + 2m updates in all. The
    queue holds one int key ``-gain * n + v`` per vertex, which orders it by
    gain, largest first, then by vertex ID; a popped key above the current
    gain is pushed back corrected, or dropped once the gain is zero, as it
    is for every member. Gains only ever decrease, so an accepted vertex
    has the maximum gain, ties broken toward the smaller vertex ID.
    """
    if cover.uncovered == 0:
        return
    g = cover.g
    n = g.n
    off = g.off
    nbr = g.nbr
    counts = cover.counts
    gain = [d + 1 for d in g.degree]
    for x in range(n):
        if counts[x]:
            gain[x] -= 1
            for y in nbr[off[x] : off[x + 1]]:
                gain[y] -= 1
    heap = [-gv * n + v for v, gv in enumerate(gain) if gv]
    heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    # An undominated vertex keeps a positive gain and so its entry: the
    # heap cannot run dry while a vertex is undominated.
    while cover.uncovered > 0:
        if budget is not None and budget.expired():
            return
        key = pop(heap)
        v = key % n
        gv = gain[v]
        if gv < -(key // n):
            if gv:
                push(heap, -gv * n + v)
            continue
        add_to_d(cover, v)
        # The vertices v dominates for the first time are counted once now.
        for x in (v, *nbr[off[v] : off[v + 1]]):
            if counts[x] == 1:
                gain[x] -= 1
                for y in nbr[off[x] : off[x + 1]]:
                    gain[y] -= 1


def greedy_ln(g: Graph, budget: Budget | None = None) -> Solution:
    """Plain greedy baseline: repeatedly take the vertex that newly dominates
    the most vertices. No reductions, no pruning."""
    cover = compute_cover_counts(g)
    lazy_greedy(cover, budget)
    return cover.solution


def eager_greedy(g: Graph) -> Solution:
    """Full-rescore greedy, the slow reference the lazy variant must match."""
    cover = compute_cover_counts(g)
    while cover.uncovered > 0:
        best_v = -1
        best_gain = 0
        for v in range(g.n):
            gain = true_gain(cover, v)
            if gain > best_gain:
                best_gain = gain
                best_v = v
        add_to_d(cover, best_v)
    return cover.solution
