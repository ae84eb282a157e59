"""Gain-based greedy construction: the lazy priority-queue variant used by
the pipeline and the plain greedy-ln baseline. The lazy variant keeps every
gain exact; :func:`true_gain` recounts one from the cover counts.
"""

from __future__ import annotations

import heapq

from .graph import Graph, Solution
from .reductions import add_to_d
from .state import POLL_BATCH, Budget, Cover, compute_cover_counts

__all__ = ["true_gain", "lazy_greedy", "greedy_ln"]


def true_gain(cover: Cover, v: int) -> int:
    """Number of currently undominated vertices in the closed neighborhood of ``v``."""
    counts = cover.counts
    gain = 0 if counts[v] else 1
    for x in cover.g.adj[v]:
        if not counts[x]:
            gain += 1
    return gain


def lazy_greedy(cover: Cover, budget: Budget | None = None) -> None:
    """Extend the solution until every vertex is dominated, or until
    ``budget`` expires (polled before the first heap pop and then before
    every ``POLL_BATCH``-th one, so a budget that has already run out adds
    nothing).

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
    adj = g.adj
    counts = cover.counts
    gain = [d + 1 for d in g.degree]
    for x in range(n):
        if counts[x]:
            gain[x] -= 1
            for y in adj[x]:
                gain[y] -= 1
    heap = [-gv * n + v for v, gv in enumerate(gain) if gv]
    heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    # An undominated vertex keeps a positive gain and so its entry: the
    # heap cannot run dry while a vertex is undominated.
    pops = 0
    while cover.uncovered > 0:
        if pops % POLL_BATCH == 0 and budget is not None and budget.expired():
            return
        pops += 1
        key = pop(heap)
        v = key % n
        gv = gain[v]
        if gv < -(key // n):
            if gv:
                push(heap, -gv * n + v)
            continue
        add_to_d(cover, v)
        # The vertices v dominates for the first time are counted once now.
        for x in (v, *adj[v]):
            if counts[x] == 1:
                gain[x] -= 1
                for y in adj[x]:
                    gain[y] -= 1


def greedy_ln(g: Graph, budget: Budget | None = None) -> Solution:
    """Plain greedy baseline: repeatedly take the vertex that newly dominates
    the most vertices. No reductions, no pruning."""
    cover = compute_cover_counts(g)
    lazy_greedy(cover, budget)
    return cover.solution
