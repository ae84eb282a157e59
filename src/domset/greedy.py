"""Gain-based greedy construction: the lazy variant used by the pipeline
and the plain greedy-ln baseline. The lazy variant keeps every gain exact
and orders the vertices by a monotone bucket queue, one list per gain
level; :func:`true_gain` recounts one gain from the cover counts.
"""

from __future__ import annotations

from .graph import Graph, Solution
from .reductions import add_to_d
from .state import POLL_BATCH, UNBOUNDED, Budget, Cover, compute_cover_counts

__all__ = ["true_gain", "lazy_greedy", "greedy_ln"]


def true_gain(cover: Cover, v: int) -> int:
    """Number of currently undominated vertices in the closed neighborhood of ``v``."""
    counts = cover.counts
    gain = 0 if counts[v] else 1
    for x in cover.g.adj[v]:
        if not counts[x]:
            gain += 1
    return gain


def lazy_greedy(cover: Cover, budget: Budget = UNBOUNDED) -> None:
    """Extend the solution until every vertex is dominated, or until
    ``budget`` expires (polled before the first bucket visit and then before
    every ``POLL_BATCH``-th one, so a budget that has already run out adds
    nothing).

    ``gain[v]`` is kept exact: it starts as the number of undominated
    vertices in N[v] under ``cover.counts`` (so reductions and partial sets
    handed in are respected), and when a pick dominates ``x`` for the first
    time, every gain over N[x] drops by one, n + 2m updates in all. Each
    vertex of positive gain has one entry in ``buckets[level]``, at a level
    no lower than its gain. Gains only ever fall, so once ``level`` is the
    top, every vertex of that gain is already in its bucket and none can
    join it. Each bucket is sorted once when it becomes the top and visited
    in ascending ID: a vertex whose gain is still ``level`` is picked, and a
    stale one moves down to the bucket of its gain, or leaves at gain zero,
    as every member does. So each pick has the maximum gain, ties broken
    toward the smaller vertex ID. It returns once no count is zero, which
    it tracks by the vertices each pick dominates for the first time.
    """
    counts = cover.counts
    uncovered = counts.count(0)
    if not uncovered:
        return
    g = cover.g
    adj = g.adj
    gain = [len(a) + 1 for a in adj]
    for x in range(g.n):
        if counts[x]:
            gain[x] -= 1
            for y in adj[x]:
                gain[y] -= 1
    top = max(gain)
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for v, gv in enumerate(gain):
        if gv:
            buckets[gv].append(v)
    # An undominated vertex keeps a positive gain and so its entry: the
    # buckets cannot run dry while a vertex is undominated.
    visits = 0
    for level in range(top, 0, -1):
        bucket = buckets.pop()
        bucket.sort()
        for v in bucket:
            if visits % POLL_BATCH == 0 and budget.expired():
                return
            visits += 1
            gv = gain[v]
            if gv != level:
                if gv:
                    buckets[gv].append(v)
                continue
            add_to_d(cover, v)
            # The vertices v dominates for the first time are counted once now.
            for x in (v, *adj[v]):
                if counts[x] == 1:
                    uncovered -= 1
                    gain[x] -= 1
                    for y in adj[x]:
                        gain[y] -= 1
            if not uncovered:
                return


def greedy_ln(g: Graph, budget: Budget = UNBOUNDED) -> Solution:
    """Plain greedy baseline: repeatedly take the vertex that newly dominates
    the most vertices. No reductions, no pruning; returns ``cover.solution``."""
    cover = compute_cover_counts(g)
    lazy_greedy(cover, budget)
    return cover.solution
