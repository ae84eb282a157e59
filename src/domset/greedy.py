"""Gain-based greedy construction: the lazy priority-queue variant used by
the pipeline, the plain greedy-ln baseline, and an eager reference used to
cross-check the lazy one.
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

    The queue is keyed by (gain, vertex) with degree+1 as the initial upper
    bound; a popped entry whose recomputed gain fell below its key is pushed
    back corrected. Gains only ever decrease, so an accepted vertex has the
    maximum true gain, ties broken toward the smaller vertex ID. Entries for
    vertices already chosen or with zero gain are dropped outright.
    """
    if cover.uncovered == 0:
        return
    degree = cover.g.degree
    heap = [(-(degree[v] + 1), v) for v in range(cover.g.n)]
    heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    in_set = cover.in_set
    counts = cover.counts
    cursor = 0
    while cover.uncovered > 0:
        if budget is not None and budget.expired():
            return
        if not heap:
            # Unreachable with the drop rule above (an undominated vertex
            # always retains a positive-gain entry), kept as a safety net.
            while counts[cursor]:
                cursor += 1
            add_to_d(cover, cursor)
            continue
        negkey, v = pop(heap)
        if in_set[v]:
            continue
        gain = true_gain(cover, v)
        if gain == 0:
            continue
        if gain < -negkey:
            push(heap, (-gain, v))
            continue
        add_to_d(cover, v)


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
