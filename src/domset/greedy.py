"""Construction: the isolate and leaf reductions, lazy greedy, the
greedy-ln baseline and the safety patch that completes a set.

Lazy greedy keeps every gain exact and orders the vertices by a monotone
bucket queue, one list per gain level; :func:`true_gain` recounts one gain
from the cover counts. Greedy grows the set only through :func:`add_to_d`.
The reductions call :meth:`Cover.add` behind their own "undominated"
tests instead, so that a count of ``add_to_d`` calls (perfbench's
``greedy.accepts``) is greedy's picks alone.
"""

from __future__ import annotations

from .graph import Graph, Solution
from .state import POLL_BATCH, UNBOUNDED, Budget, Cover, compute_cover_counts

__all__ = ["add_to_d", "apply_isolate_rule", "apply_leaf_rule", "true_gain", "lazy_greedy", "greedy_ln", "safety_patch"]


def add_to_d(cover: Cover, v: int) -> None:
    """Add ``v`` to the solution and count its closed neighborhood as dominated.

    Idempotent: a vertex already in the set is left alone.
    """
    if not cover.in_set[v]:
        cover.add(v)


def apply_isolate_rule(cover: Cover) -> int:
    """Force every degree-0 vertex that is not yet dominated (so not yet a
    member) into the solution; returns how many were added."""
    before = len(cover.members)
    adj = cover.adj
    counts = cover.counts
    for v in range(cover.g.n):
        if not adj[v] and not counts[v]:
            cover.add(v)
    return len(cover.members) - before


def apply_leaf_rule(cover: Cover) -> int:
    """Force the unique neighbor of every still-undominated leaf.

    Leaves are visited in ascending vertex ID; a leaf that a member, an
    earlier forced one included, already dominates is skipped. An
    undominated leaf's neighbor is not a member, since it would dominate
    the leaf. Returns how many vertices were added.
    """
    before = len(cover.members)
    counts = cover.counts
    adj = cover.adj
    for u in range(cover.g.n):
        if len(adj[u]) == 1 and not counts[u]:
            cover.add(adj[u][0])
    return len(cover.members) - before


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


def greedy_ln(g: Graph) -> Solution:
    """Plain greedy baseline: repeatedly take the vertex that newly dominates
    the most vertices. No reductions, no pruning; returns ``cover.solution``."""
    cover = compute_cover_counts(g)
    lazy_greedy(cover)
    return cover.solution


def safety_patch(cover: Cover) -> int:
    """Recount ``cover`` from its members; lazy greedy repairs any gaps.

    The recount, :meth:`Cover.load` of its own members in pick order, never
    trusts the counts a stage kept incrementally. Lazy greedy then adds,
    while uncovered vertices remain, the vertex covering the most of them
    (ties toward the smaller ID). Returns how many vertices were added; 0
    on an already valid solution.
    """
    before = len(cover.members)
    cover.load(cover.members)
    lazy_greedy(cover)
    return len(cover.members) - before
