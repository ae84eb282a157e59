"""Stage 0 reduction rules and the idempotent add used while a dominating
set is being built.

Reductions and greedy grow the set only through :func:`add_to_d`, which
hands a new vertex to the shared :class:`~domset.state.Cover` as its
newest member.
"""

from __future__ import annotations

from .state import Cover

__all__ = ["add_to_d", "apply_isolate_rule", "apply_leaf_rule"]


def add_to_d(cover: Cover, v: int) -> None:
    """Add ``v`` to the solution and count its closed neighborhood as dominated.

    Idempotent: a vertex already in the set is left alone.
    """
    if not cover.in_set[v]:
        cover.add(v)


def apply_isolate_rule(cover: Cover) -> int:
    """Force every degree-0 vertex into the solution; returns how many were added."""
    before = len(cover.members)
    adj = cover.g.adj
    for v in range(cover.g.n):
        if not adj[v]:
            add_to_d(cover, v)
    return len(cover.members) - before


def apply_leaf_rule(cover: Cover) -> int:
    """Force the unique neighbor of every still-undominated leaf.

    Leaves are visited in ascending vertex ID; a leaf that an earlier
    forced vertex already dominated is skipped. Returns how many vertices
    were added.
    """
    before = len(cover.members)
    g = cover.g
    counts = cover.counts
    adj = g.adj
    for u in range(g.n):
        if len(adj[u]) == 1 and not counts[u]:
            add_to_d(cover, adj[u][0])
    return len(cover.members) - before
