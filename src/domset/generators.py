"""Seeded random instance generation and .ds serialization.

All generators use a stdlib Random stream, so a (kind, params, seed)
triple always yields the same graph, on any machine.
"""

from __future__ import annotations

import math
import random

from .graph import Graph

__all__ = ["KINDS", "gnp", "random_tree", "grid", "star_forest", "to_ds", "generate_instance"]

KINDS = ("gnp", "tree", "grid", "star-forest")


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdős–Rényi G(n, p) via geometric edge skipping, O(n + m)."""
    if n < 1:
        raise ValueError(f"gnp needs n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"gnp needs p in [0, 1], got {p}")
    edges: list[tuple[int, int]] = []
    if p >= 1.0:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph.from_edges(n, edges)
    if p > 0.0:
        rng = random.Random(seed)
        log_q = math.log(1.0 - p)
        if log_q == 0.0:
            # 1 - p rounds to 1 for p below ~1.1e-16, where only log1p
            # is nonzero; every other p keeps the log it always had.
            log_q = math.log1p(-p)
        v = 1
        w = -1
        while v < n:
            try:
                w += 1 + int(math.log(1.0 - rng.random()) / log_q)
            except OverflowError:
                # At a subnormal p the skip can be infinite: past every pair.
                break
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                edges.append((w, v))
    return Graph.from_edges(n, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random recursive tree: vertex i attaches to a random earlier vertex."""
    if n < 1:
        raise ValueError(f"tree needs n >= 1, got {n}")
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph.from_edges(n, edges)


def grid(rows: int, cols: int) -> Graph:
    """rows x cols lattice; vertex (r, c) is r*cols + c."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid needs rows, cols >= 1, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def star_forest(n: int, max_star: int, seed: int) -> Graph:
    """Disjoint stars with 1..max_star vertices each; size-1 stars are isolates."""
    if n < 1:
        raise ValueError(f"star-forest needs n >= 1, got {n}")
    if max_star < 1:
        raise ValueError(f"star-forest needs max_star >= 1, got {max_star}")
    rng = random.Random(seed)
    edges = []
    v = 0
    while v < n:
        size = rng.randint(1, min(max_star, n - v))
        for leaf in range(v + 1, v + size):
            edges.append((v, leaf))
        v += size
    return Graph.from_edges(n, edges)


def to_ds(g: Graph) -> str:
    """Serialize to the .ds format; reparsing yields an identical graph."""
    lines = [f"p ds {g.n} {g.m}"]
    for u in range(g.n):
        for w in g.adj[u]:
            if w > u:
                lines.append(f"{u + 1} {w + 1}")
    return "\n".join(lines) + "\n"


def generate_instance(
    kind: str,
    seed: int,
    n: int | None = None,
    p: float | None = None,
    rows: int | None = None,
    cols: int | None = None,
    max_star: int | None = None,
) -> tuple[Graph, str]:
    """Dispatch to one generator and return the graph with its .ds text."""
    if kind == "gnp":
        if n is None or p is None:
            raise ValueError("gnp requires n and p")
        g = gnp(n, p, seed)
    elif kind == "tree":
        if n is None:
            raise ValueError("tree requires n")
        g = random_tree(n, seed)
    elif kind == "grid":
        if rows is None or cols is None:
            raise ValueError("grid requires rows and cols")
        g = grid(rows, cols)
    elif kind == "star-forest":
        if n is None:
            raise ValueError("star-forest requires n")
        g = star_forest(n, max_star if max_star is not None else 8, seed)
    else:
        raise ValueError(f"unknown instance kind {kind!r}; expected one of {KINDS}")
    return g, to_ds(g)
