"""Domination checking and the exact small-instance oracle."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, Solution

__all__ = ["VerifyReport", "verify", "brute_force_optimum", "ORACLE_MAX_N"]

ORACLE_MAX_N = 24


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    first_uncovered: int | None
    size: int


def verify(g: Graph, sol: Solution) -> VerifyReport:
    """Check that every vertex is dominated; reports the smallest uncovered
    vertex (0-indexed, one flag scan) otherwise. ValueError on out-of-range members."""
    n = g.n
    dominated = [False] * n
    closed = g.closed
    for d in sol.members:
        if not 0 <= d < n:
            raise ValueError(f"solution member {d} out of range 0..{n - 1}")
        for x in closed[d]:
            dominated[x] = True
    first = dominated.index(False) if False in dominated else None
    return VerifyReport(valid=first is None, first_uncovered=first, size=len(sol.members))


def brute_force_optimum(g: Graph) -> tuple[int, list[int]]:
    """Exact domination number with one witness, for graphs up to 24 vertices.

    Iterative-deepening search over closed-neighborhood bitmasks: at each
    node the lowest uncovered vertex x is picked and only its possible
    dominators, N[x] in ascending order, are branched on, with an
    admissible coverage bound for pruning. Exponential in the worst case,
    instant at oracle scale.
    """
    n = g.n
    if n > ORACLE_MAX_N:
        raise ValueError(f"oracle limited to n <= {ORACLE_MAX_N}, got {n}")
    if n == 0:
        return 0, []
    closed = g.closed
    masks = [sum(1 << x for x in near) for near in closed]
    full = (1 << n) - 1
    max_cover = max(mask.bit_count() for mask in masks)
    chosen: list[int] = []

    def dfs(uncovered: int, depth: int) -> bool:
        if uncovered == 0:
            return True
        if depth == 0 or uncovered.bit_count() > depth * max_cover:
            return False
        x = (uncovered & -uncovered).bit_length() - 1
        for v in closed[x]:
            chosen.append(v)
            if dfs(uncovered & ~masks[v], depth - 1):
                return True
            chosen.pop()
        return False

    for k in range(n + 1):
        if dfs(full, k):
            return k, list(chosen)
    raise AssertionError("unreachable: the full vertex set always dominates")
