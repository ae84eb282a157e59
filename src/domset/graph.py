"""CSR graph storage plus parsing and serialization for the .ds format.

Vertices are 0-indexed everywhere inside the library; the 1-indexed
convention of the on-disk format applies only at the I/O boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Graph",
    "Solution",
    "ParseError",
    "parse_ds",
    "parse_solution",
    "write_solution",
]


class ParseError(ValueError):
    """Malformed instance or solution input; carries the offending line number."""

    def __init__(self, line: int | None, message: str) -> None:
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph in compressed sparse row form.

    ``nbr[off[v]:off[v + 1]]`` lists the neighbors of ``v`` in ascending
    order, with self-loops dropped and duplicate edges collapsed. The
    structure is never mutated after construction, so it can be shared
    freely between concurrent solver runs.
    """

    n: int
    m: int
    degree: list[int]
    off: list[int]
    nbr: list[int]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from 0-indexed undirected edge pairs.

        Self-loops are ignored and duplicate edges (in either orientation)
        are collapsed; ``m`` reflects the cleaned edge count.
        """
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        pairs = np.asarray(edges if isinstance(edges, (list, np.ndarray)) else list(edges), dtype=np.int64)
        if pairs.size == 0:
            return cls(n=n, m=0, degree=[0] * n, off=[0] * (n + 1), nbr=[])
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        if int(pairs.min()) < 0 or int(pairs.max()) >= n:
            raise ValueError(f"edge endpoint out of range 0..{n - 1}")
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if pairs.shape[0] == 0:
            return cls(n=n, m=0, degree=[0] * n, off=[0] * (n + 1), nbr=[])
        # Encoding u*n+v for both orientations makes np.unique do the
        # dedup and leaves the neighbor array grouped by head, sorted.
        enc = np.unique(np.concatenate((pairs[:, 0] * n + pairs[:, 1], pairs[:, 1] * n + pairs[:, 0])))
        degree = np.bincount(enc // n, minlength=n)
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=off[1:])
        return cls(n=n, m=len(enc) // 2, degree=degree.tolist(), off=off.tolist(), nbr=(enc % n).tolist())

    def neighbors(self, v: int) -> list[int]:
        """Open neighborhood of ``v`` as a fresh list."""
        return self.nbr[self.off[v] : self.off[v + 1]]

    def closed_neighborhood(self, v: int) -> list[int]:
        """``v`` followed by its neighbors (``degree[v] + 1`` vertices)."""
        return [v] + self.nbr[self.off[v] : self.off[v + 1]]

    def max_degree(self) -> int:
        return max(self.degree, default=0)


class Solution:
    """Dominator list with O(1) membership flags.

    ``add`` and ``from_members`` append, so a fresh solution lists its
    members in insertion order. A :class:`~domset.state.Cover` built over
    it takes that order as insertion order, and its drops reorder the list;
    ``Cover.in_order`` then gives the insertion order.
    """

    __slots__ = ("members", "in_set")

    def __init__(self, n: int) -> None:
        self.members: list[int] = []
        self.in_set: list[bool] = [False] * n

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "Solution":
        sol = cls(n)
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"member {v} out of range 0..{n - 1}")
            if sol.in_set[v]:
                raise ValueError(f"duplicate member {v}")
            sol.members.append(v)
            sol.in_set[v] = True
        return sol

    @property
    def n(self) -> int:
        return len(self.in_set)

    def add(self, v: int) -> bool:
        """Append ``v`` unless already present; returns True when added."""
        if self.in_set[v]:
            return False
        self.members.append(v)
        self.in_set[v] = True
        return True

    def copy(self) -> "Solution":
        dup = Solution.__new__(Solution)
        dup.members = list(self.members)
        dup.in_set = list(self.in_set)
        return dup

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"Solution(size={len(self.members)}, n={len(self.in_set)})"


def parse_ds(data: bytes | str) -> Graph:
    """Parse a .ds instance: 'c' comment lines, one 'p ds <n> <m>' header,
    then <m> whitespace-separated edge lines with 1-indexed endpoints.

    Comments and blank lines are tolerated anywhere; any deviation from the
    grammar raises :class:`ParseError` naming the offending line.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(None, f"input is not valid text: {exc}") from None
    else:
        text = data
    n = -1
    declared_m = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        parts = line.split()
        if n < 0:
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "ds":
                raise ParseError(lineno, "expected header 'p ds <n> <m>'")
            try:
                n = int(parts[2])
                declared_m = int(parts[3])
            except ValueError:
                raise ParseError(lineno, "non-numeric header field") from None
            if n < 1:
                raise ParseError(lineno, f"vertex count must be at least 1, got {n}")
            if declared_m < 0:
                raise ParseError(lineno, f"edge count must be non-negative, got {declared_m}")
            continue
        if len(edges) >= declared_m:
            raise ParseError(lineno, f"more edge lines than the declared {declared_m}")
        if len(parts) != 2:
            raise ParseError(lineno, f"expected edge line '<u> <v>', got {len(parts)} tokens")
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError:
            raise ParseError(lineno, "non-numeric edge token") from None
        if not 1 <= u <= n or not 1 <= v <= n:
            raise ParseError(lineno, f"vertex ID out of range 1..{n}")
        edges.append((u - 1, v - 1))
    if n < 0:
        raise ParseError(None, "missing 'p ds <n> <m>' header")
    if len(edges) < declared_m:
        raise ParseError(None, f"declared {declared_m} edges but found only {len(edges)}")
    return Graph.from_edges(n, edges)


def write_solution(sol: Solution) -> str:
    """Serialize a solution: its size, then one 1-indexed vertex per line
    in ascending external-ID order."""
    lines = [str(len(sol.members))]
    lines.extend(str(v + 1) for v in sorted(sol.members))
    return "\n".join(lines) + "\n"


def parse_solution(data: bytes | str, n: int) -> Solution:
    """Parse the solution format written by :func:`write_solution`.

    Accepts 'c' comments and blank lines; requires the declared size to
    match the number of vertex lines and every ID to be in 1..n, unique.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(None, f"input is not valid text: {exc}") from None
    else:
        text = data
    size = -1
    sol = Solution(n)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        parts = line.split()
        if len(parts) != 1:
            raise ParseError(lineno, f"expected a single integer, got {len(parts)} tokens")
        try:
            value = int(parts[0])
        except ValueError:
            raise ParseError(lineno, "non-numeric token") from None
        if size < 0:
            if value < 0:
                raise ParseError(lineno, f"solution size must be non-negative, got {value}")
            size = value
            continue
        if len(sol) >= size:
            raise ParseError(lineno, f"more vertex lines than the declared size {size}")
        if not 1 <= value <= n:
            raise ParseError(lineno, f"vertex ID out of range 1..{n}")
        if sol.in_set[value - 1]:
            raise ParseError(lineno, f"duplicate vertex {value}")
        sol.add(value - 1)
    if size < 0:
        raise ParseError(None, "missing solution size line")
    if len(sol) < size:
        raise ParseError(None, f"declared size {size} but found only {len(sol)} vertices")
    return sol
