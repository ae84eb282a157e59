"""Graph storage, the .ds format (:func:`parse_ds`, :func:`to_ds`), the
solution format, and :func:`member_flags`, the one member-list check.

:meth:`Graph.from_edges` builds the compressed sparse row layout in numpy
and hands it out as one closed-neighbourhood tuple per vertex; no other
module sees the flat layout. Vertices are 0-indexed everywhere inside the
library; the 1-indexed convention of the on-disk format applies only at
the I/O boundary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Graph",
    "Solution",
    "ParseError",
    "parse_ds",
    "parse_solution",
    "to_ds",
    "write_solution",
]


class ParseError(ValueError):
    """Malformed instance or solution input; carries the offending line number."""

    def __init__(self, line: int | None, message: str) -> None:
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# Closed-neighbourhood entries converted to Python ints per step.
_NBR_CHUNK = 1 << 16


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph as per-vertex closed neighbourhoods.

    ``closed[v]`` is N[v]: ``v`` and its neighbours, ascending, with
    self-loops dropped and duplicate edges collapsed; the degree of ``v``
    is ``len(closed[v]) - 1``. Every stage scans ``closed[v]`` directly,
    which costs no per-scan copy and leaves no stage to add ``v`` back by
    hand. The entries are interned: all n + 2m of them are drawn from n
    shared int objects, one per vertex ID, which keeps a large graph near
    8 bytes per entry. Tuples, not lists: the garbage collector stops
    tracking a tuple of ints after one pass, so its later passes during a
    run skip the whole structure. It is never mutated after construction,
    so it can be shared freely between concurrent solver runs.
    """

    n: int
    m: int
    closed: list[tuple[int, ...]]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from 0-indexed undirected edge pairs.

        Self-loops are ignored and duplicate edges (in either orientation)
        are collapsed; ``m`` reflects the cleaned edge count. ``edges`` is a
        list of pairs or a ``(k, 2)`` integer array, as the bulk parser
        passes. ``closed[v]`` is N[v], ascending; the IDs are interned (see
        :class:`Graph`), converted to Python ints in chunks of 64k entries.
        """
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size == 0:
            return cls(n=n, m=0, closed=[(v,) for v in range(n)])
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        if int(pairs.min()) < 0 or int(pairs.max()) >= n:
            raise ValueError(f"edge endpoint out of range 0..{n - 1}")
        # Encoding u*n+v for both orientations and the n self codes v*n+v,
        # then sorting, lays N[v] out in CSR order: grouped by head,
        # ascending within a group. Dropping each code equal to its
        # predecessor removes duplicate edges and self-loops, whose codes
        # equal a self code.
        selves = np.arange(n, dtype=np.int64) * (n + 1)
        enc = np.concatenate((pairs[:, 0] * n + pairs[:, 1], pairs[:, 1] * n + pairs[:, 0], selves))
        enc.sort()
        fresh = np.empty(len(enc), dtype=bool)
        fresh[:1] = True
        np.not_equal(enc[1:], enc[:-1], out=fresh[1:])
        enc = enc[fresh]
        # Gathering from an object array of the n IDs makes every entry one
        # of n shared ints instead of one of n + 2m fresh ones; chunks bound
        # the gathered temporary. Each vertex takes the next row_len[v] entries.
        row_len = np.bincount(enc // n, minlength=n).tolist()
        ids = np.arange(n).astype(object)
        col = enc % n
        flat = chain.from_iterable(
            ids[col[start : start + _NBR_CHUNK]].tolist() for start in range(0, len(col), _NBR_CHUNK)
        )
        closed = [tuple(islice(flat, d)) for d in row_len]
        return cls(n=n, m=(len(enc) - n) // 2, closed=closed)


class Solution:
    """A dominating set as a run hands it back: ``n`` and the member list.

    ``Solution(n, members)`` copies ``members`` in their order and checks
    them with :func:`member_flags`; ``Solution(n)`` is the empty set. A
    Solution is an answer, not the set under construction: the run's
    :class:`~domset.state.Cover` owns that set, and ``cover.solution`` is a
    snapshot of it that shares no list with the Cover.
    """

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: Iterable[int] = ()) -> None:
        self.n = n
        self.members = list(members)
        member_flags(n, self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"Solution(size={len(self.members)}, n={self.n})"


def member_flags(n: int, members: list[int]) -> list[bool]:
    """``flags[v]`` is True iff ``v`` is in ``members``; ValueError for a
    member outside 0..n-1 or one given twice."""
    flags = [False] * n
    for v in members:
        if not 0 <= v < n:
            raise ValueError(f"member {v} out of range 0..{n - 1}")
        if flags[v]:
            raise ValueError(f"duplicate member {v}")
        flags[v] = True
    return flags


MAX_VERTICES = 2**31 - 1
"""Largest vertex count a .ds header may declare; a larger one is a ParseError."""

# One line and its end, which is "\r\n" or one of the other characters that
# str.splitlines breaks at, or the end of the text.
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE = re.compile(f"([^{_BREAKS}]*)(?:\r\n|[{_BREAKS}]|\\Z)")
# A plainly well-formed edge section holds these bytes only.
_EDGE_BYTES = b"0123456789 \n"
# Longer tokens (leading zeros) are read line by line, so no int64 overflows.
_MAX_TOKEN = 18


def parse_ds(data: bytes | str) -> Graph:
    """Parse a .ds instance: 'c' comment lines, one 'p ds <n> <m>' header,
    then <m> whitespace-separated edge lines with 1-indexed endpoints; every
    integer is ASCII digits after an optional '+'.

    Comments and blank lines are tolerated anywhere; any deviation from the
    grammar, or ``n`` above :data:`MAX_VERTICES`, raises :class:`ParseError`
    naming the offending line. An edge section of ASCII digits, spaces and
    newlines only, with two in-range IDs on every non-blank line, is read in
    bulk with numpy; any other is read line by line, which accepts and
    rejects exactly the same inputs, so every error still names its line.
    """
    g = _parse_ds_bulk(data)
    return g if g is not None else _parse_ds_lines(data)


def _decode(data: bytes | str) -> str:
    """``data`` as text, decoding bytes as UTF-8."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(None, f"input is not valid text: {exc}") from None


def _read_int(token: str, lineno: int) -> int:
    """The value of ``token``, which must be ASCII digits after an optional
    ``+``; ``int()`` alone would also take ``1_0`` and non-ASCII digits."""
    digits = token.removeprefix("+")
    if digits.isascii() and digits.isdigit():
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(lineno, f"expected an integer of ASCII digits, got {token[:20]!r}")


def _read_header(text: str) -> tuple[int, int, int, int]:
    """``(n, m, lineno, end)`` of the header, the first line that is
    neither blank nor a ``c`` comment; ``end`` is the offset where the edge
    section starts. Lines end where :meth:`str.splitlines` ends them."""
    for lineno, line in enumerate(_LINE.finditer(text), 1):
        parts = line[1].split()
        if parts and parts[0][0] != "c":
            break
    else:
        raise ParseError(None, "missing 'p ds <n> <m>' header")
    if len(parts) != 4 or parts[0] != "p" or parts[1] != "ds":
        raise ParseError(lineno, "expected header 'p ds <n> <m>'")
    n = _read_int(parts[2], lineno)
    declared_m = _read_int(parts[3], lineno)
    if n < 1:
        raise ParseError(lineno, f"vertex count must be at least 1, got {n}")
    if n > MAX_VERTICES:
        raise ParseError(lineno, f"vertex count {n} exceeds the maximum {MAX_VERTICES}")
    return n, declared_m, lineno, line.end()


def _parse_ds_bulk(data: bytes | str) -> Graph | None:
    """The graph of an instance with a plainly well-formed edge section, or
    None for any input the per-line parser must judge."""
    try:
        text = _decode(data)
        n, declared_m, _, end = _read_header(text)
    except ParseError:
        return None
    # Bytes are sliced where the decoded header ends. A str is encoded with
    # each non-ASCII character as one b"?", which keeps the offsets. Either
    # way a non-ASCII body fails the byte check.
    body = data[len(text[:end].encode()) :] if isinstance(data, bytes) else text.encode("ascii", "replace")[end:]
    if body.translate(None, _EDGE_BYTES):
        return None
    if declared_m == 0:
        return Graph.from_edges(n, []) if not body.strip() else None
    raw = np.frombuffer(body, dtype=np.uint8)
    # Token i spans bounds[2i]:bounds[2i + 1]; only digits lie above b" ".
    bounds = np.flatnonzero(np.diff(raw > 32, prepend=False, append=False))
    starts = bounds[0::2]
    if len(starts) != 2 * declared_m or int((bounds[1::2] - starts).max()) > _MAX_TOKEN:
        return None
    # An edge's two tokens share a line; the next edge starts on a later one.
    line_of = np.searchsorted(np.flatnonzero(raw == 10), starts)
    if np.any(line_of[0::2] != line_of[1::2]) or np.any(line_of[2::2] == line_of[1:-1:2]):
        return None
    ids = np.fromstring(body, dtype=np.int64, sep=" ")
    if len(ids) != len(starts) or int(ids.min()) < 1 or int(ids.max()) > n:
        return None
    ids -= 1
    # The text and the checks' arrays go before from_edges makes its own.
    del text, body, raw, bounds, starts, line_of
    return Graph.from_edges(n, ids.reshape(-1, 2))


def _content_lines(text: str, lineno: int = 0) -> Iterator[tuple[int, list[str]]]:
    """``(lineno, tokens)`` for every line of ``text`` that is neither blank
    nor a ``c`` comment, numbering its first line ``lineno + 1``."""
    for lineno, line in enumerate(text.splitlines(), lineno + 1):
        parts = line.split()
        if parts and parts[0][0] != "c":
            yield lineno, parts


def _parse_ds_lines(data: bytes | str) -> Graph:
    """The per-line reference parser behind :func:`parse_ds`."""
    text = _decode(data)
    n, declared_m, lineno, end = _read_header(text)
    edges: list[tuple[int, int]] = []
    for lineno, parts in _content_lines(text[end:], lineno):
        if len(edges) >= declared_m:
            raise ParseError(lineno, f"more edge lines than the declared {declared_m}")
        if len(parts) != 2:
            raise ParseError(lineno, f"expected edge line '<u> <v>', got {len(parts)} tokens")
        u, v = (_read_int(token, lineno) for token in parts)
        if not 1 <= u <= n or not 1 <= v <= n:
            raise ParseError(lineno, f"vertex ID out of range 1..{n}")
        edges.append((u - 1, v - 1))
    if len(edges) < declared_m:
        raise ParseError(None, f"declared {declared_m} edges but found only {len(edges)}")
    return Graph.from_edges(n, edges)


def to_ds(g: Graph) -> str:
    """Serialize ``g`` (n >= 1) to the .ds format; reparsing yields an
    identical graph. ValueError for n < 1, which no .ds header declares."""
    if g.n < 1:
        raise ValueError(f"vertex count must be at least 1, got {g.n}")
    lines = [f"p ds {g.n} {g.m}"]
    for u in range(g.n):
        for w in g.closed[u]:
            if w > u:
                lines.append(f"{u + 1} {w + 1}")
    return "\n".join(lines) + "\n"


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
    size = -1
    members: list[int] = []
    seen = [False] * n
    for lineno, parts in _content_lines(_decode(data)):
        if len(parts) != 1:
            raise ParseError(lineno, f"expected a single integer, got {len(parts)} tokens")
        value = _read_int(parts[0], lineno)
        if size < 0:
            size = value
            continue
        if len(members) >= size:
            raise ParseError(lineno, f"more vertex lines than the declared size {size}")
        if not 1 <= value <= n:
            raise ParseError(lineno, f"vertex ID out of range 1..{n}")
        if seen[value - 1]:
            raise ParseError(lineno, f"duplicate vertex {value}")
        seen[value - 1] = True
        members.append(value - 1)
    if size < 0:
        raise ParseError(None, "missing solution size line")
    if len(members) < size:
        raise ParseError(None, f"declared size {size} but found only {len(members)} vertices")
    return Solution(n, members)
