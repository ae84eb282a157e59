"""Seeded workload instances and the benchmark's own check of a solution.

Both stand apart from the package under test: graphs come from numpy, and a
solution is checked against the generator's edge list, never through the
package's parser or verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CheckError(AssertionError):
    """A solution text that is malformed or does not dominate its graph."""


@dataclass(frozen=True)
class Instance:
    """An undirected simple graph as 0-indexed edge arrays (u < v) plus its .ds bytes."""

    n: int
    u: np.ndarray
    v: np.ndarray
    ds: bytes


def gnp_instance(n: int, avg_degree: float, seed: tuple[int, ...]) -> Instance:
    """Erdős–Rényi G(n, p) with p = avg_degree / (n - 1).

    The edge count is drawn from Binomial(n(n-1)/2, p) and that many distinct
    pairs are chosen uniformly, which is exactly G(n, p). Pairs are drawn with
    replacement until enough distinct ones exist; by symmetry the distinct
    set is uniform for its size, so a uniform subset of it is too.
    """
    rng = np.random.default_rng(seed)
    p = avg_degree / (n - 1)
    m = int(rng.binomial(n * (n - 1) // 2, p))
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        draw = (m - keys.size) * 11 // 10 + 16
        a = rng.integers(0, n, size=draw, dtype=np.int64)
        b = rng.integers(0, n, size=draw, dtype=np.int64)
        keep = a != b
        lo = np.minimum(a, b)[keep]
        hi = np.maximum(a, b)[keep]
        keys = np.unique(np.concatenate((keys, lo * n + hi)))
    if keys.size > m:
        keys = np.sort(rng.choice(keys, size=m, replace=False))
    u = keys // n
    v = keys % n
    lines = [f"p ds {n} {m}"]
    lines.extend(map("{} {}".format, (u + 1).tolist(), (v + 1).tolist()))
    return Instance(n, u, v, ("\n".join(lines) + "\n").encode())


def check_solution(text: str, inst: Instance) -> np.ndarray:
    """Check a solution text: its size line, then one 1-indexed vertex per
    line in strictly ascending order, written canonically, dominating every
    vertex of ``inst``. Returns the 0-indexed members; raises CheckError."""
    lines = text.split("\n")
    if len(lines) < 2 or lines[-1] != "":
        raise CheckError("solution text must be a size line followed by vertex lines, newline-terminated")
    lines.pop()
    try:
        values = [int(x) for x in lines]
    except ValueError:
        raise CheckError("non-numeric line in solution text") from None
    if [str(x) for x in values] != lines:
        raise CheckError("solution text is not written canonically")
    size = values[0]
    ids = np.asarray(values[1:], dtype=np.int64)
    if size != ids.size:
        raise CheckError(f"size line says {size} but {ids.size} vertices follow")
    if ids.size and (ids[0] < 1 or ids[-1] > inst.n or np.any(np.diff(ids) <= 0)):
        raise CheckError(f"vertex IDs must be strictly ascending within 1..{inst.n}")
    chosen = np.zeros(inst.n, dtype=bool)
    chosen[ids - 1] = True
    dominated = chosen.copy()
    dominated[inst.v[chosen[inst.u]]] = True
    dominated[inst.u[chosen[inst.v]]] = True
    if not dominated.all():
        raise CheckError(f"vertex {int(np.argmin(dominated)) + 1} is not dominated")
    return ids - 1
