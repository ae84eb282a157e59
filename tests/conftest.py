"""Shared graph builders for the test suite. All vertices are 0-indexed."""

from __future__ import annotations

import heapq
import math
import os
import random
from pathlib import Path

import domset
from domset import AnnealConfig, Cover, Graph, Solution, add_to_d, compute_cover_counts, decay, generate_instance, gnp, true_gain
from domset.swaps import SwapMove

# Child processes (``python -m domset``) import the package the tests import,
# also when that is a checkout's src/ put on sys.path by pytest's pythonpath.
_SRC = str(Path(domset.__file__).parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def path_graph(k: int) -> Graph:
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def star_graph(leaves: int) -> Graph:
    """Center 0 with the given number of leaves."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(k: int) -> Graph:
    return Graph.from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def neighbors(g: Graph, v: int) -> tuple[int, ...]:
    """N(v), ascending: the entries of ``g.closed[v]`` other than ``v``."""
    return tuple(x for x in g.closed[v] if x != v)


def reversed_labels(g: Graph) -> Graph:
    """``g`` with every vertex v renamed n - 1 - v, which reverses the
    order of each N[v]."""
    n = g.n
    return Graph.from_edges(n, [(n - 1 - u, n - 1 - v) for u in range(n) for v in g.closed[u] if v > u])


def is_redundant(cover, v: int) -> bool:
    """True when every vertex of N[v] is dominated at least twice, so
    dropping member ``v`` keeps the set dominating."""
    return all(cover.counts[x] >= 2 for x in cover.closed[v])


def unique_of(cover, v: int) -> list[int]:
    """Vertices in N[v] that member ``v`` is the only dominator of, ascending."""
    return [x for x in cover.closed[v] if cover.counts[x] == 1]


def greedy_two_packing(g: Graph) -> list[int]:
    """A 2-packing taken greedily: vertices by ascending degree, ties by
    ID, each kept when its closed neighborhood misses those of the ones
    kept before, so the kept vertices are pairwise at distance >= 3. Every
    dominating set needs a distinct member in each of their disjoint closed
    neighborhoods, so its size is a lower bound on the domination number."""
    taken = [False] * g.n
    packing = []
    for v in sorted(range(g.n), key=lambda v: (len(g.closed[v]), v)):
        near = g.closed[v]
        if not any(taken[x] for x in near):
            packing.append(v)
            for x in near:
                taken[x] = True
    return packing


def forest_domination_number(g: Graph) -> int:
    """The domination number of a forest, by the linear-time tree DP of
    Cockayne, Goodman and Hedetniemi (1975), over an iterative post-order of
    each tree. Three states per vertex, each the fewest members in its
    subtree: ``inside`` has the vertex in the set; ``covered`` leaves it out
    but dominated by a child; ``open`` leaves it and its children out, for
    its parent to dominate. Every other vertex of the subtree is dominated.
    ValueError for a graph with a cycle.
    """
    inf = g.n + 1
    inside, covered, open_ = [1] * g.n, [0] * g.n, [0] * g.n
    seen, parent = [False] * g.n, [-1] * g.n
    gamma = trees = 0
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        trees += 1
        order = [root]
        for v in order:  # breadth-first; reversed, children precede parents
            for x in neighbors(g, v):
                if not seen[x]:
                    seen[x] = True
                    parent[x] = v
                    order.append(x)
        for v in reversed(order):
            children = [x for x in neighbors(g, v) if x != parent[v]]
            best = [min(inside[c], covered[c]) for c in children]
            inside[v] = 1 + sum(min(inside[c], covered[c], open_[c]) for c in children)
            open_[v] = min(inf, sum(covered[c] for c in children))
            # At least one child must be inside: the cheapest one to force.
            force = min((inside[c] - b for c, b in zip(children, best)), default=inf)
            covered[v] = min(inf, sum(best) + force)
        gamma += min(inside[root], covered[root])
    if g.m != g.n - trees:
        raise ValueError("not a forest")
    return gamma


def random_instance(rng: random.Random, kind: int) -> Graph:
    """A random graph of at most 300 vertices: gnp (kind 0), tree (1),
    star forest (2) or grid (3)."""
    n = rng.randint(1, 300)
    if kind == 0:
        return gnp(n, min(1.0, rng.uniform(0.0, 8.0) / max(1, n - 1)), rng.randrange(10**6))
    if kind == 1:
        return generate_instance("tree", rng.randrange(10**6), n=n)[0]
    if kind == 2:
        return generate_instance("star-forest", rng.randrange(10**6), n=n, max_star=rng.randint(1, 8))[0]
    rows = rng.randint(1, 17)
    return generate_instance("grid", rng.randrange(10**6), rows=rows, cols=rng.randint(1, 17))[0]


def random_partial_set(rng: random.Random, g: Graph) -> Solution:
    """Each vertex joins with one rate drawn per vertex from 0, 5% and 20%."""
    return Solution(g.n, [v for v in range(g.n) if rng.random() < rng.choice((0.0, 0.05, 0.2))])


def eager_continuation(g: Graph, sol: Solution) -> list[int]:
    """The greedy rule written out directly from ``sol``: while anything is
    uncovered, add the vertex covering the most uncovered vertices, smallest
    ID on ties. Returns the added vertices in order."""
    covered = [False] * g.n
    for d in sol.members:
        for x in g.closed[d]:
            covered[x] = True
    added = []
    while not all(covered):
        best = max(range(g.n), key=lambda v: (sum(not covered[x] for x in g.closed[v]), -v))
        added.append(best)
        for x in g.closed[best]:
            covered[x] = True
    return added


def eager_greedy(g: Graph) -> Solution:
    """Full-rescore greedy, the slow reference the lazy variant must match."""
    cover = compute_cover_counts(g)
    while 0 in cover.counts:
        best_v = -1
        best_gain = 0
        for v in range(g.n):
            gain = true_gain(cover, v)
            if gain > best_gain:
                best_gain = gain
                best_v = v
        add_to_d(cover, best_v)
    return cover.solution


def reference_heap_greedy(cover) -> None:
    """The lazy greedy over a binary heap: exact gains, one int key
    ``-gain * n + v`` per vertex, and a popped key above its vertex's gain
    pushed back corrected (dropped at gain 0). Extends ``cover`` in the
    max-gain, smallest-ID order ``lazy_greedy`` must follow."""
    g = cover.g
    n = g.n
    closed = g.closed
    counts = cover.counts
    gain = [len(near) for near in closed]
    for x in range(n):
        if counts[x]:
            for y in closed[x]:
                gain[y] -= 1
    heap = [-gv * n + v for v, gv in enumerate(gain) if gv]
    heapq.heapify(heap)
    while 0 in cover.counts:
        key = heapq.heappop(heap)
        v = key % n
        gv = gain[v]
        if gv < -(key // n):
            if gv:
                heapq.heappush(heap, -gv * n + v)
            continue
        cover.add(v)
        for x in closed[v]:
            if counts[x] == 1:
                for y in closed[x]:
                    gain[y] -= 1


def reference_try_one_swap(cover, w: int) -> SwapMove | None:
    """The exchange scan without any candidate filter: every t in N[w]
    outside the set has its closed neighborhood scanned. A t covering all
    that ``w`` alone covers, absorbing the most uniquely covered vertices
    (the smallest ID on ties), replaces ``w``. A ``w`` that covers nothing
    alone is left in place: removing it is the prune's job."""
    uset = set(unique_of(cover, w))
    if not uset:
        return None
    best_t = -1
    best_absorbed = -1
    for t in cover.g.closed[w]:
        if cover.in_set[t]:
            continue
        hits = 0
        absorbed = 0
        for y in cover.g.closed[t]:
            if cover.counts[y] == 1:
                absorbed += 1
                if y in uset:
                    hits += 1
        if hits == len(uset) and absorbed > best_absorbed:
            best_t = t
            best_absorbed = absorbed
    if best_t < 0:
        return None
    cover.drop(w)
    cover.add(best_t)
    return SwapMove(w, best_t)


def reference_sa(g: Graph, seed_solution: Solution, cfg: AnnealConfig, seed: int) -> list[int]:
    """The annealing loop written plainly, with ``rng.randrange`` draws,
    ``is_redundant`` and ``unique_of`` plus a set: removal,
    exchange and addition proposals in the mix 0.4 : 0.4 : 0.2. Returns the
    best members in the order ``sa_solve`` must give them."""
    cover = Cover(g, seed_solution.members)
    cur = cover.members
    in_set = cover.in_set
    best = list(cur)
    rng = random.Random(seed)
    n = g.n
    temperature = cfg.initial_temperature
    for _ in range(cfg.max_epochs):
        for _ in range(cfg.moves_per_epoch if cfg.moves_per_epoch is not None else max(100, n)):
            out = put = -1
            r = rng.random()
            if r < 0.4:
                out = cur[rng.randrange(len(cur))]
                if not is_redundant(cover, out):
                    continue
            elif r < 0.8:
                out = cur[rng.randrange(len(cur))]
                cands = [t for t in g.closed[out] if not in_set[t]]
                if not cands:
                    continue
                put = cands[rng.randrange(len(cands))]
                unique = unique_of(cover, out)
                if unique:
                    uset = set(unique)
                    hits = 0
                    for y in g.closed[put]:
                        if y in uset:
                            hits += 1
                    if hits != len(uset):
                        continue
            else:
                if len(cur) == n:
                    continue
                for _ in range(8):
                    c = rng.randrange(n)
                    if not in_set[c]:
                        put = c
                        break
                if put < 0:
                    continue
                if rng.random() >= math.exp(-1.0 / temperature):
                    continue
            if out >= 0:
                cover.drop(out)
            if put >= 0:
                cover.add(put)
            if len(cur) < len(best):
                best = list(cur)
        temperature = decay(temperature, cfg)
    return best
