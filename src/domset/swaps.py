"""1-swap local improvement under the run budget, and the final repair."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Graph, Solution
from .greedy import lazy_greedy
from .pruning import backward_prune
from .state import POLL_BATCH, Budget, Cover, compute_cover_counts

__all__ = ["SwapMove", "try_one_swap", "swap_phase", "safety_patch"]


@dataclass(frozen=True)
class SwapMove:
    """An applied exchange: member ``removed`` out, non-member ``added`` in."""

    removed: int
    added: int


def try_one_swap(cover: Cover, w: int) -> SwapMove | None:
    """Attempt to exchange member ``w`` for a neighbour.

    The candidates t in N(w) outside the set are scanned in adjacency order
    for those whose closed neighborhood contains every vertex ``w`` covers
    alone; among them the one absorbing the most uniquely covered vertices
    overall wins (first in adjacency order on ties), since every uniqueness
    it erases is a future pruning opportunity. Returns the applied move, or
    None with the state untouched. A member that covers nothing alone also
    gets None: removing it is :func:`backward_prune`'s job.

    When a vertex u other than ``w`` is uniquely covered, a qualifying t
    must cover u, so it lies in N[u]: only the non-members of N(w) ∩ N[u]
    are tested, in ascending order, which is adjacency order. A candidate
    qualifies when every uniquely covered x is t or in N(t), and only a
    qualifying one has its absorbed vertices counted. That skips only
    candidates that could not qualify, so the same t wins. When ``w``
    alone is uniquely covered, u is ``w`` and every t in N(w) is tested.
    """
    adj = cover.adj
    counts = cover.counts
    nw = adj[w]
    unique = [w] if counts[w] == 1 else []
    for x in nw:
        if counts[x] == 1:
            unique.append(x)
    if not unique:
        return None
    in_set = cover.in_set
    # unique lists w first, so u != w unless w is the only one, and then
    # N(w) ∩ N[u] is N(w).
    u = unique[-1]
    cands = set(adj[u]).intersection(nw)
    cands.add(u)
    best_t = -1
    best_absorbed = -1
    for t in sorted(cands):
        if in_set[t]:
            continue
        near = adj[t]
        for x in unique:
            if x != t and x not in near:
                break
        else:
            absorbed = 1 if counts[t] == 1 else 0
            for y in near:
                if counts[y] == 1:
                    absorbed += 1
            if absorbed > best_absorbed:
                best_t = t
                best_absorbed = absorbed
    if best_t < 0:
        return None
    cover.drop(w)
    cover.add(best_t)
    return SwapMove(w, best_t)


def swap_phase(cover: Cover, attempt_cap: int, budget: Budget, rng: random.Random) -> None:
    """Sweep the members attempting one swap each, for at most
    ``attempt_cap`` sweeps or until ``budget`` expires.

    Unless ``budget`` has already expired, the phase opens with one full
    backward prune pass, after which no member is redundant; a set that is
    already prune-minimal, as the pipeline's is, loses nothing to it. From
    then on an exchange raises counts only on N[t] of the vertex t it adds,
    so a prune of the members near t, newest first, harvests exactly the
    follow-on removals the full pass would. So no attempted member is ever
    redundant, which is why :func:`try_one_swap` only exchanges. The set
    size never increases. Each sweep takes the members in insertion order
    (:meth:`Cover.in_order`) and shuffles them with ``rng``, which keeps the
    equal-size exchanges walking new plateaus instead of oscillating; a
    seeded rng makes the phase reproducible. A sweep that applies nothing
    visited every member against an unchanged state, so it proves a
    fixpoint for any order and ends the phase early.
    """
    if attempt_cap < 1:
        raise ValueError(f"attempt_cap must be strictly positive, got {attempt_cap}")
    if budget.expired():
        return
    backward_prune(cover)
    in_set = cover.in_set
    degree = cover.g.degree
    checks = 0
    for _ in range(attempt_cap):
        order = cover.in_order()
        rng.shuffle(order)
        changed = False
        for w in order:
            if not in_set[w]:
                continue
            checks += degree[w] + 1
            if checks >= POLL_BATCH:
                checks = 0
                if budget.expired():
                    return
            move = try_one_swap(cover, w)
            if move is None:
                continue
            changed = True
            backward_prune(cover, near=move.added)
        if not changed or budget.expired():
            return


def safety_patch(g: Graph, sol: Solution) -> int:
    """Recount domination from ``sol``'s members and let lazy greedy repair
    any gaps.

    The recount never trusts a stage's incrementally maintained Cover.
    Lazy greedy then adds, while uncovered vertices remain, the vertex
    covering the most of them (ties toward the smaller ID). Returns how
    many vertices were added; 0 on an already valid solution.
    """
    before = len(sol)
    lazy_greedy(compute_cover_counts(g, sol))
    return len(sol) - before
