import random

import pytest

from domset import (
    Budget,
    Cover,
    Graph,
    Solution,
    backward_prune,
    gnp,
    greedy_ln,
    safety_patch,
    swap_phase,
    try_one_swap,
    generate_instance,
    verify,
)
import domset.swaps
from domset.state import POLL_BATCH
from domset.swaps import SwapMove

from conftest import (
    assert_cover_consistent,
    complete_graph,
    cycle_graph,
    eager_continuation,
    is_redundant,
    path_graph,
    random_instance,
    random_partial_set,
    reference_try_one_swap,
    reversed_labels,
    star_graph,
    unique_of,
)


def test_backward_prune_path_example():
    # P3, members inserted as [2, 1]: the newest member 1 must stay (vertex 0
    # is covered once), then 2 goes (its whole closed neighborhood is doubly
    # covered), leaving {1}.
    g = path_graph(3)
    sol = Solution(3, [2, 1])
    cover = Cover(g, sol.members)
    backward_prune(cover)
    assert cover.members == [1]
    assert verify(g, cover.solution).valid


def test_backward_prune_keeps_minimal_solution():
    g = star_graph(4)
    sol = Solution(5, [0])
    cover = Cover(g, sol.members)
    backward_prune(cover)
    assert cover.members == [0]


def test_backward_prune_triangle_full_set():
    g = complete_graph(3)
    sol = Solution(3, [0, 1, 2])
    cover = Cover(g, sol.members)
    backward_prune(cover)
    assert len(cover.members) == 1
    assert verify(g, cover.solution).valid


def test_prune_properties_on_random_solutions():
    rng = random.Random(2024)
    for _ in range(40):
        g = gnp(rng.randint(1, 50), rng.uniform(0.02, 0.4), rng.randrange(10**6))
        members = greedy_ln(g).members
        # pad with random extra members so there is something to prune
        taken = set(members)
        extras = [v for v in range(g.n) if v not in taken]
        rng.shuffle(extras)
        sol = Solution(g.n, members + extras[: g.n // 3])
        before = len(sol)
        cover = Cover(g, sol.members)
        backward_prune(cover)
        assert len(cover.members) <= before
        assert verify(g, cover.solution).valid
        # live counts match a fresh recomputation
        assert cover.counts == Cover(g, cover.members).counts
        assert 0 not in cover.counts
        # a second pass over the pruned set removes nothing
        again = Cover(g, cover.members)
        backward_prune(again)
        assert again.members == cover.members


def test_prune_preserves_surviving_order():
    g = path_graph(6)
    sol = Solution(6, [4, 1, 3, 0])
    cover = Cover(g, sol.members)
    backward_prune(cover)
    order = [v for v in [4, 1, 3, 0] if cover.in_set[v]]
    assert cover.members == order


def _start_sets(rng: random.Random, g: Graph) -> tuple[list[int], list[int]]:
    """A pruned greedy set, and the greedy set plus random extra members,
    which is redundant from the start."""
    start = list(greedy_ln(g).members)
    pruned = Cover(g, start)
    backward_prune(pruned)
    taken = set(start)
    extra = start + [v for v in range(g.n) if v not in taken and rng.random() < 0.1]
    return list(pruned.members), extra


def test_try_one_swap_matches_unfiltered_scan():
    # Each instance also runs reverse-labelled, where a member is often the
    # largest ID in its N[w], so u must be taken from the front of unique.
    rng = random.Random(4711)
    kinds = {"covers nothing alone": 0, "only w": 0, "filtered": 0, "w last": 0, "no candidate": 0}
    for i in range(120):
        g0 = random_instance(rng, i % 4)
        for g in (g0, reversed_labels(g0)):
            for members in _start_sets(rng, g):
                cover = Cover(g, members)
                ref = Cover(g, members)
                # Two passes over the members, so later attempts see states
                # the earlier moves made.
                for w in cover.members * 2:
                    if not cover.in_set[w]:
                        continue
                    unique = unique_of(cover, w)
                    move = try_one_swap(cover, w)
                    assert move == reference_try_one_swap(ref, w), (i, w)
                    assert cover.members == ref.members
                    assert cover.counts == ref.counts
                    if not unique:
                        assert move is None
                        kinds["covers nothing alone"] += 1
                    elif move is None:
                        kinds["no candidate"] += 1
                    elif unique == [w]:
                        kinds["only w"] += 1
                    else:
                        kinds["w last" if unique[-1] == w else "filtered"] += 1
    # Every branch of the scan was taken, the filtered one most of all.
    assert min(kinds.values()) > 0, kinds
    assert kinds["filtered"] > kinds["only w"], kinds


def test_swap_budget_validation():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        swap_phase(Cover(g, [0, 2]), attempt_cap=0, budget=Budget(), rng=random.Random(0))


def test_uniquely_covered_sole_dominator():
    g = star_graph(3)
    cover = Cover(g, [0])
    assert sorted(unique_of(cover, 0)) == [0, 1, 2, 3]


def test_uniquely_covered_fully_shadowed():
    g = path_graph(3)
    cover = Cover(g, [0, 1])
    assert unique_of(cover, 0) == []


def test_try_one_swap_leaves_a_redundant_member_to_the_prune():
    # P4 with D = {0, 2, 3}: member 3 covers nothing alone. The swap step
    # only exchanges, so it leaves 3 in place; the prune removes it.
    g = path_graph(4)
    sol = Solution(4, [0, 2, 3])
    cover = Cover(g, sol.members)
    before_counts = list(cover.counts)
    assert unique_of(cover, 3) == []
    assert try_one_swap(cover, 3) is None
    assert cover.members == [0, 2, 3]
    assert cover.counts == before_counts
    backward_prune(cover)
    assert cover.members == [0, 2]
    assert verify(g, cover.solution).valid
    assert cover.counts == Cover(g, cover.members).counts


def test_try_one_swap_no_candidate_leaves_state_alone():
    g = star_graph(3)
    sol = Solution(4, [0])
    cover = Cover(g, sol.members)
    before_members = list(cover.members)
    before_counts = list(cover.counts)
    assert try_one_swap(cover, 0) is None
    assert cover.members == before_members
    assert cover.counts == before_counts


def test_try_one_swap_exchange_on_cycle():
    # C4 with D = {0, 2}: vertex 0 uniquely covers itself; neighbor 1 covers
    # {0, 1, 2} which includes it, so 0 is exchanged for 1.
    g = cycle_graph(4)
    sol = Solution(4, [0, 2])
    cover = Cover(g, sol.members)
    assert unique_of(cover, 0) == [0]
    move = try_one_swap(cover, 0)
    assert move == SwapMove(removed=0, added=1)
    assert sorted(cover.members) == [1, 2]
    assert len(cover.members) == 2
    assert verify(g, cover.solution).valid
    assert cover.counts == Cover(g, cover.members).counts


def test_swap_phase_expired_budget_changes_nothing():
    # Greedy's {0, 3, 5} plus a redundant 1: no sweep runs.
    g = cycle_graph(8)
    sol = Solution(8, [*greedy_ln(g).members, 1])
    cover = Cover(g, sol.members)
    before = list(cover.members)
    swap_phase(cover, attempt_cap=10, budget=Budget(1e-9), rng=random.Random(0))
    assert cover.members == before


def test_swap_phase_fixpoint_stops_early():
    g = star_graph(5)
    sol = Solution(6, [0])
    cover = Cover(g, sol.members)
    swap_phase(cover, attempt_cap=50, budget=Budget(None), rng=random.Random(0))
    assert cover.members == [0]


class _AttemptRecordingBudget(Budget):
    """Records how many members had been attempted at each poll; never expires."""

    def __init__(self, attempts):
        super().__init__()
        self.attempts = attempts
        self.polls = []

    def expired(self):
        self.polls.append(len(self.attempts))
        return False


def test_swap_phase_polls_within_a_poll_batch_of_attempted_work(monkeypatch):
    # Each attempt on member w costs about deg(w) + 1. Between two polls,
    # and after the last one, the attempted members weigh less than
    # POLL_BATCH plus the weight of the first of them, the member whose
    # weight brought on the poll.
    attempts = []

    def recording_try(cover, w):
        attempts.append(w)
        return try_one_swap(cover, w)

    monkeypatch.setattr(domset.swaps, "try_one_swap", recording_try)
    graphs = (
        gnp(1500, 8 / 1499, seed=5),
        generate_instance("grid", 3, rows=30, cols=50)[0],
        generate_instance("star-forest", 3, n=1500, max_star=150)[0],
    )
    heaviest = 0
    for g in graphs:
        attempts.clear()
        budget = _AttemptRecordingBudget(attempts)
        cover = Cover(g, greedy_ln(g).members)
        backward_prune(cover)
        swap_phase(cover, attempt_cap=3, budget=budget, rng=random.Random(2))
        assert budget.polls[0] == 0 and len(budget.polls) > 3
        weight = [len(g.closed[w]) for w in attempts]
        ends = budget.polls[1:] + [len(attempts)]
        for start, end in zip(budget.polls, ends):
            assert sum(weight[start + 1 : end]) < POLL_BATCH, (start, end)
        heaviest = max(heaviest, *weight)
    # The star centres alone outweigh a batch.
    assert heaviest > POLL_BATCH


def _checked_swap_phase(monkeypatch, cover, **kwargs) -> None:
    """Run swap_phase with the state it is handed and the state after every
    applied move checked: what swap_phase keeps from its prune-minimal start
    on, after every applied move and its prune, is a consistent Cover with no
    redundant member.

    The state changes only through applied moves and the prunes that follow
    them, so each such state is the one the next attempt, or the return of
    swap_phase, sees."""
    applied = True  # the first attempt sees the state swap_phase was handed

    def checked_try(c, w):
        nonlocal applied
        if applied:
            assert_cover_consistent(c)
            assert not any(is_redundant(c, v) for v in c.members), "a redundant member survived the prune"
        move = try_one_swap(c, w)
        applied = move is not None
        return move

    monkeypatch.setattr(domset.swaps, "try_one_swap", checked_try)
    swap_phase(cover, **kwargs)
    assert_cover_consistent(cover)
    assert not any(is_redundant(cover, v) for v in cover.members), "a redundant member survived the prune"


def test_swap_phase_never_grows_and_stays_valid(monkeypatch):
    rng = random.Random(808)
    for _ in range(30):
        g = gnp(rng.randint(1, 40), rng.uniform(0.05, 0.4), rng.randrange(10**6))
        cover = Cover(g, greedy_ln(g).members)
        backward_prune(cover)
        size_after_prune = len(cover.members)
        _checked_swap_phase(monkeypatch, cover, attempt_cap=8, budget=Budget(None), rng=random.Random(0))
        assert len(cover.members) <= size_after_prune
        assert verify(g, cover.solution).valid
        assert cover.counts == Cover(g, cover.members).counts


def _reference_swap_phase(cover, attempt_cap: int, rng: random.Random) -> int:
    """The swap loop with the unfiltered exchange scan and a full backward
    prune on entry and after every applied move. Returns how many members
    the prunes after moves removed."""
    backward_prune(cover)
    later_removed = 0
    for _ in range(attempt_cap):
        order = list(cover.members)
        rng.shuffle(order)
        changed = False
        for w in order:
            if cover.in_set[w] and reference_try_one_swap(cover, w) is not None:
                changed = True
                before = len(cover.members)
                backward_prune(cover)
                later_removed += before - len(cover.members)
        if not changed:
            break
    return later_removed


def test_local_prune_matches_full_prune_after_every_move(monkeypatch):
    rng = random.Random(2024)
    later_removed = 0
    for i in range(100):
        kind = i % 4
        n = rng.randint(1, 300)
        if kind == 0:
            g = gnp(n, min(1.0, rng.uniform(1.0, 10.0) / max(1, n - 1)), rng.randrange(10**6))
        elif kind == 1:
            g = generate_instance("tree", rng.randrange(10**6), n=n)[0]
        elif kind == 2:
            g = generate_instance("star-forest", rng.randrange(10**6), n=n, max_star=rng.randint(1, 8))[0]
        else:
            g = generate_instance("grid", 0, rows=rng.randint(1, 17), cols=rng.randint(1, 17))[0]
        for members in _start_sets(rng, g):
            for seed in (1, 2, 3):
                ref = Cover(g, members)
                later_removed += _reference_swap_phase(ref, 6, random.Random(seed))
                cover = Cover(g, members)
                backward_prune(cover)
                _checked_swap_phase(monkeypatch, cover, attempt_cap=6, budget=Budget(), rng=random.Random(seed))
                assert cover.members == ref.members, (i, seed)
                assert cover.counts == ref.counts
                assert cover.counts.count(0) == ref.counts.count(0) == 0
    # The comparison means something only if later prunes removed members.
    assert later_removed > 0, later_removed


def test_swap_phase_deterministic():
    g = gnp(12, 0.3, seed=9)
    runs = []
    for _ in range(2):
        cover = Cover(g, greedy_ln(g).members)
        backward_prune(cover)
        swap_phase(cover, attempt_cap=20, budget=Budget(None), rng=random.Random(7))
        runs.append(list(cover.members))
    assert runs[0] == runs[1]


def test_safety_patch_valid_solution_untouched():
    g = path_graph(5)
    cover = Cover(g, greedy_ln(g).members)
    before = list(cover.members)
    assert safety_patch(cover) == 0
    assert cover.members == before


def test_safety_patch_repairs_empty_solution():
    g = star_graph(3)
    cover = Cover(g, Solution(4).members)
    assert safety_patch(cover) == 1
    assert cover.members == [0]  # the center covers all four vertices


def test_safety_patch_isolates():
    g = Graph.from_edges(2, [])
    cover = Cover(g, Solution(2).members)
    assert safety_patch(cover) == 2
    assert verify(g, cover.solution).valid


def test_safety_patch_always_terminates_valid():
    rng = random.Random(55)
    for _ in range(30):
        g = gnp(rng.randint(1, 40), rng.uniform(0, 0.3), rng.randrange(10**6))
        # random partial garbage
        sol = Solution(g.n, [v for v in range(g.n) if rng.random() < 0.2])
        cover = Cover(g, sol.members)
        added = safety_patch(cover)
        assert added <= g.n
        assert verify(g, cover.solution).valid


def test_safety_patch_matches_reference_rule():
    rng = random.Random(1105)
    for i in range(120):
        g = random_instance(rng, i % 4)
        sol = random_partial_set(rng, g)
        before = list(sol.members)
        expected = eager_continuation(g, sol)
        cover = Cover(g, sol.members)
        assert safety_patch(cover) == len(expected)
        assert cover.members == before + expected
        assert verify(g, cover.solution).valid
