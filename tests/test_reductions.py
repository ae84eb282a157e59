import random
from itertools import combinations

import pytest

from domset import Cover, Graph, add_to_d, apply_isolate_rule, apply_leaf_rule, compute_cover_counts, gnp, star_forest

from conftest import cycle_graph, neighbors, path_graph, random_instance, random_partial_set, reversed_labels, star_graph


def recompute_counts(g: Graph, cover: Cover) -> list[int]:
    counts = [0] * g.n
    for v in range(g.n):
        if cover.in_set[v]:
            for x in g.closed[v]:
                counts[x] += 1
    return counts


def recompute_dominated(g: Graph, cover: Cover) -> list[bool]:
    return [c > 0 for c in recompute_counts(g, cover)]


def dominated(cover: Cover) -> list[bool]:
    return [c > 0 for c in cover.counts]


def assert_member_counts(g: Graph, cover: Cover) -> None:
    # A member's count is its number of members in N[v], itself included;
    # annealing reads its non-member neighbours off this.
    for v in cover.members:
        assert cover.counts[v] == sum(cover.in_set[x] for x in g.closed[v])


def test_add_to_d_star_center():
    g = star_graph(3)
    state = compute_cover_counts(g)
    add_to_d(state, 0)
    assert dominated(state) == [True] * 4
    assert state.counts.count(0) == 0
    assert state.members == [0]


def test_add_to_d_idempotent():
    g = star_graph(3)
    state = compute_cover_counts(g)
    add_to_d(state, 1)
    add_to_d(state, 1)
    assert state.members == [1]
    assert state.counts.count(0) == 2


def test_add_to_d_isolated_vertex():
    g = Graph.from_edges(3, [(1, 2)])
    state = compute_cover_counts(g)
    add_to_d(state, 0)
    assert dominated(state) == [True, False, False]
    assert state.counts.count(0) == 2


def test_add_to_d_bookkeeping_matches_recomputation():
    rng = random.Random(7)
    for _ in range(30):
        g = gnp(rng.randint(1, 15), rng.random(), rng.randrange(10**6))
        state = compute_cover_counts(g)
        assert state.closed is g.closed
        inserted = []  # insertion order, kept by hand
        for _ in range(rng.randint(0, g.n)):
            v = rng.randrange(g.n)
            if not state.in_set[v]:
                inserted.append(v)
            add_to_d(state, v)
            assert dominated(state) == recompute_dominated(g, state)
            assert state.counts.count(0) == recompute_dominated(g, state).count(False)
            assert_member_counts(g, state)
            # Until the first drop the pick array is insertion order, the
            # order the backward prune reads.
            assert state.members == inserted
        # Random drops and re-adds through Cover.drop / Cover.add must agree
        # with a from-scratch recount after every step, and keep the member
        # list and its position index in step: an add appends, and a drop
        # moves the last member into the freed slot.
        picks = inserted
        for _ in range(rng.randint(0, 2 * g.n)):
            v = rng.randrange(g.n)
            if state.in_set[v]:
                state.drop(v)
                i = picks.index(v)
                last = picks.pop()
                if last != v:
                    picks[i] = last
            else:
                add_to_d(state, v)
                picks.append(v)
            assert state.counts == recompute_counts(g, state)
            assert state.counts == Cover(g, state.members).counts
            assert state.counts.count(0) == recompute_dominated(g, state).count(False)
            assert set(state.members) == {x for x in range(g.n) if state.in_set[x]}
            assert all(state.members[state.pos[x]] == x for x in state.members)
            assert state.members == picks
            assert_member_counts(g, state)


def test_cover_load_after_random_moves_equals_a_fresh_cover():
    # load sets the whole state from scratch, whatever moves came before,
    # in the given order, and keeps the Cover's lists.
    rng = random.Random(1717)
    for case in range(120):
        g = random_instance(rng, case % 4)
        cover = Cover(g, random_partial_set(rng, g).members)
        lists = (cover.members, cover.in_set, cover.counts, cover.pos)
        for _ in range(rng.randint(0, 3 * g.n)):
            v = rng.randrange(g.n)
            if cover.in_set[v]:
                cover.drop(v)
            else:
                cover.add(v)
        if case % 3:
            m = rng.sample(range(g.n), rng.randint(0, g.n))
        else:  # the current members, reordered
            m = rng.sample(cover.members, len(cover.members))
        cover.load(m)
        fresh = Cover(g, m)
        assert cover.counts == fresh.counts, case
        assert cover.in_set == fresh.in_set
        assert cover.pos == fresh.pos
        assert cover.members == m
        assert all(m[cover.pos[v]] == v for v in m)
        now = (cover.members, cover.in_set, cover.counts, cover.pos)
        assert all(a is b for a, b in zip(lists, now))
        assert cover.solution.members == m
        # The next add is appended: the loaded order is insertion order.
        if len(m) < g.n:
            v = rng.choice([x for x in range(g.n) if not cover.in_set[x]])
            cover.add(v)
            assert cover.members == m + [v]


def test_cover_solution_is_a_snapshot():
    # cover.solution copies the members in pick order; later moves on the
    # Cover leave it as it was, and each read is a new Solution.
    g = path_graph(5)
    cover = Cover(g, [1, 3])
    snap = cover.solution
    assert (snap.n, snap.members) == (5, [1, 3])
    assert snap.members is not cover.members
    cover.add(0)
    cover.drop(1)
    assert snap.members == [1, 3]
    assert cover.members == [0, 3]  # the drop moved the last member into 1's slot
    assert cover.solution.members == [0, 3]
    assert cover.solution is not cover.solution


def test_cover_load_rejects_an_out_of_range_member_unchanged():
    g = path_graph(5)
    cover = Cover(g, [1, 3])
    before = (list(cover.members), list(cover.in_set), list(cover.counts))
    for bad in ([0, -1], [5]):
        with pytest.raises(ValueError, match="out of range"):
            cover.load(bad)
        assert (cover.members, cover.in_set, cover.counts) == before


def test_cover_load_rejects_a_repeated_member_unchanged():
    # Cover(g, [1, 1]) must not count vertex 1 twice and list it twice.
    g = path_graph(3)
    with pytest.raises(ValueError, match="duplicate member 1"):
        Cover(g, [1, 1])
    cover = Cover(g, [0, 2])
    before = (list(cover.members), list(cover.in_set), list(cover.counts), list(cover.pos))
    for bad in ([1, 1], [0, 2, 0], [2, 1, 2]):
        with pytest.raises(ValueError, match=f"duplicate member {bad[-1]}"):
            cover.load(bad)
        assert (cover.members, cover.in_set, cover.counts, cover.pos) == before


def test_isolate_rule_all_isolates():
    g = Graph.from_edges(4, [])
    state = compute_cover_counts(g)
    assert apply_isolate_rule(state) == 4
    assert state.counts.count(0) == 0
    assert sorted(state.members) == [0, 1, 2, 3]


def test_isolate_rule_connected_graph():
    state = compute_cover_counts(cycle_graph(5))
    assert apply_isolate_rule(state) == 0


def test_isolate_rule_mixed():
    g = Graph.from_edges(3, [(1, 2)])
    state = compute_cover_counts(g)
    assert apply_isolate_rule(state) == 1
    assert state.members == [0]


def test_leaf_rule_path_forces_center():
    # gamma(P3) = 1: the centre alone dominates, confirmed by exhaustive
    # search below. The centre is labelled between the leaves, last, and,
    # reverse-labelled, first, so a leaf's neighbour sits on either side of
    # the leaf in its N[u].
    centre_last = Graph.from_edges(3, [(0, 2), (2, 1)])
    for g, centre in ((path_graph(3), 1), (centre_last, 2), (reversed_labels(centre_last), 0)):
        state = compute_cover_counts(g)
        apply_isolate_rule(state)
        added = apply_leaf_rule(state)
        assert added == 1
        assert state.members == [centre]
        assert state.counts.count(0) == 0
        assert exhaustive_gamma(g) == 1


def test_leaf_rule_star_adds_center_once():
    g = star_graph(5)
    state = compute_cover_counts(g)
    added = apply_leaf_rule(state)
    assert added == 1
    assert state.members == [0]


def test_leaf_rule_no_leaves():
    g = cycle_graph(4)
    state = compute_cover_counts(g)
    assert apply_leaf_rule(state) == 0


def test_leaf_rule_isolated_edge():
    # First leaf in ID order forces its neighbor; the other leaf is then skipped.
    g = Graph.from_edges(2, [(0, 1)])
    state = compute_cover_counts(g)
    assert apply_leaf_rule(state) == 1
    assert state.members == [1]


def test_reductions_postconditions_on_random_graphs():
    rng = random.Random(99)
    for _ in range(25):
        g = star_forest(rng.randint(1, 30), rng.randint(1, 6), rng.randrange(10**6))
        state = compute_cover_counts(g)
        size_before = len(state.solution)
        apply_isolate_rule(state)
        assert len(state.solution) >= size_before
        mid = len(state.solution)
        apply_leaf_rule(state)
        assert len(state.solution) >= mid
        for v in range(g.n):
            if len(g.closed[v]) == 1:
                assert state.in_set[v]
            if len(g.closed[v]) == 2:
                assert dominated(state)[v]
        assert dominated(state) == recompute_dominated(g, state)


def exhaustive_gamma(g: Graph, forced: tuple[int, ...] = ()) -> int:
    """Smallest dominating set containing all of ``forced``, by direct enumeration."""
    closed = [set(near) for near in g.closed]
    everything = set(range(g.n))
    rest = [v for v in range(g.n) if v not in forced]
    base = set()
    for v in forced:
        base |= closed[v]
    for k in range(len(rest) + 1):
        for combo in combinations(rest, k):
            covered = set(base)
            for c in combo:
                covered |= closed[c]
            if covered == everything:
                return len(forced) + k
    raise AssertionError("unreachable")


def test_forced_vertices_never_hurt_the_optimum():
    rng = random.Random(4242)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 10)
        g = gnp(n, rng.uniform(0.05, 0.3), rng.randrange(10**6))
        state = compute_cover_counts(g)
        apply_isolate_rule(state)
        apply_leaf_rule(state)
        forced = tuple(state.members)
        if not forced:
            continue
        checked += 1
        assert exhaustive_gamma(g, forced) == exhaustive_gamma(g)
    assert checked >= 10


def test_reductions_on_a_cover_that_already_holds_members():
    # Each rule adds only non-members: an isolate, or the one neighbour of
    # a leaf that no member dominated before the call. Afterwards every
    # isolate and leaf is dominated, and a second run of both rules finds
    # nothing left to force.
    rng = random.Random(2121)
    for i in range(80):
        g = random_instance(rng, i % 4)
        cover = Cover(g, random_partial_set(rng, g).members)
        for rule in (apply_isolate_rule, apply_leaf_rule):
            members = list(cover.members)
            in_set = list(cover.in_set)
            counts = list(cover.counts)
            added = rule(cover)
            new = cover.members[len(members):]
            assert cover.members[: len(members)] == members
            assert added == len(new)
            for v in new:
                assert not in_set[v]
                if rule is apply_isolate_rule:
                    assert g.closed[v] == (v,)
                else:
                    assert any(neighbors(g, u) == (v,) and not counts[u] for u in neighbors(g, v))
            assert Cover(g, cover.members).counts == cover.counts
        assert all(cover.counts[u] for u in range(g.n) if len(g.closed[u]) <= 2)
        members = list(cover.members)
        assert apply_isolate_rule(cover) == 0
        assert apply_leaf_rule(cover) == 0
        assert cover.members == members
