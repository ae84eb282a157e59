import random

import pytest

from domset import Budget, Cover

from conftest import complete_graph, path_graph, random_instance, random_partial_set, star_graph


def test_cover_counts_triangle_full_set():
    g = complete_graph(3)
    counts = Cover(g, [0, 1, 2]).counts
    assert counts == [3, 3, 3]


def test_cover_counts_star_center():
    g = star_graph(4)
    counts = Cover(g, [0]).counts
    assert counts == [1, 1, 1, 1, 1]


def test_cover_counts_path():
    # P3 with D = {0, 1}: counts 2, 2, 1.
    g = path_graph(3)
    counts = Cover(g, [0, 1]).counts
    assert counts == [2, 2, 1]


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


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(-1.0)
    for ms in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="budget must be finite"):
            Budget(ms)
    assert not Budget(None).expired()  # attempt-counted mode
    assert Budget(0).expired()
