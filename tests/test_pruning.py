import random

from domset import Cover, Solution, backward_prune, gnp, greedy_ln, verify

from conftest import complete_graph, path_graph, star_graph


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
