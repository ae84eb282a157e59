import random
from itertools import combinations

import pytest

from domset import Graph, Solution, add_to_d, brute_force_optimum, compute_cover_counts, gnp, greedy_ln, grid, random_tree, star_forest, verify

from conftest import complete_graph, cycle_graph, forest_domination_number, path_graph, star_graph


def exhaustive_gamma(g: Graph) -> int:
    """Independent oracle: minimum dominating set size by plain subset enumeration."""
    closed = [set(near) for near in g.closed]
    everything = set(range(g.n))
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            covered = set()
            for c in combo:
                covered |= closed[c]
            if covered == everything:
                return k
    raise AssertionError("unreachable")


def test_verify_star_center():
    g = star_graph(4)
    report = verify(g, Solution(5, [0]))
    assert report.valid
    assert report.first_uncovered is None
    assert report.size == 1


def test_verify_empty_set_reports_first_vertex():
    g = path_graph(3)
    report = verify(g, Solution(3))
    assert not report.valid
    assert report.first_uncovered == 0


def test_verify_full_vertex_set():
    g = cycle_graph(5)
    assert verify(g, Solution(5, range(5))).valid


def test_verify_reports_smallest_uncovered():
    g = Graph.from_edges(4, [(0, 1)])
    report = verify(g, Solution(4, [0]))
    assert report.first_uncovered == 2


def test_verify_rejects_out_of_range_member():
    g = path_graph(3)
    sol = Solution(3)
    sol.members.append(7)  # bypass validation deliberately
    with pytest.raises(ValueError):
        verify(g, sol)


def test_verify_agrees_with_cover_state():
    rng = random.Random(3)
    for _ in range(30):
        g = gnp(rng.randint(1, 20), rng.random(), rng.randrange(10**6))
        state = compute_cover_counts(g)
        for _ in range(rng.randint(0, g.n)):
            add_to_d(state, rng.randrange(g.n))
        report = verify(g, state.solution)
        assert report.valid == (0 not in state.counts)
        if not report.valid:
            assert report.first_uncovered == state.counts.index(0)


def test_oracle_known_values():
    assert brute_force_optimum(path_graph(4))[0] == 2
    assert brute_force_optimum(cycle_graph(6))[0] == 2
    assert brute_force_optimum(complete_graph(5))[0] == 1


def test_oracle_matches_exhaustive_enumeration():
    rng = random.Random(271828)
    for _ in range(40):
        g = gnp(rng.randint(1, 9), rng.random(), rng.randrange(10**6))
        assert brute_force_optimum(g)[0] == exhaustive_gamma(g)


def test_oracle_witness_is_valid_and_minimal():
    # The oracle branches over N[x] in ascending order, so its witness
    # depends on that order while gamma does not: on tiny instances of all
    # four kinds the witness dominates with exactly gamma members, and
    # gamma equals plain enumeration.
    rng = random.Random(6)
    graphs = [gnp(rng.randint(1, 14), rng.uniform(0, 0.5), rng.randrange(10**6)) for _ in range(25)]
    rng = random.Random(2626)
    for _ in range(12):
        graphs.append(random_tree(rng.randint(1, 12), rng.randrange(10**6)))
        graphs.append(star_forest(rng.randint(1, 12), rng.randint(1, 6), rng.randrange(10**6)))
        graphs.append(grid(rng.randint(1, 3), rng.randint(1, 4)))
    for i, g in enumerate(graphs):
        gamma, witness = brute_force_optimum(g)
        assert len(witness) == gamma == exhaustive_gamma(g), i
        assert verify(g, Solution(g.n, witness)).valid, i


def grid_domination_number(r: int, c: int) -> int:
    """The domination number of the r x c grid for r <= 4, r <= c: the
    closed forms of Jacobson and Kinch (1984)."""
    if r == 1:
        return (c + 2) // 3
    if r == 2:
        return (c + 2) // 2
    if r == 3:
        return (3 * c + 4) // 4
    return c + 1 if c in (1, 2, 3, 5, 6, 9) else c


def test_oracle_matches_the_closed_forms_on_small_grids():
    grids = [(r, c) for r in range(1, 5) for c in range(r, 25) if r * c <= 24]
    assert len(grids) == 44
    for r, c in grids:
        assert brute_force_optimum(grid(r, c))[0] == grid_domination_number(r, c), (r, c)


def test_oracle_lower_bounds_heuristics():
    rng = random.Random(8)
    for _ in range(25):
        g = gnp(rng.randint(1, 16), rng.uniform(0, 0.4), rng.randrange(10**6))
        assert brute_force_optimum(g)[0] <= len(greedy_ln(g))


def test_oracle_refuses_large_instances():
    with pytest.raises(ValueError, match="n <= 24"):
        brute_force_optimum(gnp(25, 0.1, seed=1))


def test_forest_dp_matches_the_oracle():
    # The tree DP is the exact reference on forests far beyond the oracle's
    # reach; on small trees and star forests it must agree with the oracle.
    rng = random.Random(29)
    for i in range(300):
        n = rng.randint(1, 18)
        g = random_tree(n, 8000 + i) if i % 2 else star_forest(n, rng.randint(1, 6), 8000 + i)
        assert forest_domination_number(g) == brute_force_optimum(g)[0], (i, n)
