import math
import random

from domset import (
    Graph,
    add_to_d,
    apply_isolate_rule,
    apply_leaf_rule,
    brute_force_optimum,
    compute_cover_counts,
    gnp,
    greedy_ln,
    lazy_greedy,
    true_gain,
    verify,
)

from conftest import eager_continuation, eager_greedy, path_graph, random_instance, random_partial_set, star_graph


def test_true_gain_fresh_star_center():
    g = star_graph(3)
    state = compute_cover_counts(g)
    assert true_gain(state, 0) == 4


def test_true_gain_fully_dominated():
    g = star_graph(3)
    state = compute_cover_counts(g)
    add_to_d(state, 0)
    for v in range(g.n):
        assert true_gain(state, v) == 0


def test_true_gain_partial_path():
    # P3 with D = {0}: vertex 2's closed neighborhood {1, 2} has only 2 undominated.
    g = path_graph(3)
    state = compute_cover_counts(g)
    add_to_d(state, 0)
    assert true_gain(state, 2) == 1


def test_lazy_greedy_star_picks_center():
    g = star_graph(4)
    state = compute_cover_counts(g)
    lazy_greedy(state)
    assert state.solution.members == [0]
    assert brute_force_optimum(g)[0] == 1


def test_lazy_greedy_two_triangles():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    state = compute_cover_counts(g)
    lazy_greedy(state)
    assert len(state.solution) == 2
    assert brute_force_optimum(g)[0] == 2


def test_lazy_greedy_noop_when_dominated():
    g = star_graph(4)
    state = compute_cover_counts(g)
    add_to_d(state, 0)
    lazy_greedy(state)
    assert state.solution.members == [0]


def test_greedy_ln_single_vertex():
    g = Graph.from_edges(1, [])
    assert greedy_ln(g).members == [0]


def test_greedy_ln_star():
    assert len(greedy_ln(star_graph(4))) == 1


def test_greedy_ln_path4():
    g = path_graph(4)
    sol = greedy_ln(g)
    assert len(sol) == 2
    assert brute_force_optimum(g)[0] == 2


def test_greedy_output_always_dominates():
    rng = random.Random(5)
    for _ in range(40):
        g = gnp(rng.randint(1, 60), rng.uniform(0, 0.3), rng.randrange(10**6))
        assert verify(g, greedy_ln(g)).valid


def test_lazy_matches_eager_on_random_graphs():
    rng = random.Random(31337)
    for _ in range(60):
        g = gnp(rng.randint(1, 25), rng.uniform(0, 0.5), rng.randrange(10**6))
        assert greedy_ln(g).members == eager_greedy(g).members


def test_greedy_respects_ln_bound():
    rng = random.Random(11)
    for _ in range(30):
        g = gnp(rng.randint(1, 14), rng.uniform(0, 0.5), rng.randrange(10**6))
        gamma, _ = brute_force_optimum(g)
        bound = (math.log(g.max_degree() + 1) + 1) * gamma
        assert len(greedy_ln(g)) <= bound


def test_lazy_greedy_continues_any_partial_set_eagerly():
    """From the states reductions and safety_patch hand in (a random partial
    set, the reduced set), lazy_greedy appends exactly the eager max-gain,
    smallest-ID continuation."""
    rng = random.Random(6061)
    for i in range(160):
        g = random_instance(rng, i % 4)
        reduced = compute_cover_counts(g)
        apply_isolate_rule(reduced)
        apply_leaf_rule(reduced)
        for cover in (compute_cover_counts(g, random_partial_set(rng, g)), reduced):
            before = list(cover.members)
            expected = eager_continuation(g, cover.solution)
            lazy_greedy(cover)
            assert cover.members == before + expected
            assert cover.uncovered == 0
            assert verify(g, cover.solution).valid
