import math
import random
import sys
import threading

import pytest

import domset.greedy
from domset import (
    Budget,
    Cover,
    Graph,
    Solution,
    add_to_d,
    apply_isolate_rule,
    apply_leaf_rule,
    brute_force_optimum,
    compute_cover_counts,
    generate_instance,
    gnp,
    greedy_ln,
    lazy_greedy,
    true_gain,
    verify,
)

from domset.state import POLL_BATCH

from conftest import (
    eager_continuation,
    eager_greedy,
    path_graph,
    random_instance,
    random_partial_set,
    reference_heap_greedy,
    star_graph,
)


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
        bound = (math.log(max(map(len, g.closed))) + 1) * gamma
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
        for cover in (Cover(g, random_partial_set(rng, g).members), reduced):
            before = list(cover.members)
            expected = eager_continuation(g, cover.solution)
            lazy_greedy(cover)
            assert cover.members == before + expected
            assert 0 not in cover.counts
            assert verify(g, cover.solution).valid


class _TripsAtPoll(Budget):
    """Expires at its k-th poll and counts the polls made."""

    def __init__(self, k):
        super().__init__()
        self.k = k
        self.polls = 0

    def expired(self):
        self.polls += 1
        return self.polls >= self.k


def test_lazy_greedy_stops_exactly_when_every_vertex_is_dominated(monkeypatch):
    """No pick is made once every vertex is dominated, and a run returns
    then; a budget that trips at poll k, for every k the run reaches, leaves
    a prefix of the full run's picks with a vertex still undominated."""
    real_add = domset.greedy.add_to_d

    def add_checked(cover, v):
        assert 0 in cover.counts, "a pick after every vertex was dominated"
        real_add(cover, v)

    monkeypatch.setattr(domset.greedy, "add_to_d", add_checked)
    rng = random.Random(9090)
    tripped = 0
    for i in range(40):
        g = random_instance(rng, i % 4)
        start = random_partial_set(rng, g)
        full = Cover(g, start.members)
        lazy_greedy(full)
        assert 0 not in full.counts
        for k in range(1, g.n + 2):
            budget = _TripsAtPoll(k)
            cover = Cover(g, start.members)
            lazy_greedy(cover, budget)
            assert cover.members == full.members[: len(cover.members)], (i, k)
            if budget.polls < k:
                assert cover.members == full.members
                assert 0 not in cover.counts
                break
            assert 0 in cover.counts, (i, k)
            tripped += 1
    assert tripped > 40


def _large_instance(rng: random.Random, kind: int) -> Graph:
    """A graph of 2k-5k vertices: gnp (kind 0), tree (1), star forest (2)
    or grid (3)."""
    n = rng.randint(2000, 5000)
    seed = rng.randrange(10**6)
    if kind == 0:
        return gnp(n, rng.uniform(1.0, 12.0) / (n - 1), seed)
    if kind == 1:
        return generate_instance("tree", seed, n=n)[0]
    if kind == 2:
        return generate_instance("star-forest", seed, n=n, max_star=rng.randint(2, 40))[0]
    rows = rng.randint(40, 70)
    return generate_instance("grid", seed, rows=rows, cols=n // rows)[0]


def _clique_cluster_graph(rng: random.Random, n: int) -> Graph:
    """Disjoint cliques of 3-12 vertices joined by sparse random edges. A
    pick inside a clique dominates all of it at once, so every other clique
    vertex falls by several gain levels in one pick."""
    edges = []
    start = 0
    while start < n:
        size = min(rng.randint(3, 12), n - start)
        edges.extend((start + i, start + j) for i in range(size) for j in range(i + 1, size))
        start += size
    edges.extend((rng.randrange(n), rng.randrange(n)) for _ in range(n))
    return Graph.from_edges(n, [(a, b) for a, b in edges if a != b])


def _equal_stars(stars: int, leaves: int) -> Graph:
    """Disjoint stars of equal size: every center is picked before any stale
    entry is visited, so each visit up to the last center is a pick."""
    k = leaves + 1
    return Graph.from_edges(stars * k, [(s * k, s * k + i) for s in range(stars) for i in range(1, k)])


def test_lazy_greedy_matches_heap_reference_at_scale():
    """At 2k-5k vertices, where the eager continuation is too slow, the
    bucket queue picks the same vertices in the same order as the heap
    reference, from an empty set, the reduced set and a random partial set."""
    rng = random.Random(4242)
    graphs = [_large_instance(rng, i % 4) for i in range(8)]
    clustered = _clique_cluster_graph(rng, 3000)
    graphs.append(clustered)
    # The first pick on the clustered graph drops many vertices by 3 or more
    # levels at once.
    first = compute_cover_counts(clustered)
    reference_heap_greedy(first)
    picked = compute_cover_counts(clustered)
    add_to_d(picked, first.members[0])
    fresh = compute_cover_counts(clustered)
    assert sum(true_gain(fresh, v) - true_gain(picked, v) >= 3 for v in range(clustered.n)) >= 5
    for g in graphs:
        reduced = compute_cover_counts(g)
        apply_isolate_rule(reduced)
        apply_leaf_rule(reduced)
        starts = [Solution(g.n), reduced.solution, random_partial_set(rng, g)]
        for start in starts:
            cover = Cover(g, start.members)
            expected = Cover(g, start.members)
            lazy_greedy(cover)
            reference_heap_greedy(expected)
            assert cover.members == expected.members
            assert cover.counts == expected.counts
            assert 0 not in cover.counts


def test_lazy_greedy_expired_budget_adds_nothing():
    g = gnp(500, 0.01, seed=8)
    for start in (Solution(g.n), random_partial_set(random.Random(8), g)):
        cover = Cover(g, start.members)
        counts = list(cover.counts)
        lazy_greedy(cover, Budget(0))
        assert cover.members == start.members
        assert cover.counts == counts


@pytest.mark.parametrize("k", [1, 5, POLL_BATCH, 150])
def test_lazy_greedy_stop_after_k_picks_ends_within_a_poll_batch(monkeypatch, k):
    """A stop set by the k-th pick ends greedy within ``POLL_BATCH`` visits,
    leaving the first picks of the unstopped run and counts that match its
    members."""
    for g in (gnp(3000, 6 / 2999, seed=12), _equal_stars(400, 5)):
        full = compute_cover_counts(g)
        lazy_greedy(full)
        assert len(full.members) >= k + POLL_BATCH
        stop = threading.Event()
        picks = []
        real_add = domset.greedy.add_to_d

        def add_then_stop(cover, v):
            real_add(cover, v)
            picks.append(v)
            if len(picks) == k:
                stop.set()

        monkeypatch.setattr(domset.greedy, "add_to_d", add_then_stop)
        cover = compute_cover_counts(g)
        lazy_greedy(cover, Budget(stop=stop))
        monkeypatch.undo()
        # Every pick is a visit, so fewer than POLL_BATCH picks follow the stop.
        assert k <= len(cover.members) < k + POLL_BATCH
        assert cover.members == full.members[: len(cover.members)]
        recount = Cover(g, cover.members)
        assert cover.counts == recount.counts
        assert cover.counts.count(0) == recount.counts.count(0) > 0


class _VisitRecordingBudget(Budget):
    """Records lazy_greedy's bucket visit count at each poll; never expires."""

    def __init__(self):
        super().__init__()
        self.polls = []

    def expired(self):
        self.polls.append(sys._getframe(1).f_locals["visits"])
        return False


def test_lazy_greedy_polls_before_its_first_visit_then_every_poll_batch_visits():
    rng = random.Random(31)
    graphs = (gnp(3000, 6 / 2999, seed=12), _equal_stars(400, 5), _clique_cluster_graph(rng, 2000))
    for g in graphs:
        totals = []

        def on_return(frame, event, arg):
            if event == "return" and frame.f_code is lazy_greedy.__code__:
                totals.append(frame.f_locals["visits"])

        budget = _VisitRecordingBudget()
        cover = compute_cover_counts(g)
        sys.setprofile(on_return)
        try:
            lazy_greedy(cover, budget)
        finally:
            sys.setprofile(None)
        (visits,) = totals
        assert 0 not in cover.counts
        assert len(cover.members) <= visits
        # A poll before visits 0, POLL_BATCH, 2 * POLL_BATCH, ...: none is
        # missing and none comes in between.
        assert budget.polls == list(range(0, visits, POLL_BATCH))
        assert len(budget.polls) > 2
