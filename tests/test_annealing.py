import random

import pytest

import domset.annealing
from domset import (
    AnnealConfig,
    Budget,
    Cover,
    Graph,
    Solution,
    brute_force_optimum,
    decay,
    gnp,
    greedy_ln,
    sa_solve,
    verify,
)
from domset.annealing import TEMPERATURE_FLOOR
from domset.state import POLL_BATCH

from conftest import path_graph, random_instance, reference_sa, star_graph


def test_decay_single_step():
    cfg = AnnealConfig(initial_temperature=1.0, cooling_factor=0.95, max_epochs=1)
    assert decay(1.0, cfg) == pytest.approx(0.95)


def test_decay_clamps_at_floor():
    cfg = AnnealConfig(cooling_factor=0.5, max_epochs=1)
    assert decay(TEMPERATURE_FLOOR, cfg) == TEMPERATURE_FLOOR
    assert decay(1.5e-6, cfg) == TEMPERATURE_FLOOR


def test_decay_two_epochs():
    cfg = AnnealConfig(initial_temperature=2.0, cooling_factor=0.5, max_epochs=2)
    assert decay(decay(2.0, cfg), cfg) == pytest.approx(0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        AnnealConfig(initial_temperature=0.0, max_epochs=1)
    with pytest.raises(ValueError):
        AnnealConfig(cooling_factor=1.0, max_epochs=1)
    with pytest.raises(ValueError):
        AnnealConfig(moves_per_epoch=0, max_epochs=1)
    with pytest.raises(ValueError):
        AnnealConfig(max_epochs=-1)
    # At a NaN temperature no addition would ever be accepted.
    for t0 in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="initial_temperature must be finite"):
            AnnealConfig(initial_temperature=t0)


def test_sa_keeps_optimal_seed():
    g = star_graph(4)
    seed = Solution(5, [0])
    out = sa_solve(Cover(g, seed.members), AnnealConfig(max_epochs=30), random.Random(1))
    assert len(out) == 1
    assert verify(g, out).valid


def test_sa_improves_oversized_seed():
    g = path_graph(4)
    seed = Solution(4, [0, 1, 2])
    out = sa_solve(Cover(g, seed.members), AnnealConfig(max_epochs=60), random.Random(3))
    assert len(out) == 2
    assert brute_force_optimum(g)[0] == 2
    assert verify(g, out).valid


def test_sa_zero_time_budget_returns_seed():
    g = path_graph(4)
    seed = Solution(4, [0, 1, 2])
    out = sa_solve(Cover(g, seed.members), AnnealConfig(), random.Random(3), budget=Budget(0))
    assert sorted(out.members) == [0, 1, 2]


def test_sa_rejects_invalid_seed():
    g = path_graph(5)
    with pytest.raises(ValueError, match=r"not dominating \(vertex 2 uncovered\)"):
        sa_solve(Cover(g, [0]), AnnealConfig(max_epochs=1), random.Random(0))
    # A member of -1 would otherwise count vertex 4 as dominated.
    out_of_range = Solution(5, [1, 3])
    out_of_range.members.append(-1)
    with pytest.raises(ValueError, match="member -1 out of range"):
        sa_solve(Cover(g, out_of_range.members), AnnealConfig(max_epochs=1), random.Random(0))


def test_sa_never_worse_than_seed_and_always_valid():
    rng = random.Random(17)
    for _ in range(25):
        g = gnp(rng.randint(1, 40), rng.uniform(0.05, 0.4), rng.randrange(10**6))
        seed = greedy_ln(g)
        # One move per epoch: the domination check sa_solve makes after
        # every epoch runs after every move.
        out = sa_solve(
            Cover(g, seed.members),
            AnnealConfig(moves_per_epoch=1, max_epochs=1000),
            random.Random(rng.randrange(100)),
        )
        assert len(out) <= len(seed)
        assert verify(g, out).valid


def test_sa_reproducible_with_fixed_seed():
    g = gnp(30, 0.2, seed=12)
    seed = greedy_ln(g)
    cfg = AnnealConfig(max_epochs=25)
    first = sa_solve(Cover(g, seed.members), cfg, random.Random(42))
    second = sa_solve(Cover(g, seed.members), cfg, random.Random(42))
    assert first.members == second.members


def test_sa_matches_reference_loop():
    # Inline draws, the graph's neighbor tuples, tick marks and the per-epoch
    # threshold must leave every move as the plain loop makes it. Seeds
    # from greedy and from the whole vertex set, temperatures where
    # additions are common and rare, and epoch lengths below and off
    # multiples of the POLL_BATCH-move budget poll.
    rng = random.Random(2026)
    for case in range(160):
        g = random_instance(rng, case % 4)
        seed_solution = greedy_ln(g) if rng.random() < 0.7 else Solution(g.n, range(g.n))
        cfg = AnnealConfig(
            initial_temperature=rng.choice((1.0, 0.3, 0.1)),
            cooling_factor=rng.choice((0.995, 0.9, 0.5)),
            moves_per_epoch=rng.choice((None, rng.randint(1, POLL_BATCH - 1), POLL_BATCH * rng.randint(1, 3) + rng.randint(1, POLL_BATCH - 1))),
            max_epochs=rng.randint(0, 15),
        )
        seed = rng.randrange(10**6)
        out = sa_solve(Cover(g, seed_solution.members), cfg, random.Random(seed))
        assert out.members == reference_sa(g, seed_solution, cfg, seed), (case, cfg)


def test_sa_leaves_the_cover_holding_the_best_set_in_insertion_order():
    # A drop moves the last member into the freed slot, so a run whose last
    # change is the removal that sets the best ends with members == best in
    # pick order, here [0, 1, 2, 7, 6] with 6 added before 7. The Cover
    # loads that order back, which makes it the order the next add extends.
    g = Graph.from_edges(8, [(0, 2), (0, 6), (1, 5), (1, 6), (3, 7), (4, 5), (4, 7)])
    seed_solution = Solution(8, [0, 1, 2, 4, 6, 7])
    cfg = AnnealConfig(initial_temperature=0.1, moves_per_epoch=3, max_epochs=1)
    cover = Cover(g, seed_solution.members)
    assert sa_solve(cover, cfg, random.Random(49)).members == reference_sa(g, seed_solution, cfg, 49) == [0, 1, 2, 7, 6]
    assert cover.members == [0, 1, 2, 7, 6]
    assert [cover.pos[v] for v in cover.members] == [0, 1, 2, 3, 4]
    rng = random.Random(8)
    for case in range(200):
        g = random_instance(rng, case % 4)
        seed_solution = Solution(g.n, range(g.n))
        cfg = AnnealConfig(initial_temperature=0.1, moves_per_epoch=rng.randint(1, 5), max_epochs=rng.randint(0, 3))
        cover = Cover(g, seed_solution.members)
        sa_solve(cover, cfg, random.Random(case))
        assert cover.members == reference_sa(g, seed_solution, cfg, case), case
        assert all(cover.members[cover.pos[v]] == v for v in cover.members), case
        assert cover.counts == Cover(g, cover.members).counts, case


class _MoveCountingRandom(random.Random):
    """Counts the draws that open a move. Only an addition proposal makes a
    second ``random()`` draw, its acceptance test, and only after its last
    vertex draw found a non-member of ``in_set``."""

    def __init__(self, seed, in_set):
        super().__init__(seed)
        self.in_set = in_set
        self.moves = 0
        self.adding = False
        self.last = None

    def random(self):
        acceptance = self.adding and self.last is not None and not self.in_set[self.last]
        value = super().random()
        self.adding = False
        if not acceptance:
            self.moves += 1
            self.adding = value >= domset.annealing._P_EXCHANGE
            self.last = None
        return value

    def getrandbits(self, k):
        value = super().getrandbits(k)
        if self.adding:
            self.last = value
        return value


class _PollRecordingBudget(Budget):
    """Records the move count at each poll; expires at poll ``trip`` (1-based)."""

    def __init__(self, trip=None):
        super().__init__()
        self.trip = trip
        self.rng = None
        self.polls = []

    def expired(self):
        self.polls.append(self.rng.moves)
        return len(self.polls) == self.trip


@pytest.mark.parametrize("moves_per_epoch", [1, 255, 256, 257, 600])
def test_sa_polls_its_budget_every_poll_batch_moves(moves_per_epoch):
    # The budget is polled before each epoch's first move and then after
    # every POLL_BATCH moves of the epoch, and a run that finds it expired
    # makes no further move. With POLL_BATCH = 64, 255 and 257 lie one
    # move either side of the multiple 256.
    g = gnp(300, 0.03, seed=4)
    seed_solution = greedy_ln(g)
    epochs = 3
    cfg = AnnealConfig(moves_per_epoch=moves_per_epoch, max_epochs=epochs)
    expected = [e * moves_per_epoch + b for e in range(epochs) for b in range(0, moves_per_epoch, POLL_BATCH)]
    for trip in (None, 1, 2, len(expected)):
        budget = _PollRecordingBudget(trip)
        cover = Cover(g, seed_solution.members)
        budget.rng = _MoveCountingRandom(9, cover.in_set)
        out = sa_solve(cover, cfg, budget.rng, budget=budget)
        assert verify(g, out).valid
        if trip is None:
            assert budget.polls == expected
            assert budget.rng.moves == epochs * moves_per_epoch
            gaps = [b - a for a, b in zip(budget.polls, budget.polls[1:] + [budget.rng.moves])]
            assert max(gaps) <= POLL_BATCH
        else:
            assert budget.polls == expected[:trip]
            assert budget.rng.moves == budget.polls[-1]
