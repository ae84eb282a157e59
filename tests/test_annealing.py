import random

import pytest

from domset import (
    AnnealConfig,
    Budget,
    Solution,
    brute_force_optimum,
    decay,
    gnp,
    greedy_ln,
    sa_solve,
    verify,
)
from domset.annealing import TEMPERATURE_FLOOR

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
    seed = Solution.from_members(5, [0])
    out = sa_solve(g, seed, AnnealConfig(max_epochs=30), seed=1)
    assert len(out) == 1
    assert verify(g, out).valid


def test_sa_improves_oversized_seed():
    g = path_graph(4)
    seed = Solution.from_members(4, [0, 1, 2])
    out = sa_solve(g, seed, AnnealConfig(max_epochs=60), seed=3)
    assert len(out) == 2
    assert brute_force_optimum(g)[0] == 2
    assert verify(g, out).valid


def test_sa_zero_time_budget_returns_seed():
    g = path_graph(4)
    seed = Solution.from_members(4, [0, 1, 2])
    out = sa_solve(g, seed, AnnealConfig(), seed=3, budget=Budget(0))
    assert sorted(out.members) == [0, 1, 2]


def test_sa_rejects_invalid_seed():
    g = path_graph(5)
    with pytest.raises(ValueError, match=r"not dominating \(vertex 2 uncovered\)"):
        sa_solve(g, Solution.from_members(5, [0]), AnnealConfig(max_epochs=1))
    # A member of -1 would otherwise count vertex 4 as dominated.
    out_of_range = Solution.from_members(5, [1, 3])
    out_of_range.members.append(-1)
    with pytest.raises(ValueError, match="member -1 out of range"):
        sa_solve(g, out_of_range, AnnealConfig(max_epochs=1))


def test_sa_never_worse_than_seed_and_always_valid():
    rng = random.Random(17)
    for _ in range(25):
        g = gnp(rng.randint(1, 40), rng.uniform(0.05, 0.4), rng.randrange(10**6))
        seed = greedy_ln(g)
        # One move per epoch: the domination check sa_solve makes after
        # every epoch runs after every move.
        out = sa_solve(g, seed, AnnealConfig(moves_per_epoch=1, max_epochs=1000), seed=rng.randrange(100))
        assert len(out) <= len(seed)
        assert verify(g, out).valid


def test_sa_reproducible_with_fixed_seed():
    g = gnp(30, 0.2, seed=12)
    seed = greedy_ln(g)
    cfg = AnnealConfig(max_epochs=25)
    first = sa_solve(g, seed, cfg, seed=42)
    second = sa_solve(g, seed, cfg, seed=42)
    assert first.members == second.members


def test_sa_matches_reference_loop():
    # Inline draws, the graph's neighbor tuples, tick marks and the per-epoch
    # threshold must leave every move as the plain loop makes it. Seeds
    # from greedy and from the whole vertex set, temperatures where
    # additions are common and rare, and epoch lengths below and off
    # multiples of the 256-move budget poll.
    rng = random.Random(2026)
    for case in range(160):
        g = random_instance(rng, case % 4)
        seed_solution = greedy_ln(g) if rng.random() < 0.7 else Solution.from_members(g.n, range(g.n))
        cfg = AnnealConfig(
            initial_temperature=rng.choice((1.0, 0.3, 0.1)),
            cooling_factor=rng.choice((0.995, 0.9, 0.5)),
            moves_per_epoch=rng.choice((None, rng.randint(1, 255), 256 * rng.randint(1, 3) + rng.randint(1, 255))),
            max_epochs=rng.randint(0, 15),
        )
        seed = rng.randrange(10**6)
        out = sa_solve(g, seed_solution, cfg, seed=seed)
        assert out.members == reference_sa(g, seed_solution, cfg, seed), (case, cfg)
