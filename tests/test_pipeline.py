import random
import sys
import threading
import time

import pytest

import domset.pipeline
from domset import (
    ALGORITHMS,
    AnnealConfig,
    Budget,
    Graph,
    Solution,
    SolverConfig,
    brute_force_optimum,
    compute_cover_counts,
    generate_instance,
    gnp,
    solve,
    verify,
    write_solution,
)

from conftest import path_graph, star_graph


def _cfg(**kwargs) -> SolverConfig:
    kwargs.setdefault("wallclock", False)
    kwargs.setdefault("attempt_cap", 5)
    return SolverConfig(**kwargs)


def test_hedom5_large_star():
    g = star_graph(9)
    sol = solve(g, _cfg(algorithm="hedom5"))
    assert len(sol) == 1
    assert brute_force_optimum(g)[0] == 1


def test_single_vertex_instance():
    g = Graph.from_edges(1, [])
    sol = solve(g, _cfg(algorithm="hedom5"))
    assert sol.members == [0]


def test_all_algorithms_on_p6():
    g = path_graph(6)
    assert brute_force_optimum(g)[0] == 2
    assert len(solve(g, _cfg(algorithm="hedom5"))) == 2
    assert len(solve(g, _cfg(algorithm="sa", seed=5))) == 2
    assert len(solve(g, _cfg(algorithm="greedy"))) <= 3


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(algorithm="magic")
    with pytest.raises(ValueError):
        SolverConfig(time_budget_ms=0)
    with pytest.raises(ValueError):
        SolverConfig(attempt_cap=0)
    # A NaN deadline would never fire.
    for ms in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="time_budget_ms must be finite"):
            SolverConfig(time_budget_ms=ms)


def test_every_algorithm_output_verifies():
    rng = random.Random(640)
    for _ in range(15):
        g = gnp(rng.randint(1, 80), rng.uniform(0.01, 0.2), rng.randrange(10**6))
        for algo in ("hedom5", "greedy", "sa"):
            sol = solve(g, _cfg(algorithm=algo, seed=3))
            assert verify(g, sol).valid


STAGES = {
    "hedom5": ["reductions", "greedy", "prune", "swap", "patch"],
    "greedy": ["greedy", "patch"],
    "sa": ["greedy", "anneal", "patch"],
}


def test_stage_trace_sizes_are_monotone():
    rng = random.Random(41)
    for _ in range(20):
        g = gnp(rng.randint(1, 120), rng.uniform(0.01, 0.15), rng.randrange(10**6))
        for algo, stages in STAGES.items():
            trace = []
            solve(g, _cfg(algorithm=algo, anneal=AnnealConfig(max_epochs=5)), trace=trace)
            assert [t.stage for t in trace] == stages
            # From greedy on, every stage keeps or shrinks the set.
            sizes = [t.size for t in trace][stages.index("greedy"):]
            assert all(b <= a for a, b in zip(sizes, sizes[1:]))
            assert sizes[-1] == sizes[-2]  # the patch never fires on a healthy run
            assert all(a.ms <= b.ms for a, b in zip(trace, trace[1:]))


def test_hedom5_deterministic():
    g = gnp(150, 0.05, seed=77)
    first = solve(g, _cfg(algorithm="hedom5", seed=9))
    second = solve(g, _cfg(algorithm="hedom5", seed=9))
    assert first.members == second.members


def test_preset_stop_token_still_yields_valid_output():
    g = gnp(300, 0.02, seed=5)
    stop = threading.Event()
    stop.set()
    for algo in ("hedom5", "greedy", "sa"):
        trace = []
        sol = solve(g, _cfg(algorithm=algo), trace=trace, stop=stop)
        assert verify(g, sol).valid
        # A preset stop skips the improvement stage of every algorithm.
        expected = ["reductions", "greedy", "patch"] if algo == "hedom5" else ["greedy", "patch"]
        assert [t.stage for t in trace] == expected


def test_preset_stop_returns_quickly_at_20k_vertices():
    # The stop path repairs a near-empty set; it has to stay near-linear.
    g = gnp(20_000, 10 / 19_999, seed=20)
    stop = threading.Event()
    stop.set()
    for algo in ("hedom5", "greedy", "sa"):
        start = time.perf_counter()
        sol = solve(g, _cfg(algorithm=algo), stop=stop)
        elapsed = time.perf_counter() - start
        assert verify(g, sol).valid
        assert elapsed < 5.0, (algo, elapsed)


# Measured wall-clock traces of this instance (2-core Intel Xeon host,
# Python 3.11): hedom5's reductions end at 1.0-1.7 ms and its greedy at
# 33-44 ms, prune 1 ms later, and the swap phase then runs until the
# deadline; sa's greedy ends at 34-50 ms and annealing then runs until the
# deadline. So a stop at 10 ms lands in greedy, with room on both sides for
# the timer thread's few ms of GIL latency, and one at 1.5 s, over 30 times
# any greedy end, lands in the swap phase or in annealing.
# An annealing epoch of 4M moves takes longer than the 5 s bound, so only
# the budget poll every 256 moves can meet it.
@pytest.mark.parametrize("delay, stage", [(0.01, "greedy"), (1.5, "swap"), (1.5, "anneal")])
def test_stop_during_a_running_solve_returns_within_5s(delay, stage):
    g = gnp(20_000, 10 / 19_999, seed=20)
    stop = threading.Event()
    fired = []

    def fire() -> None:
        fired.append(time.perf_counter())
        stop.set()

    trace = []
    algorithm = "sa" if stage == "anneal" else "hedom5"
    cfg = SolverConfig(algorithm=algorithm, attempt_cap=10_000, seed=3, anneal=AnnealConfig(moves_per_epoch=4_000_000))
    timer = threading.Timer(delay, fire)
    timer.start()
    try:
        sol = solve(g, cfg, trace=trace, stop=stop)
        done = time.perf_counter()
    finally:
        timer.cancel()
    assert fired, "the solve ended before the stop fired"
    assert verify(g, sol).valid
    assert done - fired[0] < 5.0, done - fired[0]
    # The stop ends the stage it lands in, and the patch follows at once: a
    # stop during greedy skips prune and swap.
    stages = [t.stage for t in trace]
    assert stages[-2:] == [stage, "patch"], stages


def _budget_tripping_at(k: int | None, pollers: list[str]) -> type:
    """A Budget whose ``expired()`` records the name of the function that
    polls it and reads true from its k-th call on (never for ``k=None``)."""

    class TrippingBudget(Budget):
        def expired(self) -> bool:
            pollers.append(sys._getframe(1).f_code.co_name)
            return k is not None and len(pollers) >= k

    return TrippingBudget


# The stage each polling function belongs to. solve polls once itself,
# after greedy, to decide whether the improvement stage runs; a trip there
# skips that stage, so greedy is the last one before the patch.
POLLED_STAGE = {"lazy_greedy": "greedy", "solve": "greedy", "swap_phase": "swap", "sa_solve": "anneal"}


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize(
    "kind, params",
    [
        ("gnp", {"n": 1500, "p": 0.004}),
        ("tree", {"n": 1500}),
        ("star-forest", {"n": 1500, "max_star": 6}),
        ("grid", {"rows": 30, "cols": 50}),
    ],
)
def test_a_stop_at_every_budget_poll_ends_the_polling_stage(monkeypatch, algo, kind, params):
    # solve builds its Budget by the module-global name, so a substitute
    # stops the run at an exact poll, whatever the host's speed.
    g = generate_instance(kind, 13, **params)[0]
    cfg = _cfg(algorithm=algo, attempt_cap=3, seed=4, anneal=AnnealConfig(max_epochs=3))
    polls: list[str] = []
    monkeypatch.setattr(domset.pipeline, "Budget", _budget_tripping_at(None, polls))
    full_trace = []
    solve(g, cfg, trace=full_trace)
    full = [t.stage for t in full_trace]
    # Every poller is known, and the improvement stage polls too (on trees
    # and star forests hedom5's reductions leave greedy nothing to do).
    assert set(polls) <= POLLED_STAGE.keys(), polls
    assert {"hedom5": "swap_phase", "greedy": "solve", "sa": "sa_solve"}[algo] in polls, polls
    for k in range(1, len(polls) + 1):
        calls: list[str] = []
        monkeypatch.setattr(domset.pipeline, "Budget", _budget_tripping_at(k, calls))
        trace = []
        sol = solve(g, cfg, trace=trace)
        assert verify(g, sol).valid, k
        assert calls[:k] == polls[:k], k
        stage = POLLED_STAGE[calls[k - 1]]
        assert [t.stage for t in trace] == full[: full.index(stage) + 1] + ["patch"], (k, calls[k - 1])
        # The polling stage ends at the poll that trips. Only a trip in
        # lazy_greedy is followed by one more poll: solve's own check.
        assert calls[k:] == (["solve"] if calls[k - 1] == "lazy_greedy" else []), calls[k - 1 :]


def test_default_anneal_config_runs_attempt_counted():
    g = gnp(200, 0.03, seed=4)
    default = solve(g, SolverConfig(algorithm="sa", wallclock=False, seed=2, anneal=AnnealConfig()))
    explicit = solve(g, SolverConfig(algorithm="sa", wallclock=False, seed=2, anneal=AnnealConfig(max_epochs=200)))
    assert verify(g, default).valid
    assert write_solution(default) == write_solution(explicit)


def test_hedom5_without_reductions_hook(monkeypatch):
    monkeypatch.setattr("domset.pipeline.apply_isolate_rule", lambda cover: 0)
    monkeypatch.setattr("domset.pipeline.apply_leaf_rule", lambda cover: 0)
    g = gnp(40, 0.1, seed=8)
    sol = solve(g, _cfg(algorithm="hedom5"))
    assert verify(g, sol).valid


def _assert_cover_consistent(cover) -> None:
    """The Cover's flags, pick array and counts describe one vertex set."""
    g = cover.g
    members = cover.members
    assert len(set(members)) == len(members)
    assert all(members[cover.pos[v]] == v for v in members)
    assert [v for v in range(g.n) if cover.in_set[v]] == sorted(members)
    assert cover.counts == compute_cover_counts(g, Solution.from_members(g.n, members)).counts
    assert cover.uncovered == cover.counts.count(0)


# Every stage solve hands the run's Cover to, with the stages after which
# the set dominates.
COVER_STAGES = ("apply_isolate_rule", "apply_leaf_rule", "lazy_greedy", "backward_prune", "swap_phase", "sa_solve")
DOMINATING_AFTER = {"lazy_greedy", "backward_prune", "swap_phase", "sa_solve"}


class _TripsAtSecondAnnealPoll(Budget):
    """Never expires until sa_solve's second poll: with 600 moves an epoch,
    that is 256 moves into the first epoch."""

    def __init__(self, ms=None, stop=None):
        super().__init__(ms, stop)
        self.anneal_polls = 0

    def expired(self) -> bool:
        if sys._getframe(1).f_code.co_name == "sa_solve":
            self.anneal_polls += 1
        return self.anneal_polls >= 2


@pytest.mark.parametrize(
    "algo, t0, budget",
    [("hedom5", 1.0, None), ("greedy", 1.0, None), ("sa", 1.0, None), ("sa", 0.1, None), ("sa", 0.1, _TripsAtSecondAnnealPoll)],
)
@pytest.mark.parametrize("kind, params", [("gnp", {"n": 300, "p": 0.03}), ("grid", {"rows": 15, "cols": 20})])
def test_the_runs_one_cover_stays_consistent_after_every_stage(monkeypatch, algo, t0, budget, kind, params):
    # Every stage gets the same Cover, and after each its counts match a
    # recount of its members. sa must leave it holding the best set in
    # insertion order, also when its annealing shrank the set (t0 = 0.1)
    # and when its budget expired mid-epoch.
    g = generate_instance(kind, 5, **params)[0]
    cfg = _cfg(algorithm=algo, attempt_cap=3, seed=3, anneal=AnnealConfig(initial_temperature=t0, moves_per_epoch=600, max_epochs=20))
    budgets = []
    if budget is not None:
        monkeypatch.setattr(domset.pipeline, "Budget", lambda ms, stop: budgets.append(budget(ms, stop)) or budgets[-1])
    seen = []
    for name in COVER_STAGES:

        def checked(cover, *args, _fn=getattr(domset.pipeline, name), _name=name):
            before = len(cover.members)
            result = _fn(cover, *args)
            _assert_cover_consistent(cover)
            if _name in DOMINATING_AFTER:
                assert cover.uncovered == 0, _name
            if _name == "sa_solve":
                assert result is cover.solution
                assert cover.in_order() == cover.members
            seen.append((_name, cover, before, len(cover.members)))
            return result

        monkeypatch.setattr(domset.pipeline, name, checked)
    trace = []
    sol = solve(g, cfg, trace=trace)
    assert verify(g, sol).valid
    stages = [name for name, *_ in seen]
    expected = {
        "hedom5": ["apply_isolate_rule", "apply_leaf_rule", "lazy_greedy", "backward_prune", "swap_phase"],
        "greedy": ["lazy_greedy"],
        "sa": ["lazy_greedy", "sa_solve"],
    }[algo]
    assert stages == expected
    assert all(cover is seen[0][1] for _, cover, *_ in seen)
    assert sol is seen[0][1].solution
    # The set each stage leaves is what the trace records, and the patch
    # adds nothing to a set that already dominates.
    sizes = {t.stage: t.size for t in trace}
    assert sizes["greedy"] == seen[stages.index("lazy_greedy")][3]
    assert sizes["patch"] == seen[-1][3]
    if algo == "sa":
        _, _, before, after = seen[-1]
        assert sizes["anneal"] == after
        if t0 == 0.1 and kind == "grid":
            assert after < before
    if budgets:
        assert budgets[0].anneal_polls == 2
