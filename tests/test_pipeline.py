import ast
import importlib.util
import random
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import domset.pipeline
import domset.state
from domset import (
    ALGORITHMS,
    AnnealConfig,
    Budget,
    Cover,
    Graph,
    Solution,
    SolverConfig,
    apply_isolate_rule,
    apply_leaf_rule,
    backward_prune,
    brute_force_optimum,
    generate_instance,
    gnp,
    greedy_ln,
    lazy_greedy,
    random_tree,
    sa_solve,
    safety_patch,
    solve,
    star_forest,
    swap_phase,
    verify,
    write_solution,
)

from conftest import forest_domination_number, greedy_two_packing, path_graph, random_partial_set, star_graph


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


def test_zero_vertex_instance():
    # sa reaches sa_solve with an empty cover; its n == 0 return is what
    # keeps the draw loop from spinning on getrandbits(0) forever.
    g = Graph.from_edges(0, [])
    for algo in ALGORITHMS:
        sol = solve(g, _cfg(algorithm=algo))
        assert (sol.n, sol.members) == (0, [])
        assert verify(g, sol).valid
    assert verify(g, Solution(0)).valid
    assert brute_force_optimum(g) == (0, [])


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
# the budget poll every POLL_BATCH moves can meet it.
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


@pytest.mark.parametrize("stopped", [False, True])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_solve_builds_one_cover_per_run(monkeypatch, algo, stopped):
    # Construction counted, not timed: one Cover per run, and the patch
    # gets that Cover, also when a stop skips the improvement stage.
    built = []
    real_init = domset.state.Cover.__init__

    def counting_init(self, *args):
        built.append(self)
        real_init(self, *args)

    monkeypatch.setattr(domset.state.Cover, "__init__", counting_init)
    patched = []
    real_patch = domset.pipeline.safety_patch
    monkeypatch.setattr(domset.pipeline, "safety_patch", lambda cover: patched.append(cover) or real_patch(cover))
    g = generate_instance("gnp", 5, n=300, p=0.03)[0]
    stop = threading.Event()
    if stopped:
        stop.set()
    sol = solve(g, _cfg(algorithm=algo, anneal=AnnealConfig(max_epochs=5)), stop=stop)
    assert verify(g, sol).valid
    assert len(built) == 1
    assert len(patched) == 1 and patched[0] is built[0]
    assert sol.members == built[0].members and sol.members is not built[0].members


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_a_run_draws_from_one_rng(monkeypatch, algo):
    # solve builds the run's one generator from cfg.seed; the swap sweeps
    # and the annealing moves draw from it, and greedy never does.
    built = []

    class RecordingRandom(random.Random):
        def __init__(self, seed):
            built.append((seed, self))
            self.draws = 0
            super().__init__(seed)

        def getrandbits(self, k):
            self.draws += 1
            return super().getrandbits(k)

    g = generate_instance("gnp", 5, n=300, p=0.03)[0]
    cfg = _cfg(algorithm=algo, seed=11, anneal=AnnealConfig(max_epochs=5))
    plain = solve(g, cfg)
    monkeypatch.setattr(domset.pipeline, "random", SimpleNamespace(Random=RecordingRandom))
    sol = solve(g, cfg)
    assert [seed for seed, _ in built] == [11]
    assert (built[0][1].draws > 0) == (algo != "greedy")
    assert sol.members == plain.members


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_a_cover_leaves_the_solution_it_was_built_from_untouched(algo):
    # The Cover copies the members it is handed: no stage of any algorithm
    # writes through to the caller's Solution.
    g = generate_instance("gnp", 5, n=300, p=0.03)[0]
    sol = random_partial_set(random.Random(3), g)
    before = list(sol.members)
    cover = Cover(g, sol.members)
    stages = {
        "hedom5": [
            apply_isolate_rule,
            apply_leaf_rule,
            lazy_greedy,
            backward_prune,
            lambda c: swap_phase(c, 3, Budget(), random.Random(1)),
        ],
        "greedy": [lazy_greedy],
        "sa": [lazy_greedy, lambda c: sa_solve(c, AnnealConfig(initial_temperature=0.1, max_epochs=5), random.Random(1))],
    }[algo] + [safety_patch]
    for stage in stages:
        stage(cover)
        assert sol.members == before
        assert sol.members is not cover.members
    assert cover.members != before  # the stages did change the set


def test_no_solution_shares_a_list_with_a_live_cover(monkeypatch):
    # Every Solution a run or a stage hands back, and cover.solution, is a
    # snapshot: it holds no list of any Cover, and has no flags or writers.
    built = []
    real_init = domset.state.Cover.__init__

    def recording_init(self, *args):
        built.append(self)
        real_init(self, *args)

    monkeypatch.setattr(domset.state.Cover, "__init__", recording_init)
    g = generate_instance("grid", 5, rows=12, cols=15)[0]
    sols = [greedy_ln(g)]
    cover = Cover(g, sols[0].members)
    sols.append(cover.solution)
    sols.append(sa_solve(cover, AnnealConfig(initial_temperature=0.1, max_epochs=5), random.Random(2)))
    sols.extend(solve(g, _cfg(algorithm=algo)) for algo in ALGORITHMS)
    assert len(built) == 5
    cover_lists = {id(lst) for c in built for lst in (c.members, c.in_set, c.counts, c.pos)}
    assert all(id(s.members) not in cover_lists for s in sols)
    # Each Cover keeps one member order, its pick array.
    assert all(c.members[c.pos[v]] == v for c in built for v in c.members)
    assert not any(hasattr(c, name) for c in built for name in ("stamp", "clock", "in_order"))
    assert all(verify(g, s).valid for s in sols)
    assert not any(hasattr(s, name) for s in sols for name in ("in_set", "add", "copy"))


def _assert_cover_consistent(cover) -> None:
    """The Cover's flags, pick array and counts describe one vertex set."""
    g = cover.g
    members = cover.members
    assert len(set(members)) == len(members)
    assert all(members[cover.pos[v]] == v for v in members)
    assert [v for v in range(g.n) if cover.in_set[v]] == sorted(members)
    assert cover.counts == Cover(g, members).counts
    assert not hasattr(cover, "uncovered")  # no derived counter to drift


# Every stage solve hands the run's Cover to, with the stages after which
# the set dominates.
COVER_STAGES = ("apply_isolate_rule", "apply_leaf_rule", "lazy_greedy", "backward_prune", "swap_phase", "sa_solve")
DOMINATING_AFTER = {"lazy_greedy", "backward_prune", "swap_phase", "sa_solve"}


class _TripsAtFifthAnnealPoll(Budget):
    """Never expires until sa_solve's fifth poll: with 600 moves an epoch,
    that is 4 * POLL_BATCH (256) moves into the first epoch."""

    def __init__(self, ms=None, stop=None):
        super().__init__(ms, stop)
        self.anneal_polls = 0

    def expired(self) -> bool:
        if sys._getframe(1).f_code.co_name == "sa_solve":
            self.anneal_polls += 1
        return self.anneal_polls >= 5


@pytest.mark.parametrize(
    "algo, t0, budget",
    [("hedom5", 1.0, None), ("greedy", 1.0, None), ("sa", 1.0, None), ("sa", 0.1, None), ("sa", 0.1, _TripsAtFifthAnnealPoll)],
)
@pytest.mark.parametrize("kind, params", [("gnp", {"n": 300, "p": 0.03}), ("grid", {"rows": 15, "cols": 20})])
def test_the_runs_one_cover_stays_consistent_after_every_stage(monkeypatch, algo, t0, budget, kind, params):
    # Every stage gets the same Cover, and after each its counts match a
    # recount of its members. sa must leave it holding the best set it
    # returns, also when its annealing shrank the set (t0 = 0.1) and when
    # its budget expired mid-epoch.
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
                assert 0 not in cover.counts, _name
            if _name == "sa_solve":
                assert result.members == cover.members and result.members is not cover.members
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
    assert sol.members == seen[0][1].members and sol.members is not seen[0][1].members
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
        assert budgets[0].anneal_polls == 5


# A greedy 2-packing is a lower bound on the domination number, so it
# certifies hedom5's quality without pinning which set it returns: on these
# trees attempt-counted hedom5 at the default attempt cap meets the bound,
# and on gnp and grid instances the bound stays at or below its size.
@pytest.mark.parametrize("n, seed, size", [(2000, 1, 757), (2000, 2, 734), (2000, 3, 739), (20000, 1, 7497)])
def test_hedom5_meets_the_two_packing_bound_on_trees(n, seed, size):
    g = random_tree(n, seed)
    sol = solve(g, SolverConfig(wallclock=False))
    assert verify(g, sol).valid
    assert len(sol) == len(greedy_two_packing(g)) == size


@pytest.mark.parametrize(
    "kind, params",
    [("gnp", {"n": 2000, "p": 10 / 1999}), ("gnp", {"n": 500, "p": 0.01}), ("grid", {"rows": 45, "cols": 45}), ("grid", {"rows": 20, "cols": 30})],
)
def test_two_packing_bound_holds_below_hedom5(kind, params):
    g = generate_instance(kind, 1, **params)[0]
    sol = solve(g, SolverConfig(wallclock=False))
    assert verify(g, sol).valid
    assert len(greedy_two_packing(g)) <= len(sol)



# On forests the tree DP gives the domination number exactly, so hedom5's
# quality is pinned without pinning which set it returns: attempt-counted
# hedom5 at the default attempt cap reaches γ on every one of these.
@pytest.mark.parametrize(
    "forests",
    [
        pytest.param(lambda: [random_tree(2000, s) for s in range(100, 110)], id="trees-2k"),
        pytest.param(lambda: [random_tree(20000, 100)], id="tree-20k"),
        pytest.param(lambda: [star_forest(3000, 1 + s % 9, s) for s in range(100, 110)], id="star-forests-3k"),
    ],
)
def test_hedom5_hits_the_domination_number_on_forests(forests):
    for g in forests():
        sol = solve(g, SolverConfig(wallclock=False))
        assert verify(g, sol).valid
        assert len(sol) == forest_domination_number(g)


def _perfbench_tracer():
    """perfbench's tracer module, loaded from its file; nothing under
    perfbench/ is edited."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_counts_agree_with_the_stage_trace():
    # The benchmark's per-layer counters wrap the stages by the
    # module-global names the solver calls them through; each must read
    # what the run's own stage trace says the stage did.
    tracer = _perfbench_tracer()
    g = generate_instance("gnp", 4242, n=1500, p=10 / 1499)[0]

    def traced(cfg):
        tr = tracer.Tracer()
        trace = []
        with tracer.installed(tr, count_calls=True) as missing:
            solve(g, cfg, trace=trace)
        assert missing == []
        return tr.counts, {t.stage: t.size for t in trace}

    counts, size = traced(_cfg(algorithm="hedom5", attempt_cap=4, seed=3))
    assert counts["reductions.forced"] == size["reductions"] > 0
    assert counts["greedy.accepts"] == size["greedy"] - size["reductions"]
    assert counts["pruning.removed"] == size["greedy"] - size["prune"]
    assert counts["swaps.prune_calls"] == counts["swaps.exchanges"] > 0
    assert counts["swaps.prune_removed"] == size["prune"] - size["swap"]
    assert counts["swaps.patch_added"] == size["patch"] - size["swap"] == 0
    assert 1 <= counts["swaps.sweeps"] <= 4

    counts, size = traced(
        _cfg(algorithm="sa", seed=3, anneal=AnnealConfig(initial_temperature=0.2, max_epochs=7))
    )
    assert counts["greedy.accepts"] == size["greedy"]
    assert counts["annealing.epochs"] == 7
    assert counts["annealing.size_drop"] == size["greedy"] - size["anneal"]


STAGE_MODULES = {"greedy", "swaps", "annealing"}


def _package_imports(path: Path) -> set[str]:
    """The domset modules that the module at ``path`` imports by name
    (``"__init__"`` for the package itself)."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            # "from .x import y" names x; "from . import x" names x too.
            names += [f"domset.{node.module}"] if node.module else [f"domset.{a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    modules = set()
    for name in names:
        top, _, rest = name.partition(".")
        if top == "domset":
            modules.add(rest.split(".")[0] or "__init__")
    return modules


def test_only_the_pipeline_puts_the_stage_modules_together():
    # The stage modules build on the Cover and the Graph alone, and only
    # pipeline.py (with the package's own re-exports) imports them.
    imports = {p.stem: _package_imports(p) for p in Path(domset.pipeline.__file__).parent.glob("*.py")}
    assert STAGE_MODULES <= imports.keys()
    for name in STAGE_MODULES:
        assert imports[name] <= {"state", "graph"}, (name, imports[name])
    for name, used in imports.items():
        if name not in {"pipeline", "__init__"}:
            assert not used & STAGE_MODULES, (name, used & STAGE_MODULES)
