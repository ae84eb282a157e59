"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured numbers.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Budgets follow each criterion: attempt-counted (reproducible)
where determinism or pure validity is at stake, 1 s wall budgets for the
comparative run. Every seed below is frozen.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from domset import (
    AnnealConfig,
    Graph,
    SolverConfig,
    brute_force_optimum,
    generate_instance,
    gnp,
    greedy_ln,
    random_tree,
    run_bench,
    solve,
    star_forest,
    verify,
)

from conftest import eager_greedy

KINDS = ("gnp", "tree", "grid", "star-forest")


def _report(criterion: str, ok: bool, details: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({details})")


def _mixed_instance(index: int, rng: random.Random, n_lo: int = 1, n_hi: int = 2000) -> Graph:
    kind = KINDS[index % 4]
    n = max(n_lo, int(math.exp(rng.uniform(math.log(n_lo), math.log(n_hi)))))
    seed = 50_000 + index
    if kind == "gnp":
        p = min(1.0, rng.uniform(0.5, 12.0) / max(1, n - 1))
        return generate_instance("gnp", seed, n=n, p=p)[0]
    if kind == "tree":
        return generate_instance("tree", seed, n=n)[0]
    if kind == "grid":
        rows = max(1, int(round(math.sqrt(n))))
        cols = max(1, (n + rows - 1) // rows)
        return generate_instance("grid", seed, rows=rows, cols=cols)[0]
    return generate_instance("star-forest", seed, n=n, max_star=rng.randint(1, 9))[0]


def _fast_cfg(algo: str, seed: int = 11, attempt_cap: int = 4, sa_epochs: int = 3) -> SolverConfig:
    return SolverConfig(
        algorithm=algo,
        wallclock=False,
        attempt_cap=attempt_cap,
        seed=seed,
        anneal=AnnealConfig(max_epochs=sa_epochs),
    )


def test_c1_every_algorithm_is_valid_on_1000_instances():
    rng = random.Random(4001)
    start = time.perf_counter()
    failures = []
    for i in range(1000):
        g = _mixed_instance(i, rng)
        for algo in ("greedy", "sa", "hedom5"):
            if not verify(g, solve(g, _fast_cfg(algo))).valid:
                failures.append((i, algo))
    elapsed = time.perf_counter() - start
    ok = not failures
    _report("criterion 1 validity", ok, f"1000 instances x 3 algorithms, {len(failures)} failures, {elapsed:.0f}s")
    assert ok, f"invalid outputs: {failures[:10]}"


def test_c2_oracle_optimality_gap_on_tiny_instances():
    rng = random.Random(1600)
    start = time.perf_counter()
    exact = 0
    gap_violations = []
    greedy_violations = []
    total = 300
    for i in range(total):
        n = rng.randint(1, 16)
        kind = i % 3
        if kind == 0:
            g = gnp(n, rng.uniform(0.05, 0.5), seed=2000 + i)
        elif kind == 1:
            g = random_tree(n, seed=2000 + i)
        else:
            g = star_forest(n, rng.randint(1, 6), seed=2000 + i)
        gamma, _ = brute_force_optimum(g)
        size = len(solve(g, _fast_cfg("hedom5", seed=5, attempt_cap=20)))
        if size == gamma:
            exact += 1
        if size > gamma + 2:
            gap_violations.append((i, size, gamma))
        greedy_size = len(greedy_ln(g))
        if greedy_size > (math.log(max(map(len, g.closed))) + 1) * gamma:
            greedy_violations.append((i, greedy_size, gamma))
    elapsed = time.perf_counter() - start
    rate = exact / total
    ok = rate >= 0.85 and not gap_violations and not greedy_violations
    _report(
        "criterion 2 oracle gap",
        ok,
        f"hedom5 optimal on {exact}/{total} ({rate:.1%}), gap>2 on {len(gap_violations)}, "
        f"greedy ln-bound breaks {len(greedy_violations)}, {elapsed:.0f}s",
    )
    assert rate >= 0.85
    assert not gap_violations
    assert not greedy_violations


def test_c3_comparative_ordering_with_one_second_budgets(tmp_path):
    rng = random.Random(300)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    count = 200
    for i in range(count):
        n = rng.randint(200, 2000)
        p = min(1.0, rng.uniform(4.0, 30.0) / (n - 1))
        _, text = generate_instance("gnp", 1000 + i, n=n, p=p)
        (corpus / f"g{i:03d}.ds").write_text(text)
    cfg = SolverConfig(time_budget_ms=1000, attempt_cap=10_000, seed=7, wallclock=True)
    start = time.perf_counter()
    records = run_bench(sorted(corpus.glob("*.ds")), ["greedy", "sa", "hedom5"], cfg, jobs=2)
    elapsed = time.perf_counter() - start
    assert all(r.valid for r in records)
    sizes: dict[str, dict[str, int]] = {}
    for r in records:
        sizes.setdefault(r.instance, {})[r.algo] = r.size
    means = {algo: sum(v[algo] for v in sizes.values()) / count for algo in ("greedy", "sa", "hedom5")}
    win_or_tie = sum(1 for v in sizes.values() if v["hedom5"] <= v["greedy"])
    rate = win_or_tie / count
    ok = means["hedom5"] <= means["sa"] <= means["greedy"] and rate >= 0.90
    _report(
        "criterion 3 comparative ordering",
        ok,
        f"means hedom5={means['hedom5']:.2f} sa={means['sa']:.2f} greedy={means['greedy']:.2f}, "
        f"win/tie vs greedy {win_or_tie}/{count} ({rate:.1%}), {elapsed:.0f}s",
    )
    assert means["hedom5"] <= means["sa"] <= means["greedy"], means
    assert rate >= 0.90


def test_c4_stage_monotonicity_and_patch_silence():
    rng = random.Random(7400)
    monotonicity_breaks = []
    patched_runs = 0
    total = 150
    for i in range(total):
        g = _mixed_instance(i, rng, n_hi=600)
        trace = []
        solve(g, _fast_cfg("hedom5", seed=2, attempt_cap=6), trace=trace)
        sizes = {t.stage: t.size for t in trace}
        if sizes["prune"] > sizes["greedy"] or sizes["swap"] > sizes["prune"]:
            monotonicity_breaks.append((i, sizes))
        if sizes["patch"] > sizes["swap"]:
            patched_runs += 1
    patch_rate = 1.0 - patched_runs / total
    ok = not monotonicity_breaks and patch_rate >= 0.99
    _report(
        "criterion 4 stage monotonicity",
        ok,
        f"{total} runs, {len(monotonicity_breaks)} monotonicity breaks, patch silent on {patch_rate:.1%}",
    )
    assert not monotonicity_breaks, monotonicity_breaks[:5]
    assert patch_rate >= 0.99


def test_c5_lazy_eager_equivalence():
    start = time.perf_counter()
    mismatches = []
    checked = 0
    for ag in graph_atlas_g():
        if ag.number_of_nodes() == 0 or not nx.is_connected(ag):
            continue
        g = Graph.from_edges(ag.number_of_nodes(), list(ag.edges()))
        if greedy_ln(g).members != eager_greedy(g).members:
            mismatches.append(f"atlas:{ag.name}")
        checked += 1
    rng = random.Random(5005)
    for i in range(200):
        g = gnp(rng.randint(8, 200), rng.uniform(0.01, 0.5), seed=9000 + i)
        if greedy_ln(g).members != eager_greedy(g).members:
            mismatches.append(f"gnp:{i}")
        checked += 1
    elapsed = time.perf_counter() - start
    ok = not mismatches
    _report(
        "criterion 5 lazy-eager equivalence",
        ok,
        f"{checked} graphs (996 connected atlas graphs with n<=7 + 200 random), {len(mismatches)} mismatches, {elapsed:.0f}s",
    )
    assert ok, mismatches[:5]


def test_c6_byte_identical_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    specs = [("gnp", {"n": 180, "p": 0.04}), ("tree", {"n": 150}), ("grid", {"rows": 9, "cols": 11}), ("star-forest", {"n": 120, "max_star": 5})]
    for i, (kind, params) in enumerate(specs):
        _, text = generate_instance(kind, 600 + i, **params)
        (corpus / f"{kind}.ds").write_text(text)
    bench_cmd = [
        sys.executable, "-m", "domset", "bench", "--dir", str(corpus),
        "--algos", "greedy,sa,hedom5", "--seed", "7", "--no-wallclock",
        "--attempt-cap", "6", "--sa-epochs", "15",
    ]
    solve_cmd = [
        sys.executable, "-m", "domset", "solve", str(corpus / "gnp.ds"),
        "--algo", "hedom5", "--seed", "7", "--no-wallclock", "--attempt-cap", "6",
    ]
    bench_a = subprocess.run(bench_cmd, capture_output=True, check=True).stdout
    bench_b = subprocess.run(bench_cmd, capture_output=True, check=True).stdout
    solve_a = subprocess.run(solve_cmd, capture_output=True, check=True).stdout
    solve_b = subprocess.run(solve_cmd, capture_output=True, check=True).stdout
    ok = bench_a == bench_b and solve_a == solve_b
    _report(
        "criterion 6 determinism",
        ok,
        f"bench CSV {len(bench_a)} bytes identical={bench_a == bench_b}, solution identical={solve_a == solve_b}",
    )
    assert bench_a == bench_b
    assert solve_a == solve_b


def test_c7_reduction_soundness_on_leafy_instances(monkeypatch):
    rng = random.Random(777)
    size_regressions = []
    isolate_misses = []
    built = 0
    i = 0
    start = time.perf_counter()
    while built < 200:
        kind = i % 3
        n = rng.randint(3, 16)
        if kind == 0:
            g = star_forest(n, rng.randint(2, 6), seed=3000 + i)
        elif kind == 1:
            g = random_tree(n, seed=3000 + i)
        else:
            g = gnp(n, rng.uniform(0.05, 0.2), seed=3000 + i)
        i += 1
        if not any(len(near) <= 2 for near in g.closed):
            continue
        built += 1
        gamma, _ = brute_force_optimum(g)
        cfg = _fast_cfg("hedom5", seed=5, attempt_cap=20)
        with_stage0 = solve(g, cfg)
        with monkeypatch.context() as m:
            m.setattr("domset.pipeline.apply_isolate_rule", lambda cover: 0)
            m.setattr("domset.pipeline.apply_leaf_rule", lambda cover: 0)
            without_stage0 = solve(g, cfg)
        assert verify(g, with_stage0).valid and verify(g, without_stage0).valid
        assert len(with_stage0) >= gamma
        if len(with_stage0) > len(without_stage0):
            size_regressions.append((i - 1, len(with_stage0), len(without_stage0)))
        chosen = set(with_stage0.members)
        for v in range(g.n):
            if len(g.closed[v]) == 1 and v not in chosen:
                isolate_misses.append((i - 1, v))
    elapsed = time.perf_counter() - start
    ok = not size_regressions and not isolate_misses
    _report(
        "criterion 7 reduction soundness",
        ok,
        f"200 leafy instances, {len(size_regressions)} size regressions, {len(isolate_misses)} isolate misses, {elapsed:.0f}s",
    )
    assert not size_regressions, size_regressions[:5]
    assert not isolate_misses, isolate_misses[:5]


def test_c8_scale_smoke_100k_vertices():
    g = gnp(100_000, 10 / 99_999, seed=88)
    assert abs(2 * g.m / g.n - 10.0) < 0.5
    cfg = SolverConfig(algorithm="hedom5", time_budget_ms=10_000, attempt_cap=10_000, seed=3)
    start = time.perf_counter()
    sol = solve(g, cfg)
    elapsed = time.perf_counter() - start
    report = verify(g, sol)
    ok = report.valid
    _report(
        "criterion 8 scale smoke",
        ok,
        f"n={g.n} m={g.m}, size={len(sol)}, solved in {elapsed:.1f}s under a 10s budget, valid={report.valid}",
    )
    assert report.valid
    assert elapsed <= 11.0, elapsed  # the 10 s budget plus 1 s slack
