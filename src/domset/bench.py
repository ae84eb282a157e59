"""Benchmark harness: run an algorithm matrix over a directory of .ds
instances and emit one CSV row per (instance, algorithm) run.

Every recorded size is re-verified here; the harness never trusts a
solver. Failed parses or solver errors become rows with valid=false so
the row count always equals instances x algorithms.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .graph import ParseError, parse_ds
from .pipeline import SolverConfig, solve
from .verification import ORACLE_MAX_N, brute_force_optimum, verify

__all__ = ["BenchRecord", "CSV_COLUMNS", "run_bench", "summarize", "render_csv"]

CSV_COLUMNS = ("instance", "algo", "seed", "n", "m", "size", "opt", "gap", "valid", "ms")


@dataclass(frozen=True)
class BenchRecord:
    instance: str
    algo: str
    seed: int
    n: int | None
    m: int | None
    size: int | None
    opt: int | None
    gap: int | None
    valid: bool
    ms: float | None


def _run_one(task: tuple[str, str, SolverConfig, int]) -> BenchRecord:
    path, algo, cfg, oracle_max_n = task
    name = Path(path).name
    try:
        g = parse_ds(Path(path).read_bytes())
    except (ParseError, OSError):
        return BenchRecord(name, algo, cfg.seed, None, None, None, None, None, False, None)
    run_cfg = replace(cfg, algorithm=algo)
    start = time.perf_counter()
    try:
        sol = solve(g, run_cfg)
    except Exception:
        return BenchRecord(name, algo, cfg.seed, g.n, g.m, None, None, None, False, None)
    ms = (time.perf_counter() - start) * 1000.0
    valid = verify(g, sol).valid
    opt = gap = None
    if valid and g.n <= min(oracle_max_n, ORACLE_MAX_N):
        opt, _ = brute_force_optimum(g)
        gap = len(sol) - opt
    # Wall times are unreproducible, so attempt-counted mode drops them.
    return BenchRecord(name, algo, cfg.seed, g.n, g.m, len(sol) if valid else None, opt, gap, valid, ms if cfg.wallclock else None)


def run_bench(
    paths: list[str | Path],
    algos: list[str],
    cfg: SolverConfig,
    oracle_max_n: int = 0,
    jobs: int = 1,
) -> list[BenchRecord]:
    """Run every algorithm on every instance, in deterministic row order.

    ``jobs > 1`` fans the (instance, algorithm) tasks out to a pool of at
    most one process per task; results come back in submission order
    either way.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if oracle_max_n < 0:
        raise ValueError(f"oracle_max_n must be non-negative, got {oracle_max_n}")
    tasks = [(str(path), algo, cfg, oracle_max_n) for path in paths for algo in algos]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(_run_one, tasks, chunksize=4))
    return [_run_one(task) for task in tasks]


def summarize(records: list[BenchRecord]) -> list[BenchRecord]:
    """One pseudo-record per algorithm: instance='summary', n=rows counted,
    m=win count (achieves the per-instance minimum size, ties included),
    size=mean size, opt=mean optimality gap where available.

    Only valid rows count toward the statistics; wins are decided on
    instances where every algorithm produced a valid size.
    """
    algos = list(dict.fromkeys(r.algo for r in records))
    by_instance: dict[str, dict[str, BenchRecord]] = {}
    for r in records:
        by_instance.setdefault(r.instance, {})[r.algo] = r
    wins = {algo: 0 for algo in algos}
    for rows in by_instance.values():
        if len(rows) < len(algos) or not all(r.valid and r.size is not None for r in rows.values()):
            continue
        floor = min(r.size for r in rows.values())
        for algo, r in rows.items():
            if r.size == floor:
                wins[algo] += 1
    out = []
    for algo in algos:
        mine = [r for r in records if r.algo == algo and r.valid and r.size is not None]
        count = len(mine)
        mean_size = sum(r.size for r in mine) / count if count else None
        gaps = [r.gap for r in mine if r.gap is not None]
        mean_gap = sum(gaps) / len(gaps) if gaps else None
        times = [r.ms for r in mine if r.ms is not None]
        mean_ms = sum(times) / len(times) if times else None
        all_valid = all(r.valid for r in records if r.algo == algo)
        out.append(BenchRecord("summary", algo, mine[0].seed if mine else 0, count, wins[algo], mean_size, mean_gap, None, all_valid, mean_ms))
    return out


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_csv(records: list[BenchRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in records + summarize(records):
        lines.append(",".join(_cell(getattr(r, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
