from pathlib import Path

import pytest

import domset.bench
from domset import SolverConfig, parse_ds, render_csv, run_bench, summarize
from domset.bench import CSV_COLUMNS
from domset.generators import generate_instance


def _make_corpus(tmp_path: Path, count: int = 3) -> Path:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(count):
        _, text = generate_instance("gnp", seed=100 + i, n=12 + i, p=0.25)
        (corpus / f"inst{i}.ds").write_text(text)
    return corpus


def _cfg() -> SolverConfig:
    return SolverConfig(wallclock=False, attempt_cap=4, seed=7)


def test_row_arithmetic_three_by_three(tmp_path):
    corpus = _make_corpus(tmp_path)
    paths = sorted(corpus.glob("*.ds"))
    records = run_bench(paths, ["greedy", "sa", "hedom5"], _cfg())
    assert len(records) == 9
    summaries = summarize(records)
    assert len(summaries) == 3
    assert all(s.instance == "summary" for s in summaries)
    csv_text = render_csv(records)
    lines = csv_text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 9 + 3


def test_every_recorded_size_is_verified(tmp_path):
    corpus = _make_corpus(tmp_path)
    records = run_bench(sorted(corpus.glob("*.ds")), ["hedom5"], _cfg())
    assert all(r.valid and r.size is not None and r.size >= 1 for r in records)


def test_oracle_columns_populated_for_small_instances(tmp_path):
    corpus = _make_corpus(tmp_path)
    records = run_bench(sorted(corpus.glob("*.ds")), ["hedom5"], _cfg(), oracle_max_n=16)
    assert all(r.opt is not None and r.gap == r.size - r.opt and r.gap >= 0 for r in records)


def test_csv_deterministic_without_wallclock(tmp_path):
    corpus = _make_corpus(tmp_path)
    paths = sorted(corpus.glob("*.ds"))
    first = render_csv(run_bench(paths, ["greedy", "sa", "hedom5"], _cfg()))
    second = render_csv(run_bench(paths, ["greedy", "sa", "hedom5"], _cfg()))
    assert first == second
    for line in first.strip().splitlines()[1:]:
        assert line.endswith(",")  # no wall time recorded


def test_unreadable_instance_becomes_failed_row(tmp_path):
    corpus = _make_corpus(tmp_path, count=1)
    (corpus / "broken.ds").write_text("p ds 3 5\n1 2\n")
    paths = sorted(corpus.glob("*.ds"))
    records = run_bench(paths, ["greedy"], _cfg())
    assert len(records) == 2
    broken = next(r for r in records if r.instance == "broken.ds")
    assert not broken.valid
    assert broken.size is None
    healthy = next(r for r in records if r.instance != "broken.ds")
    assert healthy.valid


def test_a_failing_solver_gives_a_failed_row_and_no_wins(tmp_path, monkeypatch):
    corpus = _make_corpus(tmp_path, count=1)
    paths = sorted(corpus.glob("*.ds"))
    g = parse_ds(paths[0].read_bytes())
    real_solve = domset.bench.solve

    def solve(graph, cfg):
        if cfg.algorithm == "sa":
            raise RuntimeError("solver failure")
        return real_solve(graph, cfg)

    monkeypatch.setattr(domset.bench, "solve", solve)
    records = run_bench(paths, ["greedy", "sa", "hedom5"], _cfg(), jobs=1)
    failed = next(r for r in records if r.algo == "sa")
    assert not failed.valid
    assert (failed.n, failed.m) == (g.n, g.m)
    assert failed.size is None
    assert f"inst0.ds,sa,7,{g.n},{g.m},,,,false," in render_csv(records).splitlines()
    # No instance where an algorithm failed decides a win.
    summaries = {s.algo: s for s in summarize(records)}
    assert all(s.m == 0 for s in summaries.values())
    assert (summaries["sa"].n, summaries["sa"].valid) == (0, False)
    assert (summaries["greedy"].n, summaries["greedy"].valid) == (1, True)


def test_summary_statistics(tmp_path):
    corpus = _make_corpus(tmp_path)
    paths = sorted(corpus.glob("*.ds"))
    records = run_bench(paths, ["greedy", "hedom5"], _cfg())
    summaries = {s.algo: s for s in summarize(records)}
    assert summaries["hedom5"].n == 3  # instances counted
    assert 0 <= summaries["hedom5"].m <= 3  # win count
    sizes = [r.size for r in records if r.algo == "hedom5"]
    assert summaries["hedom5"].size == sum(sizes) / len(sizes)
    # hedom5 never loses to greedy per instance here, so it wins or ties everywhere
    assert summaries["hedom5"].m == 3


def test_parallel_jobs_match_serial(tmp_path):
    corpus = _make_corpus(tmp_path)
    paths = sorted(corpus.glob("*.ds"))
    serial = run_bench(paths, ["greedy", "hedom5"], _cfg())
    parallel = run_bench(paths, ["greedy", "hedom5"], _cfg(), jobs=2)
    assert serial == parallel


def test_pool_asks_for_at_most_one_worker_per_task(tmp_path, monkeypatch):
    asked = []

    class RecordingPool:
        """Records ``max_workers`` and maps in this process, so no worker
        is started."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(domset.bench, "ProcessPoolExecutor", RecordingPool)
    paths = sorted(_make_corpus(tmp_path, count=1).glob("*.ds"))
    algos = ["greedy", "sa", "hedom5"]
    records = run_bench(paths, algos, _cfg(), jobs=5000)
    run_bench(paths, algos, _cfg(), jobs=2)
    assert asked == [3, 2]
    assert records == run_bench(paths, algos, _cfg())


def test_generated_corpus_files_reparse(tmp_path):
    corpus = _make_corpus(tmp_path)
    for path in corpus.glob("*.ds"):
        g = parse_ds(path.read_bytes())
        assert g.n >= 12


@pytest.mark.parametrize("kwargs", [{"jobs": 0}, {"jobs": -3}, {"oracle_max_n": -1}])
def test_bad_jobs_or_oracle_limit_is_rejected(tmp_path, kwargs):
    corpus = _make_corpus(tmp_path, count=1)
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        run_bench(sorted(corpus.glob("*.ds")), ["greedy"], _cfg(), **kwargs)
