import json
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest

import domset.cli
from domset import AnnealConfig, SolverConfig, generate_instance, parse_ds, parse_solution, verify
from domset.cli import main

STAR5 = "p ds 5 4\n1 2\n1 3\n1 4\n1 5\n"


def run_cli(*argv) -> int:
    return main(list(argv))


def test_solve_from_file(tmp_path, capsys):
    inst = tmp_path / "star.ds"
    inst.write_text(STAR5)
    code = run_cli("solve", str(inst), "--algo", "hedom5", "--no-wallclock")
    out = capsys.readouterr().out
    assert code == 0
    assert out == "1\n1\n"


def test_solve_reads_stdin():
    proc = subprocess.run(
        [sys.executable, "-m", "domset", "solve", "--algo", "greedy"],
        input=STAR5,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n1\n"


def test_solve_trace_lines_on_stderr(tmp_path, capsys):
    inst = tmp_path / "star.ds"
    inst.write_text(STAR5)
    for algo, count, first in (("hedom5", 5, "reductions"), ("sa", 3, "greedy")):
        code = run_cli("solve", str(inst), "--algo", algo, "--no-wallclock", "--sa-epochs", "3", "--trace")
        captured = capsys.readouterr()
        assert code == 0
        stages = [line for line in captured.err.splitlines() if line.startswith("{")]
        assert len(stages) == count
        assert f'"stage": "{first}"' in stages[0]


def test_solve_restores_signal_handlers(tmp_path, capsys):
    inst = tmp_path / "star.ds"
    inst.write_text(STAR5)
    before = [signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)]
    assert run_cli("solve", str(inst), "--no-wallclock") == 0
    assert [signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)] == before


def _catches(pid: int, sig: int) -> bool:
    """True once process ``pid`` has a handler installed for ``sig``
    (Linux: the SigCgt mask in /proc/<pid>/status)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("SigCgt:"):
            return bool(int(line.split()[1], 16) >> (sig - 1) & 1)
    return False


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/<pid>/status")
def test_sigterm_before_the_input_is_read_still_prints_a_verified_set(tmp_path):
    # stdin is held open, so the solver is waiting for its input when the
    # signal lands; once the instance arrives, the stopped run patches its
    # empty set to a dominating one and exits 0.
    _, text = generate_instance("gnp", 3, n=400, p=0.02)
    inst = tmp_path / "g.ds"
    inst.write_text(text)
    proc = subprocess.Popen(
        [sys.executable, "-m", "domset", "solve", "--time-budget", "600000"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 30
        while not _catches(proc.pid, signal.SIGTERM):
            assert proc.poll() is None and time.monotonic() < deadline, "no SIGTERM handler while reading input"
            time.sleep(0.01)
        time.sleep(0.2)  # let the read block
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(text.encode(), timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0, err.decode()
    sol_path = tmp_path / "g.sol"
    sol_path.write_bytes(out)
    assert run_cli("verify", str(inst), str(sol_path)) == 0


def test_verify_valid_and_invalid(tmp_path, capsys):
    inst = tmp_path / "star.ds"
    inst.write_text(STAR5)
    good = tmp_path / "good.sol"
    good.write_text("1\n1\n")
    bad = tmp_path / "bad.sol"
    bad.write_text("1\n2\n")
    assert run_cli("verify", str(inst), str(good)) == 0
    assert "valid size=1" in capsys.readouterr().out
    assert run_cli("verify", str(inst), str(bad)) == 1
    assert "first_uncovered=3" in capsys.readouterr().out


def test_oracle_output(tmp_path, capsys):
    inst = tmp_path / "p4.ds"
    inst.write_text("p ds 4 3\n1 2\n2 3\n3 4\n")
    assert run_cli("oracle", str(inst)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "2"
    assert len(lines[1].split()) == 2


def test_oracle_refuses_more_than_24_vertices(tmp_path, capsys):
    inst = tmp_path / "p25.ds"
    inst.write_text("p ds 25 24\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 25)))
    assert run_cli("oracle", str(inst)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: oracle limited to n <= 24")


def test_gen_writes_parseable_instance(tmp_path, capsys):
    out = tmp_path / "g.ds"
    assert run_cli("gen", "--kind", "tree", "--n", "9", "--seed", "4", "--out", str(out)) == 0
    g = parse_ds(out.read_bytes())
    assert g.n == 9
    assert g.m == 8


def test_gen_gnp_with_tiny_p_exits_0(tmp_path, capsys):
    out = tmp_path / "g.ds"
    assert run_cli("gen", "--kind", "gnp", "--n", "10", "--p", "1e-17", "--out", str(out)) == 0
    g = parse_ds(out.read_bytes())
    assert (g.n, g.m) == (10, 0)


def test_gen_rejects_bad_params(capsys):
    assert run_cli("gen", "--kind", "gnp", "--n", "10") == 2  # missing p
    assert run_cli("gen", "--kind", "gnp", "--n", "0", "--p", "0.5") == 2


def test_bench_end_to_end(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(2):
        run_cli("gen", "--kind", "gnp", "--n", "14", "--p", "0.3", "--seed", str(i), "--out", str(corpus / f"i{i}.ds"))
    capsys.readouterr()
    out = tmp_path / "results.csv"
    code = run_cli(
        "bench", "--dir", str(corpus), "--algos", "greedy,hedom5",
        "--seed", "7", "--no-wallclock", "--oracle-max-n", "16", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("instance,algo,seed")
    assert len(lines) == 1 + 4 + 2  # header + records + summaries


def test_bench_empty_directory_warns_but_succeeds(tmp_path, capsys):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    code = run_cli("bench", "--dir", str(corpus), "--algos", "greedy", "--out", str(tmp_path / "r.csv"))
    captured = capsys.readouterr()
    assert code == 0
    assert "no .ds instances" in captured.err


def test_bench_rejects_unknown_algorithm(tmp_path, capsys):
    corpus = tmp_path / "c"
    corpus.mkdir()
    assert run_cli("bench", "--dir", str(corpus), "--algos", "greedy,quantum") == 2


def test_bench_has_no_algo_flag(tmp_path, capsys):
    # bench runs every algorithm in --algos, so an --algo it would ignore
    # is a usage error.
    corpus = tmp_path / "c"
    corpus.mkdir()
    run_cli("gen", "--kind", "gnp", "--n", "14", "--p", "0.3", "--out", str(corpus / "g.ds"))
    capsys.readouterr()
    assert run_cli("bench", "--dir", str(corpus), "--algo", "sa", "--algos", "greedy", "--no-wallclock") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--algo" in captured.err


@pytest.mark.parametrize("flags", [("--jobs", "0"), ("--jobs", "-3"), ("--oracle-max-n", "-1")])
def test_bench_rejects_bad_jobs_or_oracle_limit(tmp_path, capsys, flags):
    corpus = tmp_path / "c"
    corpus.mkdir()
    run_cli("gen", "--kind", "gnp", "--n", "14", "--p", "0.3", "--out", str(corpus / "g.ds"))
    capsys.readouterr()
    assert run_cli("bench", "--dir", str(corpus), "--algos", "greedy", "--no-wallclock", *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_usage_errors_exit_2(capsys):
    assert run_cli("frobnicate") == 2
    assert run_cli("solve", "--algo", "nope") == 2


def test_non_finite_solver_values_exit_2(tmp_path, capsys):
    # A NaN budget would never fire and a NaN temperature would never
    # accept an addition; both are usage errors.
    inst = tmp_path / "star.ds"
    inst.write_text(STAR5)
    for flags in (("--time-budget", "nan"), ("--time-budget", "inf"), ("--sa-t0", "nan"), ("--sa-t0", "inf")):
        assert run_cli("solve", str(inst), "--algo", "sa", *flags) == 2, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: "), flags


def test_missing_file_exits_3(capsys):
    assert run_cli("solve", "/nonexistent/file.ds") == 3
    assert run_cli("verify", "/nonexistent/file.ds", "/also/missing.sol") == 3


def test_parse_error_exits_3_with_line_number(tmp_path, capsys):
    inst = tmp_path / "bad.ds"
    inst.write_text("p ds 3 1\n1 9\n")
    assert run_cli("solve", str(inst)) == 3
    assert "line 2" in capsys.readouterr().err


def test_integer_that_is_not_ascii_digits_exits_3(tmp_path, capsys):
    inst = tmp_path / "g.ds"
    inst.write_text("p ds 12 1\n1_0 2\n")
    assert run_cli("solve", str(inst)) == 3
    assert "line 2" in capsys.readouterr().err
    inst.write_text(STAR5)
    sol = tmp_path / "g.sol"
    sol.write_text("1\n٢\n", encoding="utf-8")
    assert run_cli("verify", str(inst), str(sol)) == 3
    assert "line 2" in capsys.readouterr().err


def test_absurd_vertex_count_exits_3_without_allocating(tmp_path, capsys):
    inst = tmp_path / "huge.ds"
    inst.write_text("p ds 100000000000 0\n")
    tracemalloc.start()
    try:
        code = run_cli("solve", str(inst))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "line 1" in capsys.readouterr().err
    assert peak < 4_000_000


def test_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("domset.cli.solve", out_of_memory)
    inst = tmp_path / "star.ds"
    inst.write_text(STAR5)
    assert run_cli("solve", str(inst)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["internal error: MemoryError: "]


def test_solve_deterministic_across_processes(tmp_path):
    inst = tmp_path / "g.ds"
    subprocess.run(
        [sys.executable, "-m", "domset", "gen", "--kind", "gnp", "--n", "120", "--p", "0.05",
         "--seed", "3", "--out", str(inst)],
        check=True,
    )
    cmd = [sys.executable, "-m", "domset", "solve", str(inst), "--algo", "sa", "--seed", "11",
           "--no-wallclock", "--sa-epochs", "10"]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True)
    second = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert first.stdout == second.stdout


@dataclass
class _OtherAnneal(AnnealConfig):
    initial_temperature: float = 0.5


@dataclass
class _OtherSolver(SolverConfig):
    attempt_cap: int = 7
    anneal: AnnealConfig = field(default_factory=_OtherAnneal)


def test_solver_flags_left_out_take_the_config_defaults(tmp_path, capsys, monkeypatch):
    # The CLI holds no default of its own: with other dataclass defaults in
    # place, a flag left out takes them, and a flag given overrides only
    # its own field.
    seen = []
    real_solve = domset.cli.solve

    def recording_solve(g, cfg, **kwargs):
        seen.append(cfg)
        return real_solve(g, cfg, **kwargs)

    monkeypatch.setattr(domset.cli, "SolverConfig", _OtherSolver)
    monkeypatch.setattr(domset.cli, "solve", recording_solve)
    inst = tmp_path / "star.ds"
    inst.write_text(STAR5)
    assert run_cli("solve", str(inst)) == 0
    assert run_cli("solve", str(inst), "--algo", "sa", "--seed", "5", "--sa-epochs", "3", "--no-wallclock") == 0
    assert capsys.readouterr().out == "1\n1\n" * 2
    # A wall-clock run gets what the read left of its budget.
    default_ms = _OtherSolver().time_budget_ms
    assert 0 < seen[0].time_budget_ms <= default_ms
    assert [replace(seen[0], time_budget_ms=default_ms), seen[1]] == [
        _OtherSolver(),
        _OtherSolver(algorithm="sa", seed=5, wallclock=False, anneal=_OtherAnneal(max_epochs=3)),
    ]


def test_reading_and_parsing_spend_the_time_budget(tmp_path, capsys, monkeypatch):
    # The budget counts from before the read, so solve gets what a slow
    # read and parse left of it. An attempt-counted run has no budget to
    # spend, and a budget the read used up expires at greedy's first poll:
    # the patch alone completes the set, which still verifies.
    delay = 0.2
    real_parse = domset.cli.parse_ds

    def slow_parse(data):
        time.sleep(delay)
        return real_parse(data)

    seen = []
    real_solve = domset.cli.solve

    def recording_solve(g, cfg, **kwargs):
        seen.append(cfg)
        return real_solve(g, cfg, **kwargs)

    monkeypatch.setattr(domset.cli, "parse_ds", slow_parse)
    monkeypatch.setattr(domset.cli, "solve", recording_solve)
    g, text = generate_instance("gnp", 3, n=500, p=0.01)
    inst = tmp_path / "g.ds"
    inst.write_text(text)

    def verified(out: str) -> bool:
        return verify(g, parse_solution(out, g.n)).valid

    assert run_cli("solve", str(inst), "--time-budget", "500") == 0
    assert 0 < seen[0].time_budget_ms <= 300
    assert verified(capsys.readouterr().out)
    assert run_cli("solve", str(inst), "--time-budget", "500", "--no-wallclock") == 0
    assert seen[1] == SolverConfig(time_budget_ms=500, wallclock=False)
    assert verified(capsys.readouterr().out)
    delay = 0.3
    assert run_cli("solve", str(inst), "--time-budget", "100", "--trace") == 0
    captured = capsys.readouterr()
    assert verified(captured.out)
    trace = [json.loads(line) for line in captured.err.splitlines()]
    assert [t["stage"] for t in trace] == ["reductions", "greedy", "patch"]
    assert trace[1]["size"] == trace[0]["size"] < trace[2]["size"]


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_help_exits_0(command, capsys):
    assert run_cli(command, "--help") == 0
    assert "--sa-epochs" in capsys.readouterr().out


def test_unwritable_output_exits_3(tmp_path, capsys):
    assert run_cli("gen", "--kind", "tree", "--n", "5", "--out", str(tmp_path / "missing" / "g.ds")) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
