"""Command-line interface: solve / verify / oracle / gen / bench.

Exit codes: 0 success, 1 invalid solution (verify), 2 usage error,
3 unreadable or malformed input or unwritable output file, 4 internal
error (any other exception, such as MemoryError). Only :func:`main` maps
exceptions to them; the commands raise.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

from .bench import render_csv, run_bench
from .generators import KINDS, generate_instance
from .graph import ParseError, parse_ds, parse_solution, write_solution
from .pipeline import ALGORITHMS, SolverConfig, StageTrace, solve
from .verification import brute_force_optimum, verify

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _read_input(path: str | None) -> bytes:
    if path is None or path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _add_solver_flags(p: argparse.ArgumentParser, *, algo: bool) -> None:
    # Each dest names a SolverConfig or AnnealConfig field (see _solver_config).
    # bench takes its algorithms from --algos, so only solve has --algo.
    group = p.add_argument_group(
        "solver options",
        "a flag left out takes its SolverConfig or AnnealConfig default",
        argument_default=argparse.SUPPRESS,
    )
    if algo:
        group.add_argument("--algo", dest="algorithm", choices=ALGORITHMS, help="algorithm to run")
    group.add_argument("--time-budget", dest="time_budget_ms", type=float, metavar="MS", help="global time budget in milliseconds")
    group.add_argument("--attempt-cap", type=int, metavar="N", help="swap phase sweep cap")
    group.add_argument("--seed", type=int, help="RNG seed")
    group.add_argument("--sa-t0", dest="initial_temperature", type=float, metavar="T", help="annealing initial temperature")
    group.add_argument("--sa-cool", dest="cooling_factor", type=float, metavar="F", help="annealing cooling factor per epoch")
    group.add_argument("--sa-moves", dest="moves_per_epoch", type=int, metavar="N", help="annealing moves per epoch")
    group.add_argument("--sa-epochs", dest="max_epochs", type=int, metavar="N", help="annealing epoch cap")
    group.add_argument("--no-wallclock", dest="wallclock", action="store_false", help="replace time budgets with attempt counts for reproducible runs")


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    given = vars(args)
    cfg = SolverConfig(**{f.name: given[f.name] for f in fields(SolverConfig) if f.name in given})
    anneal = {f.name: given[f.name] for f in fields(cfg.anneal) if f.name in given}
    return replace(cfg, anneal=replace(cfg.anneal, **anneal))


def _write_output(text: str, out: str | None) -> bool:
    """Write ``text`` to file ``out``, or to stdout when ``out`` is None or
    ``-``; True when a file was written."""
    if out is None or out == "-":
        sys.stdout.write(text)
        return False
    Path(out).write_text(text)
    return True


def _cmd_solve(args: argparse.Namespace) -> int:
    # The budget counts from here, so reading and parsing spend it too.
    start = time.perf_counter()
    cfg = _solver_config(args)
    # Handlers before the read: a stop while reading or parsing is kept.
    stop = threading.Event()
    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, lambda *_: stop.set())
        except ValueError:
            pass  # not the main thread
    trace: list[StageTrace] | None = [] if args.trace else None
    try:
        g = parse_ds(_read_input(args.input))
        if cfg.wallclock:
            # A budget the read used up becomes a tiny one: it expires at the first poll.
            left = cfg.time_budget_ms - (time.perf_counter() - start) * 1000.0
            cfg = replace(cfg, time_budget_ms=max(left, sys.float_info.min))
        sol = solve(g, cfg, trace=trace, stop=stop)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    if trace is not None:
        for entry in trace:
            print(json.dumps({"stage": entry.stage, "size": entry.size, "ms": round(entry.ms, 3)}), file=sys.stderr)
    sys.stdout.write(write_solution(sol))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = parse_ds(_read_input(args.graph))
    sol = parse_solution(Path(args.solution).read_bytes(), g.n)
    report = verify(g, sol)
    if report.valid:
        print(f"valid size={report.size}")
        return EXIT_OK
    print(f"invalid first_uncovered={report.first_uncovered + 1}")
    return EXIT_INVALID


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = parse_ds(_read_input(args.input))
    gamma, witness = brute_force_optimum(g)
    print(gamma)
    print(" ".join(str(v + 1) for v in sorted(witness)))
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    _, text = generate_instance(
        args.kind,
        args.seed,
        n=args.n,
        p=args.p,
        rows=args.rows,
        cols=args.cols,
        max_star=args.max_star,
    )
    _write_output(text, args.out)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory} is not a directory")
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos or any(a not in ALGORITHMS for a in algos):
        raise ValueError(f"bad algorithm list {args.algos!r}; choose from {','.join(ALGORITHMS)}")
    paths = sorted(directory.glob("*.ds"))
    if not paths:
        print(f"warning: no .ds instances found in {directory}", file=sys.stderr)
    records = run_bench(paths, algos, _solver_config(args), oracle_max_n=args.oracle_max_n, jobs=args.jobs)
    if _write_output(render_csv(records), args.out):
        print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="domset", description="Dominating-set heuristics toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a .ds instance and print the solution")
    p_solve.add_argument("input", nargs="?", default=None, help=".ds file (default: stdin)")
    _add_solver_flags(p_solve, algo=True)
    p_solve.add_argument("--trace", action="store_true", help="emit per-stage JSON lines on stderr")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a solution file against a graph")
    p_verify.add_argument("graph", help=".ds instance")
    p_verify.add_argument("solution", help="solution file")
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="exact optimum for small instances (n <= 24)")
    p_oracle.add_argument("input", nargs="?", default=None, help=".ds file (default: stdin)")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--kind", choices=KINDS, required=True)
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--p", type=float, default=None)
    p_gen.add_argument("--rows", type=int, default=None)
    p_gen.add_argument("--cols", type=int, default=None)
    p_gen.add_argument("--max-star", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None, help="output file (default: stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    # No abbreviations: --algo would otherwise be taken for --algos.
    p_bench = sub.add_parser("bench", help="run an algorithm matrix over a corpus directory", allow_abbrev=False)
    p_bench.add_argument("--dir", required=True, help="directory of .ds instances")
    p_bench.add_argument("--algos", default="greedy,sa,hedom5", help="comma-separated algorithm list")
    _add_solver_flags(p_bench, algo=False)
    p_bench.add_argument("--oracle-max-n", type=int, default=0, metavar="N", help="fill opt/gap columns for instances up to this size")
    p_bench.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_bench.add_argument("--out", default=None, help="CSV output file (default: stdout)")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
