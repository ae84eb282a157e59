"""Benchmark for the domset solver.

    python3 perfbench/run.py --workload swap-gnp20k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root; the package is imported from ``src/``. One
process, one solve at a time (a closed loop with one client), no worker
threads or pools. Every solve runs in attempt-counted mode
(``SolverConfig(wallclock=False)``), so sizes and counts repeat exactly for
a seed and only times vary. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones (see README.md in this directory). The last
line of standard output is the result as one JSON object; the line before
it carries the details and provenance. The exit code is non-zero when any
solve failed or any output check did not hold.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

import instances
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

AVG_DEGREE = 10
# Instances per end-to-end run; the timed set-ups and solves cycle through them.
INSTANCES = 3
# A set-up also solves a small instance of the same shape once, so that
# first-call costs are paid before timing.
WARM_UP_N = 1000
# Fewest timed set-up + solve rounds (untraced + traced pairs, with
# --trace 1) per run, however short --seconds is.
MIN_SAMPLES = 3
MIN_TRACED_PAIRS = 2


@dataclass(frozen=True)
class Workload:
    n: int
    algorithm: str
    attempt_cap: int = 20
    anneal_epochs: int | None = None


# Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {
    "swap-gnp20k": Workload(20_000, "hedom5", attempt_cap=3),
    "anneal-gnp20k": Workload(20_000, "sa", anneal_epochs=30),
}

END_TO_END_UNITS = {"solve_s": "s", "size": "count", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

# Per-layer time metric -> span layer whose self time it reports.
LAYER_TIMES = {
    "graph.parse_s": "graph.parse",
    "graph.write_s": "graph.write",
    "reductions.s": "reductions",
    "greedy.s": "greedy",
    "pruning.counts_s": "pruning.counts",
    "pruning.s": "pruning",
    "swaps.s": "swaps",
    "swaps.try_s": "swaps.try",
    "swaps.prune_s": "swaps.prune",
    "swaps.patch_s": "swaps.patch",
    "annealing.s": "annealing",
    "verification.s": "verification",
    "pipeline.other_s": "pipeline",
}
LAYER_COUNTS = (
    "reductions.forced",
    "greedy.gain_evals",
    "greedy.accepts",
    "pruning.removed",
    "swaps.sweeps",
    "swaps.attempts",
    "swaps.exchanges",
    "swaps.free_removals",
    "swaps.prune_calls",
    "swaps.prune_removed",
    "swaps.patch_added",
    "annealing.epochs",
    "annealing.size_drop",
)
# Only the counting pass wraps these; the timing passes must agree on the rest.
CALL_COUNTS = {key for _, _, key in tracer.CALL_COUNT_HOOKS}


def load_domset() -> Any:
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "domset" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'domset'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import domset

    if Path(domset.__file__).resolve().parent != src / "domset":
        raise SystemExit(f"error: imported domset from {domset.__file__}, not from {src}")
    return domset


def provenance(domset: Any) -> dict:
    return {
        "commit": _git_head(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "domset": getattr(domset, "__version__", "unknown"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "note": "unpinned run on a shared 2-core sandbox; times carry the load of other tenants",
    }


def _git_head() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Solver:
    """One workload's request: .ds bytes -> parse_ds -> solve -> write_solution."""

    def __init__(self, domset: Any, w: Workload, seed: int) -> None:
        self.domset = domset
        self.w = w
        kwargs: dict[str, Any] = {"algorithm": w.algorithm, "attempt_cap": w.attempt_cap, "seed": seed}
        if w.anneal_epochs is not None:
            kwargs["anneal"] = domset.AnnealConfig(max_epochs=w.anneal_epochs)
        self.cfg = domset.SolverConfig(wallclock=False, **kwargs)

    def serve(self, data: bytes, tr: tracer.Tracer | None = None) -> str:
        d = self.domset
        # As in ``domset solve``, which sets this event on SIGTERM.
        stop = threading.Event()
        if tr is None:
            return d.write_solution(d.solve(d.parse_ds(data), self.cfg, stop=stop))
        g = tr.call("graph.parse", d.parse_ds, data)
        sol = tr.call("pipeline", d.solve, g, self.cfg, stop=stop)
        return tr.call("graph.write", d.write_solution, sol)


class Checked:
    """Counts attempted and failed solves, and checks every output: against
    the generator's edge list, by parsing it back, and byte for byte against
    the first output for the same instance."""

    def __init__(self, domset: Any) -> None:
        self.domset = domset
        self.attempted = 0
        self.failed = 0
        self.reference: dict[int, str] = {}
        self.sizes: dict[int, int] = {}

    def attempt(self, fn: Callable[[], Any]) -> Any:
        """Run one checked solve, counting an exception as a failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # the run goes on; the failure is counted and printed
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, key: int, inst: instances.Instance, text: str) -> None:
        members = instances.check_solution(text, inst)
        back = self.domset.parse_solution(text, inst.n)
        if sorted(back.members) != members.tolist():
            raise instances.CheckError("solution text does not parse back to the same set")
        ref = self.reference.setdefault(key, text)
        if text != ref:
            raise instances.CheckError(f"instance {key}: output differs from the first solve of it")
        self.sizes[key] = len(members)


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    gc.collect()
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def set_up(solver: Solver, checked: Checked, seed: int, key: int) -> tuple[instances.Instance, float]:
    """Generate and serialise instance ``key``, then make a checked warm-up
    solve of a small instance of the same shape; returns the instance and
    the time both took. Raises if the warm-up fails."""
    gc.collect()
    start = time.perf_counter()
    inst = instances.gnp_instance(solver.w.n, AVG_DEGREE, (seed, key))
    warm = instances.gnp_instance(min(WARM_UP_N, solver.w.n), AVG_DEGREE, (seed, key, 1))
    text = solver.serve(warm.ds)
    dt = time.perf_counter() - start
    checked.check(-1 - key, warm, text)
    return inst, dt


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _fits(start: float, seconds: float, samples: list[float]) -> bool:
    """Whether one more sample, as long as the median one so far, still
    ends within ``seconds`` of ``start``."""
    return time.perf_counter() - start + _median(samples) <= seconds


def run_end_to_end(domset: Any, w: Workload, seed: int, seconds: float) -> tuple[Checked, dict, dict]:
    """Rounds of one timed set-up and one timed solve of the instance it
    made, cycling through the instances until ``seconds`` have passed. Set-ups
    are spread over the whole run, like the solves, so that ``setup_s`` and
    ``solve_s`` see the same phases of the machine's speed."""
    solver = Solver(domset, w, seed)
    checked = Checked(domset)
    edges: dict[int, int] = {}
    first_ds: dict[int, bytes] = {}
    setup_times: list[float] = []
    samples: list[float] = []
    start = time.perf_counter()
    i = 0
    while i < MIN_SAMPLES or _fits(start, seconds, [a + b for a, b in zip(setup_times, samples)]):
        key = i % INSTANCES
        i += 1

        def one() -> None:
            inst, setup_dt = set_up(solver, checked, seed, key)
            if first_ds.setdefault(key, inst.ds) != inst.ds:
                raise instances.CheckError(f"instance {key}: set-up made other bytes than the first time")
            edges[key] = int(inst.u.size)
            text, dt = timed(lambda: solver.serve(inst.ds))
            checked.check(key, inst, text)
            setup_times.append(setup_dt)
            samples.append(dt)

        checked.attempt(one)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        # The mean, not the median: the host runs at two speeds in phases
        # of tens of seconds, and the median of a run jumps from one speed
        # to the other with the phase that covers more than half of it.
        "solve_s": statistics.fmean(samples) if samples else 0.0,
        "size": _median([size for key, size in checked.sizes.items() if key >= 0]),
        "setup_s": _median(setup_times),
        "peak_rss_mb": rss_mb,
        "ok_frac": (checked.attempted - checked.failed) / checked.attempted,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    detail = {
        "solve_samples": len(samples),
        "solve_s_median": _median(samples),
        "solve_s_all": samples,
        "setup_s_all": setup_times,
        "sizes": [checked.sizes.get(k) for k in range(INSTANCES)],
        "edges": [edges.get(k) for k in range(INSTANCES)],
    }
    return checked, metrics, detail


def run_traced(domset: Any, w: Workload, seed: int, seconds: float) -> tuple[Checked, dict, dict]:
    """Set up one instance, make one counting pass, then alternate untraced
    and traced solves of it until ``seconds`` have passed since the set-up.
    Layer times are medians over the traced solves; counts come from the
    counting pass and must match every timing pass."""
    solver = Solver(domset, w, seed)
    checked = Checked(domset)
    start = time.perf_counter()
    inst, _ = set_up(solver, checked, seed, 0)
    plain: list[float] = []
    traced: list[float] = []
    layer_self: list[dict[str, float]] = []
    epoch_s: list[float] = []
    counts: dict = {}
    missing: list[str] = []

    def traced_solve(count_calls: bool) -> tuple[tracer.Tracer, float]:
        tr = tracer.Tracer()
        with tracer.installed(tr, count_calls) as gone:
            text, dt = timed(lambda: solver.serve(inst.ds, tr))
        missing[:] = gone
        checked.check(0, inst, text)
        return tr, dt

    def untraced() -> None:
        text, dt = timed(lambda: solver.serve(inst.ds))
        checked.check(0, inst, text)
        plain.append(dt)

    def traced_timing() -> None:
        tr, dt = traced_solve(count_calls=False)
        traced.append(dt)
        layer_self.append(tr.self_times())
        epochs = tr.counts["annealing.epochs"]
        epoch_s.append(tr.inclusive("annealing") / epochs if epochs else 0.0)
        expected = {k: v for k, v in counts.items() if k not in CALL_COUNTS}
        if dict(tr.counts) != expected:
            raise instances.CheckError(f"trace counters differ between passes: {dict(tr.counts)} vs {expected}")

    def counting_pass() -> None:
        tr, _ = traced_solve(count_calls=True)
        counts.update(tr.counts)

    checked.attempt(counting_pass)
    pairs = 0
    while pairs < MIN_TRACED_PAIRS or _fits(start, seconds, [a + b for a, b in zip(plain, traced)]):
        pairs += 1
        checked.attempt(untraced)
        checked.attempt(traced_timing)

    values: dict[str, float] = {
        name: _median([s.get(layer, 0.0) for s in layer_self]) for name, layer in LAYER_TIMES.items()
    }
    values.update({key: counts.get(key, 0) for key in LAYER_COUNTS})
    values["greedy.accept_ratio"] = _ratio(counts.get("greedy.accepts", 0), counts.get("greedy.gain_evals", 0))
    applied = counts.get("swaps.exchanges", 0) + counts.get("swaps.free_removals", 0)
    values["swaps.applied_ratio"] = _ratio(applied, counts.get("swaps.attempts", 0))
    values["annealing.epoch_s"] = _median(epoch_s)
    # Paired, because each traced solve runs right after its untraced twin
    # and the machine's speed drifts between pairs.
    values["trace.overhead_s"] = _median([t - u for t, u in zip(traced, plain)])
    metrics = {name: {"value": values[name], "unit": layer_unit(name)} for name in per_layer_names()}
    layer_times = {name: values[name] for name in LAYER_TIMES}
    detail = {
        "untraced_solve_s": _median(plain),
        "traced_solve_s": _median(traced),
        "traced_pairs": len(traced),
        "largest_self": max(layer_times, key=layer_times.get),
        "missing_names": missing,
        "size": checked.sizes.get(0),
    }
    return checked, metrics, detail


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_names() -> list[str]:
    return [*LAYER_TIMES, *LAYER_COUNTS, "greedy.accept_ratio", "swaps.applied_ratio", "annealing.epoch_s", "trace.overhead_s"]


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def run(domset: Any, name: str, w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    fn = run_traced if trace else run_end_to_end
    checked, metrics, detail = fn(domset, w, seed, seconds)
    result = {
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": metrics,
    }
    detail = {"workload": name, "seed": seed, "trace": int(trace), "n": w.n, **detail}
    return result, detail


def selftest(domset: Any) -> None:
    """Every workload shape at 1k vertices, both passes, plus a check
    that the output checker flags a solution with one dominator removed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if sorted(wl["name"] for wl in spec["workloads"]) != sorted(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from the benchmark's own")
    for name, w in WORKLOADS.items():
        small = replace(w, n=1000)
        for trace in (0, 1):
            result, detail = run(domset, name, small, 1, 0.0, bool(trace))
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want[trace]:
                raise AssertionError(f"{name} trace={trace}: metrics {got} != BENCHMARK.json {want[trace]}")
            if not result["correct"]:
                raise AssertionError(f"{name} trace={trace}: {result['failed']} failed solves")
            if trace and detail["missing_names"]:
                raise AssertionError(f"{name}: hooked names missing: {detail['missing_names']}")
        print(f"selftest {name}: ok", flush=True)

    solver = Solver(domset, replace(WORKLOADS["swap-gnp20k"], n=1000), 1)
    inst = instances.gnp_instance(1000, AVG_DEGREE, (1, 0))
    lines = solver.serve(inst.ds).splitlines()
    # hedom5 output is prune-minimal, so every member is needed.
    broken = "\n".join([str(int(lines[0]) - 1), *lines[2:]]) + "\n"
    try:
        instances.check_solution(broken, inst)
    except instances.CheckError as exc:
        print(f"selftest checker: ok ({exc})")
    else:
        raise AssertionError("checker accepted a solution with one dominator removed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed: instances and solver rng")
    parser.add_argument("--seconds", type=float, default=60.0, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--selftest", action="store_true", help="quick check of every workload at 1k vertices")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    domset = load_domset()
    if args.selftest:
        selftest(domset)
        return 0
    result, detail = run(domset, args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail, "provenance": provenance(domset)}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
