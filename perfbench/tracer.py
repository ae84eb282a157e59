"""Outside-in tracing of one solve.

The stage functions are wrapped at the module-global names through which
the solver calls them, so the package under test is not edited. Every
wrapped call becomes a span with its parent; counters are taken at the same
boundaries. All names are restored when tracing ends. A name that no longer
exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

OnReturn = Callable[[Counter, tuple, Any, "int | None"], None]


class Tracer:
    """Spans as [layer, start, end, parent index], plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        span = [layer, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Per layer, the summed span durations minus what child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (layer, start, end, _) in enumerate(self.spans):
            out[layer] += end - start - covered[i]
        return out

    def inclusive(self, layer: str) -> float:
        return sum(end - start for name, start, end, _ in self.spans if name == layer)


def _size(args: tuple) -> int | None:
    """Size of the first solution-like argument (anything with ``members``)."""
    for a in args:
        members = getattr(a, "members", None)
        if members is not None:
            return len(members)
    return None


def _forced(counts: Counter, args: tuple, result: Any, before: int | None) -> None:
    if isinstance(result, int):
        counts["reductions.forced"] += result


def _removed(key: str) -> OnReturn:
    def on_return(counts: Counter, args: tuple, result: Any, before: int | None) -> None:
        after = _size(args)
        if before is not None and after is not None:
            counts[key] += before - after

    return on_return


_prune_removed = _removed("swaps.prune_removed")


def _swap_prune(counts: Counter, args: tuple, result: Any, before: int | None) -> None:
    counts["swaps.prune_calls"] += 1
    _prune_removed(counts, args, result, before)


def _swap_move(counts: Counter, args: tuple, result: Any, before: int | None) -> None:
    counts["swaps.attempts"] += 1
    if result is None:
        return
    if getattr(result, "added", None) is None:
        counts["swaps.free_removals"] += 1
    else:
        counts["swaps.exchanges"] += 1


def _patch_added(counts: Counter, args: tuple, result: Any, before: int | None) -> None:
    if isinstance(result, int):
        counts["swaps.patch_added"] += result


def _size_drop(counts: Counter, args: tuple, result: Any, before: int | None) -> None:
    if before is not None and hasattr(result, "members"):
        counts["annealing.size_drop"] += before - len(result.members)


def _epoch(counts: Counter, args: tuple, result: Any, before: int | None) -> None:
    counts["annealing.epochs"] += 1


# (module, name, span layer or None for count-only, counter hook)
STAGE_HOOKS: list[tuple[str, str, str | None, OnReturn | None]] = [
    ("domset.pipeline", "apply_isolate_rule", "reductions", _forced),
    ("domset.pipeline", "apply_leaf_rule", "reductions", _forced),
    ("domset.pipeline", "lazy_greedy", "greedy", None),
    ("domset.pipeline", "greedy_ln", "greedy", None),
    ("domset.pipeline", "compute_cover_counts", "pruning.counts", None),
    ("domset.pipeline", "backward_prune", "pruning", _removed("pruning.removed")),
    ("domset.pipeline", "swap_phase", "swaps", None),
    ("domset.pipeline", "safety_patch", "swaps.patch", _patch_added),
    ("domset.pipeline", "sa_solve", "annealing", _size_drop),
    ("domset.pipeline", "verify", "verification", None),
    ("domset.swaps", "try_one_swap", "swaps.try", _swap_move),
    ("domset.swaps", "backward_prune", "swaps.prune", _swap_prune),
    ("domset.annealing", "decay", None, _epoch),
]

# Called millions of times inside greedy; wrapped only in a pass whose
# times are discarded, so the wrapper's cost never enters a layer time.
CALL_COUNT_HOOKS: list[tuple[str, str, str]] = [
    ("domset.greedy", "true_gain", "greedy.gain_evals"),
    ("domset.greedy", "add_to_d", "greedy.accepts"),
]

# Each hedom5 sweep shuffles the rng that the pipeline creates, once.
SWEEP_RNG = ("domset.pipeline", "random")


def _stage_wrapper(tracer: Tracer, fn: Callable, layer: str | None, on_return: OnReturn | None) -> Callable:
    def wrapped(*args: Any, **kwargs: Any) -> Any:
        before = _size(args)
        result = fn(*args, **kwargs) if layer is None else tracer.call(layer, fn, *args, **kwargs)
        if on_return is not None:
            on_return(tracer.counts, args, result, before)
        return result

    return wrapped


def _count_wrapper(counts: Counter, fn: Callable, key: str) -> Callable:
    def wrapped(*args: Any, **kwargs: Any) -> Any:
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapped


class _SweepCountingRandom:
    """Stands in for the ``random`` module; its ``Random`` counts shuffles."""

    def __init__(self, module: Any, counts: Counter) -> None:
        self._module = module

        class CountingRandom(module.Random):
            def shuffle(self, x: list) -> None:
                counts["swaps.sweeps"] += 1
                super().shuffle(x)

        self.Random = CountingRandom

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


@contextmanager
def installed(tracer: Tracer, count_calls: bool) -> Iterator[list[str]]:
    """Wrap every hooked name for the duration of the block; yields the
    dotted names that could not be found."""
    patched: list[tuple[Any, str, Any]] = []
    missing: list[str] = []

    def patch(module_name: str, attr: str, make: Callable[[Any], Any]) -> None:
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr}")
            return
        patched.append((module, attr, original))
        setattr(module, attr, make(original))

    try:
        for module_name, attr, layer, on_return in STAGE_HOOKS:
            patch(module_name, attr, lambda fn, l=layer, h=on_return: _stage_wrapper(tracer, fn, l, h))
        if count_calls:
            for module_name, attr, key in CALL_COUNT_HOOKS:
                patch(module_name, attr, lambda fn, k=key: _count_wrapper(tracer.counts, fn, k))
        patch(*SWEEP_RNG, lambda module: _SweepCountingRandom(module, tracer.counts))
        yield missing
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
