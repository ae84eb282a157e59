"""One hash over the solver's outputs on a fixed corpus, to show that a
refactor keeps every output byte.

    python3 tools/output_hash.py            # this checkout's src/
    python3 tools/output_hash.py OTHER/src  # another checkout, to compare

The package is imported from SRC and from nowhere else. The corpus is
gnp, tree, grid and star-forest at seeds 6000-6059, disjoint from the
golden, acceptance and swap-plateau seeds. Each instance goes through
``to_ds`` and is parsed back from bytes, then hedom5, greedy and sa solve
it attempt-counted: per seed, a swap attempt cap of 1-6, sa epochs 3-6
and an sa initial temperature alternating 1.0 and 0.2. Line 1 is
``<solves> <sha256>`` over every output text and its trace's (stage, size)
pairs. Each further line is ``<algorithm> <kind> <total size>``, so a
change that is meant to alter outputs can report how the sizes moved.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections import Counter
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(6000, 6060)
KINDS = ("gnp", "tree", "grid", "star-forest")
ALGORITHMS = ("hedom5", "greedy", "sa")


def load_domset(src: Path) -> Any:
    """Import the package from ``src``; refuse any other copy."""
    if not (src / "domset" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'domset'}")
    sys.path.insert(0, str(src))
    import domset

    if Path(domset.__file__).resolve().parent != src / "domset":
        raise SystemExit(f"error: imported domset from {domset.__file__}, not from {src}")
    return domset


def instance_params(kind: str, i: int) -> dict:
    n = 300 + 50 * (i % 13)
    if kind == "gnp":
        return {"n": n, "p": 6 / (n - 1)}
    if kind == "grid":
        return {"rows": 12 + i % 11, "cols": 15 + i % 9}
    if kind == "star-forest":
        return {"n": n, "max_star": 2 + i % 7}
    return {"n": n}


def run(domset: Any) -> tuple[int, str, Counter]:
    digest = hashlib.sha256()
    totals: Counter = Counter()
    solves = 0
    for seed in SEEDS:
        i = seed - SEEDS[0]
        anneal = domset.AnnealConfig(initial_temperature=0.2 if i % 2 else 1.0, max_epochs=3 + i % 4)
        for kind in KINDS:
            _, text = domset.generate_instance(kind, seed, **instance_params(kind, i))
            g = domset.parse_ds(text.encode())
            for algorithm in ALGORITHMS:
                cfg = domset.SolverConfig(
                    algorithm=algorithm, wallclock=False, attempt_cap=1 + i % 6, seed=seed, anneal=anneal
                )
                trace: list = []
                sol = domset.solve(g, cfg, trace=trace)
                digest.update(domset.write_solution(sol).encode())
                digest.update("".join(f"{t.stage} {t.size}\n" for t in trace).encode())
                totals[algorithm, kind] += len(sol.members)
                solves += 1
    return solves, digest.hexdigest(), totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src", help="directory holding domset/")
    args = parser.parse_args(argv)
    solves, hexdigest, totals = run(load_domset(args.src.resolve()))
    print(solves, hexdigest)
    for (algorithm, kind), size in sorted(totals.items()):
        print(algorithm, kind, size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
