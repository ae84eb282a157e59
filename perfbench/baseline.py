"""Write BENCH_baseline.json: both passes of every workload at one seed.

    python3 perfbench/baseline.py --seed 1

Runs ``run.py`` once per workload and pass, one after the other, and keeps
each run's result and details. Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"error: {workload} trace={trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            extra = json.loads(lines[-2])
            runs.append({"result": json.loads(lines[-1]), "detail": extra["detail"]})
            print(f"{workload} trace={trace}: ok", flush=True)
    out = {"seed": args.seed, "run_seconds": spec["run_seconds"], "provenance": extra["provenance"], "runs": runs}
    (HERE / "BENCH_baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
