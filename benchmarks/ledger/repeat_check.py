"""A/A check: run the whole benchmark twice on this tree and compare.

    python3 benchmarks/ledger/repeat_check.py [--seed S] [--smoke]

Each workload runs in a fresh process, first for pass A then for pass B.
Prints both values of every workload x end-to-end metric with their relative
difference, and exits non-zero when a pair differs by more than that metric's
bound in ``BENCHMARK.json`` — the benchmark may only gate changes by a bound
it can hold against itself.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]


def run_once(workload: str, seed: int, extra: Sequence[str]) -> Dict:
    """One fresh-process run → its result line."""
    command = [
        sys.executable,
        str(LEDGER_DIR / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        *extra,
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    extra = ["--smoke"] if args.smoke else []

    passes: List[Dict[str, Dict]] = []
    for label in "AB":
        results = {}
        for workload in spec["workloads"]:
            print(f"pass {label}: {workload['name']}", file=sys.stderr)
            results[workload["name"]] = run_once(workload["name"], args.seed, extra)
        passes.append(results)

    exceeded = 0
    print(f"{'workload':18s} {'metric':18s} {'A':>12s} {'B':>12s} {'rel diff':>9s} {'bound':>6s}")
    for workload in spec["workloads"]:
        name = workload["name"]
        first, second = (results[name] for results in passes)
        for run in (first, second):
            if not run["correct"] or run["failed"]:
                print(f"{name}: incorrect run ({run['failed']} of {run['attempted']} ops failed)")
                exceeded += 1
        for metric in spec["end_to_end"]:
            a = first["metrics"][metric["name"]]["value"]
            b = second["metrics"][metric["name"]]["value"]
            difference = abs(b - a) / abs(a)
            over = difference > metric["bound"]
            exceeded += over
            print(
                f"{name:18s} {metric['name']:18s} {a:12.5g} {b:12.5g} "
                f"{difference:9.4f} {metric['bound']:6.2f}{'  EXCEEDED' if over else ''}"
            )
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
