"""Steadiness check: repeat workloads across interleaved sets of runs.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --sets 2 [--workloads whatif regen]

Runs ``perfbench/run.py`` ``runs`` times per set and workload, each run
with its own seed, alternating the sets (A1 B1 A2 B2 ...) so that slow
drift of the machine falls on both.  For every end-to-end metric it
prints each set's median, quartiles and spread (interquartile distance
over the median), then how far each later set's median lies from the
first, against the metric's bound in ``BENCHMARK.json``; the ``all`` row
pools the sets.  ``--out`` keeps every run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from run import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]


def _run(command: List[str], workload: str, seed: int, seconds: int) -> Dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _worse(metric: Dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=names)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    results: Dict[str, List[List[Dict]]] = {
        w: [[] for _ in range(args.sets)] for w in args.workloads}
    seed = args.first_seed
    for index in range(args.runs):
        for which in range(args.sets):
            for workload in args.workloads:
                line = _run(spec["command"], workload, seed, args.seconds)
                results[workload][which].append(line)
                print(f"run {index + 1}/{args.runs} set {which} {workload} "
                      f"seed {seed}: " + ", ".join(
                          f"{k}={v['value']:.4g}"
                          for k, v in line["metrics"].items()), flush=True)
                seed += 1
    if args.out:
        args.out.write_text(json.dumps(results, indent=1))

    print(f"\n{'workload':<12} {'metric':<17} {'set':>3} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6} {'worse':>7}")
    for workload in args.workloads:
        sets = results[workload]
        shares = {line["failed"] / line["attempted"]
                  for runs in sets for line in runs}
        for metric in spec["end_to_end"]:
            rows = [(str(which), runs) for which, runs in enumerate(sets)]
            if len(sets) > 1:
                rows.append(("all", [line for runs in sets for line in runs]))
            first = None
            for label, runs in rows:
                values = [line["metrics"][metric["name"]]["value"]
                          for line in runs]
                mid = statistics.median(values)
                q1, _q2, q3 = (statistics.quantiles(values, n=4)
                               if len(values) > 1 else (mid, mid, mid))
                worse = ""
                if first is None:
                    first = mid
                elif label != "all":
                    worse = f"{_worse(metric, first, mid):+7.1%}"
                print(f"{workload:<12} {metric['name']:<17} {label:>3} "
                      f"{mid:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                      f"{(q3 - q1) / mid:>7.1%} {metric['bound']:>6.0%} "
                      f"{worse}")
        print(f"{workload:<12} failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
