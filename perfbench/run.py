"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload whatif --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of the named workload;
``--trace 1`` makes the separate traced run that reports the per-layer
metrics (see ``tracing.py``).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the machine and the run's shape.
A failed correctness check prints its name on standard error, reports
``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from util import (CPUS, FRONT_CPUS, SERVE_WORKERS, SRC, CheckFailed,
                  make_run_dir, remove_dir, require_program, result_line)

WORKLOADS = ("whatif", "hot_mix", "regen", "replay_mega")


def _measure(workload: str, seed: int, seconds: float, run_dir):
    if workload == "whatif":
        from servebench import run_whatif
        return run_whatif(seed, seconds, run_dir)
    if workload == "hot_mix":
        from servebench import run_hot_mix
        return run_hot_mix(seed, seconds, run_dir)
    from offline import run_offline
    return run_offline(workload, seed, seconds, run_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, FRONT_CPUS)
    run_dir = make_run_dir(f"{args.workload}-{args.seed}")
    started = time.perf_counter()
    try:
        if args.trace:
            from tracing import run_traced
            attempted, failed, metrics, info = run_traced(
                args.workload, args.seed, run_dir)
        else:
            attempted, failed, metrics, info = _measure(
                args.workload, args.seed, args.seconds, run_dir)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps(result_line(False, 1, 0, {})))
        return 1
    finally:
        remove_dir(run_dir)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                nproc=len(CPUS), serve_workers=SERVE_WORKERS,
                wall_s=round(time.perf_counter() - started, 3))
    print(json.dumps({"run": info}))
    print(json.dumps(result_line(True, attempted, failed, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
