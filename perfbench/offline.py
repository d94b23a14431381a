"""The offline workloads, each in a process of its own.

``regen`` builds all registered artifacts cold into an empty artifact
cache, then a fresh ``Study`` rebuilds them warm from that cache.
``replay_mega`` replays a diurnal day over a million tiled servers on the
sharded out-of-core tier, each round over a fresh spill directory.

The parent (:func:`run_offline`) launches this file as a child with the
program's sources on ``PYTHONPATH``.  The child prints one JSON line when
its set-up is done and checked, and one more with its timings when its
timed phase ends; its peak memory is its own ``ru_maxrss``, so no other
workload's allocations count.

Run a child by hand::

    PYTHONPATH=src python3 perfbench/offline.py regen --seed 1 --seconds 5 \\
        --run-dir /some/empty/dir
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from util import (SETUP_LAUNCHES, CheckFailed, check, child_env, median,
                  metric, pin_compute, stop_process)

#: Servers and trace steps of the mega-fleet replay.
MEGA_SERVERS = 1_000_000
MEGA_STEPS = 96
MEGA_YEAR = 2016

#: Registered artifacts the paper's corpus regenerates.
ARTIFACTS = 36

_CHILD_TIMEOUT_S = 170.0


# -- child side ----------------------------------------------------------------


def _emit(document: Dict[str, Any]) -> None:
    print(json.dumps(document), flush=True)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _check_corpus(corpus) -> None:
    years = sorted({record.hw_year for record in corpus})
    check(len(corpus) == 477, "corpus has the paper's 477 results",
           str(len(corpus)))
    check((years[0], years[-1]) == (2004, 2016),
           "corpus spans hardware years 2004-2016", f"{years[0]}-{years[-1]}")


def _regen_setup(seed: int, run_dir: Path) -> Callable[[int], Tuple[float, float]]:
    from repro.core.cache import ArtifactCache
    from repro.core.study import Study
    from repro.dataset.synthesis import generate_corpus

    _check_corpus(generate_corpus(seed))

    def round_(index: int) -> Tuple[float, float]:
        cache_dir = run_dir / f"cache-{index}"
        corpus = generate_corpus(seed)  # fresh: no memoized columns
        started = time.perf_counter()
        cold = Study(corpus=corpus, seed=seed).run_all(
            cache=ArtifactCache(cache_dir), report=True)
        cold_s = time.perf_counter() - started
        started = time.perf_counter()
        warm = Study(corpus=corpus, seed=seed).run_all(
            cache=ArtifactCache(cache_dir), report=True)
        warm_s = time.perf_counter() - started
        check(len(cold) == ARTIFACTS and cold.cache_hits == 0,
               "cold pass builds every artifact",
               f"{len(cold)} built, {cold.cache_hits} hits")
        check(len(warm) == ARTIFACTS and warm.cache_hits == ARTIFACTS,
               "warm pass scores 36 of 36 cache hits",
               f"{warm.cache_hits} of {len(warm)}")
        for artifact_id, result in cold.results.items():
            check(warm.results[artifact_id] == result,
                   "warm results equal cold results", artifact_id)
        shutil.rmtree(cache_dir)
        return cold_s, warm_s

    return round_


def _mega_setup(seed: int, run_dir: Path) -> Callable[[int], Tuple[float, float]]:
    import numpy as np

    from repro.cluster.batch_trace import resolve_trace_backend
    from repro.cluster.fleet_arrays import tile_fleet
    from repro.cluster.trace import diurnal_trace
    from repro.dataset.synthesis import generate_corpus

    corpus = generate_corpus(seed)
    _check_corpus(corpus)
    base = corpus.by_hw_year(MEGA_YEAR).results()
    fleet = tile_fleet(base, MEGA_SERVERS)
    trace = diurnal_trace(steps_per_day=MEGA_STEPS, noise=0.0)

    def cycled(values: List[float]) -> float:
        cycles, rest = divmod(MEGA_SERVERS, len(values))
        array = np.array(values)
        return float(cycles * array.sum() + array[:rest].sum())

    idle_kwh = cycled([r.active_idle_power_w for r in base]) * 24 / 1000.0
    peak_kwh = cycled([max(level.average_power_w for level in r.levels)
                       for r in base]) * 24 / 1000.0
    answers: List[Any] = []

    def layout(spill: Path):
        os.environ["REPRO_SPILL_DIR"] = str(spill)
        replayer = resolve_trace_backend(fleet, "sharded")
        check(replayer.engine.spilled and len(replayer.engine) == MEGA_SERVERS,
               "sharded layout spilled over every server")
        return replayer

    def replay(replayer):
        outcome = replayer.replay(trace, "ep-aware")
        check(outcome.unserved_steps == 0, "mega replay serves every step",
               str(outcome.unserved_steps))
        check(idle_kwh <= outcome.energy_kwh * (1 + 1e-9)
               and outcome.energy_kwh <= peak_kwh * (1 + 1e-9),
               "mega replay energy within idle and peak bounds",
               f"{outcome.energy_kwh} not in [{idle_kwh}, {peak_kwh}]")
        if answers:
            check(outcome == answers[0], "every mega replay gives one answer")
        answers.append(outcome)

    layout(run_dir / "spill-setup")

    def round_(index: int) -> Tuple[float, float]:
        spill = run_dir / f"spill-{index}"
        started = time.perf_counter()
        replayer = layout(spill)
        replay(replayer)
        build_s = time.perf_counter() - started
        started = time.perf_counter()
        replay(replayer)
        reuse_s = time.perf_counter() - started
        shutil.rmtree(spill)
        return build_s, reuse_s

    return round_


_SETUPS = {"regen": _regen_setup, "replay_mega": _mega_setup}


def child_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(_SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        return _child_run(args)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def _child_run(args: argparse.Namespace) -> int:
    round_ = _SETUPS[args.workload](args.seed, args.run_dir)
    _emit({"event": "ready"})
    if args.setup_only:
        return 0
    build: List[float] = []
    reuse: List[float] = []
    walls: List[float] = []
    cpu = _cpu_s()
    until = time.perf_counter() + args.seconds
    while time.perf_counter() < until or not build:
        started = time.perf_counter()
        build_s, reuse_s = round_(len(build))
        walls.append(time.perf_counter() - started)
        build.append(build_s)
        reuse.append(reuse_s)
    _emit({
        "event": "result", "rounds": len(build), "round_s": walls,
        "build_s": build, "reuse_s": reuse, "cpu_s": _cpu_s() - cpu,
        "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    return 0


# -- parent side ---------------------------------------------------------------


def _launch(workload: str, seed: int, seconds: float, run_dir: Path,
            setup_only: bool) -> Tuple[float, Dict[str, Any]]:
    """Run one child; (launch-to-ready seconds, its result line or {})."""
    child_dir = Path(tempfile.mkdtemp(prefix="child-", dir=run_dir))
    log_path = child_dir / "stderr.log"
    command = [sys.executable, str(Path(__file__).resolve()), workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--run-dir", str(child_dir)]
    if setup_only:
        command.append("--setup-only")
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        process = subprocess.Popen(command, cwd=child_dir,
                                   env=child_env(child_dir),
                                   stdout=subprocess.PIPE, stderr=log,
                                   text=True, preexec_fn=pin_compute)
        try:
            lines: List[Dict[str, Any]] = []
            setup_s = None
            deadline = time.monotonic() + _CHILD_TIMEOUT_S
            while time.monotonic() < deadline:
                ready, _, _ = select.select([process.stdout], [], [], 0.5)
                if not ready:
                    continue
                line = process.stdout.readline()
                if not line:
                    break
                lines.append(json.loads(line))
                if lines[-1]["event"] == "ready":
                    setup_s = time.perf_counter() - started
                    if setup_only:
                        break
                else:
                    break
            code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            stop_process(process)
    if code != 0 or setup_s is None or (not setup_only and len(lines) < 2):
        raise CheckFailed(f"{workload} child failed (exit {code}): "
                          f"{log_path.read_text()[-600:]}")
    shutil.rmtree(child_dir, ignore_errors=True)
    return setup_s, (lines[-1] if not setup_only else {})


def run_offline(workload: str, seed: int, seconds: float, run_dir: Path):
    setups = [_launch(workload, seed, seconds, run_dir, True)[0]
              for _ in range(SETUP_LAUNCHES - 1)]
    setup_s, result = _launch(workload, seed, seconds, run_dir, False)
    setups.append(setup_s)
    rounds = result["rounds"]
    operations = 2 * rounds  # a build and a reuse operation per round
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "throughput_qps": metric(2.0 / median(result["round_s"]), "1/s"),
        "build_p50_ms": metric(median(result["build_s"]) * 1000.0, "ms"),
        "reuse_p50_ms": metric(median(result["reuse_s"]) * 1000.0, "ms"),
        "cpu_ms_per_query": metric(result["cpu_s"] * 1000.0 / operations, "ms"),
        "mem_peak_mb": metric(result["peak_kb"] / 1024.0, "MiB"),
    }
    return operations, 0, metrics, {"rounds": rounds,
                                    "setup_launches": len(setups)}


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
