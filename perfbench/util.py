"""Shared helpers: the checkout layout, checks, processes, /proc readers.

Everything the benchmark writes goes under ``<checkout>/.perfbench_run``;
each run makes its own subdirectory there and removes it on exit.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".perfbench_run"

#: How many fresh program launches each run times for ``setup_s``.
SETUP_LAUNCHES = 5

#: Engine worker processes of every launched daemon: fixed, so that the
#: figures do not depend on the machine's CPU count.
SERVE_WORKERS = 1

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class CheckFailed(Exception):
    """A correctness check failed; the message names the check."""


def check(condition: bool, name: str, detail: str = "") -> None:
    """Raise :class:`CheckFailed` naming ``name`` unless ``condition``."""
    if not condition:
        raise CheckFailed(f"{name}: {detail}" if detail else name)


def close_rel(a: float, b: float, rtol: float = 1e-9) -> bool:
    """``a`` equals ``b`` to a relative tolerance (float rounding)."""
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def require_program() -> None:
    """Exit 2 unless the checkout holds the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)


def make_run_dir(tag: str) -> Path:
    """A fresh, empty directory for one run's caches and spills."""
    RUN_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=RUN_ROOT))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        RUN_ROOT.rmdir()  # only succeeds once no other run uses it
    except OSError:
        pass


def child_env(run_dir: Path, spill_dir: Optional[Path] = None) -> Dict[str, str]:
    """Environment of a program process: sources, private tmp and spill."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = str(run_dir)
    env["REPRO_SPILL_DIR"] = str(spill_dir or run_dir / "spill")
    return env


#: The CPUs this run may use, split in two.  The benchmark's process, the
#: daemon and its engine worker share the first: a query handed between
#: two CPUs waits for the idle one to wake, and on a shared host that
#: wake-up took from tens of microseconds to milliseconds, which moved
#: the hot mix's throughput by half between identical runs.  The offline
#: workloads' processes run on the rest.  With one CPU, all share it.
CPUS = sorted(os.sched_getaffinity(0))
FRONT_CPUS = {CPUS[0]}
COMPUTE_CPUS = set(CPUS[1:]) or FRONT_CPUS


def pin_compute() -> None:
    """``preexec_fn`` of an offline workload's process."""
    os.sched_setaffinity(0, COMPUTE_CPUS)


def stop_process(process: subprocess.Popen, timeout_s: float = 15.0) -> None:
    """SIGTERM, wait, then SIGKILL; always reaps the process."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=timeout_s)
    for stream in (process.stdout, process.stderr, process.stdin):
        if stream is not None:
            stream.close()


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "r") as handle:
        text = handle.read()
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def status_kb(pid: int, key: str) -> float:
    """A ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", "r") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    raise KeyError(key)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    return {"correct": correct, "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}

