"""The serve workloads: a real ``repro serve`` process driven over HTTP.

Every launch is a fresh ``python -m repro serve --port 0`` with an
explicit worker count, no artifact cache and its own spill directory.
Load comes from this process only: ``whatif`` keeps two keep-alive
connections busy (one thread each; a query takes tens of milliseconds,
so the client's own interpreter lock is not the bottleneck), ``hot_mix``
one connection on the main thread.  Both loops are closed: a connection
sends its next query when the previous answer has arrived.
"""

from __future__ import annotations

import json
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import reqgen
from util import (SERVE_WORKERS, SETUP_LAUNCHES, CheckFailed, check,
                  child_env, cpu_seconds, median, metric, status_kb,
                  stop_process)

_LAUNCH_TIMEOUT_S = 60.0
_QUERY_TIMEOUT_S = 120.0

#: The first correct answer that ends a launch's set-up time.
_FIRST_QUERY = {"family": "stats", "metric": "ep"}


class Client:
    """One keep-alive HTTP/1.1 connection to the daemon.

    A plain socket with ``Content-Length`` framing, which is all the
    daemon speaks: ``http.client`` parses every response's headers with
    the email parser, which on the hot path cost the client more than
    the daemon spent answering.
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=_QUERY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, method: str, target: str,
                body: bytes = b"") -> Tuple[int, bytes]:
        head = (f"{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.sock.sendall(head.encode("latin-1") + body)
        status_line = self.reader.readline()
        check(status_line.startswith(b"HTTP/1.1 "), "daemon answers HTTP/1.1",
              repr(status_line[:40]))
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return int(status_line.split()[1]), self.reader.read(length)

    def query(self, payload: Dict[str, Any]) -> Tuple[int, bytes, float]:
        """POST one payload; (status, body, latency in ms)."""
        body = json.dumps(payload).encode("utf-8")
        started = time.perf_counter()
        status, raw = self.request("POST", "/query", body)
        return status, raw, (time.perf_counter() - started) * 1000.0

    def stats(self) -> Dict[str, Any]:
        status, raw = self.request("GET", "/stats")
        check(status == 200, "GET /stats answers 200", str(status))
        return json.loads(raw)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Daemon:
    """One launched ``repro serve`` process."""

    def __init__(self, run_dir: Path, tag: str) -> None:
        spill = run_dir / f"spill-{tag}"
        self.log_path = run_dir / f"serve-{tag}.log"
        self._log = open(self.log_path, "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(SERVE_WORKERS)],
            cwd=run_dir, env=child_env(run_dir, spill),
            stdout=subprocess.PIPE, stderr=self._log, text=True)
        try:
            self.port = self._read_port()
            self.client = Client(self.port)
            status, raw, _ms = self.client.query(_FIRST_QUERY)
            check(status == 200, "first query answers 200", str(status))
            count = json.loads(raw)["payload"]["count"]
            check(count == 477, "corpus has the paper's 477 results",
                  str(count))
            #: Launch to first correct answer, in seconds.
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + _LAUNCH_TIMEOUT_S
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline()
                if not line:
                    break
                if "listening on" in line:
                    return int(line.strip().rstrip("/").rsplit(":", 1)[1])
        raise CheckFailed(f"daemon did not come up; see {self.log_path.name}: "
                          f"{self.log_path.read_text()[-400:]}")

    def program_pids(self, stats: Dict[str, Any]) -> List[int]:
        """The daemon and its engine workers."""
        return [self.process.pid] + [w["pid"] for w in stats["workers"]]

    def stop(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        stop_process(self.process)
        self._log.close()


def launch_all(run_dir: Path, on_launch=None) -> Tuple[Daemon, List[float]]:
    """Launch :data:`SETUP_LAUNCHES` daemons; keep the last one running.

    ``on_launch(daemon)`` runs on every launch before it is stopped.
    """
    setups: List[float] = []
    for index in range(SETUP_LAUNCHES):
        daemon = Daemon(run_dir, str(index))
        setups.append(daemon.setup_s)
        try:
            if on_launch is not None:
                on_launch(daemon)
        except BaseException:
            daemon.stop()
            raise
        if index < SETUP_LAUNCHES - 1:
            daemon.stop()
    return daemon, setups


class Meter:
    """CPU time and peak memory of the program's processes."""

    def __init__(self, daemon: Daemon) -> None:
        self.daemon = daemon
        self.pids = daemon.program_pids(daemon.client.stats())
        self.cpu = self.cpu_now()

    def cpu_now(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids)

    def finish(self) -> Tuple[float, float]:
        """(CPU seconds since the start, summed peak MiB) of every pid."""
        stats = self.daemon.client.stats()
        check(self.daemon.program_pids(stats) == self.pids,
              "no worker restarted during the run")
        cpu = self.cpu_now() - self.cpu
        peak_kb = sum(status_kb(pid, "VmHWM") for pid in self.pids)
        return cpu, peak_kb / 1024.0


# -- whatif --------------------------------------------------------------------

WHATIF_CONNECTIONS = 2


def _send_all(client: Client, block: List[tuple], out: List[tuple],
              errors: List[BaseException]) -> None:
    try:
        for payload, first in block:
            status, body, ms = client.query(payload)
            out.append((payload, first, status, body, ms))
    except Exception as exc:  # re-raised by the joining thread
        errors.append(exc)


def whatif_exchange(daemon: Daemon, warmup: List[tuple],
                    blocks: List[List[tuple]]) -> Dict[str, Any]:
    """Warm a launched daemon, then send one block per connection."""
    clients = [daemon.client]
    try:
        clients += [Client(daemon.port) for _ in blocks[1:]]
        warm: List[tuple] = []
        errors: List[BaseException] = []
        _send_all(daemon.client, warmup, warm, errors)
        logs: List[List[tuple]] = [[] for _ in blocks]
        meter = Meter(daemon)
        started = time.perf_counter()
        threads = [threading.Thread(target=_send_all,
                                    args=(client, block, log, errors))
                   for client, block, log in zip(clients, blocks, logs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if errors:
            raise errors[0]
        cpu_s, peak_mb = meter.finish()
    finally:
        for client in clients[1:]:
            client.close()
    return {"elapsed_s": elapsed, "cpu_s": cpu_s, "peak_mb": peak_mb,
            "warm": warm, "answers": [entry for log in logs for entry in log]}


def _whatif_round(run_dir: Path, tag: str, warmup: List[tuple],
                  blocks: List[List[tuple]]) -> Dict[str, Any]:
    """One round: launch a daemon, warm it, send the blocks, stop it."""
    daemon = Daemon(run_dir, tag)
    try:
        round_ = whatif_exchange(daemon, warmup, blocks)
    finally:
        daemon.stop()
    round_["setup_s"] = daemon.setup_s
    return round_


def run_whatif(seed: int, seconds: float, run_dir: Path):
    """Whole rounds until ``seconds`` are used.

    Each round launches a fresh daemon and sends a block of the same
    shape (same families, first touches, revisits and small cohorts in
    the same places), drawn anew per round: memory and CPU are medians
    over rounds that did the same amount of work, latencies are pooled.
    """
    from repro.dataset.synthesis import generate_corpus

    cohorts = reqgen.Cohorts(generate_corpus(reqgen.CORPUS_SEED),
                             reqgen.WHATIF_YEARS)
    warmup = reqgen.whatif_warmup(seed, cohorts)
    rounds: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        blocks = reqgen.whatif_blocks(seed, len(rounds), cohorts,
                                      WHATIF_CONNECTIONS)
        rounds.append(_whatif_round(run_dir, str(len(rounds)), warmup,
                                    blocks))
    attempted = failed = 0
    build: List[float] = []
    reuse: List[float] = []
    for round_ in rounds:
        for payload, first, status, body, ms in round_["warm"] + round_["answers"]:
            attempted += 1
            if status != 200:
                failed += 1
                continue
            reqgen.check_whatif(payload, json.loads(body), cohorts)
        for _payload, first, status, _body, ms in round_["answers"]:
            if status == 200:
                (build if first else reuse).append(ms)
    check(bool(build) and bool(reuse), "both first touches and revisits ran")
    per_query = len(rounds[0]["answers"])
    metrics = {
        "setup_s": metric(median([r["setup_s"] for r in rounds]), "s"),
        "throughput_qps": metric(
            median([per_query / r["elapsed_s"] for r in rounds]), "1/s"),
        "build_p50_ms": metric(median(build), "ms"),
        "reuse_p50_ms": metric(median(reuse), "ms"),
        "cpu_ms_per_query": metric(
            median([r["cpu_s"] for r in rounds]) * 1000.0 / per_query, "ms"),
        "mem_peak_mb": metric(median([r["peak_mb"] for r in rounds]), "MiB"),
    }
    info = {"rounds": len(rounds), "queries_per_round": per_query,
            "first_touch_per_round": len(build) // len(rounds),
            "connections": WHATIF_CONNECTIONS}
    return attempted, failed, metrics, info


# -- hot_mix -------------------------------------------------------------------


#: Length of the hot mix's throughput and CPU slices: a stall of the
#: machine (the tail reaches 10 ms) moves one slice, not the median.
HOT_SLICE_S = 1.0


def run_hot_mix(seed: int, seconds: float, run_dir: Path):
    import random

    from repro.dataset.synthesis import generate_corpus

    cohorts = reqgen.Cohorts(generate_corpus(reqgen.CORPUS_SEED),
                             reqgen.WHATIF_YEARS)
    specs = reqgen.hot_mix_specs(seed, cohorts)
    build: List[float] = []
    answers: List[Optional[bytes]] = [None] * len(specs)
    memo: List[Optional[bytes]] = [None] * len(specs)  # last launch's bytes
    failed = 0

    def warm_pass(daemon: Daemon) -> None:
        nonlocal failed
        for index, spec in enumerate(specs):
            status, body, ms = daemon.client.query(spec)
            if status != 200:
                failed += 1
                continue
            build.append(ms)
            memo[index] = body
            if answers[index] is None:
                answers[index] = body
            check(reqgen.comparable(json.loads(body))
                  == reqgen.comparable(json.loads(answers[index])),
                  "hot_mix answer is the same on every launch",
                  json.dumps(spec))

    daemon, setups = launch_all(run_dir, warm_pass)
    rng = random.Random(f"hot_mix-order:{seed}")
    order = list(range(len(specs)))
    latencies: List[float] = []
    attempted = len(specs) * len(setups)
    mismatched = 0
    try:
        client = daemon.client
        meter = Meter(daemon)
        now = time.perf_counter()
        until = now + seconds
        marks = [(now, 0, meter.cpu)]  # (time, queries, CPU s) per slice
        while now < until:
            rng.shuffle(order)
            for index in order:  # whole rounds of every spec
                status, body, ms = client.query(specs[index])
                if status != 200:
                    failed += 1
                    continue
                if body != memo[index]:
                    mismatched += 1
                latencies.append(ms)
            attempted += len(order)
            now = time.perf_counter()
            if now - marks[-1][0] >= HOT_SLICE_S:
                marks.append((now, len(latencies), meter.cpu_now()))
        _cpu_s, peak_mb = meter.finish()
        stats = client.stats()["stats"]
    finally:
        daemon.stop()
    check(mismatched == 0, "memo hits repeat the first answer byte for byte",
          f"{mismatched} differed")
    check(stats["memo_hits"] >= len(latencies), "every timed query is a memo hit",
          f"{stats['memo_hits']} hits for {len(latencies)} queries")
    check(all(body is not None for body in answers), "every spec answered")
    reqgen.check_in_process(specs, answers)
    slices = list(zip(marks, marks[1:]))
    check(bool(slices), "the timed phase spans a whole slice")
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "throughput_qps": metric(median(
            [(b[1] - a[1]) / (b[0] - a[0]) for a, b in slices]), "1/s"),
        "build_p50_ms": metric(median(build), "ms"),
        "reuse_p50_ms": metric(median(latencies), "ms"),
        "cpu_ms_per_query": metric(median(
            [(b[2] - a[2]) * 1000.0 / (b[1] - a[1]) for a, b in slices]),
            "ms"),
        "mem_peak_mb": metric(peak_mb, "MiB"),
    }
    info = {"specs": len(specs), "queries": len(latencies),
            "slices": len(slices), "connections": 1,
            "setup_launches": len(setups)}
    return attempted, failed, metrics, info
