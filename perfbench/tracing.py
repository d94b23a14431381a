"""The traced run: per-layer metrics from spans around each layer's calls.

``run.py --trace 1`` comes here.  The traced run replays, in this
process and at reduced size, the requests of every workload, so every
per-layer metric is present whichever workload is named:

* ``dataset``: corpus synthesis, fingerprint and column store;
* ``hot``: the hot mix's memo hits through an in-process ``ServeApp``,
  plus the envelope encoding of each answer;
* ``workers``: what-if queries through a one-worker ``EngineWorkerPool``;
* ``whatif``: one what-if block through ``execute`` on a fresh
  ``QueryContext``;
* ``daemon``: the hot mix and a what-if block against a launched
  ``repro serve``, for HTTP cost, queueing and the ``/stats`` counters;
* ``regen``: cold and warm ``Study.run_all`` passes;
* ``replay_mega``: the sharded layout and one replay of a million servers.

Spans are recorded by wrapping each layer's public function from here,
without a line changed in the program.  A span holds its name, start,
end, parent span and the identifier of the request it served; the spans
stay in memory and are written out, with each layer's self time (its
spans' duration minus what their child spans cover), when the run ends.
The phase of the named workload also runs untraced, before and after the
traced phases; the difference is reported as the tracing overhead.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import gc
import itertools
import json
import os
import shutil
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import reqgen
from util import RUN_ROOT, check, median, metric, status_kb

#: Memo-hit rounds of the hot mix, in-process and over HTTP.
HOT_ROUNDS = 100

#: What-if queries sent through the in-process worker pool.
WORKER_QUERIES = 10

#: Fresh corpora synthesized for the dataset-layer timings.
DATASET_REPEATS = 3

#: Cold plus warm ``run_all`` rounds of the regen phase.
REGEN_ROUNDS = 2


class Tracer:
    """Spans in memory: ``(id, name, parent, start_ns, end_ns, request,
    phase)``.  Disabled, every span is a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[tuple] = []
        self.request: Optional[str] = None
        self.phase = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, name, parent, start, end,
                               self.request, self.phase))

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = vars(owner)[attr]
        function = original.__func__ if isinstance(original, classmethod) \
            else original
        if asyncio.iscoroutinefunction(function):
            @functools.wraps(function)
            async def wrapped(*args, **kwargs):
                with self.span(name):
                    return await function(*args, **kwargs)
        else:
            @functools.wraps(function)
            def wrapped(*args, **kwargs):
                with self.span(name):
                    return function(*args, **kwargs)
        setattr(owner, attr, classmethod(wrapped)
                if isinstance(original, classmethod) else wrapped)
        self._patches.append((owner, attr, original))

    def wrap_bind(self, spec_class: Any) -> None:
        """Time each artifact build through ``ArtifactSpec.bind``."""
        original = vars(spec_class)["bind"]
        tracer = self

        def bind(spec, study):
            build = original(spec, study)

            def timed():
                with tracer.span(f"executor.artifact.{spec.artifact_id}"):
                    return build()
            return timed

        spec_class.bind = bind
        self._patches.append((spec_class, "bind", original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reading spans ---------------------------------------------------------

    def select(self, phase: str, name: str) -> List[tuple]:
        return [s for s in self.spans if s[6] == phase and s[1] == name]

    def median_ms(self, phase: str, name: str) -> float:
        """Median duration of the phase's ``name`` spans (ms)."""
        return median([(span[4] - span[3]) / 1e6
                       for span in self.select(phase, name)])

    def per_request_ms(self, phase: str, name: str) -> Dict[Any, float]:
        """Per request, the summed duration of ``name`` spans (ms)."""
        totals: Dict[Any, float] = defaultdict(float)
        for span in self.select(phase, name):
            totals[span[5]] += (span[4] - span[3]) / 1e6
        return totals

    def self_ms(self) -> Dict[str, Dict[str, float]]:
        """Per phase and layer, span time not covered by child spans."""
        covered: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[2] is not None:
                covered[span[2]] += span[4] - span[3]
        table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            layer = span[1].split(".", 1)[0]
            table[span[6]][layer] += (span[4] - span[3] - covered[span[0]]) / 1e6
        return {phase: {layer: round(ms, 3) for layer, ms in layers.items()}
                for phase, layers in table.items()}

    def dump(self, path: Path) -> None:
        fields = ("id", "name", "parent", "start_ns", "end_ns", "request",
                  "phase")
        path.write_text(json.dumps({
            "self_ms": self.self_ms(),
            "spans": [dict(zip(fields, span)) for span in self.spans],
        }))


def install(tracer: Tracer) -> None:
    """Wrap the public function of every layer the metrics name."""
    import repro.api.dispatch as dispatch
    import repro.cluster.fleet_arrays as fleet_arrays
    import repro.core.study as study
    import repro.dataset.synthesis as synthesis
    import repro.hwexp.sweeps as sweeps
    import repro.serve.app as app
    from repro.api.dispatch import QueryContext
    from repro.cluster.batch_placement import BatchPlacementEngine
    from repro.cluster.batch_trace import BatchTraceReplay
    from repro.cluster.fleet_arrays import FleetArrays
    from repro.core.cache import ArtifactCache
    from repro.core.executor import ArtifactExecutor
    from repro.core.registry import ArtifactSpec
    from repro.serve.workers import EngineWorkerPool

    for module in (synthesis, study):
        tracer.wrap(module, "generate_corpus", "synthesis.generate")
    for module in (sweeps, study):
        tracer.wrap(module, "run_sweep", "sweeps.run_sweep")
    tracer.wrap(QueryContext, "fleet", "dispatch.fleet")
    tracer.wrap(QueryContext, "engine", "dispatch.engine")
    tracer.wrap(fleet_arrays, "tile_fleet", "fleet_arrays.tile")
    tracer.wrap(FleetArrays, "from_records", "fleet_arrays.from_records")
    for attr in ("ep_aware", "pack_to_full"):
        tracer.wrap(BatchPlacementEngine, attr, "batch_placement.place")
    tracer.wrap(BatchPlacementEngine, "max_throughput_under_cap",
                "batch_placement.cap")
    tracer.wrap(BatchTraceReplay, "replay", "batch_trace.replay")
    tracer.wrap(app, "request_from_dict", "requests.decode")
    for module in (app, dispatch):
        tracer.wrap(module, "spec_suffix", "requests.spec_key")
        tracer.wrap(module, "cache_key", "requests.spec_key")
    tracer.wrap(EngineWorkerPool, "submit_group", "workers.submit")
    tracer.wrap(EngineWorkerPool, "submit", "workers.submit")
    tracer.wrap(ArtifactExecutor, "_resolve_resource", "executor.resource")
    tracer.wrap(ArtifactCache, "get", "cache.get")
    tracer.wrap(ArtifactCache, "put", "cache.put")
    tracer.wrap_bind(ArtifactSpec)


def _dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


# -- phases ----------------------------------------------------------------------


class Phases:
    """The traced run's phases; each returns ``(metrics, core_seconds)``."""

    def __init__(self, seed: int, run_dir: Path, tracer: Tracer) -> None:
        from repro.dataset.synthesis import generate_corpus

        self.seed = seed
        self.run_dir = run_dir
        self.tracer = tracer
        self.corpus = generate_corpus(reqgen.CORPUS_SEED)
        self.cohorts = reqgen.Cohorts(self.corpus, reqgen.WHATIF_YEARS)
        self.specs = reqgen.hot_mix_specs(seed, self.cohorts)
        self.warmup = reqgen.whatif_warmup(seed, self.cohorts)
        self.blocks = reqgen.whatif_blocks(seed, 0, self.cohorts, 2)
        # one connection's order interleaved with the other's, as served
        self.requests = [entry for pair in zip(*self.blocks) for entry in pair]
        self.memo_hit_us = 0.0
        #: Requests and passes the phases have run.
        self.operations = 0

    def _enter(self, phase: str) -> Tracer:
        self.tracer.phase = phase
        self.tracer.request = None
        return self.tracer

    def dataset(self) -> Tuple[Dict, float]:
        from repro.dataset.synthesis import generate_corpus

        tracer = self._enter("dataset")
        started = time.perf_counter()
        for _ in range(DATASET_REPEATS):
            corpus = generate_corpus(reqgen.CORPUS_SEED)
            with tracer.span("corpus.fingerprint"):
                corpus.fingerprint()
            with tracer.span("columns.build"):  # the store builds lazily
                columns = corpus.columns()
                columns.load_grid()
                columns.power_matrix()
                columns.ops_matrix()
        core = time.perf_counter() - started
        self.operations += DATASET_REPEATS
        pick = functools.partial(tracer.median_ms, "dataset")
        return {
            "synthesis.generate_s": metric(pick("synthesis.generate") / 1e3, "s"),
            "columns.build_ms": metric(pick("columns.build"), "ms"),
            "corpus.fingerprint_ms": metric(pick("corpus.fingerprint"), "ms"),
        }, core

    def hot(self) -> Tuple[Dict, float]:
        from repro.api.dispatch import execute
        from repro.api.requests import request_from_dict
        from repro.serve.app import ServeApp

        tracer = self._enter("hot")
        app = ServeApp()
        app.warm()
        loop = asyncio.new_event_loop()
        try:
            for spec in self.specs:  # fill the memo
                status, _body, _h = loop.run_until_complete(app.handle(spec))
                check(status == 200, "in-process hot answer is 200")

            async def hits() -> None:
                for round_ in range(HOT_ROUNDS):
                    for index, spec in enumerate(self.specs):
                        tracer.request = f"{round_}:{index}"
                        with tracer.span("app.handle"):
                            status, _b, _h = await app.handle(spec)
                        check(status == 200, "in-process memo hit is 200")

            started = time.perf_counter()
            loop.run_until_complete(hits())
            core = time.perf_counter() - started
        finally:
            loop.close()
        self.operations += len(self.specs) * (HOT_ROUNDS + 1)
        if not tracer.enabled:
            return {}, core
        results = [execute(request_from_dict(dict(spec)), app.context)
                   for spec in self.specs]
        for round_ in range(HOT_ROUNDS):
            for index, result in enumerate(results):
                tracer.request = f"{round_}:{index}"
                with tracer.span("result.encode"):
                    result.to_json()
        self.memo_hit_us = tracer.median_ms("hot", "app.handle") * 1e3
        spec_key = tracer.per_request_ms("hot", "requests.spec_key")
        return {
            "app.memo_hit_us": metric(self.memo_hit_us, "us"),
            "requests.decode_us": metric(
                tracer.median_ms("hot", "requests.decode") * 1e3, "us"),
            "requests.spec_key_us": metric(
                median(list(spec_key.values())) * 1e3, "us"),
            "result.encode_us": metric(
                tracer.median_ms("hot", "result.encode") * 1e3, "us"),
        }, core

    def workers(self) -> Tuple[Dict, float]:
        from repro.serve.app import ServeApp

        tracer = self._enter("workers")
        app = ServeApp(workers=1)
        app.warm()
        loop = asyncio.new_event_loop()
        exchange: List[float] = []
        started = time.perf_counter()
        try:
            for index, (payload, _first) in enumerate(
                    self.requests[:WORKER_QUERIES]):
                tracer.request = str(index)
                before = len(tracer.spans)
                status, body, _h = loop.run_until_complete(app.handle(payload))
                check(status == 200, "in-process worker answer is 200")
                submit = [s for s in tracer.spans[before:]
                          if s[1] == "workers.submit"]
                inner = json.loads(body)["provenance"]["wall_time_ms"]
                exchange.append(sum((s[4] - s[3]) / 1e6 for s in submit) - inner)
        finally:
            loop.close()
            app.stop_workers()
        self.operations += len(exchange)
        return {"workers.exchange_ms": metric(median(exchange), "ms")}, \
            time.perf_counter() - started

    def whatif(self) -> Tuple[Dict, float]:
        from repro.api.dispatch import QueryContext, execute
        from repro.api.requests import request_from_dict
        from repro.core.study import Study

        tracer = self._enter("whatif")
        context = QueryContext()
        context.adopt_study(Study(corpus=self.corpus, seed=reqgen.CORPUS_SEED))
        first: Dict[str, bool] = {}
        family: Dict[str, str] = {}
        started = time.perf_counter()
        for index, (payload, is_first) in enumerate(self.requests):
            key = str(index)
            tracer.request, first[key], family[key] = (
                key, is_first, payload["family"])
            with tracer.span("dispatch.execute"):
                result = execute(request_from_dict(dict(payload)), context)
            reqgen.check_whatif(payload, json.loads(result.to_json()),
                                self.cohorts)
        core = time.perf_counter() - started
        self.operations += len(self.requests)
        if not tracer.enabled:
            return {}, core

        def pick(name: str, want_first: Optional[bool] = None,
                 fam: Optional[str] = None) -> float:
            totals = tracer.per_request_ms("whatif", name)
            if name == "dispatch.engine":  # the fleet build is its own figure
                fleet = tracer.per_request_ms("whatif", "dispatch.fleet")
                totals = {key: ms - fleet.get(key, 0.0)
                          for key, ms in totals.items()}
            values = [ms for key, ms in totals.items()
                      if (want_first is None or first[key] == want_first)
                      and (fam is None or family[key] == fam)]
            return median(values)

        steps = {str(i): p["steps"] for i, (p, _f) in enumerate(self.requests)
                 if p["family"] == "replay"}
        replay_us = [ms * 1e3 / steps[key] for key, ms in
                     tracer.per_request_ms("whatif", "batch_trace.replay").items()]
        metrics = {
            "dispatch.fleet_ms": metric(pick("dispatch.fleet", True), "ms"),
            "dispatch.engine_ms": metric(pick("dispatch.engine", True), "ms"),
            "dispatch.cohorts_built": metric(
                sum(1 for value in first.values() if value), "count"),
            "fleet_arrays.tile_ms": metric(pick("fleet_arrays.tile"), "ms"),
            "fleet_arrays.from_records_ms": metric(
                pick("fleet_arrays.from_records"), "ms"),
            "batch_placement.place_ms": metric(
                pick("batch_placement.place", fam="placement"), "ms"),
            "batch_placement.cap_ms": metric(
                pick("batch_placement.cap", fam="cap"), "ms"),
            "batch_trace.step_us": metric(median(replay_us), "us"),
        }
        for name in ("placement", "cap", "replay"):
            metrics[f"dispatch.execute_ms.{name}"] = metric(
                pick("dispatch.execute", False, name), "ms")
        return metrics, core

    def daemon(self) -> Tuple[Dict, float]:
        from servebench import Daemon, whatif_exchange

        self._enter("daemon")
        started = time.perf_counter()
        daemon = Daemon(self.run_dir, "traced")
        try:
            client = daemon.client
            base = client.stats()["stats"]
            for spec in self.specs:
                status, _body, _ms = client.query(spec)
                check(status == 200, "traced hot answer is 200")
            rtt = []
            for _round in range(HOT_ROUNDS):
                for spec in self.specs:
                    status, _body, ms = client.query(spec)
                    check(status == 200, "traced memo hit is 200")
                    rtt.append(ms * 1e3)
            hot = client.stats()
            worker_pid = hot["workers"][0]["pid"]
            rss_before = status_kb(worker_pid, "VmRSS")
            exchange = whatif_exchange(daemon, self.warmup, self.blocks)
            rss_after = status_kb(worker_pid, "VmRSS")
            after = client.stats()["stats"]
        finally:
            daemon.stop()
        hot = hot["stats"]
        answers = exchange["answers"]
        wait = []
        for payload, _first, status, body, ms in answers:
            check(status == 200, "traced what-if answer is 200")
            envelope = json.loads(body)
            reqgen.check_whatif(payload, envelope, self.cohorts)
            wait.append(ms - envelope["provenance"]["wall_time_ms"])
        self.operations += len(self.specs) * (HOT_ROUNDS + 1) + len(answers)
        cohorts = sum(1 for entry in exchange["warm"] + answers if entry[1])
        groups = after["batch_groups"] - hot["batch_groups"]
        hot_queries = hot["queries"] - base["queries"]
        return {
            "daemon.http_us": metric(median(rtt) - self.memo_hit_us, "us"),
            "app.memo_hit_ratio": metric(
                (hot["memo_hits"] - base["memo_hits"]) / hot_queries, "ratio"),
            "app.computations": metric(after["computations"], "count"),
            "app.coalesced": metric(after["coalesced"], "count"),
            "app.memo_mb": metric(after["memo_bytes"] / 2 ** 20, "MiB"),
            "app.wait_ms": metric(median(wait), "ms"),
            "batch.groups": metric(groups, "count"),
            "batch.group_size_mean": metric(
                (after["computations"] - hot["computations"]) / groups,
                "count"),
            "workers.restarts": metric(after["worker_restarts"], "count"),
            "dispatch.mb_per_cohort": metric(
                (rss_after - rss_before) / 1024.0 / cohorts, "MiB"),
        }, time.perf_counter() - started

    def regen(self) -> Tuple[Dict, float]:
        from repro.core.cache import ArtifactCache
        from repro.core.study import Study
        from repro.dataset.synthesis import generate_corpus

        tracer = self._enter("regen")
        cold_s, written, hits, cold_ids, warm_ids = [], [], [], [], []
        for round_ in range(REGEN_ROUNDS):
            cache_dir = self.run_dir / f"traced-cache-{round_}"
            corpus = generate_corpus(self.seed)
            tracer.request = f"cold:{round_}"
            cold_ids.append(tracer.request)
            started = time.perf_counter()
            with tracer.span("regen.cold"):
                cold = Study(corpus=corpus, seed=self.seed).run_all(
                    cache=ArtifactCache(cache_dir), report=True)
            cold_s.append(time.perf_counter() - started)
            written.append(_dir_bytes(cache_dir) / 1024.0)
            tracer.request = f"warm:{round_}"
            warm_ids.append(tracer.request)
            with tracer.span("regen.warm"):
                warm = Study(corpus=corpus, seed=self.seed).run_all(
                    cache=ArtifactCache(cache_dir), report=True)
            check(cold.cache_hits == 0 and warm.cache_hits == len(cold),
                  "traced warm pass hits every cold artifact")
            check(dict(warm.results) == dict(cold.results),
                  "traced warm results equal cold results")
            hits.append(warm.cache_hits)
            shutil.rmtree(cache_dir)
        self.operations += 2 * REGEN_ROUNDS
        if not tracer.enabled:
            return {}, median(cold_s)

        def total(name: str, ids: List[str]) -> float:
            per = tracer.per_request_ms("regen", name)
            return median([per.get(key, 0.0) for key in ids])

        from repro.core.registry import REGISTRY

        metrics = {
            f"executor.artifact_ms.{artifact_id}": metric(
                total(f"executor.artifact.{artifact_id}", cold_ids), "ms")
            for artifact_id in REGISTRY}
        metrics.update({
            "executor.resources_ms": metric(
                total("executor.resource", cold_ids), "ms"),
            "sweeps.run_sweep_ms": metric(
                total("sweeps.run_sweep", cold_ids), "ms"),
            "cache.put_ms": metric(total("cache.put", cold_ids), "ms"),
            "cache.written_kb": metric(median(written), "KiB"),
            "cache.get_ms": metric(total("cache.get", warm_ids), "ms"),
            "cache.hits": metric(median(hits), "count"),
        })
        return metrics, median(cold_s)

    def replay_mega(self) -> Tuple[Dict, float]:
        from offline import MEGA_SERVERS, MEGA_STEPS, MEGA_YEAR
        from repro.cluster.batch_trace import resolve_trace_backend
        from repro.cluster.fleet_arrays import tile_fleet
        from repro.cluster.trace import diurnal_trace

        tracer = self._enter("replay_mega")
        spill = Path(tempfile.mkdtemp(prefix="spill-", dir=self.run_dir))
        os.environ["REPRO_SPILL_DIR"] = str(spill)
        fleet = tile_fleet(self.corpus.by_hw_year(MEGA_YEAR).results(),
                           MEGA_SERVERS)
        trace = diurnal_trace(steps_per_day=MEGA_STEPS, noise=0.0)
        started = time.perf_counter()
        with tracer.span("sharded.layout"):
            replayer = resolve_trace_backend(fleet, "sharded")
        layout_s = time.perf_counter() - started
        spill_mb = _dir_bytes(spill) / 2 ** 20
        started = time.perf_counter()
        with tracer.span("sharded.replay"):
            outcome = replayer.replay(trace, "ep-aware")
        replay_s = time.perf_counter() - started
        check(outcome.unserved_steps == 0, "traced mega replay serves every step")
        del replayer
        shutil.rmtree(spill)
        self.operations += 1
        return {
            "sharded.layout_s": metric(layout_s, "s"),
            "sharded.server_steps_per_s": metric(
                MEGA_SERVERS * MEGA_STEPS / replay_s, "1/s"),
            "sharded.spill_mb": metric(spill_mb, "MiB"),
        }, replay_s


#: The phase that replays each workload's own requests, for the overhead.
_OWN_PHASE = {"whatif": "whatif", "hot_mix": "hot", "regen": "regen",
              "replay_mega": "replay_mega"}

#: Phase order: the worker pool forks this process before the other
#: traced phases start event-loop executor threads.
_ORDER = ("dataset", "workers", "hot", "replay_mega", "whatif", "daemon",
          "regen")


def run_traced(workload: str, seed: int, run_dir: Path):
    own = _OWN_PHASE[workload]
    os.environ["TMPDIR"] = str(run_dir)
    os.environ["REPRO_SPILL_DIR"] = str(run_dir / "spill")
    tempfile.tempdir = None  # re-read TMPDIR
    untraced = Phases(seed, run_dir, Tracer(enabled=False))
    getattr(untraced, own)()  # warms imports and first-call caches
    untraced_s = [getattr(untraced, own)()[1]]
    gc.collect()

    tracer = Tracer()
    phases = Phases(seed, run_dir, tracer)
    install(tracer)
    metrics: Dict[str, Dict[str, object]] = {}
    cores: Dict[str, float] = {}
    try:
        for name in _ORDER:
            phase_metrics, cores[name] = getattr(phases, name)()
            metrics.update(phase_metrics)
            gc.collect()
    finally:
        tracer.restore()
    # untraced once before and once after, so slow drift of the machine
    # does not read as overhead
    untraced_s.append(getattr(untraced, own)()[1])
    baseline = sum(untraced_s) / len(untraced_s)
    metrics["trace.overhead_pct"] = metric(
        100.0 * (cores[own] - baseline) / baseline, "%")
    out_dir = RUN_ROOT / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"{workload}-{seed}.json"
    tracer.dump(spans_path)
    info = {"spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(RUN_ROOT.parent)),
            "self_ms": tracer.self_ms(), "overhead_phase": own,
            "untraced_core_s": untraced_s, "traced_core_s": cores[own]}
    return phases.operations, 0, metrics, info
