"""Seeded request streams of the serve workloads, and the answer checks.

The benchmark draws every request from ``random.Random`` seeded with the
run's ``--seed``; the daemon receives only the JSON payloads.  The checks
recompute what an answer must satisfy from the corpus with numpy, apart
from the program's own fleet code.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from util import check, close_rel

#: The daemon's corpus seed (``repro serve`` default).
CORPUS_SEED = 2016

#: Hardware years of every what-if cohort: placement, cap and replay
#: queries on one size then share a fleet and an engine in the worker.
WHATIF_YEARS = (2013, 2016)

#: Family of each what-if query, cycled per connection.  With these
#: shares the median of both the first-touch and the revisit latencies
#: falls inside the replay band, away from a band edge.
WHATIF_CYCLE = ("placement", "replay", "cap", "placement", "replay",
                "placement", "replay", "cap", "placement", "replay")

#: Every tenth first touch picks a cohort below the 24-server scalar
#: switch (these run the scalar reference path).
SMALL_EVERY = 10

#: Tiled cohort sizes of the what-if workload (inclusive ranges).
LARGE_SIZES = (1000, 2000)
SMALL_SIZES = (8, 23)

#: Trace lengths of what-if replays.  A spec differs from every earlier
#: one, so a revisited cohort varies steps, policy and power-off.
WHATIF_STEPS = (20, 24, 28)

POLICIES = ("ep-aware", "pack-to-full")
METRICS = ("ep", "score", "peak_ee", "idle_fraction", "memory_per_core_gb")

#: The hot mix's artifacts (corpus only) and testbed sweeps: fixed, so
#: that every seed has the same kinds of work; the seed draws parameters.
HOT_ARTIFACTS = ("fig3", "table1", "eq2")
HOT_SWEEPS = (2, 4)


class Cohorts:
    """Reference figures of the tiled cohorts, from the corpus records."""

    def __init__(self, corpus, years: Tuple[int, int]) -> None:
        base = [r for r in corpus if years[0] <= r.hw_year <= years[1]]
        check(bool(base), "cohort is non-empty", f"hw years {years}")
        self.size = len(base)
        self.full_ops = np.array([_level(r, 1.0).ssj_ops for r in base])
        self.peak_w = np.array([_level(r, 1.0).average_power_w for r in base])
        self.idle_w = np.array([r.active_idle_power_w for r in base])

    def _cycled(self, values: np.ndarray, servers: int) -> float:
        cycles, rest = divmod(servers, self.size)
        return float(cycles * values.sum() + values[:rest].sum())

    def capacity(self, servers: int) -> float:
        return self._cycled(self.full_ops, servers)

    def peak_power(self, servers: int) -> float:
        return self._cycled(self.peak_w, servers)

    def idle_power(self, servers: int) -> float:
        return self._cycled(self.idle_w, servers)

    def power_cap(self, servers: int, share: float, power_off: bool) -> float:
        """A cap ``share`` of the way from the least feasible cap to peak.

        Without power-off every unused server still draws idle power, so
        a cap below the cohort's idle sum has no feasible answer.  The
        program answers one with its power above the cap and
        ``satisfied: true``; such caps are left out.
        """
        low = 0.0 if power_off else self.idle_power(servers)
        return round(low + share * (self.peak_power(servers) - low), 1)


def _level(record, load: float):
    for level in record.levels:
        if level.target_load == load:
            return level
    raise ValueError(f"{record.result_id} has no {load:.0%} level")


# -- what-if -------------------------------------------------------------------


class WhatIfStream:
    """One connection's closed-loop stream of distinct fleet queries.

    Each connection owns the sizes of one parity, so "first query on a
    cohort" is a property of the stream alone, not of how the two
    connections interleave.
    """

    def __init__(self, seed: str, connection: int, cohorts: Cohorts,
                 sizes: Tuple[int, int] = LARGE_SIZES) -> None:
        self.rng = random.Random(f"whatif:{seed}:{connection}")
        self.parity = connection % 2
        self.cohorts = cohorts
        self.sizes = sizes
        self.built: List[int] = []
        self.specs: Set[str] = set()
        self.position = 0

    def _free(self, low: int, high: int) -> List[int]:
        return [size for size in range(low, high + 1)
                if size % 2 == self.parity and size not in self.built]

    def _new_size(self) -> int:
        small = (self.sizes == LARGE_SIZES
                 and len(self.built) % SMALL_EVERY == SMALL_EVERY // 2)
        # once every small size of this parity is built, go large
        free = (small and self._free(*SMALL_SIZES)) or self._free(*self.sizes)
        return self.rng.choice(free)

    def _draw(self, family: str, servers: int) -> Dict[str, Any]:
        rng = self.rng
        payload: Dict[str, Any] = {
            "family": family, "servers": servers,
            "hw_year_min": WHATIF_YEARS[0], "hw_year_max": WHATIF_YEARS[1],
            "policy": rng.choice(POLICIES),
            "power_off_unused": rng.random() < 0.5,
        }
        if family == "placement":
            payload["demand_fraction"] = round(rng.uniform(0.05, 0.95), 4)
        elif family == "cap":
            payload["power_cap_w"] = self.cohorts.power_cap(
                servers, rng.uniform(0.1, 0.9), payload["power_off_unused"])
        else:
            payload["steps"] = rng.choice(WHATIF_STEPS)
        return payload

    def __next__(self) -> Tuple[Dict[str, Any], bool]:
        """The next ``(payload, first_on_cohort)``."""
        # passes through the cycle alternate between new cohorts and
        # revisits of a size already built, so half of every family's
        # queries revisit in every run; the seed picks which cohort
        cycle, offset = divmod(self.position, len(WHATIF_CYCLE))
        family = WHATIF_CYCLE[offset]
        self.position += 1
        revisit = cycle % 2 == 1
        for _attempt in range(8):
            servers = (self.rng.choice(self.built) if revisit
                       else self._new_size())
            payload = self._draw(family, servers)
            key = json.dumps(payload, sort_keys=True)
            if key not in self.specs:
                break
            revisit = False  # every variant of this cohort is taken
        else:
            raise RuntimeError("could not draw a distinct what-if spec")
        self.specs.add(key)
        first = servers not in self.built
        if first:
            self.built.append(servers)
        return payload, first


#: Queries per connection in one what-if round: one pass through the
#: family cycle on new cohorts, one on revisits.
WHATIF_BLOCK = 2 * len(WHATIF_CYCLE)

#: Untimed queries after each launch, on cohort sizes the timed blocks
#: never use: one of each fleet family, so that the worker has imported
#: every kernel before the first timed query.
WHATIF_WARMUP = 3


def whatif_warmup(seed: int, cohorts: Cohorts) -> List[tuple]:
    stream = WhatIfStream(f"{seed}:warmup", 0, cohorts, (2001, 2100))
    return [next(stream) for _ in range(WHATIF_WARMUP)]


def whatif_blocks(seed: int, round_: int, cohorts: Cohorts,
                  connections: int) -> List[List[tuple]]:
    """Round ``round_``'s timed block of ``(payload, first_on_cohort)``
    for each connection; every round draws new queries."""
    blocks = []
    for index in range(connections):
        stream = WhatIfStream(f"{seed}:{round_}", index, cohorts)
        blocks.append([next(stream) for _ in range(WHATIF_BLOCK)])
    return blocks


def check_whatif(payload: Dict[str, Any], envelope: Dict[str, Any],
                 cohorts: Cohorts) -> None:
    """The properties a fleet answer must have, recomputed apart."""
    family = payload["family"]
    servers = payload["servers"]
    answer = envelope.get("payload", {})
    check(envelope.get("family") == family, "answer family matches request")
    if family == "replay":
        check(answer["servers"] == servers, "replay servers equal request")
        check(answer["steps"] == payload["steps"], "replay steps equal request")
        check(answer["unserved_steps"] == 0, "replay serves every step",
              f"{answer['unserved_steps']} unserved at {servers} servers")
        day_h = answer["step_hours"] * payload["steps"]
        check(close_rel(day_h, 24.0), "replay covers one day", f"{day_h} h")
        low = 0.0 if payload["power_off_unused"] else (
            cohorts.idle_power(servers) * day_h / 1000.0)
        high = cohorts.peak_power(servers) * day_h / 1000.0
        energy = answer["energy_kwh"]
        check(low * (1 - 1e-9) <= energy <= high * (1 + 1e-9),
              "replay energy within idle and peak bounds",
              f"{energy} kWh not in [{low}, {high}]")
        return
    check(answer["fleet_size"] == servers, "fleet_size equals servers",
          f"{answer['fleet_size']} != {servers}")
    check(answer["placed_ops"] <= answer["demand_ops"] * (1 + 1e-9),
          "placed_ops at most demand", f"{answer['placed_ops']} > "
          f"{answer['demand_ops']}")
    if family == "placement":
        expected = payload["demand_fraction"] * cohorts.capacity(servers)
        check(close_rel(answer["demand_ops"], expected),
              "demand_ops equals demand_fraction x cohort capacity",
              f"{answer['demand_ops']} != {expected}")
    else:
        check(answer["total_power_w"] <= payload["power_cap_w"] * (1 + 1e-9),
              "cap answer within power cap",
              f"{answer['total_power_w']} > {payload['power_cap_w']}")


# -- hot mix -------------------------------------------------------------------


def hot_mix_specs(seed: int, cohorts: Cohorts) -> List[Dict[str, Any]]:
    """A fixed composition of distinct specs over every memoizable family.

    ``list`` is servable but not cacheable, so the daemon recomputes it on
    every call; it would be the one timed query that is not a memo hit.
    """
    rng = random.Random(f"hot_mix:{seed}")
    specs: List[Dict[str, Any]] = [
        {"family": "group", "by": by}
        for by in ("family", "codename", "memory_per_core")]
    specs += [{"family": "sweep", "server": server} for server in HOT_SWEEPS]
    specs += [{"family": "artifact", "artifact_id": artifact}
              for artifact in HOT_ARTIFACTS]
    drawn: Set[str] = set()

    def distinct(make) -> Dict[str, Any]:
        while True:
            spec = make()
            key = json.dumps(spec, sort_keys=True)
            if key not in drawn:
                drawn.add(key)
                return spec

    def stats(sliced: bool) -> Dict[str, Any]:
        spec = {"family": "stats", "metric": rng.choice(METRICS)}
        if sliced:
            first = rng.randint(2004, 2016)
            spec.update(hw_year_min=first,
                        hw_year_max=rng.randint(first, 2016))
        return spec

    def cdf() -> Dict[str, Any]:
        low = round(rng.uniform(0.0, 0.6), 3)
        return {"family": "cdf", "metric": "ep", "lo": low,
                "hi": round(low + rng.uniform(0.05, 0.4), 3)}

    def fleet(family: str) -> Dict[str, Any]:
        servers = rng.randint(80, 160)
        spec: Dict[str, Any] = {
            "family": family, "servers": servers,
            "hw_year_min": WHATIF_YEARS[0], "hw_year_max": WHATIF_YEARS[1],
            "policy": rng.choice(POLICIES)}
        if family == "placement":
            spec["demand_fraction"] = round(rng.uniform(0.05, 0.95), 4)
        elif family == "cap":
            spec["power_cap_w"] = cohorts.power_cap(
                servers, rng.uniform(0.1, 0.9), False)
        else:
            spec["servers"] = min(servers, 120)
            spec["steps"] = rng.randint(8, 16)
        return spec

    # six placements sit between the cheaper families and the costlier
    # ones, so the median first-computation latency is a placement's
    specs += [distinct(lambda: stats(sliced)) for sliced in (False, True)]
    specs += [distinct(cdf) for _ in range(2)]
    specs += [distinct(lambda: fleet("placement")) for _ in range(6)]
    specs += [distinct(lambda: fleet("cap")) for _ in range(2)]
    specs += [distinct(lambda: fleet("replay")) for _ in range(2)]
    return specs


#: Provenance fields that describe one execution, not the answer.
_EXECUTION_FIELDS = ("wall_time_ms", "worker")


def comparable(envelope: Dict[str, Any]) -> Dict[str, Any]:
    """An answer envelope without its per-execution provenance fields."""
    document = dict(envelope)
    document["provenance"] = {
        key: value for key, value in envelope["provenance"].items()
        if key not in _EXECUTION_FIELDS}
    return document


def check_in_process(specs: List[Dict[str, Any]],
                     answers: List[Optional[bytes]]) -> None:
    """Each served answer equals an in-process ``execute`` of its spec."""
    from repro.api.dispatch import QueryContext, execute
    from repro.api.requests import request_from_dict

    context = QueryContext()
    for spec, body in zip(specs, answers):
        expected = json.loads(
            execute(request_from_dict(dict(spec)), context).to_json())
        served = json.loads(body)
        check(comparable(served) == comparable(expected),
              "hot_mix answer equals in-process execute",
              json.dumps(spec, sort_keys=True))
