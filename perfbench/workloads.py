"""Seeded request streams for the benchmark workloads.

A request is one catalog lattice at one alpha.  Streams are addressed by
index, so the sessions of a run continue one sequence and the same seed
always gives the same requests.
"""

from __future__ import annotations

import math
import random

STEEP_RANGE = (math.pi, 4.0 * math.pi)
SHALLOW_RANGE = (0.5, math.pi)
STEEP_PERIOD = 512  # alpha cells per lattice of a steep_warm stream

# the README's subcommands, one slot each: there are no usage logs to weigh them by
CLI_SLOTS = ("analyze", "table24", "dim16", "dim32", "catalog", "selftest", "sweep")


class RequestStream:
    """Index-addressable (lattice name, alpha) requests.

    Requests cycle through ``groups`` in their given order.  The k-th cycle
    takes cell c = perm[k mod period] of one seeded permutation for every
    group: a group's lattice is entry (c + shift) mod m of its m entries,
    and alpha is the midpoint of stratum c of ``period`` equal strata of
    [lo, hi) in log scale.  Each request is thus uniform over the groups and
    log-uniform in alpha, while every full period holds the same cycles
    whatever the seed: the seed sets their order (and the shift).  The share
    of requests that land in the failing small-alpha region is then the same
    for every seed, and so is the work of each cycle, including what its
    requests share through the q-series caches.  The seeded shift is even,
    so in a two-entry group (the certifiable Rootless32 and the never-critical
    A1^8+A3^8) each entry keeps the same strata, while a long group still
    reaches all its entries across seeds.
    """

    def __init__(self, seed: int, groups, lo: float, hi: float, period: int):
        rng = random.Random(seed)
        self.groups = [list(g) for g in groups]
        self.cells = rng.sample(range(period), period)
        self.shifts = [2 * rng.randrange(len(g)) for g in self.groups]
        self.lo = lo
        self.log_span = math.log(hi / lo)
        self.period = period

    def __getitem__(self, i: int) -> tuple[str, float]:
        g = i % len(self.groups)
        k = i // len(self.groups)
        names = self.groups[g]
        c = self.cells[k % self.period]
        u = (c + 0.5) / self.period
        return names[(c + self.shifts[g]) % len(names)], self.lo * math.exp(u * self.log_span)


def stream_for(workload: str, seed: int, catalog, period: int = STEEP_PERIOD) -> RequestStream:
    """The request stream of an in-process workload.

    ``catalog`` holds (name, dimension, critical) rows in catalog order.
    steep_warm draws the lattice uniformly over all entries; shallow_cold
    draws the dimension uniformly, then the entry within it.
    """
    if workload == "steep_warm":
        return RequestStream(seed, [[name] for name, _, _ in catalog], *STEEP_RANGE, period)
    if workload == "shallow_cold":
        dims = sorted({dim for _, dim, _ in catalog})
        groups = [[name for name, d, _ in catalog if d == dim] for dim in dims]
        return RequestStream(seed, groups, *SHALLOW_RANGE, period)
    raise ValueError(f"no in-process request stream for {workload!r}")


def cli_requests(seed: int, catalog, count: int) -> list[dict]:
    """The first ``count`` requests of the cli_cold mix.

    Each request is a dict with the CLI ``argv`` and what the output check
    needs (``kind``, and ``lattice``/``dim``/``critical`` for analyze and
    sweep, and ``first`` for the first request of a cycle).  The subcommands
    come in shuffled cycles of CLI_SLOTS, so every seed sends the same mix
    and a run that ends on a cycle boundary holds every subcommand in the
    same proportion.
    """
    rng = random.Random(seed)
    dims = {name: (dim, critical) for name, dim, critical in catalog}
    critical = [name for name, _, crit in catalog if crit]
    lo, hi = STEEP_RANGE
    requests: list[dict] = []
    while len(requests) < count:
        for slot, kind in enumerate(rng.sample(CLI_SLOTS, len(CLI_SLOTS))):
            req: dict = {"kind": kind, "first": slot == 0}
            if kind == "analyze":
                name = rng.choice(catalog)[0]
                alpha = lo * (hi / lo) ** rng.random()
                req["argv"] = ["analyze", name, "--alpha", repr(alpha), "--format", "json"]
            elif kind == "sweep":
                name = rng.choice(critical)
                start = math.pi * 2.0 ** rng.random()
                req["argv"] = ["sweep", name, "--start", repr(start),
                               "--stop", repr(2.0 * start), "--steps", "4"]
            elif kind == "selftest":
                req["argv"] = ["selftest"]
            else:
                req["argv"] = [kind, "--format", "json"]
            if kind in ("analyze", "sweep"):
                req["lattice"] = name
                req["dim"], req["critical"] = dims[name]
            requests.append(req)
    return requests[:count]
