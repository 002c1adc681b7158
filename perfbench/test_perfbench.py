"""Tests of the benchmark's own statistics and checks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import os

import pytest

import benchstats
import checks
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --- tail percentile rule ----------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    value, percentile, n = benchstats.tail(range(1, 101))
    assert (value, percentile, n) == (90, 90.0, 100)
    value, percentile, n = benchstats.tail(list(range(1000, 0, -1)))
    assert (value, percentile) == (990, 99.0)
    assert sum(x > value for x in range(1, 1001)) == 10


def test_tail_with_too_few_samples_is_the_maximum():
    assert benchstats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    # eleven samples: the smallest has exactly ten beyond it
    assert benchstats.tail(range(11)) == (0, 100.0 / 11, 11)


def test_latency_tail_takes_median_of_chunk_tails():
    calm = list(range(1, 1001))
    stalled = calm[:-20] + [10**6] * 20
    value, percentile, sizes = benchstats.latency_tail(calm + stalled + calm)
    assert value == 990 and percentile == 99.0 and sizes == [1000] * 3


def test_latency_tail_pools_short_runs():
    value, percentile, sizes = benchstats.latency_tail(list(range(25)))
    assert sizes == [25] and value == 14 and percentile == 60.0


def test_chunked_median_weighs_speed_phases_by_duration():
    # 600 fast then 400 slow samples: the pooled median sits in the fast phase
    samples = [1.0] * 600 + [2.0] * 400
    assert benchstats.chunked_median(samples, benchstats.p50_chunks(1000)) == 1.4
    assert benchstats.chunked_median(samples, 5) == 1.4
    assert benchstats.p50_chunks(999) == 1  # short runs: pooled
    assert benchstats.chunked_median([3.0, 1.0, 2.0], 1) == 2.0
    assert benchstats.chunked_median([3.0, 1.0], 4) == 2.0  # one chunk per sample at most
    # set-up samples: groups of four, a short run is one group
    assert benchstats.setup_chunks(3) == 1 and benchstats.setup_chunks(17) == 4


# --- self time over nested spans ---------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1),  # children b and d cover 3 + 4
        ("b", 1.0, 4.0, 0),  # child c covers 1
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_skips_spans_cut_short():
    spans = [("a", 0.0, 5.0, -1), None, ("c", 1.0, 2.0, 0)]
    assert tracing.self_times(spans) == [4.0, 0.0, 1.0]


def test_tracer_records_parents_errors_and_self_time():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def inner(fail):
        if fail:
            raise ValueError("boom")
        return 1

    inner = tracer.wrap("m.inner", inner)

    def outer():
        inner(False)
        with pytest.raises(ValueError):
            inner(True)

    tracer.wrap("m.outer", outer)()
    spans = list(tracer.spans)
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    assert names == ["m.outer", "m.inner", "m.inner"] and parents == [-1, 0, 0]
    summary = tracer.take()
    # clock ticks: outer 0..5, inner 1..2 and 3..4
    assert summary["calls"] == {"m.outer": 1, "m.inner": 2}
    assert summary["self"] == {"m.outer": 3.0, "m.inner": 2.0}
    assert [s[4] for s in spans] == [None, None, "ValueError"]
    assert tracer.spans == []


def test_merge_adds_counts_and_keeps_maxima():
    a = tracing.empty_summary()
    a.update(calls={"x": 1}, self={"x": 0.5}, built=2, max_length=17)
    b = tracing.empty_summary()
    b.update(calls={"x": 2, "y": 1}, self={"x": 0.25}, built=1, max_length=65)
    merged = tracing.merge([a, b])
    assert merged["calls"] == {"x": 3, "y": 1} and merged["self"] == {"x": 0.75}
    assert merged["built"] == 3 and merged["max_length"] == 65


# --- failed_share counting -----------------------------------------------------


def test_outcome_counts_share_every_uncertified_outcome():
    outcomes = ([checks.CERTIFIED] * 6 + [checks.DEADLINE, checks.CERTIFICATE_FAILS,
                                          checks.INDETERMINATE, checks.WRONG])
    counts = benchstats.outcome_counts(outcomes)
    assert counts["attempted"] == 10 and counts["certified"] == 6
    assert counts["failed_share"] == 0.4 and counts["certified_share"] == 0.6
    assert counts["broken"] == 1  # only the wrong answer makes the run incorrect


def test_overhead_share_leaves_out_requests_not_certified_in_both():
    ok, late = checks.CERTIFIED, checks.DEADLINE
    timed = [(1.0, ok, 1.5, ok), (1.0, late, 1.0, late), (0.5, ok, 1.0, late), (3.0, ok, 3.5, ok)]
    assert benchstats.overhead_share(timed) == pytest.approx(0.25)
    assert benchstats.overhead_share([(1.0, late, 1.0, late)]) == 0.0


def _report(signs, mults, classification, index, radius=1e-12, lattice="X"):
    lines = [{"lambda": 4 * i, "multiplicity": m, "mu": 0.1 * s if s else 1e-13,
              "error_radius": radius, "sign": s} for i, (s, m) in enumerate(zip(signs, mults))]
    return {"lattice": lattice, "classification": classification, "morse_index": index,
            "lines": lines}


def test_spectrum_checks_catch_each_invariant():
    good = _report([-1, 1], [20, 15], "Saddle", 20)  # n = 8: 8*9/2 - 1 = 35
    assert checks.spectrum_problems(good, 8) == []
    assert checks.spectrum_outcome(good, 8) == (checks.CERTIFIED, [])
    assert checks.spectrum_problems(_report([-1, 1], [20, 14], "Saddle", 20), 8)
    assert checks.spectrum_problems(_report([-1, 1], [20, 15], "Saddle", 15), 8)
    assert checks.spectrum_problems(_report([-1, 1], [20, 15], "Saddle", 20, radius=1e-9), 8)
    unbacked = _report([-1, 1], [20, 15], "Saddle", 20)
    unbacked["lines"][0]["error_radius"] = 1e-10
    unbacked["lines"][0]["mu"] = -5e-11
    assert checks.spectrum_problems(unbacked, 8)
    undecided = _report([0, 1], [20, 15], "Indeterminate", None)
    assert checks.spectrum_outcome(undecided, 8) == (checks.INDETERMINATE, [])


CATALOG = [("E8", 8, True), ("A1^8+A3^8", 32, False)]


def _cli(argv, kind, **extra):
    return dict({"argv": argv, "kind": kind}, **extra)


def test_cli_outcome_follows_the_exit_status_contract():
    cert_req = _cli(["analyze", "A1^8+A3^8"], "analyze", lattice="A1^8+A3^8", dim=32,
                    critical=False)
    failed = checks.cli_outcome(cert_req, 1, "", "certificate failed: ...\n", CATALOG)
    assert failed == (checks.CERTIFICATE_FAILS, [])
    crash = checks.cli_outcome(cert_req, 1, "", "Traceback (most recent call last):\nX\n", CATALOG)
    assert crash[0] == checks.ERROR
    usage = checks.cli_outcome(cert_req, 2, "", "error: bad\n", CATALOG)
    assert usage[0] == checks.ERROR

    req = _cli(["analyze", "E8"], "analyze", lattice="E8", dim=8, critical=True)
    report = _report([-1, 1], [20, 15], "Saddle", 20, lattice="E8")
    assert checks.cli_outcome(req, 0, json.dumps(report), "", CATALOG) == (checks.CERTIFIED, [])
    # a certified spectrum must exit 0
    assert checks.cli_outcome(req, 1, json.dumps(report), "", CATALOG)[0] == checks.WRONG
    undecided = _report([0, 1], [20, 15], "Indeterminate", None, lattice="E8")
    assert checks.cli_outcome(req, 1, json.dumps(undecided), "", CATALOG)[0] == checks.INDETERMINATE
    assert checks.cli_outcome(req, 0, "not json", "", CATALOG)[0] == checks.WRONG


def _from_rows(name, rows):
    # push each value into the interior of its truncation interval
    lines = [{"lambda": lam, "multiplicity": m, "mu": mu + math.copysign(5e-6, mu),
              "error_radius": 0.0,
              "sign": 1 if mu > 0 else -1} for lam, m, mu in rows]
    classification, index = checks.expected_class([line["sign"] for line in lines],
                                                  [m for _, m, _ in rows])
    return {"lattice": name, "classification": classification, "morse_index": index,
            "lines": lines}


def test_anchor_check_flags_a_changed_value():
    table = [_from_rows(name, rows) for name, rows in checks.TABLE_24.items()]
    dim16 = [_from_rows("D16+", [(8, 120, -0.06196), (56, 15, 0.36093)]),
             _from_rows("E8^2", [(0, 64, -0.13245), (24, 70, 0.07899), (120, 1, 0.92480)])]
    anchors = {
        "leech": _report([1], [299], "LocalMin", 0, lattice="Leech"),
        "dim32": {"rootless": _report([-1], [527], "LocalMax", 527, lattice="Rootless32"),
                  "moment_defect": {"lattice": "A1^8+A3^8", "alpha": 14.0, "root_term": 2.0,
                                    "remainder": 1.0, "margin": 1.0}},
    }
    assert checks.anchor_problems(table, dim16, **anchors) == []
    table[5]["lines"][0]["mu"] += 1e-3
    problems = checks.anchor_problems(table, dim16, **anchors)
    assert len(problems) == 1 and problems[0].startswith("table24 D4^6")


# --- request streams -----------------------------------------------------------


def test_request_streams_are_seeded_and_in_range():
    catalog = [("E8", 8, True), ("D16+", 16, True), ("E8^2", 16, True), ("Leech", 24, True)]
    a = workloads.stream_for("shallow_cold", 7, catalog, period=100)
    b = workloads.stream_for("shallow_cold", 7, catalog, period=100)
    c = workloads.stream_for("shallow_cold", 8, catalog, period=100)
    first = [a[i] for i in range(300)]
    other = [c[i] for i in range(300)]
    assert first == [b[i] for i in range(300)] and first != other
    lo, hi = workloads.SHALLOW_RANGE
    assert all(lo <= alpha < hi for _, alpha in first)
    # each of the three dimensions gets a third of the requests
    dims = {"E8": 8, "D16+": 16, "E8^2": 16, "Leech": 24}
    assert sorted(sum(dims[name] == d for name, _ in first) for d in (8, 16, 24)) == [100] * 3
    # a full period holds the same cells for every seed, in another order:
    # half of each dimension's requests lie in the lower half of the log range
    assert sorted(first) == sorted(other)
    lower = [name for name, alpha in first if alpha < math.sqrt(lo * hi)]
    assert sorted(sum(dims[name] == d for name in lower) for d in (8, 16, 24)) == [50] * 3


def test_cli_mix_is_seeded():
    catalog = [("E8", 8, True), ("A1^8+A3^8", 32, False)]
    a = workloads.cli_requests(3, catalog, 21)
    assert a == workloads.cli_requests(3, catalog, 21)
    kinds = [r["kind"] for r in a]
    assert all(kinds.count(kind) == 3 for kind in workloads.CLI_SLOTS)
    assert [i for i, r in enumerate(a) if r["first"]] == [0, 7, 14]
    assert all(r["critical"] for r in a if r["kind"] == "sweep")


def test_printed_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == benchstats.END_TO_END_UNITS
    assert layers == benchstats.LAYER_UNITS
    summary = tracing.empty_summary()
    assert set(benchstats.layer_metrics(summary, summary, 1, 1, [])) == set(layers)
