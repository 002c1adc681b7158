"""Statistics of a benchmark run: percentiles, outcome shares, layer metrics."""

from __future__ import annotations

import statistics
from collections import Counter

import checks
import tracing

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
TAIL_CHUNK = 1000  # consecutive samples per tail estimate on long runs
P50_CHUNKS = 10  # consecutive chunks of a long run whose medians latency_p50 averages
P50_CHUNK_MIN = 100  # samples per chunk below which a run is one chunk
SETUP_GROUP = 4  # consecutive set-up samples per median that setup_s averages


def p50_chunks(n: int) -> int:
    """Chunks for chunked_median on a run of n samples without natural chunks."""
    return P50_CHUNKS if n >= P50_CHUNKS * P50_CHUNK_MIN else 1


def setup_chunks(n: int) -> int:
    """Chunks for chunked_median on n set-up samples: groups of SETUP_GROUP."""
    return max(1, n // SETUP_GROUP)


def chunked_median(samples, chunks: int) -> float:
    """Median of a run's samples: the mean of the medians of ``chunks``
    consecutive chunks of ``samples``, which are in the order they were taken.

    The shared host runs in speed phases that differ by up to a factor of
    two and last from seconds to minutes.  The median of the pooled samples
    jumps from one phase's speed to the other's when a run's share of fast
    phases crosses one half; the mean of the chunk medians moves in
    proportion to that share.  With one chunk it is the pooled median; there
    are never more chunks than samples.
    """
    n = len(samples)
    chunks = min(chunks, n)
    return statistics.fmean(
        statistics.median(samples[i * n // chunks:(i + 1) * n // chunks])
        for i in range(chunks))


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with >= 10 samples beyond it.

    The sample at sorted index n - 11 has exactly ten samples above it, so it
    sits at percentile 100 (n - 10) / n.  With fewer than 11 samples no such
    percentile exists and the maximum is returned at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def latency_tail(samples) -> tuple[float, float, list[int]]:
    """Tail of a run's latencies in time order: (value, percentile, sample counts).

    When the run holds at least two chunks of TAIL_CHUNK samples, the tail is
    taken in each chunk of TAIL_CHUNK consecutive samples and the median over
    chunks is reported, so that a stall of the shared host that hits a few
    chunks does not set the figure.  Otherwise the samples are pooled.
    """
    n = len(samples)
    if n < 2 * TAIL_CHUNK:
        value, percentile, n = tail(samples)
        return value, percentile, [n]
    tails = [tail(samples[i:i + TAIL_CHUNK]) for i in range(0, n - TAIL_CHUNK + 1, TAIL_CHUNK)]
    return statistics.median(t[0] for t in tails), tails[0][1], [t[2] for t in tails]


def outcome_counts(outcomes) -> dict:
    """Counts behind the share metrics.

    ``certified_share`` is certified / attempted; ``failed_share`` counts every
    other outcome (uncertified, past the deadline, nonzero exit, wrong), so the
    two add up to one.  ``broken`` counts only wrong or crashed requests: those
    make the run incorrect.
    """
    counts = Counter(outcomes)
    attempted = len(outcomes)
    certified = counts[checks.CERTIFIED]
    return {
        "attempted": attempted,
        "certified": certified,
        "certified_share": certified / attempted if attempted else 0.0,
        "failed_share": (attempted - certified) / attempted if attempted else 0.0,
        "broken": sum(counts[c] for c in checks.BROKEN),
        "by_outcome": dict(counts),
    }


def overhead_share(timed) -> float:
    """Traced over untraced time, minus one, on requests certified in both runs.

    ``timed`` holds (untraced seconds, outcome, traced seconds, outcome) per
    request.  Requests that either run did not certify are left out, so that
    deadline waits, which last as long traced as untraced, do not dilute it.
    """
    both = [(plain, traced) for plain, plain_outcome, traced, traced_outcome in timed
            if plain_outcome == traced_outcome == checks.CERTIFIED]
    plain_s = sum(plain for plain, _ in both)
    return sum(traced for _, traced in both) / plain_s - 1.0 if plain_s else 0.0


def _self(summary: dict, names) -> float:
    return sum(v for k, v in summary["self"].items() if k in names)


def layer_metrics(setup: dict, window: dict, requests: int, processes: int,
                  outcomes, cli_walls=(), overhead_share: float = 0.0) -> dict:
    """Per-layer metrics of a traced run.

    ``setup`` and ``window`` are merged span summaries of process set-up and of
    the timed requests; ``processes`` is the number of traced processes, whose
    set-up the ``*_build_s``/``parse`` figures divide.  Seconds named ``*_s``
    are per request; ``*_calls``, ``*_rounds``, ``*_total`` and the failure
    counters are totals over the ``bench.requests`` traced requests.
    ``cli_walls`` are the wall times of traced CLI processes.
    """
    both = tracing.merge([setup, window])
    per_request = 1.0 / requests if requests else 0.0
    per_process = 1.0 / processes if processes else 0.0
    calls = window["calls"]
    rootsys_names = {k for k in both["self"] if k.startswith("rootsys.")}
    enumlat_names = {k for k in window["self"] if k.startswith("enumlat.")}
    counts = Counter(outcomes)
    main_s = window["total"].get("cli.main", 0.0)
    return {
        "latcat.catalog_build_s": both["total"].get("latcat._catalog", 0.0) * per_process,
        "rootsys.parse_self_s": _self(both, rootsys_names) * per_process,
        "modforms.qseries_self_s": _self(window, tracing.QSERIES) * per_request,
        "modforms.qseries_calls": window["built"],
        "modforms.qseries_max_length": both["max_length"],
        "modforms.coeffs_used_ratio": (both["kernel_max_terms"] / both["max_length"]
                                       if both["max_length"] else 0.0),
        "modforms.bounds_self_s": _self(window, tracing.BOUNDS) * per_request,
        "modforms.tail_bound_calls": calls.get("modforms.tail_bound", 0),
        "modforms.zeta_upper_self_s": _self(window, {"modforms.zeta_upper"}) * per_request,
        "morse.criticality_self_s": _self(window, {"morse.criticality"}) * per_request,
        "morse.criticality_calls": calls.get("morse.criticality", 0),
        "symspace.closed_spectrum_self_s": _self(window, {"symspace.closed_spectrum"}) * per_request,
        "symspace.closed_spectrum_calls": calls.get("symspace.closed_spectrum", 0),
        "morse.kernel_self_s": _self(window, {tracing.KERNEL}) * per_request,
        "morse.kernel_rounds": window["kernel_rounds"],
        "morse.series_terms_total": window["kernel_terms"],
        "morse.useful_rounds_ratio": (calls.get(tracing.KERNEL, 0) / window["kernel_rounds"]
                                      if window["kernel_rounds"] else 0.0),
        "morse.tolerance_unreachable": counts[checks.TOLERANCE_UNREACHABLE],
        "morse.indeterminate": counts[checks.INDETERMINATE],
        "morse.certificate_fails": counts[checks.CERTIFICATE_FAILS],
        "bench.deadline_exceeded": counts[checks.DEADLINE],
        "symspace.numeric_spectrum_self_s": _self(window, {"symspace.numeric_spectrum"}) * per_request,
        "enumlat.self_s": _self(window, enumlat_names) * per_request,
        "cli.main_s": main_s * per_request,
        "cli.startup_s": max(0.0, sum(cli_walls) - main_s) * per_request if cli_walls else 0.0,
        "trace.overhead_share": overhead_share,
        "bench.requests": requests,
    }


# unit of each per-layer metric, in the order printed
LAYER_UNITS = {
    "latcat.catalog_build_s": "s", "rootsys.parse_self_s": "s",
    "modforms.qseries_self_s": "s", "modforms.qseries_calls": "count",
    "modforms.qseries_max_length": "count", "modforms.coeffs_used_ratio": "ratio",
    "modforms.bounds_self_s": "s", "modforms.tail_bound_calls": "count",
    "modforms.zeta_upper_self_s": "s",
    "morse.criticality_self_s": "s", "morse.criticality_calls": "count",
    "symspace.closed_spectrum_self_s": "s", "symspace.closed_spectrum_calls": "count",
    "morse.kernel_self_s": "s", "morse.kernel_rounds": "count",
    "morse.series_terms_total": "count", "morse.useful_rounds_ratio": "ratio",
    "morse.tolerance_unreachable": "count", "morse.indeterminate": "count",
    "morse.certificate_fails": "count", "bench.deadline_exceeded": "count",
    "symspace.numeric_spectrum_self_s": "s", "enumlat.self_s": "s",
    "cli.main_s": "s", "cli.startup_s": "s",
    "trace.overhead_share": "ratio", "bench.requests": "count",
}

END_TO_END_UNITS = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "certified_per_s": "1/s", "certified_share": "share", "peak_rss_mb": "MB",
}
