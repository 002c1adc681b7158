"""latmorse benchmark: one workload, one seed, one result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload steep_warm --seed 1 --seconds 25 --trace 0

Workloads (see README.md in this directory for why each exists):

* steep_warm    in-process, warm: the 29 catalog lattices at alpha in [pi, 4pi]
* shallow_cold  in-process, fresh workers: alpha in [0.5, pi), 1 s deadline
* cli_cold      one ``python -m latmorse.cli`` process per request

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Every run checks every answer and the
alpha = pi anchors; the last stdout line is the JSON result, and the exit
status is 0 only when every output was correct.  All processes run one at a
time from this one: one client, closed loop.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import benchstats
import checks
import tracecli
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("steep_warm", "shallow_cold", "cli_cold")

# Every fresh worker session gives one set-up sample.  steep_warm splits the
# window over STEEP_SESSIONS time-boxed sessions.  shallow_cold serves fixed
# blocks of one request per dimension, one fresh worker per block.  The four
# requests of a block share an alpha cell and run in the order 8, 16, 24, 32,
# so the later ones reuse the E4, E6 and Delta series that the earlier ones
# built (README.md says which dimension times which build); every block
# starts from the state set-up leaves.  The number of blocks follows from
# --seconds (a block takes about SHALLOW_BLOCK_S at the parent commit, where
# deadlines dominate), so a seed always sends the same requests and the
# outcome shares repeat exactly.  cli_cold starts one group of set-up-only
# workers before each cycle of its mix, spread over the run so that they meet
# different phases of the host's speed; the window is extended by their time.
# Set-up times fall in two clusters, one per phase, so setup_s averages the
# medians of groups of samples (benchstats.chunked_median).
STEEP_SESSIONS = 6
SHALLOW_BLOCK = 4
SHALLOW_BLOCK_S = 1.75
CLI_SETUPS_PER_CYCLE = benchstats.SETUP_GROUP
TRACE_PAIRS = 3  # untraced/traced session pairs of a traced steep_warm run

# Per-request deadlines.  Requests that cannot be certified walk the doubling
# loop to 4096 series terms, which builds exact q-series for minutes (Leech at
# alpha 0.1 to 0.5 takes 79 s to 293 s); certified requests finish within
# 0.1 s in-process and 1.1 s as a CLI process.  Each deadline sits about a decade from both, so a request
# past it is a failure that would have taken minutes, never a slow success.
SHALLOW_DEADLINE_S = 1.0
CLI_TIMEOUT_S = 10.0

# BLAS thread settings given to every child, so that numpy's thread pools
# do not compete with the single client for the machine's cores
CHILD_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# a run must end within 180 s: children get at most this long past the window
HARD_SLACK_S = 140.0


class BenchError(RuntimeError):
    pass


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall: float
    first_line: float | None
    maxrss_kb: int
    timed_out: bool


def run_child(cmd, env, timeout: float) -> Child:
    """Run cmd to completion, reading both pipes; kill it past ``timeout``.

    ``wall`` runs from spawn to reaping, ``first_line`` from spawn to the
    first complete stdout line, and ``maxrss_kb`` is the child's own peak.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            stdin=subprocess.DEVNULL)
    out, err = bytearray(), bytearray()
    first_line = None
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, out)
        sel.register(proc.stderr, selectors.EVENT_READ, err)
        while sel.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    sel.unregister(key.fileobj)
                    continue
                key.data.extend(chunk)
                if first_line is None and key.data is out and b"\n" in chunk:
                    first_line = time.perf_counter() - start
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, out.decode(errors="replace"), err.decode(errors="replace"),
                 wall, first_line, usage.ru_maxrss, timed_out)


class Run:
    def __init__(self, root: str, args):
        self.root = root
        self.args = args
        self.hard_end = time.perf_counter() + args.seconds + HARD_SLACK_S
        src = os.path.join(root, "src")
        self.env = dict(os.environ, **CHILD_THREADS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.numpy = None
        self.catalog = None

    def child(self, cmd, timeout: float) -> Child:
        remaining = self.hard_end - time.perf_counter()
        if remaining <= 0:
            raise BenchError("run exceeded its time limit")
        return run_child(cmd, self.env, min(timeout, remaining))

    def session(self, job: dict) -> tuple[float, dict | None]:
        """One fresh worker: (set-up seconds, result or None for set-up only)."""
        job = dict(job, workload=self.args.workload, seed=self.args.seed)
        budget = job.get("seconds", 0.0) * 4 + 60.0
        child = self.child([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
                           budget)
        lines = child.out.splitlines()
        if child.code != 0 or child.timed_out or len(lines) < (1 if job.get("setup_only") else 2):
            raise BenchError(f"worker failed (exit {child.code}, timed out {child.timed_out}):\n"
                             + child.err[-2000:])
        ready = json.loads(lines[0])
        self.numpy, self.catalog = ready["numpy"], [tuple(row) for row in ready["catalog"]]
        return child.first_line, (None if job.get("setup_only") else json.loads(lines[1]))


def provenance(root: str, args, env: dict, numpy_version, load) -> dict:
    commit = None
    # the ceiling keeps git from taking the commit of an enclosing repository
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.realpath(root)))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=git_env,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "latmorse")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": list(load),
        "worker_blas_env": {k: env.get(k) for k in CHILD_THREADS},
    }


def _new_report() -> dict:
    """What a run collects: set-up samples, certified latencies in time order,
    every outcome, service seconds, per-process peak RSS, wrong outputs, and
    the cycles of the cli_cold mix served."""
    return {"setups": [], "certified": [], "outcomes": [], "service_s": 0.0,
            "rss_kb": [], "problems": [], "cycles": 0}


def _in_process(run: Run) -> dict:
    args = run.args
    shallow = args.workload == "shallow_cold"
    deadline = SHALLOW_DEADLINE_S if shallow else 0.0
    report = _new_report()
    pairs = max(1, round(args.seconds / (2 * SHALLOW_BLOCK_S))) if shallow else TRACE_PAIRS
    if shallow:
        sessions = pairs if args.trace else max(1, round(args.seconds / SHALLOW_BLOCK_S))
        # one period per run: each block takes one request per dimension
        job = {"count": SHALLOW_BLOCK, "seconds": SHALLOW_BLOCK * (deadline + 1.0),
               "period": sessions}
    else:
        sessions = STEEP_SESSIONS
        job = {"seconds": args.seconds / (3 * pairs if args.trace else sessions),
               "period": workloads.STEEP_PERIOD}
    start = 0
    if not args.trace:
        for _ in range(sessions):
            setup, result = run.session(dict(job, start=start, deadline=deadline))
            _absorb(report, setup, result)
            start += len(result["outcomes"])
        return report
    # each pair serves the same requests untraced, then traced; the traced
    # worker gets up to three times as long
    setups, windows, timed = [], [], []
    for _ in range(pairs):
        _, plain = run.session(dict(job, start=start, deadline=deadline))
        count = len(plain["outcomes"])
        setup, traced = run.session(dict(job, start=start, seconds=3 * job["seconds"],
                                         count=count, deadline=deadline, trace=True))
        _absorb(report, setup, traced)
        report["problems"] += plain["problems"]
        timed += zip(plain["latencies"], plain["outcomes"],
                     traced["latencies"], traced["outcomes"])
        setups.append(traced["setup"])
        windows.append(traced["window"])
        start += count
    report["layers"] = benchstats.layer_metrics(
        tracing.merge(setups), tracing.merge(windows),
        requests=len(report["outcomes"]), processes=pairs, outcomes=report["outcomes"],
        overhead_share=benchstats.overhead_share(timed))
    return report


def _absorb(report: dict, setup: float, result: dict) -> None:
    report["setups"].append(setup)
    report["certified"] += [t for t, o in zip(result["latencies"], result["outcomes"])
                            if o == checks.CERTIFIED]
    report["outcomes"] += result["outcomes"]
    report["service_s"] += sum(result["latencies"])
    report["rss_kb"].append(result["rss_kb"])
    report["problems"] += result["problems"]


def _cli(run: Run) -> dict:
    args = run.args
    report = _new_report()
    batch = 1 if args.trace else CLI_SETUPS_PER_CYCLE

    def setups() -> float:
        start = time.perf_counter()
        for _ in range(batch):
            report["setups"].append(run.session({"setup_only": True})[0])
        return time.perf_counter() - start

    setups()  # the first batch also gives the catalog the mix is drawn from
    plain_cmd = [sys.executable, "-m", "latmorse.cli"]
    traced_cmd = [sys.executable, os.path.join(HERE, "tracecli.py")]
    window_end = time.perf_counter() + args.seconds
    windows, walls, timed = [], [], []
    # whole cycles of the mix only, so that every run holds the same mix
    for i, req in enumerate(workloads.cli_requests(args.seed, run.catalog, 10_000)):
        if req["first"] and i:
            if time.perf_counter() >= window_end:
                break
            if not args.trace:
                window_end += setups()
        report["cycles"] += req["first"]
        child = run.child(plain_cmd + req["argv"], CLI_TIMEOUT_S)
        outcome, found = _cli_outcome(req, child, run.catalog)
        report["problems"] += found
        report["outcomes"].append(outcome)
        report["service_s"] += child.wall
        report["rss_kb"].append(child.maxrss_kb)
        if outcome == checks.CERTIFIED:
            report["certified"].append(child.wall)
        if args.trace:
            traced = run.child(traced_cmd + req["argv"], CLI_TIMEOUT_S)
            head, marker, summary = traced.err.rpartition(tracecli.MARKER)
            if marker:
                windows.append(json.loads(summary))
                traced.err = head
            walls.append(traced.wall)
            traced_outcome, found = _cli_outcome(req, traced, run.catalog)
            report["problems"] += found
            timed.append((child.wall, outcome, traced.wall, traced_outcome))
    report["problems"] += _cli_anchors(run, plain_cmd)
    if args.trace:
        requests = len(report["outcomes"])
        report["layers"] = benchstats.layer_metrics(
            tracing.empty_summary(), tracing.merge(windows),
            requests=requests, processes=requests, outcomes=report["outcomes"],
            cli_walls=walls, overhead_share=benchstats.overhead_share(timed))
    return report


def _cli_outcome(req: dict, child: Child, catalog) -> tuple[str, list[str]]:
    if child.timed_out:
        return checks.DEADLINE, []
    return checks.cli_outcome(req, child.code, child.out, child.err, catalog)


def _cli_anchors(run: Run, cmd) -> list[str]:
    payloads = {}
    for key, argv in (("table24", ["table24"]), ("dim16", ["dim16"]),
                      ("leech", ["analyze", "Leech"]), ("dim32", ["dim32"])):
        child = run.child(cmd + argv + ["--format", "json"], CLI_TIMEOUT_S)
        try:
            payloads[key] = json.loads(child.out)
        except ValueError:
            payloads[key] = None
        if child.code != 0 or child.timed_out or payloads[key] is None:
            return [f"anchor {' '.join(argv)}: exit {child.code}, timed out {child.timed_out}"]
    return checks.anchor_problems(**payloads)


def end_to_end(report: dict) -> tuple[dict, list[str]]:
    counts = benchstats.outcome_counts(report["outcomes"])
    certified = report["certified"]
    if not certified:
        raise BenchError("no request was certified; latency is undefined")
    tail, percentile, sizes = benchstats.latency_tail(certified)
    # cli_cold chunks by cycle of its mix; the in-process workloads by count
    chunks = report["cycles"] or benchstats.p50_chunks(len(certified))
    setup_chunks = benchstats.setup_chunks(len(report["setups"]))
    values = {
        "setup_s": benchstats.chunked_median(report["setups"], setup_chunks),
        "latency_p50_ms": benchstats.chunked_median(certified, chunks) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "certified_per_s": counts["certified"] / report["service_s"],
        "certified_share": counts["certified_share"],
        "peak_rss_mb": statistics.median(report["rss_kb"]) / 1024.0,
    }
    tail_note = f"pooled over {sizes[0]} samples"
    if len(sizes) > 1:
        pooled, pooled_percentile, _ = benchstats.tail(certified)
        tail_note = (f"median of {len(sizes)} chunks of {sizes[0]} consecutive samples; "
                     f"the same rule pooled over all {len(certified)} gives "
                     f"p{pooled_percentile:.4g} = {pooled * 1e3:.4g} ms, printed only")
    notes = [
        (f"setup_s: mean of the medians of {setup_chunks} consecutive groups of "
         if setup_chunks > 1 else "setup_s: median of ")
        + f"{len(report['setups'])} fresh processes "
        f"({', '.join(f'{s:.3f}' for s in report['setups'])} s)",
        f"latency_p50_ms: over {len(certified)} certified requests"
        + (f", mean of the medians of {chunks} consecutive chunks" if chunks > 1 else ""),
        f"latency_tail_ms: p{percentile:.4g}, the highest percentile with >= 10 samples "
        f"beyond it, {tail_note}",
        f"certified_per_s: {counts['certified']} certified in {report['service_s']:.3f} s "
        f"of service",
        f"certified_share: {counts['certified']}/{counts['attempted']}; failed_share "
        f"{counts['failed_share']:.6f} by outcome {counts['by_outcome']}",
        f"peak_rss_mb: median ru_maxrss over {len(report['rss_kb'])} worker processes",
    ]
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "latmorse", "__init__.py")):
        print("perfbench: src/latmorse not found; run from the repository root",
              file=sys.stderr)
        return 2
    load = os.getloadavg()
    run = Run(root, args)
    report = (_cli if args.workload == "cli_cold" else _in_process)(run)

    print(f"perfbench {args.workload} seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("provenance " + json.dumps(provenance(root, args, run.env, run.numpy, load)))
    if args.trace:
        values, units = report["layers"], benchstats.LAYER_UNITS
        notes = ["*_s per request (set-up layers per process); counts are totals over "
                 f"{values['bench.requests']} traced requests"]
    else:
        values, notes = end_to_end(report)
        units = benchstats.END_TO_END_UNITS
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:.6g} {unit}")
    for note in notes:
        print(f"  - {note}")
    counts = benchstats.outcome_counts(report["outcomes"])
    for problem in report["problems"]:
        print(f"  WRONG: {problem}")
    correct = not report["problems"] and counts["broken"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["broken"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
