"""One fresh worker process of an in-process workload.

Usage: python3 perfbench/worker.py '<job JSON>' with src/ on PYTHONPATH.

The worker imports latmorse, builds the catalog (and, for steep_warm, runs
the untimed warm-up pass), then prints a ready line, which marks the end of
set-up for the parent.  Unless the job is set-up only it then serves requests
from the seeded stream in a closed loop with one client until its window
ends or it has served ``count`` requests, checks every answer outside the
timed call, runs the alpha = pi anchors and prints one result line.
"""

from __future__ import annotations

import json
import math
import resource
import signal
import sys
import time

import checks
import workloads


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM when a request outlives its deadline.

    A BaseException, so that no ``except Exception`` on the way up can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def _certificate_dict(cert) -> dict:
    return {"lattice": cert.lattice, "alpha": cert.alpha, "root_term": cert.root_term,
            "remainder": cert.remainder, "margin": cert.margin}


def _anchors(latcat, morse) -> list[str]:
    def spectrum(name):
        return morse.hessian_spectrum(latcat.get(name), math.pi).to_json_dict()

    return checks.anchor_problems(
        table24=[spectrum(name) for name in checks.TABLE_24],
        dim16=[spectrum("D16+"), spectrum("E8^2")],
        leech=spectrum("Leech"),
        dim32={"rootless": spectrum("Rootless32"),
               "moment_defect": _certificate_dict(
                   morse.noncritical_certificate(latcat.get("A1^8+A3^8"), 14.0))},
    )


def main() -> int:
    job = json.loads(sys.argv[1])
    import numpy
    from latmorse import latcat, morse

    tracer = None
    if job.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    entries = {e.name: e for e in latcat.list_catalog()}
    critical = {name: morse.criticality(e).is_critical for name, e in entries.items()}
    catalog = [(name, e.dimension, critical[name]) for name, e in entries.items()]

    def serve(name, alpha):
        if critical[name]:
            return morse.hessian_spectrum(entries[name], alpha)
        return morse.noncritical_certificate(entries[name], alpha)

    if job["workload"] == "steep_warm":
        for name in entries:
            for alpha in workloads.STEEP_RANGE:
                try:
                    serve(name, alpha)
                except morse.CertificateFails:
                    pass
    print(json.dumps({"numpy": numpy.__version__, "catalog": catalog}), flush=True)
    if job.get("setup_only"):
        return 0
    setup = tracer.take() if tracer else None

    stream = workloads.stream_for(job["workload"], job["seed"], catalog, job["period"])
    deadline = job.get("deadline", 0.0)
    if deadline:
        signal.signal(signal.SIGALRM, _on_alarm)
    limit = job.get("count")
    latencies, outcomes, problems = [], [], []
    i = job["start"]
    clock = time.perf_counter
    end = clock() + job["seconds"]
    while clock() < end and (limit is None or len(outcomes) < limit):
        name, alpha = stream[i]
        i += 1
        if tracer:
            tracer.reset_stack()
        result, outcome, found = None, None, []
        t0 = clock()
        try:
            if deadline:
                signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                result = serve(name, alpha)
            finally:
                if deadline:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            outcome = checks.DEADLINE
        except morse.ToleranceUnreachable:
            outcome = checks.TOLERANCE_UNREACHABLE
        except morse.CertificateFails:
            outcome = checks.CERTIFICATE_FAILS
        except Exception as exc:  # a crash is an outcome to count, not a reason to stop
            outcome, found = checks.ERROR, [f"{name} at {alpha!r}: {exc!r}"]
        latencies.append(clock() - t0)
        if outcome is None:
            if critical[name]:
                outcome, found = checks.spectrum_outcome(result.to_json_dict(),
                                                         entries[name].dimension)
            else:
                found = checks.certificate_problems(_certificate_dict(result))
                outcome = checks.WRONG if found else checks.CERTIFIED
        if outcome in checks.BROKEN:
            problems += found
        outcomes.append(outcome)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    window = tracer.take() if tracer else None
    print(json.dumps({
        "latencies": latencies,
        "outcomes": outcomes,
        "rss_kb": rss_kb,
        "problems": problems[:20] + _anchors(latcat, morse),
        "setup": setup,
        "window": window,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
