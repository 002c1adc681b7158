"""One SHA-256 over every number latmorse prints, for a source tree.

    python3 tools/same_numbers.py TREE

imports ``latmorse`` from TREE/src and hashes:

* every catalog entry at 32 log-spaced alpha in [pi, 4pi], 31 in [0.5, pi)
  and at 14, 0.1, 0.05, 0.03, 200 and 400, each at tol 1e-8, 1e-10, 1e-12
  and 1e-14: the full spectrum report of a critical entry (every mu, radius,
  term count, side, class, Morse index and margin) and the certificate of a
  non-critical one (root term, remainder, exact terms, constants), or the
  exception class with the first word of its message;
* the alpha = 14 certificate of A1^8+A3^8 along diag(24^8, -8^24);
* ``isotropic_hessian_series`` of Rootless32 through m = 8 and 16, and
  ``spectrum_partial`` of every critical entry, at alpha 0.7, pi and 5;
* stdout, stderr and exit status of the README's CLI commands.

Two trees that print the same hash print the same numbers.  Takes a few
seconds; it is a tool, not a test, and pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import sys
from pathlib import Path

ALPHAS = (
    [math.pi * 4.0 ** (i / 31) for i in range(32)]
    + [0.5 * (math.pi / 0.5) ** (i / 31) for i in range(31)]
    + [14.0, 0.1, 0.05, 0.03, 200.0, 400.0]
)
TOLS = (1e-8, 1e-10, 1e-12, 1e-14)
SIDE_ALPHAS = (0.7, math.pi, 5.0)

CLI_RUNS = (
    ["table24"], ["table24", "--format", "json"],
    ["dim16"], ["dim16", "--format", "json"],
    ["dim32"], ["dim32", "--format", "json"],
    ["analyze", "D16+"],
    ["analyze", "A1^8+A3^8"],
    ["analyze", "A1^8+A3^8", "--alpha", "0.2", "--format", "json"],
    ["analyze", "Leech", "--alpha", "0.5"],
    ["analyze", "Leech", "--alpha", "0.5", "--format", "json"],
    ["analyze", "A5^4+D4", "--dim", "24"],
    ["catalog"], ["catalog", "--format", "json"],
    ["selftest"],
    ["sweep", "Leech", "--start", "0.1", "--stop", "10", "--steps", "32"],
)


def _attempt(describe, fn, *args):
    """describe(fn(*args)), or the exception class and first word of its message."""
    try:
        return describe(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return ("raises", type(exc).__name__, re.match(r"[\w-]*", str(exc)).group(0))


def _report(report) -> tuple:
    lines = tuple((line.q_eigenvalue, line.multiplicity, repr(line.value),
                   repr(line.error_radius), line.sign) for line in report.lines)
    return (report.terms, report.side, report.classification, report.morse_index,
            repr(report.margin), lines)


def _certificate(cert) -> tuple:
    constants = tuple(sorted((k, repr(v)) for k, v in cert.constants.items()))
    return (repr(cert.root_term), repr(cert.remainder), cert.exact_terms, constants)


def records():
    """Yield one printable record per number hashed."""
    import numpy as np

    from latmorse import cli, latcat, morse

    entries = latcat.list_catalog()
    critical = [e for e in entries if morse.criticality(e).is_critical]
    for entry in entries:
        for alpha in ALPHAS:
            if entry in critical:
                for tol in TOLS:
                    report = _attempt(_report, morse.hessian_spectrum, entry, alpha, tol)
                    yield ("spectrum", entry.name, repr(alpha), tol, report)
            else:
                cert = _attempt(_certificate, morse.noncritical_certificate, entry, alpha)
                yield ("certificate", entry.name, repr(alpha), cert)

    direction = np.diag([24.0] * 8 + [-8.0] * 24)
    cert = _attempt(_certificate, morse.noncritical_certificate, latcat.get("A1^8+A3^8"),
                    14.0, direction)
    yield ("criterion 07", cert)

    rootless = latcat.get("Rootless32")
    for alpha in SIDE_ALPHAS:
        for m_terms in (8, 16):
            value = _attempt(repr, morse.isotropic_hessian_series, rootless, alpha, m_terms)
            yield ("isotropic", repr(alpha), m_terms, value)
        for entry in critical:
            for line in morse.hessian_spectrum(entry, math.pi).lines:
                lam = line.q_eigenvalue
                value = morse.spectrum_partial(entry, alpha, lam, 16)
                yield ("partial", entry.name, repr(alpha), lam, repr(value))

    for argv in CLI_RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        yield ("cli", tuple(argv), code, out.getvalue(), err.getvalue())


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: same_numbers.py TREE", file=sys.stderr)
        return 2
    src = Path(args[0]).resolve() / "src"
    sys.path.insert(0, str(src))
    import latmorse

    if Path(latmorse.__file__).resolve().parent.parent != src:
        print(f"latmorse imported from {latmorse.__file__}, not {src}", file=sys.stderr)
        return 2
    digest = hashlib.sha256()
    count = 0
    for record in records():
        digest.update(repr(record).encode())
        digest.update(b"\n")
        count += 1
    print(f"{digest.hexdigest()}  {count} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
