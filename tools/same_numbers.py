"""Every number latmorse prints, for one source tree or compared across two.

    python3 tools/same_numbers.py TREE
    python3 tools/same_numbers.py OLD NEW

imports ``latmorse`` from TREE/src and walks one record per:

* every catalog entry at 32 log-spaced alpha in [pi, 4pi], 31 in [0.5, pi)
  and at 14, 0.1, 0.05, 0.03, 200 and 400, each at tol 1e-8, 1e-10, 1e-12
  and 1e-14: the full spectrum report of a critical entry (every mu, radius,
  term count, side, class, Morse index and margin) and the certificate of a
  non-critical one (root term, remainder, exact terms, constants), or the
  exception class with the first word of its message;
* the alpha = 14 certificate of A1^8+A3^8 along diag(24^8, -8^24);
* ``isotropic_hessian_series`` of Rootless32 through m = 8 and 16, and
  ``spectrum_partial`` of every critical entry, at alpha 0.7, pi and 5;
* stdout, stderr and exit status of the README's CLI commands;
* the exact constants ``bernoulli(k)`` for k = 0..60 and
  ``eisenstein_first_coeff(k)`` for k = 4, 6, ..., 16;
* the terms of the certified coefficient bounds, compared exactly:
  ``eisenstein_coeff_bound(n)`` for n = 8, 16, 24 and 32, every catalog
  entry's ``coeff_bound()`` and ``cusp_coeff_bound(k, (1,))`` for k = 12, 16,
  18 and 20.  A radius that shrinks is never flagged, and at alpha' >= pi
  the tail part is at most 1e-9 of a radius, so only these records catch a
  smaller, wrong bound;
* every catalog entry's ``series_floats`` theta and cusp rows at lengths
  9, 17, 64 and 129;
* the oracles' numbers: ``numeric_spectrum`` of every catalog root system of
  full rank, ``design_check(frame_roots, 4).passed`` for A3, A5, D4, E6, E7
  and E8, and along criterion 06's direction of D16+ its ``quartic_form``
  and ``hessian_direct`` through m = 2 at alpha = pi, and the
  ``deformation_check`` ratio of 2 I_2 along diag(1, -1) at alpha = 1.

With one tree it prints one SHA-256 over the records: two trees that print
the same hash print the same numbers.  With two it walks the records of each
in its own subprocess (``--records TREE`` prints them one per line), prints
every record of NEW that differs from OLD beyond rounding, and exits 1 if
there is one.  Beyond rounding means:

* a change in any discrete field: term count, side, class, Morse index,
  sign, lambda, multiplicity, exception class or first word, exact terms,
  certificate constant names, CLI exit status, the first word of stderr, or
  the text of stdout around its numbers;
* any change in an exact constant, a bound's terms or a float coefficient row;
* any change in an oracle's multiplicity or pass flag;
* a mu or isotropic partial sum outside the old one's interval (value plus
  or minus radius, or tail);
* a radius, isotropic tail or certificate remainder that grows, or a root
  term that falls, by more than 1e-15 relative;
* a float with no radius of its own (a ``spectrum_partial`` value, a
  certificate constant, an oracle's number, a number in CLI stdout) that
  moves by more than 1e-9 relative: ``spectrum_partial(E8, 0.7, 24, 16)``
  moves 2.2e-12 under a change of summation order, through cancellation.

A spectrum's margin is not compared: it follows from its lines.  Takes a
few seconds per tree; it is a tool, not a test, and pytest does not collect
it.
"""
from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import math
import re
import subprocess
import sys
from pathlib import Path

ALPHAS = (
    [math.pi * 4.0 ** (i / 31) for i in range(32)]
    + [0.5 * (math.pi / 0.5) ** (i / 31) for i in range(31)]
    + [14.0, 0.1, 0.05, 0.03, 200.0, 400.0]
)
TOLS = (1e-8, 1e-10, 1e-12, 1e-14)
SIDE_ALPHAS = (0.7, math.pi, 5.0)
ROW_LENGTHS = (9, 17, 64, 129)
TIGHT = 1e-15  # relative slack of a radius, tail, remainder or root term
LOOSE = 1e-9  # relative slack of a float with no radius of its own
NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")

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

    from latmorse import cli, enumlat, latcat, modforms, morse, rootsys, symspace

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

    for k in range(61):
        yield ("constant", "bernoulli", k, str(modforms.bernoulli(k)))
    for k in range(4, 17, 2):
        yield ("constant", "eisenstein_first_coeff", k, str(modforms.eisenstein_first_coeff(k)))
    for n in (8, 16, 24, 32):
        terms = modforms.eisenstein_coeff_bound(n).terms
        yield ("constant", "eisenstein_coeff_bound", n, repr(terms))
    for entry in entries:
        yield ("constant", "coeff_bound", entry.name, repr(entry.coeff_bound().terms))
    for k in (12, 16, 18, 20):
        yield ("constant", "cusp_coeff_bound", k, repr(modforms.cusp_coeff_bound(k, (1,)).terms))
    for entry in entries:
        for length in ROW_LENGTHS:
            rows = tuple(tuple(row.tolist()) for row in entry.series_floats(length))
            yield ("rows", entry.name, length, rows)

    # oracle numbers: floats as repr strings, multiplicities and flags as they are
    for entry in entries:
        if entry.root_count and entry.root_system.total_rank == entry.dimension:
            spectrum = _attempt(lambda s: tuple(x for value, mult in s.entries
                                                for x in (repr(value), mult)),
                                symspace.numeric_spectrum, entry.root_system)
            yield ("oracle", "numeric_spectrum", entry.name, spectrum)
    for kind, rank in (("A", 3), ("A", 5), ("D", 4), ("E", 6), ("E", 7), ("E", 8)):
        roots = rootsys.make_irreducible(kind, rank).frame_roots
        passed = _attempt(lambda c: (c.passed,), symspace.design_check, roots, 4)
        yield ("oracle", "design_check", f"{kind}{rank}", passed)
    d16 = latcat.get("D16+")
    h = np.diag([15.0] + [-1.0] * 15)
    h /= np.sqrt(np.trace(h @ h))
    value = _attempt(lambda q: (repr(q),), symspace.quartic_form, d16.root_system, h)
    yield ("oracle", "quartic_form", d16.name, value)
    value = _attempt(lambda v: (repr(v),), enumlat.hessian_direct,
                     d16.gram, math.pi, h, 2, d16.basis)
    yield ("oracle", "hessian_direct", d16.name, value)
    check = _attempt(lambda c: (repr(c.measured_ratio),), morse.deformation_check,
                     2 * np.eye(2, dtype=np.int64), 1.0, np.diag([1.0, -1.0]))
    yield ("oracle", "deformation_check", "2 I_2", check)


def _raised(result) -> bool:
    return isinstance(result, tuple) and result[:1] == ("raises",)


def _outside(value, radius, new_value) -> bool:
    return not abs(float(new_value) - float(value)) <= float(radius)


def _grew(old, new) -> bool:
    return not float(new) <= float(old) * (1.0 + TIGHT)


def _moved(old, new) -> bool:
    old, new = float(old), float(new)
    return repr(old) != repr(new) and not abs(new - old) <= LOOSE * abs(old)


def _spectrum_drift(old, new) -> str:
    if old[:4] != new[:4] or len(old[5]) != len(new[5]):
        return "terms, side, class or Morse index"
    for (*key, mu, radius, sign), (*new_key, new_mu, new_radius, new_sign) in zip(old[5], new[5]):
        if (key, sign) != (new_key, new_sign):
            return "lambda, multiplicity or sign"
        if _outside(mu, radius, new_mu):
            return f"mu(lambda={key[0]}) outside the old interval"
        if _grew(radius, new_radius):
            return f"radius(lambda={key[0]}) grew"
    return ""


def _certificate_drift(old, new) -> str:
    (root, remainder, exact, constants) = old
    (new_root, new_remainder, new_exact, new_constants) = new
    if exact != new_exact or [k for k, _ in constants] != [k for k, _ in new_constants]:
        return "exact terms or constant names"
    if not float(new_root) >= float(root) * (1.0 - TIGHT):
        return "root term fell"
    if _grew(remainder, new_remainder):
        return "remainder grew"
    moved = [k for (k, v), (_, w) in zip(constants, new_constants) if _moved(v, w)]
    return f"constants moved: {', '.join(moved)}" if moved else ""


def _cli_drift(old, new) -> str:
    (code, out, err), (new_code, new_out, new_err) = old, new
    if code != new_code or err.split()[:1] != new_err.split()[:1]:
        return "exit status or first word of stderr"
    parts, new_parts = NUMBER.split(out), NUMBER.split(new_out)
    if len(parts) != len(new_parts) or parts[::2] != new_parts[::2]:
        return "stdout text"
    moved = [v for v, w in zip(parts[1::2], new_parts[1::2]) if _moved(v, w)]
    return f"{len(moved)} stdout numbers moved, the first {moved[0]}" if moved else ""


def drift(old: tuple, new: tuple) -> str:
    """Why record ``new`` differs from ``old`` beyond rounding, or ""."""
    kind = old[0]
    cut = 2 if kind == "cli" else -1
    if old[:cut] != new[:cut]:
        return "different record"
    result, new_result = old[cut:], new[cut:]
    if kind != "cli":
        (result,), (new_result,) = result, new_result
    if _raised(result) or _raised(new_result):
        return "" if result == new_result else "outcome"
    if kind == "spectrum":
        return _spectrum_drift(result, new_result)
    if kind in ("certificate", "criterion 07"):
        return _certificate_drift(result, new_result)
    if kind == "isotropic":
        (partial, tail), (new_partial, new_tail) = map(ast.literal_eval, (result, new_result))
        if _outside(partial, tail, new_partial):
            return "partial outside the old interval"
        return "tail grew" if _grew(tail, new_tail) else ""
    if kind == "partial":
        return "partial moved" if _moved(result, new_result) else ""
    if kind in ("constant", "rows"):
        return "" if result == new_result else "value"
    if kind == "oracle":
        if len(result) != len(new_result) or any(
                not isinstance(a, str) and a != b for a, b in zip(result, new_result)):
            return "multiplicity or pass flag"
        return "value moved" if any(_moved(a, b) for a, b in zip(result, new_result)
                                    if isinstance(a, str)) else ""
    return _cli_drift(result, new_result)


def _import_from(tree: str) -> None:
    """Import latmorse from TREE/src, or exit 2."""
    src = Path(tree).resolve() / "src"
    sys.path.insert(0, str(src))
    import latmorse

    if Path(latmorse.__file__).resolve().parent.parent != src:
        print(f"latmorse imported from {latmorse.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def _walk(tree: str) -> list[tuple]:
    """The records of TREE, walked in a subprocess of their own, or exit 2."""
    run = subprocess.run([sys.executable, __file__, "--records", tree],
                         capture_output=True, text=True)
    if run.returncode:
        print(f"--records {tree} failed:\n{run.stderr}", file=sys.stderr)
        sys.exit(2)
    return [ast.literal_eval(line) for line in run.stdout.splitlines()]


def compare(old_tree: str, new_tree: str) -> int:
    """Print every record of NEW that differs from OLD beyond rounding; 1 if any."""
    old, new = _walk(old_tree), _walk(new_tree)
    if len(old) != len(new):
        print(f"{len(old)} records in {old_tree}, {len(new)} in {new_tree}")
        return 1
    flagged = 0
    for a, b in zip(old, new):
        why = drift(a, b)
        if why:
            flagged += 1
            print(f"{why}:\n  old {a!r}\n  new {b!r}")
    print(f"{flagged} of {len(old)} records differ beyond rounding")
    return 1 if flagged else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2 and args[0] != "--records":
        return compare(*args)
    if len(args) not in (1, 2):
        print("usage: same_numbers.py TREE | OLD NEW", file=sys.stderr)
        return 2
    _import_from(args[-1])
    if args[0] == "--records":
        for record in records():
            print(repr(record))
        return 0
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
