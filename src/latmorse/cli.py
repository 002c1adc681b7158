"""Command-line front end: tables, certificates, and sweep CSVs.

Exit status is 0 only when every sign decision requested was certified; an
Indeterminate classification, a failed certificate or an unreachable
tolerance exits 1, usage errors exit 2.  All floats are echoed at full
precision unless --paper-digits asks for truncated table values.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from . import latcat, modforms, morse, rootsys, symspace


def _positive_finite(name: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{name} must be a decimal, got {text!r}")
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"{name} must be positive and finite")
    return value


def parse_alpha(text: str) -> float:
    """Literal ``pi`` or a positive finite decimal."""
    if text.strip().lower() == "pi":
        return math.pi
    return _positive_finite("alpha", text)


def parse_tol(text: str) -> float:
    """A positive finite error target."""
    return _positive_finite("tol", text)


def _paper_digits(text: str) -> int:
    """argparse type for a decimal integer in [0, 1074]: every float's exact
    decimal expansion ends within 1074 places (2^-1074 is the smallest step)."""
    digits = text.strip()  # its length is checked before int() reads it
    if not (digits.isdecimal() and len(digits.lstrip("0")) <= 4 and int(digits) <= 1074):
        raise argparse.ArgumentTypeError(f"must be an integer from 0 to 1074, got {text!r}")
    return int(digits)


def _fmt(x: float, digits: int | None) -> str:
    if digits is None:
        return repr(float(x))
    value = morse.truncate_decimal(x, digits)
    return f"{value:.{digits}f}"


def _resolve_entry(args) -> latcat.LatticeEntry:
    """The catalog entry, or make_entry's off the catalog or at another --dim."""
    try:
        entry = latcat.get(args.lattice)
    except latcat.UnknownLattice:
        if args.dim is None:
            raise
        entry = None
    if entry is None or args.dim not in (None, entry.dimension):
        entry = latcat.make_entry(args.lattice, args.dim)
    return entry


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---:" for _ in headers) + "|",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def _spectrum_rows(report: morse.SpectrumReport, digits: int | None) -> list[list[str]]:
    return [
        [
            str(line.q_eigenvalue),
            str(line.multiplicity),
            _fmt(line.value, digits),
            repr(line.error_radius),
            {1: "+", -1: "-", 0: "0"}[line.sign],
        ]
        for line in report.lines
    ]


def _print_spectrum(report: morse.SpectrumReport, digits: int | None) -> None:
    print(f"## {report.lattice} at alpha = {report.alpha!r}")
    side = "" if report.side == "direct" else " (summed at the dual alpha pi^2/alpha)"
    print(f"series terms: {report.terms}{side}")
    print(_markdown_table(
        ["lambda", "multiplicity", "mu", "error_radius", "sign"],
        _spectrum_rows(report, digits),
    ))
    index = "-" if report.morse_index is None else str(report.morse_index)
    print(f"classification: {report.classification} (Morse index {index}), "
          f"margin {report.margin!r}")


def _status(reports) -> int:
    """0 when every line of every report has a certified sign; otherwise the
    first undecided line goes to stderr and the status is 1."""
    for report in reports:
        for line in report.lines:
            if line.sign == 0:
                print(f"indeterminate: {report.lattice} at alpha = {report.alpha!r}: "
                      f"mu(lambda={line.q_eigenvalue}) = {line.value!r} is within its "
                      f"error radius {line.error_radius:.3g}", file=sys.stderr)
                return 1
    return 0


def _certificate_dict(cert: morse.Certificate) -> dict:
    return {
        "lattice": cert.lattice,
        "alpha": cert.alpha,
        "result": f"NotCriticalAt({cert.alpha:g})",
        "root_term": cert.root_term,
        "remainder": cert.remainder,
        "margin": cert.margin,
        "exact_terms": cert.exact_terms,
        "constants": cert.constants,
    }


def _block_summary(crit: morse.CriticalityResult) -> str:
    parts = []
    for (size, moment), group in itertools.groupby(crit.blocks):
        reps = len(list(group))
        text = f"{size} axes at {moment}"
        parts.append(f"{reps} x ({text})" if reps > 1 else text)
    return ", ".join(parts)


def _print_certificate(cert: morse.Certificate) -> None:
    print(f"## {cert.lattice}: NotCriticalAt({cert.alpha:g})")
    print(f"root term      {cert.root_term!r}")
    print(f"remainder      {cert.remainder!r}  (exact through m = {cert.exact_terms}, "
          "certified tail beyond)")
    print(f"margin         {cert.margin!r}")


def cmd_analyze(args) -> int:
    entry = _resolve_entry(args)
    alpha = args.alpha
    crit = morse.criticality(entry)
    if crit.is_critical:
        report = morse.hessian_spectrum(entry, alpha, tol=args.tol)
        if args.format == "json":
            payload = report.to_json_dict()
            payload["criticality"] = crit.kind
            print(json.dumps(payload, indent=2))
        else:
            print(f"critical at every alpha: yes ({crit.reason})")
            _print_spectrum(report, args.paper_digits)
        return _status([report])
    cert = morse.noncritical_certificate(entry, alpha)
    if args.format == "json":
        payload = _certificate_dict(cert)
        payload["criticality"] = crit.kind
        payload["defects"] = [str(d) for d in crit.defects]
        print(json.dumps(payload, indent=2))
    else:
        print(f"critical at every alpha: no (target {crit.target}, "
              f"blocks: {_block_summary(crit)})")
        _print_certificate(cert)
    return 0


def cmd_table24(args) -> int:
    alpha = args.alpha
    entries = [e for e in latcat.list_catalog() if e.dimension == 24 and e.root_count > 0]
    reports = [morse.hessian_spectrum(e, alpha, tol=args.tol) for e in entries]
    digits = args.paper_digits if args.paper_digits is not None else 4
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
        return _status(reports)
    rows = []
    for entry, report in zip(entries, reports):
        for line in report.lines:
            rows.append([
                entry.name,
                str(entry.root_count),
                str(entry.coxeter_number),
                str(line.q_eigenvalue),
                str(line.multiplicity),
                _fmt(line.value, digits),
            ])
    print(f"Niemeier Hessian spectra at alpha = {alpha!r} "
          f"(mu truncated to {digits} decimals)")
    print(_markdown_table(
        ["lattice", "roots", "h", "lambda", "multiplicity", "mu"], rows
    ))
    return _status(reports)


def cmd_dim16(args) -> int:
    alpha = args.alpha
    reports = [
        morse.hessian_spectrum(latcat.get(name), alpha, tol=args.tol)
        for name in ("D16+", "E8^2")
    ]
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    else:
        for report in reports:
            _print_spectrum(report, args.paper_digits)
            print()
    return _status(reports)


def cmd_dim32(args) -> int:
    alpha = args.alpha
    rootless = latcat.get("Rootless32")
    partial, tail = morse.isotropic_hessian_series(rootless, alpha, m_terms=8)
    report = morse.hessian_spectrum(rootless, alpha, tol=args.tol)

    defected = latcat.get("A1^8+A3^8")
    crit = morse.criticality(defected)
    cert = morse.noncritical_certificate(defected, 14.0)  # analyze certifies other alphas

    if args.format == "json":
        spectrum_payload = report.to_json_dict()
        spectrum_payload["isotropic_partial_m8"] = partial
        spectrum_payload["isotropic_tail_m8"] = tail
        cert_payload = _certificate_dict(cert)
        cert_payload["defects"] = [str(d) for d in crit.defects]
        print(json.dumps(
            {"rootless": spectrum_payload, "moment_defect": cert_payload},
            indent=2,
        ))
    else:
        _print_spectrum(report, args.paper_digits)
        print(f"series through m = 8: {partial!r} with certified tail {tail!r}")
        print()
        print(f"{defected.name}: root-shell blocks {_block_summary(crit)} "
              f"against isotropic target {crit.target}")
        _print_certificate(cert)
    return _status([report])


def cmd_sweep(args) -> int:
    entry = _resolve_entry(args)
    if args.steps < 2:
        print("need at least 2 steps", file=sys.stderr)
        return 2
    alphas = [
        args.start + i * (args.stop - args.start) / (args.steps - 1)
        for i in range(args.steps)
    ]
    reports = morse.alpha_sweep(entry, alphas, tol=args.tol)
    lines = ["alpha,lambda,mu,error_radius"]
    for report in reports:
        for line in report.lines:
            lines.append(
                f"{report.alpha!r},{line.q_eigenvalue},{line.value!r},{line.error_radius!r}"
            )
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
        print(f"wrote {len(lines) - 1} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_catalog(args) -> int:
    entries = latcat.list_catalog()
    if args.format == "json":
        print(json.dumps([latcat.entry_summary(e) for e in entries], indent=2))
        return 0
    rows = [
        [
            e.name,
            str(e.dimension),
            e.root_system.name if e.root_count else "(none)",
            str(e.root_count),
            str(e.coxeter_number) if e.coxeter_number is not None else "-",
        ]
        for e in entries
    ]
    print(_markdown_table(["name", "dim", "root system", "roots", "h"], rows))
    return 0


def _selftest_checks():
    import numpy as np

    from . import enumlat

    yield "moment identity A4", rootsys.verify_moment_identity(rootsys.make_irreducible("A", 4))
    yield "moment identity D7", rootsys.verify_moment_identity(rootsys.make_irreducible("D", 7))
    yield "moment identity E8", rootsys.verify_moment_identity(rootsys.make_irreducible("E", 8))

    e8 = rootsys.make_irreducible("E", 8)
    check = symspace.design_check(e8.frame_roots, 4)
    yield "E8 roots form a 4-design", check.passed

    system = rootsys.parse_root_system("A5^4+D4")
    spec_closed = symspace.closed_spectrum(system)
    spec_num = symspace.numeric_spectrum(system)
    agree = len(spec_closed.entries) == len(spec_num.entries) and all(
        abs(a - b) < 1e-8 and ma == mb
        for (a, ma), (b, mb) in zip(spec_closed.entries, spec_num.entries)
    )
    yield "closed vs numeric Q-spectrum (A5^4+D4)", agree

    e8_entry = latcat.get("E8")
    yield "E8 second shell has 2160 vectors", enumlat.shell_counts(e8_entry.gram, 2)[1] == 2160

    residual = modforms.theta_duality_residual(e8_entry.theta, 8, 1.2)
    yield "E8 theta duality residual < 1e-10", residual < 1e-10

    check = morse.deformation_check(2 * np.eye(2, dtype=np.int64), 1.0, np.diag([1.0, -1.0]))
    yield f"deformation convention factor (measured {check.measured_ratio:.9f})", check.agree


def cmd_selftest(args) -> int:
    failures = 0
    for label, ok in _selftest_checks():
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        failures += not ok
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latmorse",
        description="Certified criticality and Morse data of even unimodular "
        "lattices under Gaussian-core energy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lattice_arg=False, report=True):
        # report=False (sweep): its own alpha grid, CSV only
        if report:
            p.add_argument("--alpha", type=parse_alpha, default=math.pi,
                           help="Gaussian parameter; 'pi' or a decimal (default pi)")
            p.add_argument("--format", choices=("markdown", "json"), default="markdown")
            p.add_argument("--paper-digits", type=_paper_digits, default=None,
                           help="truncate printed mu values to this many decimals")
        p.add_argument("--tol", type=parse_tol, default=1e-10,
                       help="target certified error radius per eigenvalue")
        if lattice_arg:
            p.add_argument("lattice", help="catalog name or root-system string")
            p.add_argument("--dim", type=int, default=None,
                           help="lattice dimension; required for non-catalog root systems")

    p = sub.add_parser("analyze", help="criticality, spectrum, classification")
    common(p, lattice_arg=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("table24", help="all rooted 24-dimensional catalog spectra")
    common(p)
    p.set_defaults(func=cmd_table24)

    p = sub.add_parser("dim16", help="both 16-dimensional lattices")
    common(p)
    p.set_defaults(func=cmd_dim16)

    p = sub.add_parser("dim32", help="the two 32-dimensional entries")
    common(p)
    p.set_defaults(func=cmd_dim32)

    p = sub.add_parser("sweep", help="spectrum across an alpha range, CSV")
    common(p, lattice_arg=True, report=False)
    p.add_argument("--start", type=parse_alpha, required=True)
    p.add_argument("--stop", type=parse_alpha, required=True)
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("catalog", help="list the built-in lattices")
    p.add_argument("--format", choices=("markdown", "json"), default="markdown")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("selftest", help="internal consistency diagnostics")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except morse.ToleranceUnreachable as exc:
        print(f"tolerance unreachable: {exc}", file=sys.stderr)
        return 1
    except morse.CertificateFails as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return 1
    except (latcat.UnknownLattice, ValueError) as exc:
        # KeyError str() wraps the message in quotes; unwrap for the terminal
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
