"""Output checks: per-result invariants, the alpha = pi anchors, CLI contract.

Every check reads the JSON form of a result (``SpectrumReport.to_json_dict``
or the CLI's ``--format json`` output), so in-process and CLI answers go
through the same code.  Functions return lists of problems; empty means the
output is correct.
"""

from __future__ import annotations

import json
import math

TOL = 1e-10  # default tol of morse.hessian_spectrum and of the CLI

# outcome codes of one request
CERTIFIED = "ok"
INDETERMINATE = "indet"
TOLERANCE_UNREACHABLE = "tol"
CERTIFICATE_FAILS = "cert"
DEADLINE = "deadline"
WRONG = "wrong"
ERROR = "error"
UNCERTIFIED = (INDETERMINATE, TOLERANCE_UNREACHABLE, CERTIFICATE_FAILS, DEADLINE)
BROKEN = (WRONG, ERROR)

# reference spectra at alpha = pi for the rooted 24-dimensional lattices:
# (lambda, multiplicity, mu truncated to 4 decimals), as in the acceptance tests
TABLE_24 = {
    "A1^24": [(0, 276, 0.0018), (8, 23, 0.1044)],
    "A2^12": [(0, 264, -0.0050), (6, 24, 0.0718), (12, 11, 0.1488)],
    "A3^8": [(0, 252, -0.0120), (4, 16, 0.0392), (8, 24, 0.0905), (16, 7, 0.1931)],
    "A4^6": [(0, 240, -0.0189), (4, 30, 0.0323), (10, 24, 0.1092), (20, 5, 0.2375)],
    "A5^4+D4": [(0, 230, -0.0259), (4, 36, 0.0253), (8, 9, 0.0766), (12, 20, 0.1279),
                (24, 4, 0.2818)],
    "D4^6": [(0, 240, -0.0259), (8, 54, 0.0766), (24, 5, 0.2818)],
    "A6^4": [(0, 216, -0.0328), (4, 56, 0.0184), (14, 24, 0.1466), (28, 3, 0.3262)],
    "A7^2+D5^2": [(0, 214, -0.0398), (4, 40, 0.0114), (8, 20, 0.0627), (12, 8, 0.1140),
                  (16, 14, 0.1653), (32, 3, 0.3705)],
    "A8^3": [(0, 192, -0.0467), (4, 81, 0.0045), (18, 24, 0.1840), (36, 2, 0.4149)],
    "A9^2+D6": [(0, 189, -0.0537), (4, 70, -0.0024), (8, 15, 0.0488), (16, 5, 0.1514),
                (20, 18, 0.2027), (40, 2, 0.4592)],
    "D6^4": [(0, 216, -0.0537), (8, 60, 0.0488), (16, 20, 0.1514), (40, 3, 0.4592)],
    "E6^4": [(0, 216, -0.0676), (12, 80, 0.0862), (48, 3, 0.5479)],
    "A11+D7+E6": [(0, 185, -0.0676), (4, 54, -0.0163), (8, 21, 0.0349), (12, 20, 0.0862),
                  (20, 6, 0.1888), (24, 11, 0.2401), (48, 2, 0.5479)],
    "A12^2": [(0, 144, -0.0746), (4, 130, -0.0233), (26, 24, 0.2588), (52, 1, 0.5923)],
    "D8^3": [(0, 192, -0.0815), (8, 84, 0.0210), (24, 21, 0.2262), (56, 2, 0.6366)],
    "A15+D9": [(0, 135, -0.0954), (4, 104, -0.0441), (8, 36, 0.0071), (28, 8, 0.2636),
               (32, 15, 0.3149), (64, 1, 0.7253)],
    "A17+E7": [(0, 119, -0.1093), (4, 135, -0.0580), (16, 27, 0.0958), (36, 17, 0.3523),
               (72, 1, 0.8140)],
    "D10+E7^2": [(0, 189, -0.1093), (8, 45, -0.0067), (16, 54, 0.0958), (32, 9, 0.3010),
                 (72, 2, 0.8140)],
    "D12^2": [(0, 144, -0.1371), (8, 132, -0.0345), (40, 22, 0.3758), (88, 1, 0.9914)],
    "A24": [(4, 275, -0.1067), (50, 24, 0.4832)],
    "D16+E8": [(0, 128, -0.1928), (8, 120, -0.0902), (24, 35, 0.1150), (56, 15, 0.5254),
               (120, 1, 1.3462)],
    "E8^3": [(0, 192, -0.1928), (24, 105, 0.1150), (120, 2, 1.3462)],
    "D24": [(8, 276, -0.2014), (88, 23, 0.8246)],
}

# (lattice, lambda) -> mu at alpha = pi truncated to 5 decimals
DIM16_ANCHORS = {
    ("D16+", 8): -0.06196,
    ("D16+", 56): 0.36093,
    ("E8^2", 0): -0.13245,
    ("E8^2", 24): 0.07899,
    ("E8^2", 120): 0.92480,
}


def truncate(x: float, digits: int) -> float:
    scale = 10**digits
    return math.trunc(x * scale) / scale


def expected_class(signs, multiplicities) -> tuple[str, int | None]:
    """Classification and Morse index that a list of certified signs implies."""
    if 0 in signs:
        return "Indeterminate", None
    index = sum(m for s, m in zip(signs, multiplicities) if s < 0)
    if all(s > 0 for s in signs):
        return "LocalMin", 0
    if all(s < 0 for s in signs):
        return "LocalMax", index
    return "Saddle", index


def spectrum_problems(report: dict, dim: int, tol: float = TOL) -> list[str]:
    """Invariants every certified spectrum must satisfy."""
    name = report.get("lattice", "?")
    lines = report["lines"]
    problems = []
    total = sum(line["multiplicity"] for line in lines)
    if total != dim * (dim + 1) // 2 - 1:
        problems.append(f"{name}: multiplicities sum to {total}, not n(n+1)/2 - 1 for n = {dim}")
    for line in lines:
        mu, radius = line["mu"], line["error_radius"]
        backed = 1 if mu - radius > 0 else -1 if mu + radius < 0 else 0
        if line["sign"] != backed:
            problems.append(f"{name} lambda={line['lambda']}: sign {line['sign']} not backed "
                            f"by [{mu - radius!r}, {mu + radius!r}]")
        if not 0 <= radius <= tol:
            problems.append(f"{name} lambda={line['lambda']}: radius {radius!r} above tol {tol!r}")
    want = expected_class([line["sign"] for line in lines], [line["multiplicity"] for line in lines])
    if (report["classification"], report["morse_index"]) != want:
        problems.append(f"{name}: {report['classification']} index {report['morse_index']} "
                        f"does not follow from the signs ({want[0]} index {want[1]})")
    return problems


def certificate_problems(cert: dict) -> list[str]:
    if cert["root_term"] > cert["remainder"] and cert["margin"] > 0:
        return []
    return [f"{cert['lattice']}: certificate root term {cert['root_term']!r} does not "
            f"dominate remainder {cert['remainder']!r}"]


def spectrum_outcome(report: dict, dim: int) -> tuple[str, list[str]]:
    problems = spectrum_problems(report, dim)
    if problems:
        return WRONG, problems
    if report["classification"] == "Indeterminate":
        return INDETERMINATE, []
    return CERTIFIED, []


def anchor_problems(table24: list[dict], dim16: list[dict], leech: dict, dim32: dict) -> list[str]:
    """The paper's anchors: 23-lattice table and dim-16 values at alpha = pi,
    Leech LocalMin, Rootless32 LocalMax of index 527, and the A1^8+A3^8
    non-criticality certificate at alpha = 14."""
    problems = []
    got = {r["lattice"]: r for r in table24}
    for name, rows in TABLE_24.items():
        report = got.get(name)
        if report is None:
            problems.append(f"table24: {name} missing")
            continue
        seen = [(line["lambda"], line["multiplicity"], truncate(line["mu"], 4))
                for line in report["lines"]]
        if seen != rows:
            problems.append(f"table24 {name}: {seen} != {rows}")
        problems += spectrum_problems(report, 24)
    for report in dim16:
        for line in report["lines"]:
            want = DIM16_ANCHORS.get((report["lattice"], line["lambda"]))
            if want is None or truncate(line["mu"], 5) != want:
                problems.append(f"dim16 {report['lattice']} lambda={line['lambda']}: "
                                f"{line['mu']!r} against anchor {want}")
        problems += spectrum_problems(report, 16)
    if len(dim16) != 2:
        problems.append(f"dim16: {len(dim16)} reports instead of 2")
    problems += spectrum_problems(leech, 24)
    if leech["classification"] != "LocalMin":
        problems.append(f"Leech: {leech['classification']} instead of LocalMin")
    rootless, cert = dim32["rootless"], dim32["moment_defect"]
    problems += spectrum_problems(rootless, 32)
    if (rootless["classification"], rootless["morse_index"]) != ("LocalMax", 527):
        problems.append(f"Rootless32: {rootless['classification']} index "
                        f"{rootless['morse_index']} instead of LocalMax index 527")
    if cert["alpha"] != 14.0:
        problems.append(f"A1^8+A3^8 certificate at alpha {cert['alpha']} instead of 14")
    problems += certificate_problems(cert)
    return problems


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def cli_outcome(req: dict, code: int, out: str, err: str, catalog) -> tuple[str, list[str]]:
    """Outcome of one CLI request under the README contract.

    Exit status 0 means every requested sign was certified, 1 means some
    eigenvalue interval straddles zero or a certificate failed; nothing may
    print a traceback.  ``catalog`` holds (name, dimension, critical) rows.
    """
    argv = " ".join(req["argv"])
    if "Traceback" in err:
        return ERROR, [f"{argv}: traceback on stderr: {err.strip().splitlines()[-1]}"]
    if code not in (0, 1):
        return ERROR, [f"{argv}: exit status {code}"]
    kind = req["kind"]
    if kind == "analyze" and not req["critical"]:
        if code == 1 and "certificate failed" in err:
            return CERTIFICATE_FAILS, []
        payload = _json(out)
        if code != 0 or payload is None:
            return WRONG, [f"{argv}: exit {code} without a certificate"]
        return _with_status(argv, code, CERTIFIED, certificate_problems(payload))
    if kind == "selftest":
        lines = out.strip().splitlines()
        failed = [line for line in lines if not line.startswith("PASS")]
        if len(lines) != 8 or failed or code != 0:
            return WRONG, [f"{argv}: exit {code}, {len(lines)} checks, failing {failed}"]
        return CERTIFIED, []
    if kind == "sweep":
        return _with_status(argv, code, CERTIFIED, _sweep_problems(req, out))
    payload = _json(out)
    if payload is None:
        return WRONG, [f"{argv}: exit {code} with unreadable JSON output"]
    if kind == "catalog":
        return _with_status(argv, code, CERTIFIED, _catalog_problems(payload, catalog))
    if kind == "analyze":
        reports = [payload]
    elif kind == "dim32":
        reports = [payload["rootless"]]
    else:
        reports = payload
    dims = {name: dim for name, dim, _ in catalog}
    problems, states = [], []
    for report in reports:
        state, found = spectrum_outcome(report, dims.get(report["lattice"], 0))
        states.append(state)
        problems += found
    if kind == "dim32":
        problems += certificate_problems(payload["moment_defect"])
    if problems:
        return WRONG, [f"{argv}: {p}" for p in problems]
    state = INDETERMINATE if INDETERMINATE in states else CERTIFIED
    # table24 reports every spectrum and always exits 0
    want_code = 0 if state == CERTIFIED or kind == "table24" else 1
    if code != want_code:
        return WRONG, [f"{argv}: exit {code}, the README contract asks for {want_code}"]
    return state, []


def _with_status(argv: str, code: int, state: str, problems: list[str]) -> tuple[str, list[str]]:
    if problems:
        return WRONG, [f"{argv}: {p}" for p in problems]
    if code != 0:
        return WRONG, [f"{argv}: exit {code} for a complete answer"]
    return state, []


def _catalog_problems(payload, catalog) -> list[str]:
    names = [row["name"] for row in payload]
    problems = []
    if sorted(names) != sorted(name for name, _, _ in catalog):
        problems.append(f"catalog lists {len(names)} entries, not the {len(catalog)} expected")
    for row in payload:
        theta = row["theta_coefficients"]
        if theta[:2] != [1, row["root_count"]]:
            problems.append(f"catalog {row['name']}: theta starts {theta[:2]}, "
                            f"not [1, {row['root_count']}]")
    return problems


def _sweep_problems(req: dict, out: str) -> list[str]:
    rows = out.strip().splitlines()
    if not rows or rows[0] != "alpha,lambda,mu,error_radius":
        return ["missing CSV header"]
    by_alpha: dict[float, list[int]] = {}
    problems = []
    for row in rows[1:]:
        alpha, lam, mu, radius = row.split(",")
        by_alpha.setdefault(float(alpha), []).append(int(lam))
        if not (math.isfinite(float(mu)) and 0 <= float(radius) <= TOL):
            problems.append(f"row {row}: radius above tol {TOL!r}")
    lambdas = list(by_alpha.values())
    if len(by_alpha) != 4 or any(lams != lambdas[0] for lams in lambdas):
        problems.append(f"{len(by_alpha)} alphas with differing lambda rows, not 4 alike")
    return problems
