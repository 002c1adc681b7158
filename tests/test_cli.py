"""End-to-end command-line behavior through main()."""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmorse import cli, latcat, morse


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_alpha():
    assert cli.parse_alpha("pi") == math.pi
    assert cli.parse_alpha(" PI ") == math.pi
    assert cli.parse_alpha("3.5") == 3.5
    for bad in ("0", "-2", "abc"):
        with pytest.raises(Exception):
            cli.parse_alpha(bad)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_parse_alpha_and_tol_accept_exactly_finite_positive(value):
    for parse in (cli.parse_alpha, cli.parse_tol):
        if value > 0 and math.isfinite(value):
            assert parse(repr(value)) == value
        else:
            with pytest.raises(argparse.ArgumentTypeError):
                parse(repr(value))


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "E8", "--alpha", "nan"],
        ["analyze", "E8", "--alpha", "inf"],
        ["sweep", "E8", "--start", "-inf", "--stop", "3"],
        ["analyze", "E8", "--tol", "-1e-10"],
        ["analyze", "E8", "--tol", "0"],
        ["dim16", "--tol", "nan"],
        # --series-length is no longer an option; argparse rejects it outright
        ["analyze", "E8", "--series-length", "-5"],
        ["analyze", "E8", "--series-length", "0"],
        ["sweep", "E8", "--start", "3", "--stop", "4", "--series-length", "2.5"],
        ["table24", "--paper-digits", "-1"],
        ["analyze", "E8", "--paper-digits", "1075"],
        ["analyze", "E8", "--paper-digits", "1000000000"],
    ],
)
def test_nonfinite_or_nonpositive_arguments_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_catalog_name_honours_dim(capsys):
    # a --dim other than the catalog entry's builds the root system in that
    # dimension: E8 in dimension 24 has a moment defect, which no lattice has
    code, out, err = _run(capsys, ["analyze", "E8", "--dim", "24", "--format", "json"])
    assert (code, out) == (2, "")
    assert "no even unimodular lattice has this root shell" in err


@pytest.mark.parametrize("option", [["--alpha", "7"], ["--paper-digits", "2"],
                                    ["--format", "json"]])
def test_sweep_rejects_report_options(option, capsys):
    # sweep prints CSV over its own alpha grid and takes none of these
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", "E8", "--start", "3", "--stop", "3.5", "--steps", "2", *option])
    assert info.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("lattice", ["E8^20000000", "A300", "A1^33", "A1^8+A3^8+E8"])
def test_oversized_root_string_exits_2(lattice, capsys):
    # the total rank is checked before any component is built
    code, out, err = _run(capsys, ["analyze", lattice, "--dim", "32"])
    assert code == 2
    assert out == ""
    assert "above 32" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("system", ["E9 --dim 32", "A0 --dim 8", "D3 --dim 8"])
def test_invalid_rank_exits_2(system, capsys):
    name, *rest = system.split()
    code, out, err = _run(capsys, ["analyze", name, *rest])
    assert code == 2
    assert out == ""
    assert err == f"error: no irreducible system {name}\n"


@pytest.mark.parametrize("system", ["A32", "A7+D5^5", "A11+D7^3", "D7^2+E6^3"])
def test_root_system_of_no_lattice_exits_2(system, capsys):
    # a full-rank root lattice has some index k in the lattice: its discriminant
    # group has order k^2, and these orders (33, 2^13, 768, 432) are no squares
    code, out, err = _run(capsys, ["analyze", system, "--dim", "32"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: no even unimodular lattice has root system {system}: ")
    assert err.endswith(", not a square\n") and err.count("\n") == 1


def test_root_systems_with_square_discriminants_pass(capsys):
    code, out, _ = _run(capsys, ["analyze", "A16^2", "--dim", "32"])
    assert code == 0
    assert "classification: Saddle (Morse index 494)" in out
    # 2^8 4^8 = (2^12)^2
    assert morse.criticality(latcat.make_entry("A1^8+A3^8")).kind == "moment_defect"


def test_tolerance_unreachable_exits_1(capsys):
    code, out, err = _run(capsys, ["analyze", "D24", "--tol", "1e-13"])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "roundoff-bound" in err
    code, _, err = _run(capsys, ["analyze", "E8", "--alpha", "0.01"])
    assert code == 1
    assert "underflow" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "Rootless32", "--alpha", "1e-19"],
    ["table24", "--alpha", "1e-40"],
    ["analyze", "A1^8+A3^8", "--alpha", "1e-20"],
    ["sweep", "E8", "--start", "1e-300", "--stop", "1e-299", "--steps", "2"],
])
def test_tiny_alpha_exits_1_with_underflow(argv, capsys):
    # alpha so small that (pi/alpha)^(n/2) overflows float64
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "underflow" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("alpha", ["1e154", "1e300"])
def test_huge_alpha_exits_1_with_overflow(alpha, capsys):
    # 4 alpha^2 in the theta tail bound exceeds float64
    code, out, err = _run(capsys, ["analyze", "E8", "--alpha", alpha])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "overflow" in err and "4 alpha^2" in err
    assert "inf" not in err
    assert "Traceback" not in err


def test_huge_alpha_error_names_no_nan(capsys):
    # alpha large enough that x (x - c) overflows in the series kernel, not yet in the tails
    code, out, err = _run(capsys, ["analyze", "E8", "--alpha", "1e150"])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "underflow" in err
    assert "nan" not in err


def test_huge_cert_alpha_error_names_no_nan(capsys):
    code, out, err = _run(capsys, ["analyze", "A1^8+A3^8", "--alpha", "1e308"])
    assert code == 1
    assert "root term 0 does not dominate" in err
    assert "nan" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["analyze", "E8"], ["table24"], ["table24", "--format", "json"],
                                  ["dim16"], ["dim32"]])
def test_undecided_sign_exits_1_with_one_line(argv, capsys, monkeypatch):
    def undecided(entry, alpha, tol=1e-10):
        line = morse.SpectralLine(q_eigenvalue=0, multiplicity=1, value=0.0, error_radius=1e-9)
        return morse.SpectrumReport(lattice=entry.name, alpha=alpha, terms=16, lines=(line,),
                                    classification=morse.CLASS_INDETERMINATE,
                                    morse_index=None, margin=-1e-9)

    monkeypatch.setattr(morse, "hessian_spectrum", undecided)
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out
    assert len(err.splitlines()) == 1
    assert err.startswith("indeterminate: ")


def test_sweep_shallow_range(capsys):
    code, out, _ = _run(capsys, ["sweep", "Leech", "--start", "0.1", "--stop", "10",
                                 "--steps", "32"])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 32
    assert float(rows[0].split(",")[0]) == 0.1


def test_dim32_shallow_alpha(capsys):
    code, out, _ = _run(capsys, ["dim32", "--alpha", "0.5"])
    assert code == 0
    assert "summed at the dual alpha" in out
    assert "NotCriticalAt(14)" in out


def test_analyze_markdown(capsys):
    code, out, err = _run(capsys, ["analyze", "D16+"])
    assert code == 0
    assert err == ""
    assert "critical at every alpha: yes" in out
    assert "Saddle" in out
    assert "Morse index 120" in out
    assert "0.36093218" in out


def test_analyze_json(capsys):
    code, out, _ = _run(capsys, ["analyze", "E8^2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "Saddle"
    assert payload["morse_index"] == 64
    assert payload["criticality"] == "critical_all_alpha"
    assert [row["lambda"] for row in payload["lines"]] == [0, 24, 120]


def test_analyze_defective(capsys):
    code, out, _ = _run(capsys, ["analyze", "A1^8+A3^8", "--alpha", "14"])
    assert code == 0
    assert "critical at every alpha: no" in out
    assert "NotCriticalAt(14)" in out
    assert "root term" in out


def test_analyze_defective_json(capsys):
    code, out, _ = _run(
        capsys, ["analyze", "A1^8+A3^8", "--alpha", "14", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "NotCriticalAt(14)"
    assert payload["criticality"] == "moment_defect"
    assert payload["root_term"] > payload["remainder"] > 0
    assert payload["defects"] == ["-3"] * 8 + ["1"] * 8


def test_analyze_defective_at_default_alpha_says_why(capsys):
    # alpha = pi, where every 32-dimensional even unimodular lattice is critical
    code, out, err = _run(capsys, ["analyze", "A1^8+A3^8"])
    assert code == 1
    assert out == ""
    assert err.startswith("certificate failed:")
    assert "critical at alpha = pi" in err


def test_analyze_unknown_lattice(capsys):
    code, _, err = _run(capsys, ["analyze", "Z99"])
    assert code == 2
    assert "error:" in err


def test_analyze_root_string_fallback(capsys):
    code, out, _ = _run(capsys, ["analyze", "D16", "--dim", "16"])
    assert code == 0
    assert "Saddle" in out
    assert "0.36093218" in out


def test_analyze_paper_digits(capsys):
    code, out, _ = _run(capsys, ["analyze", "D16+", "--paper-digits", "5"])
    assert code == 0
    assert "-0.06196" in out
    assert "0.36093" in out


def _mus(out: str) -> list[float]:
    """The mu column of every spectrum table row in the output."""
    rows = [line.split("|") for line in out.splitlines() if line.startswith("| ")]
    return [float(cells[3]) for cells in rows if cells[1].strip().isdigit()]


def test_analyze_paper_digits_past_float_resolution(capsys):
    # 10^-400 is below every float's spacing: mu prints as it is, no OverflowError
    code, wide, err = _run(capsys, ["analyze", "E8", "--paper-digits", "400"])
    assert code == 0, err
    _, plain, _ = _run(capsys, ["analyze", "E8"])
    assert _mus(wide) == _mus(plain) and len(_mus(plain)) == 1


def test_analyze_paper_digits_prints_every_float_exactly_at_1074(capsys):
    # 2^-1074 is the smallest float step, so 1074 places hold every exact expansion
    code, out, err = _run(capsys, ["analyze", "E8", "--paper-digits", "1074"])
    assert code == 0, err
    rows = [line.split("|") for line in out.splitlines() if line.startswith("| ")]
    printed = [cells[3].strip() for cells in rows if cells[1].strip().isdigit()]
    values = [line.value for line in morse.hessian_spectrum(latcat.get("E8"), math.pi).lines]
    assert [Decimal(text) for text in printed] == [Decimal(value) for value in values]
    assert len(printed) == 1


def test_table24(capsys):
    code, out, _ = _run(capsys, ["table24", "--paper-digits", "4"])
    assert code == 0
    for name in ("A1^24", "A5^4+D4", "D16+E8", "E8^3", "D24"):
        assert f"| {name} |" in out
    assert "0.0018" in out
    assert "-0.2014" in out


def test_dim16_json(capsys):
    code, out, _ = _run(capsys, ["dim16", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [r["lattice"] for r in payload] == ["D16+", "E8^2"]
    assert all(r["classification"] == "Saddle" for r in payload)


def test_dim32(capsys):
    code, out, _ = _run(capsys, ["dim32"])
    assert code == 0
    assert "LocalMax" in out
    assert "certified tail" in out
    assert "NotCriticalAt(14)" in out


def test_dim32_json(capsys):
    code, out, _ = _run(capsys, ["dim32", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rootless"]["classification"] == "LocalMax"
    assert payload["rootless"]["isotropic_tail_m8"] < 5.4e-7
    assert payload["moment_defect"]["result"] == "NotCriticalAt(14)"


def test_sweep_to_file(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = _run(
        capsys,
        ["sweep", "E8", "--start", "3", "--stop", "3.5", "--steps", "2",
         "--out", str(out_file)],
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "alpha,lambda,mu,error_radius"
    assert len(lines) == 3  # header + one line per (alpha, lambda)
    assert lines[1].startswith("3.0,24,")


# /dev/full opens, and the write fails when the file is flushed on close
@pytest.mark.parametrize("target", [
    lambda tmp: tmp / "missing" / "sweep.csv", lambda tmp: tmp,
    pytest.param(lambda tmp: Path("/dev/full"), marks=pytest.mark.skipif(
        not Path("/dev/full").exists(), reason="no /dev/full on this system")),
], ids=["missing-directory", "directory", "full-device"])
def test_sweep_unwritable_out_exits_2(target, tmp_path, capsys):
    path = target(tmp_path)
    code, out, err = _run(capsys, ["sweep", "E8", "--start", "4", "--stop", "5", "--steps", "2",
                                   "--out", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_sweep_stdout_and_bad_steps(capsys):
    code, out, _ = _run(capsys, ["sweep", "E8", "--start", "3", "--stop", "3.2",
                                 "--steps", "2"])
    assert code == 0
    assert out.startswith("alpha,lambda,mu,error_radius")
    code, _, err = _run(capsys, ["sweep", "E8", "--start", "3", "--stop", "3.2",
                                 "--steps", "1"])
    assert code == 2
    assert "steps" in err


def test_catalog_json(capsys):
    code, out, _ = _run(capsys, ["catalog", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 29
    assert {"Leech", "E8", "Rootless32"} <= {e["name"] for e in payload}


def test_catalog_markdown(capsys):
    code, out, _ = _run(capsys, ["catalog"])
    assert code == 0
    assert "| E8 |" in out
    assert "(none)" in out  # rootless rows


def test_selftest(capsys):
    code, out, _ = _run(capsys, ["selftest"])
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 8
    assert all(l.startswith("PASS") for l in lines)


def test_requires_subcommand():
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2


# runs cli.main on its arguments in a fresh interpreter; the last stderr line
# says whether numpy was imported and gives the exit status
_REPORT_NO_NUMPY = """
import sys
from latmorse import cli
status = cli.main(sys.argv[1:])
sys.stdout.flush()
print("numpy" in sys.modules, status, file=sys.stderr)
"""


def _fresh_python(*args):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("argv", [
    ["analyze", "D16+"],
    ["analyze", "A1^8+A3^8", "--alpha", "14"],
    ["table24"],
    ["dim16"],
    ["dim32"],
    ["catalog"],
    ["sweep", "E8", "--start", "4", "--stop", "5", "--steps", "2"],
    ["analyze", "A1^8+A3^8", "--alpha", "3"],
    ["catalog", "--format", "json"],
    ["analyze", "Leech", "--alpha", "0.5"],
])
def test_report_commands_run_without_numpy(argv):
    run = _fresh_python("-c", _REPORT_NO_NUMPY, *argv)
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines()[-1] == "False 0"


def test_cli_import_lists_no_numpy():
    run = _fresh_python("-X", "importtime", "-c", "import latmorse.cli")
    assert run.returncode == 0, run.stderr
    assert "latmorse.cli" in run.stderr
    assert "numpy" not in run.stderr


def test_cli_import_lists_no_code_generator():
    run = _fresh_python("-X", "importtime", "-c", "import latmorse.cli")
    assert run.returncode == 0, run.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()}
    assert "latmorse.cli" in imported
    assert not {"dataclasses", "inspect"} & imported
    package = Path(cli.__file__).resolve().parent
    assert [p.name for p in package.rglob("*.py") if "dataclasses" in p.read_text()] == []
