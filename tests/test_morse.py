"""Criticality decisions, certified spectra, certificates, classification."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmorse import latcat, modforms, morse, symspace

ALPHA = math.pi

# five reference eigenvalues in dimension 16 at alpha = pi, truncated to 5 places
DIM16_ANCHORS = {
    ("D16+", 8): -0.06196,
    ("D16+", 56): 0.36093,
    ("E8^2", 0): -0.13245,
    ("E8^2", 24): 0.07899,
    ("E8^2", 120): 0.92480,
}


CRITICAL = [e for e in latcat.list_catalog() if morse.criticality(e).is_critical]


def _line(report: morse.SpectrumReport, lam: int) -> morse.SpectralLine:
    for line in report.lines:
        if line.q_eigenvalue == lam:
            return line
    raise AssertionError(f"no spectral line at lambda = {lam}")


def test_truncate_decimal():
    assert morse.truncate_decimal(0.360932185, 5) == 0.36093
    assert morse.truncate_decimal(-0.061969273, 5) == -0.06196  # toward zero
    assert morse.truncate_decimal(1.9999, 2) == 1.99
    assert morse.truncate_decimal(-0.00271, 4) == -0.0027


def test_criticality_catalog():
    for entry in latcat.list_catalog():
        crit = morse.criticality(entry)
        if entry.name == "A1^8+A3^8":
            assert not crit.is_critical
            assert crit.kind == "moment_defect"
        else:
            assert crit.is_critical
            assert crit.witness is None
            assert all(d == 0 for d in crit.defects)


def test_criticality_defect_structure():
    crit = morse.criticality(latcat.get("A1^8+A3^8"))
    assert crit.target == Fraction(7)
    assert crit.blocks == ((1, Fraction(4)),) * 8 + ((3, Fraction(8)),) * 8
    assert crit.defects == (Fraction(-3),) * 8 + (Fraction(1),) * 8
    witness = crit.witness
    assert witness is not None
    assert not witness.flags.writeable
    assert abs(float(np.trace(witness))) == 0.0
    assert np.array_equal(np.diag(witness), np.array([-3.0] * 8 + [1.0] * 24))


def test_criticality_rootless_blocks():
    crit = morse.criticality(latcat.get("Leech"))
    assert crit.blocks == ((24, Fraction(0)),)
    assert crit.target == 0
    assert crit.is_critical


def test_dim16_anchor_values():
    for name in ("D16+", "E8^2"):
        report = morse.hessian_spectrum(latcat.get(name), ALPHA)
        for line in report.lines:
            expected = DIM16_ANCHORS[(name, line.q_eigenvalue)]
            assert morse.truncate_decimal(line.value, 5) == expected
            assert line.error_radius < 1e-9
    d16 = morse.hessian_spectrum(latcat.get("D16+"), ALPHA)
    assert d16.classification == morse.CLASS_SADDLE
    assert d16.morse_index == 120
    two_e8 = morse.hessian_spectrum(latcat.get("E8^2"), ALPHA)
    assert two_e8.classification == morse.CLASS_SADDLE
    assert two_e8.morse_index == 64


def test_leech_local_min():
    report = morse.hessian_spectrum(latcat.get("Leech"), ALPHA)
    assert report.classification == morse.CLASS_LOCAL_MIN
    assert report.morse_index == 0
    (line,) = report.lines
    assert line.q_eigenvalue == 0
    assert line.multiplicity == 299
    assert line.value == pytest.approx(0.015780918464607406, rel=1e-12)


def test_rootless32_local_max():
    report = morse.hessian_spectrum(latcat.get("Rootless32"), ALPHA)
    assert report.classification == morse.CLASS_LOCAL_MAX
    (line,) = report.lines
    assert line.multiplicity == 527
    assert line.value == pytest.approx(-0.00027893406077867056, rel=1e-9)
    assert line.value + line.error_radius < 0


def test_niemeier_sample_rows():
    report = morse.hessian_spectrum(latcat.get("A1^24"), ALPHA)
    assert [(l.q_eigenvalue, l.multiplicity) for l in report.lines] == [(0, 276), (8, 23)]
    assert morse.truncate_decimal(_line(report, 0).value, 4) == 0.0018
    assert morse.truncate_decimal(_line(report, 8).value, 4) == 0.1044
    assert report.classification == morse.CLASS_LOCAL_MIN

    report = morse.hessian_spectrum(latcat.get("D24"), ALPHA)
    assert [(l.q_eigenvalue, l.multiplicity) for l in report.lines] == [(8, 276), (88, 23)]
    assert morse.truncate_decimal(_line(report, 8).value, 4) == -0.2014
    assert morse.truncate_decimal(_line(report, 88).value, 4) == 0.8246
    assert report.classification == morse.CLASS_SADDLE
    assert report.morse_index == 276


def test_multiplicity_totals():
    for entry in latcat.list_catalog():
        if entry.name == "A1^8+A3^8":
            continue
        report = morse.hessian_spectrum(entry, ALPHA)
        n = entry.dimension
        assert sum(line.multiplicity for line in report.lines) == n * (n + 1) // 2 - 1


def test_classify_synthetic():
    plus = morse.SpectralLine(0, 10, 0.5, 0.1)
    minus = morse.SpectralLine(4, 3, -0.2, 0.1)
    wide = morse.SpectralLine(8, 2, 0.05, 0.1)

    assert morse.classify([plus]) == (morse.CLASS_LOCAL_MIN, 0, pytest.approx(0.4))
    assert morse.classify([minus]) == (morse.CLASS_LOCAL_MAX, 3, pytest.approx(0.1))
    label, index, _ = morse.classify([plus, minus])
    assert (label, index) == (morse.CLASS_SADDLE, 3)
    label, index, margin = morse.classify([plus, wide])
    assert label == morse.CLASS_INDETERMINATE
    assert index is None
    assert margin < 0
    with pytest.raises(ValueError, match="no spectral lines"):
        morse.classify([])


def test_spectrum_adaptive_terms():
    # one series length on both sides of the fold: shallow alpha sums 16 terms
    # at pi^2/alpha, alpha = pi sums 16 at alpha itself
    report = morse.hessian_spectrum(latcat.get("E8"), 0.1, tol=1e-6)
    assert (report.side, report.terms) == ("dual", 16)
    assert all(line.error_radius <= 1e-6 for line in report.lines)
    fast = morse.hessian_spectrum(latcat.get("E8"), ALPHA)
    assert (fast.side, fast.terms) == ("direct", 16)


def test_tolerance_unreachable():
    with pytest.raises(morse.ToleranceUnreachable):
        morse.hessian_spectrum(latcat.get("E8"), 0.001)
    with pytest.raises(morse.ToleranceUnreachable):
        morse.hessian_spectrum(latcat.get("E8"), ALPHA, tol=0.0)
    with pytest.raises(ValueError):
        morse.hessian_spectrum(latcat.get("E8"), -1.0)


def _widest_tail_part(entry, alpha, terms):
    # the tail part of the widest direct error radius after `terms` terms
    n = entry.dimension
    widest = max(abs(lam * n * (n + 2) - 8 * entry.root_count)
                 for lam, _ in morse._lambda_spectrum(entry))
    a_tail, b_tail = morse._tails(entry, alpha, terms)
    return (a_tail + widest * b_tail) / (n * (n + 2))


def _count_series_reads(monkeypatch) -> list[int]:
    # the lengths of every series_floats call from now on
    lengths = []
    series_floats = latcat.LatticeEntry.series_floats

    def counted(self, length):
        lengths.append(length)
        return series_floats(self, length)

    monkeypatch.setattr(latcat.LatticeEntry, "series_floats", counted)
    return lengths


@pytest.mark.parametrize(
    "entry, alpha, tol",
    # Leech at alpha = 2: summed at alpha itself, its tail part at 16 terms
    # (1.09e-10) would exceed tol/2; the fold sums at pi^2/2 instead
    [(latcat.get("Leech"), 2.0, 1e-10), (latcat.get("Leech"), 2.0, 2e-10)]
    + [(e, math.pi / 2, 1e-8) for e in CRITICAL],
    ids=lambda v: getattr(v, "name", None),
)
def test_series_summed_once_at_shortest_length(entry, alpha, tol, monkeypatch):
    # every request reads its coefficients once, m = 0..16, whatever its tol
    lengths = _count_series_reads(monkeypatch)
    report = morse.hessian_spectrum(entry, alpha, tol)
    assert lengths == [17]
    assert (report.terms, report.side) == (16, "dual")
    assert all(line.error_radius <= tol for line in report.lines)


@pytest.mark.parametrize("entry", CRITICAL, ids=lambda e: e.name)
def test_sixteen_terms_leave_only_roundoff(entry):
    # the premise of one series length: at every alpha' >= pi a request sums
    # at, the certified tail part of the widest radius after 16 terms is far
    # below its roundoff part, which more terms only grow
    n = entry.dimension
    widest = max(abs(lam * n * (n + 2) - 8 * entry.root_count)
                 for lam, _ in morse._lambda_spectrum(entry))
    for alpha in np.geomspace(math.pi, 100.0, 200):
        sums = morse._kernel(entry, alpha, morse._TERMS)
        fold = morse._direct_side(alpha)
        _, roundoff = morse._eigenvalue(fold, n, sums, (0.0, 0.0), widest)
        assert _widest_tail_part(entry, alpha, morse._TERMS) <= 1e-9 * roundoff


@pytest.mark.parametrize("entry", CRITICAL, ids=lambda e: e.name)
@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.1, 4 * math.pi), tol=st.floats(1e-14, 1e-6))
def test_sixteen_terms_or_roundoff_bound(entry, alpha, tol):
    try:
        report = morse.hessian_spectrum(entry, alpha, tol)
    except morse.ToleranceUnreachable as exc:
        assert "roundoff-bound" in str(exc)
    else:
        assert report.terms == 16
        assert all(line.error_radius <= tol for line in report.lines)


def test_unreachable_tol_raises_at_once(monkeypatch):
    e8 = latcat.get("E8")
    for tol in (math.nan, 0.0, -1.0):
        with pytest.raises(morse.ToleranceUnreachable, match="roundoff-bound"):
            morse.hessian_spectrum(e8, ALPHA, tol)
    lengths = _count_series_reads(monkeypatch)
    # the roundoff part is far above tol, and more terms only grow it
    for tol in (1e-300, 1e-320):
        with pytest.raises(morse.ToleranceUnreachable, match="roundoff-bound.* at 16 series terms"):
            morse.hessian_spectrum(e8, ALPHA, tol)
    # the roundoff part underflows, and the tail part, 2.29e-298, sits at the
    # tail bounds' floor: above tol/2 it fails, even with the radius within tol
    for tol in (1e-300, 3e-298):
        with pytest.raises(morse.ToleranceUnreachable, match="underflow.* at 16 series terms"):
            morse.hessian_spectrum(e8, 400.0, tol)
    # each failure read its coefficients once, at the one length
    assert lengths == [17] * 4


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
                 st.floats(max_value=0.0)))
def test_alpha_must_be_positive_and_finite(alpha):
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        morse.hessian_spectrum(latcat.get("E8"), alpha)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        morse.noncritical_certificate(latcat.get("A1^8+A3^8"), alpha)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        morse.isotropic_hessian_series(latcat.get("Rootless32"), alpha)


def test_not_critical_raises():
    entry = latcat.get("A1^8+A3^8")
    with pytest.raises(morse.NotCritical):
        morse.hessian_spectrum(entry, ALPHA)
    with pytest.raises(morse.NotCritical):
        morse.large_alpha_class(entry)


def test_certificate_default_witness():
    cert = morse.noncritical_certificate(latcat.get("A1^8+A3^8"), 14.0)
    # exact root pairing: 8 * (-3) * 4 + 24 * 1 * 8 = 96
    assert cert.constants["root_pairing"] == 96.0
    assert cert.root_term == pytest.approx(96.0 * 14.0 * math.exp(-28.0), rel=1e-12)
    assert cert.remainder < cert.root_term
    assert cert.margin > 0
    assert cert.exact_terms == 16
    assert set(cert.constants) == {
        "root_pairing",
        "partial_sum",
        "tail",
    }


def test_certificate_user_direction():
    direction = np.diag([24.0] * 8 + [-8.0] * 24)
    cert = morse.noncritical_certificate(latcat.get("A1^8+A3^8"), 14.0, direction)
    assert cert.root_term == pytest.approx(768.0 * 14.0 * math.exp(-28.0), rel=1e-6)
    assert cert.remainder < cert.root_term


@pytest.mark.parametrize("value, where", [(math.nan, (0, 1)), (math.inf, (0, 1)),
                                          (-math.inf, (0, 1)), (math.inf, (0, 0))])
def test_certificate_rejects_non_finite_direction(value, where):
    # NaN fails every comparison, and an infinite trace has no Fraction
    direction = np.diag([24.0] * 8 + [-8.0] * 24)
    direction[where] = direction[where[::-1]] = value
    with pytest.raises(ValueError, match="direction must be finite"):
        morse.noncritical_certificate(latcat.get("A1^8+A3^8"), 14.0, direction)


def test_certificate_reads_only_the_terms_it_sums(monkeypatch):
    # series_floats may return rows longer than asked for
    entry = latcat.get("A1^8+A3^8")
    plain = morse.noncritical_certificate(entry, 14.0)
    series_floats = latcat.LatticeEntry.series_floats
    monkeypatch.setattr(latcat.LatticeEntry, "series_floats",
                        lambda self, length: series_floats(self, max(length, 64)))
    padded = morse.noncritical_certificate(entry, 14.0)
    assert (padded.root_term, padded.remainder) == (plain.root_term, plain.remainder)
    assert padded.constants == plain.constants


def test_entry_only_work_done_once_per_entry(monkeypatch):
    entry = latcat.make_entry("D16", 16)
    calls = []
    closed_spectrum = symspace.closed_spectrum

    def counted(system):
        calls.append(system)
        return closed_spectrum(system)

    monkeypatch.setattr(symspace, "closed_spectrum", counted)
    for alpha in (ALPHA, 5.0, 7.5, ALPHA):
        morse.hessian_spectrum(entry, alpha)
    assert len(calls) == 1
    assert morse.criticality(entry) is morse.criticality(entry)


def test_certificate_failure_modes():
    defective = latcat.get("A1^8+A3^8")
    with pytest.raises(morse.CertificateFails):
        morse.noncritical_certificate(latcat.get("Leech"), 14.0)  # no roots at all
    with pytest.raises(morse.CertificateFails):
        morse.noncritical_certificate(latcat.get("E8"), 14.0)  # critical, no witness
    cert = morse.noncritical_certificate(defective, 3.0)  # near pi, yet certified
    assert cert.root_term > cert.remainder > 0
    off_diagonal = np.zeros((32, 32))
    off_diagonal[0, 1] = off_diagonal[1, 0] = 1.0
    with pytest.raises(morse.CertificateFails):
        morse.noncritical_certificate(defective, 14.0, off_diagonal)
    with pytest.raises(ValueError):
        morse.noncritical_certificate(defective, -2.0)
    with pytest.raises(ValueError):
        morse.noncritical_certificate(defective, 14.0, np.eye(32))
    with pytest.raises(ValueError):
        morse.noncritical_certificate(defective, 14.0, np.eye(8))
    lopsided = np.diag([24.0] * 8 + [-8.0] * 24)
    lopsided[0, 1] = 1e6  # its symmetric part has eigenvalues near +-500024
    with pytest.raises(ValueError, match="direction must be symmetric"):
        morse.noncritical_certificate(defective, 14.0, lopsided)


def test_large_alpha_classes():
    minima = set()
    for entry in latcat.list_catalog():
        if entry.root_count == 0 or entry.name == "A1^8+A3^8":
            continue
        label = morse.large_alpha_class(entry)
        if label == morse.CLASS_LOCAL_MIN:
            minima.add(entry.name)
        else:
            assert label == morse.CLASS_SADDLE
    assert minima == {"E8", "D16+", "A24", "D24"}
    with pytest.raises(morse.Inapplicable):
        morse.large_alpha_class(latcat.get("Leech"))


def test_roundoff_bound_stops_doubling():
    # the roundoff part only grows with more terms: give up at once
    with pytest.raises(morse.ToleranceUnreachable, match="roundoff-bound") as info:
        morse.hessian_spectrum(latcat.get("D24"), ALPHA, tol=1e-13)
    assert "at 16 series terms" in str(info.value)
    with pytest.raises(morse.ToleranceUnreachable, match="roundoff-bound"):
        morse.hessian_spectrum(latcat.get("E8"), ALPHA, tol=-1.0)


def _lines_summed_at(entry, fold, terms):
    # spectral lines summed at fold.at through `terms`: the side a request does
    # not take, summed far enough that its tail is negligible
    n = entry.dimension
    sums = morse._kernel(entry, fold.at, terms)
    tails = morse._tails(entry, fold.at, terms)
    return [morse.SpectralLine(lam, mult, *morse._eigenvalue(
                fold, n, sums, tails, lam * n * (n + 2) - 8 * entry.root_count))
            for lam, mult in morse._lambda_spectrum(entry)]


def test_fold_overlaps_direct_kernel():
    # both kernels on a grid around the fold point alpha = pi: every request
    # against 64 terms on the other side (unfolded below pi, folded above),
    # intervals overlap and every certified sign agrees
    for entry in CRITICAL:
        for alpha in np.linspace(math.pi / 2, 2 * math.pi, 7):
            report = morse.hessian_spectrum(entry, alpha, 1e-8)
            other = (morse._direct_side(alpha) if alpha < math.pi
                     else morse._dual_side(entry, alpha))
            oracle = _lines_summed_at(entry, other, 64)
            assert other.side != report.side
            label, index, _ = morse.classify(oracle)
            assert (label, index) == (report.classification, report.morse_index)
            for d, f in zip(oracle, report.lines, strict=True):
                assert d.q_eigenvalue == f.q_eigenvalue
                assert abs(d.value - f.value) <= d.error_radius + f.error_radius


@settings(max_examples=200, deadline=None)
@given(
    entry=st.sampled_from(latcat.list_catalog()),
    alpha=st.floats(min_value=0.07, max_value=1e6),  # above the underflow guard
    floats=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
)
def test_fold_is_identity_at_and_above_pi(entry, alpha, floats):
    # alpha >= pi sums at alpha itself and scales back by nothing, bit for bit
    if alpha < math.pi:
        assert morse._fold(entry, alpha, ValueError).side == "dual"
        return
    fold = morse._fold(entry, alpha, ValueError)
    assert (fold.at, fold.side) == (alpha, "direct")
    value, radius, magnitude, envelope = floats
    radius, magnitude, envelope = abs(radius), abs(magnitude), abs(envelope)
    got = fold.spectral(value, radius, magnitude, envelope)
    assert [x.hex() for x in got] == [value.hex(), radius.hex()]


@pytest.mark.parametrize(
    "name, alpha, length", [("E8", 0.5, 200), ("D16+", 1.0, 100), ("Leech", 1.0, 100)]
)
def test_fold_against_high_precision_direct_sum(name, alpha, length):
    # independent route: the direct series at alpha itself, from exact
    # coefficients in 80-digit arithmetic, summed far past its tail
    entry = latcat.get(name)
    n = entry.dimension
    with mpmath.workdps(80):
        sa, sb = _exact_series(entry, alpha, length)
        folded = morse.hessian_spectrum(entry, alpha)
        assert folded.side == "dual"
        for line in folded.lines:
            coef = line.q_eigenvalue * n * (n + 2) - 8 * entry.root_count
            exact = (sa + coef * sb) / (n * (n + 2))
            assert abs(line.value - exact) <= line.error_radius
            assert line.error_radius <= 1e-9 * abs(exact)


def test_fold_underflow_guard():
    for name, alpha in (("E8", 0.029), ("D24", 0.029), ("Leech", 0.058), ("Rootless32", 0.058)):
        with pytest.raises(morse.ToleranceUnreachable, match="underflow"):
            morse.hessian_spectrum(latcat.get(name), alpha)
    with pytest.raises(morse.ToleranceUnreachable, match="underflow"):
        morse.isotropic_hessian_series(latcat.get("Rootless32"), 0.05)
    with pytest.raises(morse.CertificateFails, match="underflow"):
        morse.noncritical_certificate(latcat.get("A1^8+A3^8"), 0.02)
    # just above the guard every sign is still certified
    for name, alpha in (("E8", 0.031), ("D24", 0.031), ("Leech", 0.061)):
        report = morse.hessian_spectrum(latcat.get(name), alpha)
        assert report.classification != morse.CLASS_INDETERMINATE


def test_certificate_folds_below_pi():
    defective = latcat.get("A1^8+A3^8")
    for alpha in (0.1, 0.5, 1.0, 3.0):
        cert = morse.noncritical_certificate(defective, alpha)
        assert cert.alpha == alpha
        assert cert.root_term > cert.remainder > 0
        assert cert.constants["dual_alpha"] == pytest.approx(math.pi**2 / alpha)


def test_isotropic_series_folds():
    entry = latcat.get("Rootless32")
    partial, tail = morse.isotropic_hessian_series(entry, 0.5, 8)
    (line,) = morse.hessian_spectrum(entry, 0.5).lines
    assert abs(partial - line.value) <= tail + line.error_radius
    assert partial - tail > 0  # steep on the dual side: a local minimum


def test_isotropic_series():
    partial, tail = morse.isotropic_hessian_series(latcat.get("Rootless32"), ALPHA, 8)
    assert partial == pytest.approx(-0.0002789345944237142, rel=1e-10)
    assert 0 < tail <= 5.4e-7
    assert partial + tail < 0  # sign certified by the partial sum alone
    with pytest.raises(morse.Inapplicable):
        morse.isotropic_hessian_series(latcat.get("E8"), ALPHA)
    with pytest.raises(ValueError, match="tail start j=2 below"):
        morse.isotropic_hessian_series(latcat.get("Rootless32"), ALPHA, m_terms=1)


def _exact_series(entry, alpha, length):
    """(Sa, Sb) at alpha from exact coefficients in mpmath, summed far past their tails."""
    n = entry.dimension
    theta = modforms.theta_even_unimodular(n, entry.root_count, length)
    cusp = modforms.cusp_normalized(n, length) if n != 8 else None
    al = mpmath.mpf(alpha)
    sa = sb = mpmath.mpf(0)
    for m in range(1, length):
        x = 2 * al * m
        a = theta.coeffs[m]
        sa += mpmath.mpf(a.numerator) / a.denominator * x * (x - (n / 2 + 1)) * mpmath.exp(-x)
        if cusp is not None:
            b = cusp.coeffs[m]
            sb += mpmath.mpf(b.numerator) / b.denominator * al**2 / 2 * mpmath.exp(-x)
    return sa, sb


def test_direct_side_against_high_precision_sum():
    # every direct-side line encloses the exact series at the float alpha
    with mpmath.workdps(60):
        for alpha in (ALPHA, 5.0, 4 * math.pi):
            for entry in CRITICAL:
                n = entry.dimension
                sa, sb = _exact_series(entry, alpha, 40)
                report = morse.hessian_spectrum(entry, alpha)
                assert report.side == "direct"
                for line in report.lines:
                    coef = line.q_eigenvalue * n * (n + 2) - 8 * entry.root_count
                    exact = (sa + coef * sb) / (n * (n + 2))
                    assert abs(line.value - exact) <= line.error_radius, (entry.name, alpha)
        # the isotropic tail covers the partial sum's roundoff as well as its truncation
        rootless = latcat.get("Rootless32")
        for alpha, length in ((ALPHA, 40), (5.0, 40), (0.7, 200)):
            exact = _exact_series(rootless, alpha, length)[0] / (32 * 34)
            for m_terms in (8, 16):
                partial, tail = morse.isotropic_hessian_series(rootless, alpha, m_terms)
                assert abs(partial - exact) <= tail, (alpha, m_terms)


def test_dimension_32_gradient_vanishes_at_pi():
    # for traceless H the gradient series sum_m e^(-2 alpha m) <H, S_m> is
    # <H, S_1> Delta E6 at q = e^(-2 alpha), and E6(i) = 0: every even
    # unimodular lattice of dimension 32 is critical at alpha = pi
    form = modforms.discriminant(40) * modforms.eisenstein(6, 40)
    with mpmath.workdps(60):
        q = mpmath.exp(-2 * mpmath.pi)
        value = mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * q**m for m, c in enumerate(form.coeffs)
        )
    assert abs(value) < 1e-50
    with pytest.raises(morse.CertificateFails):
        morse.noncritical_certificate(latcat.get("A1^8+A3^8"), ALPHA)


def test_dimension_32_certificate_at_pi_says_why():
    defective = latcat.get("A1^8+A3^8")
    with pytest.raises(morse.CertificateFails, match="critical at alpha = pi"):
        morse.noncritical_certificate(defective, math.pi)
    direction = np.diag([24.0] * 8 + [-8.0] * 24)
    with pytest.raises(morse.CertificateFails, match="critical at alpha = pi"):
        morse.noncritical_certificate(defective, math.pi, direction)
    # next to pi the certificate is attempted as before
    with pytest.raises(morse.CertificateFails, match="does not dominate"):
        morse.noncritical_certificate(defective, math.nextafter(math.pi, 4.0))


def test_gradient_form_is_delta_e6():
    form = modforms.discriminant(40) * modforms.eisenstein(6, 40)
    assert list(morse._DELTA_E6) == list(form.coeffs[:17])


def test_certificate_encloses_high_precision_pairing():
    # independent route: -alpha <H, S_1> Delta E6(e^(-2 alpha)) at alpha itself, no
    # fold, from exact coefficients in 80-digit arithmetic, summed far past its tail
    defective = latcat.get("A1^8+A3^8")
    form = modforms.discriminant(140) * modforms.eisenstein(6, 140)
    witness, given = (96, None), (-768, np.diag([24.0] * 8 + [-8.0] * 24))
    with mpmath.workdps(80):
        for alpha in (1.0, 3.0, 14.0, math.pi * (1 - 1e-9), math.pi * (1 + 1e-9)):
            al = mpmath.mpf(alpha)
            value = mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * mpmath.exp(-2 * al * m)
                                for m, c in enumerate(form.coeffs))
            for pairing, direction in (witness, given):
                exact = abs(-al * pairing * value)
                cert = morse.noncritical_certificate(defective, alpha, direction)
                assert cert.root_term - cert.remainder <= exact, (alpha, pairing)
                assert exact <= cert.root_term + cert.remainder, (alpha, pairing)


def test_certificate_on_a_log_grid():
    defective = latcat.get("A1^8+A3^8")
    for alpha in np.geomspace(0.04, 300.0, 400).tolist():
        if abs(alpha / math.pi - 1.0) > 1e-12:
            cert = morse.noncritical_certificate(defective, alpha)
            assert cert.root_term > cert.remainder > 0, alpha


def test_moment_defect_below_dimension_32_is_inapplicable():
    # S_(n/2+2) is trivial for n <= 24: no even unimodular lattice has this root shell
    with pytest.raises(morse.Inapplicable, match="no even unimodular lattice"):
        morse.noncritical_certificate(latcat.make_entry("A1", 24), 14.0)


def test_certificate_direction_is_the_witness():
    defective = latcat.get("A1^8+A3^8")
    assert morse.noncritical_certificate(defective, 14.0).direction is (
        morse.criticality(defective).witness
    )
    direction = np.diag([24.0] * 8 + [-8.0] * 24)
    given = morse.noncritical_certificate(defective, 14.0, direction).direction
    assert np.array_equal(given, direction)


@pytest.mark.parametrize("entry, expected", [
    (latcat.get("A1^8+A3^8"), 96.0),
    (latcat.make_entry("A1^8", 32), 96.0),
    (latcat.make_entry("A3^4+A1^4", 32), 440.0),
    (latcat.get("E8"), 0.0),
])
def test_witness_pairing_is_the_exact_sum(entry, expected):
    crit = morse.criticality(entry)
    exact = sum(size * d * d for (size, _), d in zip(crit.blocks, crit.defects))
    assert crit.witness_pairing == float(exact) == expected


def test_warm_witness_certificate_does_no_fraction_arithmetic(monkeypatch):
    defective = latcat.get("A1^8+A3^8")
    alphas = (1.0, 3.0, 14.0)
    warm = [morse.noncritical_certificate(defective, alpha) for alpha in alphas]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic on a warm certificate")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, refuse)
    for alpha, cert in zip(alphas, warm):
        again = morse.noncritical_certificate(defective, alpha)
        assert (again.root_term, again.remainder) == (cert.root_term, cert.remainder)
        assert again.constants == cert.constants


def test_certificate_caller_direction_route_is_unchanged():
    # diag(24^8, -8^24) is -8 times the witness: its pairing is 8 * 96, and scaling by
    # a power of two rounds nothing, so each number is 8 times the witness's
    defective = latcat.get("A1^8+A3^8")
    direction = np.diag([24.0] * 8 + [-8.0] * 24)
    pinned = {1.0: (1825.7002229886066, 0.0025788966656023244),
              3.0: (7.335917607880142, 5.434757444187),
              14.0: (7.434362994982106e-09, 2.7141396631974283e-18)}
    for alpha, (root_term, remainder) in pinned.items():
        cert = morse.noncritical_certificate(defective, alpha, direction)
        witness = morse.noncritical_certificate(defective, alpha)
        assert cert.constants["root_pairing"] == 768.0
        assert cert.root_term == pytest.approx(root_term, rel=1e-15, abs=0)
        assert cert.remainder == pytest.approx(remainder, rel=1e-15, abs=0)
        assert (cert.root_term, cert.remainder) == (8 * witness.root_term,
                                                    8 * witness.remainder)


@pytest.mark.parametrize("alpha", [1e-19, 1e-40, 1e-300])
def test_tiny_alpha_raises_underflow(alpha):
    # (pi/alpha)^(n/2) overflows here; the underflow guard must come first
    rootless = latcat.get("Rootless32")
    with pytest.raises(morse.ToleranceUnreachable, match="underflow"):
        morse.hessian_spectrum(rootless, alpha)
    with pytest.raises(morse.ToleranceUnreachable, match="underflow"):
        morse.isotropic_hessian_series(rootless, alpha)
    with pytest.raises(morse.CertificateFails, match="underflow"):
        morse.noncritical_certificate(latcat.get("A1^8+A3^8"), alpha)


@pytest.mark.parametrize("name", ["E8", "Leech", "Rootless32"])
def test_huge_alpha_sums_no_nan(name):
    # x (x - c) overflows once x = 2 alpha m passes ~1e154, where e^-x is already 0.0
    entry = latcat.get(name)
    with pytest.raises(morse.ToleranceUnreachable, match="underflow") as info:
        morse.hessian_spectrum(entry, 1e150)
    assert "nan" not in str(info.value)
    if entry.root_count == 0:
        value, tail = morse.isotropic_hessian_series(entry, 1e150, 8)
        assert value == 0.0 and math.isfinite(tail)


@pytest.mark.parametrize("alpha", [1e154, 1e200, 1e300])
def test_isotropic_series_tail_overflow_raises(alpha):
    # 4 alpha^2 of the theta tail overflows: inf at 1e154, NaN beyond, never a tail
    with pytest.raises(morse.ToleranceUnreachable, match="overflow"):
        morse.isotropic_hessian_series(latcat.get("Rootless32"), alpha, 8)


@pytest.mark.parametrize("alpha", [400.0, 6e306, 1e308])
def test_certificate_zero_root_weight_names_no_nan(alpha):
    # e^(-2 alpha) underflows to 0 near alpha = 372, and 2 alpha m overflows near 1e307
    with pytest.raises(morse.CertificateFails, match="^root term 0 does not dominate") as info:
        morse.noncritical_certificate(latcat.get("A1^8+A3^8"), alpha)
    assert "nan" not in str(info.value)


def test_alpha_sweep():
    reports = morse.alpha_sweep(latcat.get("E8^2"), [3.0, ALPHA, 3.3])
    assert [r.alpha for r in reports] == [3.0, ALPHA, 3.3]
    assert all(len(r.lines) == 3 for r in reports)


def test_spectrum_partial_consistency():
    entry = latcat.get("D16+")
    report = morse.hessian_spectrum(entry, ALPHA)
    for line in report.lines:
        partial = morse.spectrum_partial(entry, ALPHA, line.q_eigenvalue, report.terms)
        assert line.value == partial
    # one kernel behind all three
    rootless = latcat.get("Rootless32")
    report = morse.hessian_spectrum(rootless, ALPHA)
    assert report.terms == 16
    (line,) = report.lines
    assert morse.isotropic_hessian_series(rootless, ALPHA, 16)[0] == line.value


@pytest.mark.parametrize("alpha, m_terms", [(-1.0, 3), (0.0, 3), (math.nan, 3), (math.inf, 3),
                                             (ALPHA, -3)])
def test_spectrum_partial_rejects_bad_arguments(alpha, m_terms):
    with pytest.raises(ValueError):
        morse.spectrum_partial(latcat.get("E8"), alpha, 24, m_terms)


def test_spectrum_report_json():
    report = morse.hessian_spectrum(latcat.get("D16+"), ALPHA)
    payload = report.to_json_dict()
    assert payload["lattice"] == "D16+"
    assert payload["classification"] == morse.CLASS_SADDLE
    assert payload["morse_index"] == 120
    assert [row["lambda"] for row in payload["lines"]] == [8, 56]
    assert payload["lines"][0]["sign"] == -1
    # values are rounded to 12 significant digits for stable serialization
    assert payload["lines"][1]["mu"] == float(f"{_line(report, 56).value:.12g}")


def test_deformation_factor():
    check = morse.deformation_check(
        2 * np.eye(2, dtype=np.int64), 1.0, np.diag([1.0, -1.0])
    )
    assert check.agree
    assert check.measured_ratio == pytest.approx(2.0, abs=1e-5)
    gram = np.array([[2, 1], [1, 2]], dtype=np.int64)
    check = morse.deformation_check(gram, 1.5, np.diag([1.0, -1.0]), m_max=6)
    assert check.agree
    # eigh reads one triangle only, so a non-symmetric H has no path to deform along
    with pytest.raises(ValueError, match="direction must be symmetric"):
        morse.deformation_check(2 * np.eye(2, dtype=np.int64), 1.0, [[0.0, 1.0], [0.0, 0.0]])


def test_classification_spread_at_pi():
    # the same alpha separates minima from saddles across the rooted catalog
    expectations = {
        "A1^24": (morse.CLASS_LOCAL_MIN, 0),
        "A2^12": (morse.CLASS_SADDLE, 264),
        "E8^3": (morse.CLASS_SADDLE, 192),
        "D24": (morse.CLASS_SADDLE, 276),
    }
    for name, (label, index) in expectations.items():
        report = morse.hessian_spectrum(latcat.get(name), ALPHA)
        assert (report.classification, report.morse_index) == (label, index)
