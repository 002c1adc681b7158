"""Catalog entries: identities, Gram data, theta rows, construction guards."""

from __future__ import annotations

import ast
import functools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from latmorse import latcat, modforms

NIEMEIER_COUNT = 23  # rooted 24-dimensional entries

ROOTLESS32_ROW = [
    1,
    0,
    146880,
    64757760,
    4844836800,
    137695887360,
    2121555283200,
    21421110804480,
    158757684004800,
]


def test_catalog_size_and_order():
    entries = latcat.list_catalog()
    assert len(entries) == 29
    assert [e.name for e in entries[:4]] == ["E8", "D16+", "E8^2", "Leech"]
    keys = [(e.dimension, e.root_count, e.name) for e in entries]
    assert keys == sorted(keys)
    dims = [e.dimension for e in entries]
    assert dims.count(24) == NIEMEIER_COUNT + 1  # Leech plus the rooted ones


def test_lookup_case_insensitive():
    assert latcat.get("leech").name == "Leech"
    assert latcat.get("d16+").name == "D16+"
    assert latcat.get(" E8 ").name == "E8"
    with pytest.raises(latcat.UnknownLattice):
        latcat.get("Z24")


def test_gram_matrices():
    for name in ("E8", "D16+"):
        entry = latcat.get(name)
        g = entry.gram
        assert g is not None
        assert np.array_equal(g, g.T)
        assert np.all(np.diag(g) % 2 == 0)
        assert round(float(np.linalg.det(g.astype(float)))) == 1
        assert np.max(np.abs(entry.basis @ entry.basis.T - g)) < 1e-9
    assert latcat.get("Leech").gram is None
    assert latcat.get("E8^2").gram is None


def test_root_data_consistency():
    for entry in latcat.list_catalog():
        if entry.root_count == 0:
            assert entry.coxeter_number is None
            assert entry.root_system.count == 0
            continue
        assert entry.root_system.count == entry.root_count
        if entry.dimension == 24:
            # rooted Niemeier lattices: |R| = 24 h with one common h
            assert entry.coxeter_number is not None
            assert entry.root_count == 24 * entry.coxeter_number
    assert latcat.get("A1^8+A3^8").coxeter_number is None  # mixed h = 2, 4


def test_theta_coefficients_nonnegative_integers():
    for entry in latcat.list_catalog():
        assert entry.theta.is_integral()
        assert all(c >= 0 for c in entry.theta.coeffs)
        assert entry.theta.coeffs[0] == 1
        assert entry.theta.coefficient(1) == entry.root_count
        long_row = modforms.theta_even_unimodular(entry.dimension, entry.root_count, 129).coeffs
        assert all(type(c) is int and c >= 0 for c in long_row), entry.name


def test_theta_known_rows():
    leech = latcat.get("Leech")
    assert int(leech.theta.coefficient(2)) == 196560
    assert int(leech.theta.coefficient(3)) == 16773120
    rootless = latcat.get("Rootless32")
    assert [int(c) for c in rootless.theta.coeffs[:9]] == ROOTLESS32_ROW
    defective = latcat.get("A1^8+A3^8")
    assert defective.root_count == 112
    assert int(defective.theta.coefficient(2)) == 171072


@functools.lru_cache(maxsize=None)
def _fraction_products(length):
    e4, e6 = modforms.eisenstein(4, length), modforms.eisenstein(6, length)
    delta = (e4 * e4 * e4 - e6 * e6).scale(Fraction(1, 1728))
    return e4, e4 * e4, e4 * e4 * e4, delta, delta * e4, delta * e4 * e4


def _fraction_forms(n, root_count, length=modforms.DEFAULT_LENGTH):
    """Theta and cusp series from Fraction QSeries products, as built before."""
    e4, e4_sq, e4_cube, delta, e4_delta, e4_sq_delta = _fraction_products(length)
    cusp = {8: None, 16: delta, 24: e4_delta, 32: e4_sq_delta}[n]
    if n == 8:
        theta = e4
    elif n == 16:
        theta = e4_sq
    elif n == 24:
        theta = e4_cube + delta.scale(root_count - 720)
    else:
        theta = modforms.eisenstein(16, length) + e4_delta.scale(
            root_count - modforms.eisenstein_first_coeff(16)
        )
    return theta, cusp


def test_catalog_matches_fraction_construction():
    for entry in latcat.list_catalog():
        theta, cusp = _fraction_forms(entry.dimension, entry.root_count)
        assert entry.theta.weight == theta.weight
        assert entry.theta.coeffs == theta.coeffs, entry.name
        if cusp is None:  # S_8 = 0: E8's cusp is the zero row of weight 8
            assert entry.cusp.weight == 8
            assert entry.cusp.coeffs == (0,) * modforms.DEFAULT_LENGTH
        else:
            assert entry.cusp.weight == cusp.weight
            assert entry.cusp.coeffs == cusp.coeffs, entry.name
        a, b = entry.series_floats(129)
        theta, cusp = _fraction_forms(entry.dimension, entry.root_count, 129)
        assert list(a) == theta.floats()
        assert list(b) == (cusp.floats() if cusp else [0.0] * 129)


def test_catalog_build_computes_root_counts_and_coxeter_numbers():
    # every request reads them: a freshly built catalog, no request served yet, holds them
    for entry in latcat._catalog.__wrapped__():
        assert {"count", "coxeter_number"} <= vars(entry.root_system).keys(), entry.name


def test_q_rows_are_integers_for_no_roots_or_roots_of_full_rank():
    assert latcat.get("Leech").q_rows == ((0, 299),)
    assert latcat.get("D16+").q_rows == ((8, 120), (56, 15))
    assert all(type(lam) is int for e in (latcat.get("E8^2"), latcat.get("A24"))
               for lam, _ in e.q_rows)
    # E8 padded to 32 dimensions has a moment defect: no closed rows, and no assert to strip
    with pytest.raises(ValueError, match="spanning all 32 dimensions"):
        latcat.make_entry("E8", 32).q_rows


def test_catalog_build_uses_no_qseries_products(monkeypatch):
    def refuse(self, other):
        raise AssertionError("QSeries.__mul__ called while building the catalog")

    for cached in (latcat._catalog, modforms._monomial):
        cached.cache_clear()
    monkeypatch.setattr(modforms.QSeries, "__mul__", refuse)
    assert len(latcat.list_catalog()) == 29
    assert modforms._monomial.cache_info().misses > 0


def test_series_floats():
    entry = latcat.get("E8")
    a, b = entry.series_floats(10)
    assert len(a) >= 10 and len(b) >= 10
    assert a[1] == 240.0
    assert np.all(np.asarray(b) == 0.0)  # no cusp form in dimension 8, by convention zeros

    leech_a, leech_b = latcat.get("Leech").series_floats(4)
    assert leech_a[2] == 196560.0
    assert leech_b[1] == 1.0

    again = entry.series_floats(10)
    assert again[0] is a  # cached


def test_series_floats_rejects_a_negative_length():
    # a negative slice bound would return rows of length 64 - 1
    with pytest.raises(ValueError, match="series length must be nonnegative, got -1"):
        latcat.get("E8").series_floats(-1)
    assert [len(row) for row in latcat.get("E8").series_floats(0)] == [0, 0]


def test_series_floats_are_read_only_buffers():
    a, b = latcat.get("D16+").series_floats(8)
    assert a.readonly and b.readonly
    view = np.asarray(a)
    assert view.base.obj is a.obj  # numpy reads the row without a copy
    assert not view.flags.writeable
    assert a.tolist()[:3] == [1.0, 480.0, 61920.0]


def test_short_rows_are_views_of_the_catalog_rows():
    for entry in latcat.list_catalog():
        full = entry.series_floats(modforms.DEFAULT_LENGTH)
        for length in (1, 9, 17, 63):
            rows = entry.series_floats(length)
            assert [len(row) for row in rows] == [length, length]
            assert all(row.obj is whole.obj for row, whole in zip(rows, full))
            assert [row.tolist() for row in rows] == [whole[:length].tolist() for whole in full]
    long_a, _ = latcat.get("Leech").series_floats(129)
    assert len(long_a) == 129 and long_a.readonly


# first requests of a fresh process, one per dimension and one certificate;
# prints the _monomial misses before and after, the exact series constructors
# called after the catalog build, and whether a short row shares the
# entry-length row's buffer
_FIRST_REQUESTS = """
from latmorse import latcat, modforms, morse
latcat.list_catalog()
built = []
for name in ("theta_even_unimodular", "cusp_normalized", "discriminant"):
    def counted(*args, _fn=getattr(modforms, name), _name=name, **kwargs):
        built.append(_name)
        return _fn(*args, **kwargs)
    setattr(modforms, name, counted)
before = modforms._monomial.cache_info().misses
for name in ("E8", "D16+", "Leech", "Rootless32"):
    morse.hessian_spectrum(latcat.get(name), 1.2)
morse.noncritical_certificate(latcat.get("A1^8+A3^8"), 1.2)
entry = latcat.get("Leech")
shared = entry.series_floats(17)[0].obj is entry.series_floats(64)[0].obj
print((before, modforms._monomial.cache_info().misses, built, shared))
"""


def test_first_requests_build_no_exact_series():
    src = str(Path(latcat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _FIRST_REQUESTS], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert run.returncode == 0, run.stderr
    before, after, built, shared = ast.literal_eval(run.stdout)
    assert after == before
    assert built == []
    assert shared


def test_coeff_bound_structure():
    # dimensions 8 and 16 are pure Eisenstein; 24 and 32 carry a cusp part
    # (for n = 24 the Eisenstein coefficient of q is fractional, so that part
    # never cancels exactly)
    assert len(latcat.get("E8").coeff_bound().terms) == 1
    assert len(latcat.get("D16+").coeff_bound().terms) == 1
    assert len(latcat.get("E8^3").coeff_bound().terms) == 2
    assert len(latcat.get("A1^24").coeff_bound().terms) == 2
    assert len(latcat.get("Rootless32").coeff_bound().terms) == 2


def test_make_entry():
    entry = latcat.make_entry("D16", 16)
    assert entry.dimension == 16
    assert entry.root_count == 480
    assert entry.theta.coeffs == latcat.get("D16+").theta.coeffs

    full = latcat.make_entry("A1^8+A3^8")
    assert full.dimension == 32
    assert full.theta.coefficient(2) == latcat.get("A1^8+A3^8").theta.coefficient(2)

    padded = latcat.make_entry("A1", 32)
    assert padded.name == "A1 (dim 32)"
    assert padded.root_count == 2
    with pytest.raises(ValueError):
        latcat.make_entry("A5", 12)
    with pytest.raises(ValueError):
        latcat.make_entry("A24", 16)


def test_entry_summary_json_ready():
    payload = latcat.entry_summary(latcat.get("A2^12"))
    assert payload["name"] == "A2^12"
    assert payload["dimension"] == 24
    assert payload["root_count"] == 72
    assert payload["coxeter_number"] == 3
    assert len(payload["theta_coefficients"]) == 16
    json.dumps(payload)  # must not raise
