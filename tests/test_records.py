"""Every record type: construction, defaults, repr, equality, immutability.

Value records compare and hash by their fields; identity records (a lattice,
a result, a report) compare by identity, so caching on one never hashes its
theta row.  Neither kind accepts assignment to a field.
"""

from __future__ import annotations

import pytest

from latmorse import latcat, modforms, morse, rootsys, symspace

# value record -> (field names in positional order, one value per field)
VALUE_RECORDS = {
    morse.SpectralLine: (("q_eigenvalue", "multiplicity", "value", "error_radius"),
                         (4, 2, 0.5, 1e-12)),
    morse._Fold: (("at", "scale", "rel", "arg_rel"), (3.5, 1.0, 0.0, 0.0)),
    morse.DeformationCheck: (("measured_ratio", "expected_ratio", "agree"), (2.0, 2.0, True)),
    symspace.QSpectrum: (("space_dim", "entries"), (3, ((0.0, 1), (4.0, 2)))),
    symspace.DesignCheck: (("strength", "radius_sq", "residual", "passed"), (4, 2.0, 1e-15, True)),
    modforms.CoeffBound: (("terms",), (((2.5, 3), (1.0, 0)),)),
}


@pytest.mark.parametrize("cls", list(VALUE_RECORDS), ids=lambda cls: cls.__name__)
def test_value_record(cls):
    names, values = VALUE_RECORDS[cls]
    positional = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    assert [getattr(positional, name) for name in names] == list(values)
    assert positional == keyword and hash(positional) == hash(keyword)
    assert positional is not keyword
    other = cls(*values[:-1], "other")
    assert positional != other
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(positional) == f"{cls.__name__}({fields})"
    for name in names:
        with pytest.raises(AttributeError):
            setattr(positional, name, 0)
    with pytest.raises(TypeError):
        cls(*values[:-1])


def test_value_record_repr_text():
    line = morse.SpectralLine(4, 2, 0.5, 1e-12)
    assert repr(line) == "SpectralLine(q_eigenvalue=4, multiplicity=2, value=0.5, error_radius=1e-12)"
    assert repr(modforms.CoeffBound(((2.5, 3),))) == "CoeffBound(terms=((2.5, 3),))"
    assert line.sign == 1 and morse.SpectralLine(4, 2, 1e-13, 1e-12).sign == 0


def test_qseries_is_a_value_record_without_tuple_behaviour():
    series = modforms.QSeries(4, (1, 240, 2160))
    assert series == modforms.QSeries(weight=4, coeffs=(1, 240, 2160))
    assert hash(series) == hash(modforms.QSeries(4, (1, 240, 2160)))
    assert series != modforms.QSeries(8, (1, 240, 2160))
    assert series != (4, (1, 240, 2160))
    assert repr(series) == "QSeries(weight=4, coeffs=(1, 240, 2160))"
    assert series.length == 3 and series.coefficient(1) == 240
    with pytest.raises(TypeError):
        len(series)
    with pytest.raises(TypeError):
        3 * series
    with pytest.raises(TypeError):
        iter(series)
    for name in ("weight", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(series, name, 0)
    assert (series + series).coeffs == (2, 480, 4320)
    assert (series - series).coeffs == (0, 0, 0)
    assert (series * series).coeffs == (1, 480, 61920)


def _identity_records():
    """(record, the same record rebuilt by keyword, field names) per identity record type."""
    e8 = latcat.get("E8")
    crit = morse.criticality(latcat.get("A1^8+A3^8"))
    report = morse.hessian_spectrum(latcat.get("E8"), 5.0)
    cert = morse.noncritical_certificate(latcat.get("A1^8+A3^8"), 14.0)
    a2 = rootsys.make_irreducible("A", 2)
    fields = {
        latcat.LatticeEntry: ("name", "dimension", "root_system", "root_count",
                              "coxeter_number", "theta", "cusp", "with_gram"),
        morse.CriticalityResult: ("kind", "target", "blocks", "defects", "reason"),
        morse.Certificate: ("lattice", "alpha", "_direction", "root_term", "remainder",
                            "constants"),
        morse.SpectrumReport: ("lattice", "alpha", "terms", "lines", "classification",
                               "morse_index", "margin", "side"),
        rootsys.IrreducibleRootSystem: ("kind", "rank"),
        rootsys.RootSystem: ("components",),
    }
    for record in (e8, crit, cert, report, a2, e8.root_system):
        names = fields[type(record)]
        values = {name: getattr(record, name) for name in names}
        yield record, type(record)(**values), names


def test_identity_records():
    seen = set()
    for record, rebuilt, names in _identity_records():
        cls = type(record)
        seen.add(cls)
        again = cls(*(getattr(record, name) for name in names))
        assert all(getattr(again, name) is getattr(record, name) for name in names)
        assert rebuilt is not record and rebuilt != record and again != rebuilt
        assert record == record and hash(record) == object.__hash__(record)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
    assert len(seen) == 6


def test_identity_record_defaults_and_cached_properties():
    e8 = latcat.get("E8")
    plain = latcat.LatticeEntry("E8", 8, e8.root_system, 240, 30, e8.theta, None)
    assert plain.with_gram is False and plain.basis is None and plain.gram is None
    assert e8.with_gram is True and e8.gram is e8.gram and e8.gram[0, 0] == 4
    report = morse.SpectrumReport("E8", 5.0, 16, (), "LocalMin", 0, 1.0)
    assert report.side == "direct"
    system = rootsys.RootSystem((rootsys.make_irreducible("A", 2),) * 2)
    assert system.name == "A2^2" and system.name is system.name
    assert repr(system) == "RootSystem(A2^2, rank 4)"
    assert repr(rootsys.make_irreducible("E", 8)) == "IrreducibleRootSystem(E8, 240 roots)"


def test_criticality_cache_keys_on_identity():
    entry = latcat.get("A1^8+A3^8")
    twin = latcat.LatticeEntry(*(getattr(entry, name) for name in (
        "name", "dimension", "root_system", "root_count", "coxeter_number", "theta", "cusp")))
    assert morse.criticality(entry) is morse.criticality(entry)
    assert morse.criticality(twin) is not morse.criticality(entry)
