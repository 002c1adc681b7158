"""The public API: the names ``latmorse.__all__`` promises stay the same."""

from __future__ import annotations

import latmorse

PUBLIC = [
    "Certificate",
    "CertificateFails",
    "CriticalityResult",
    "Inapplicable",
    "LatticeEntry",
    "NotCritical",
    "QSeries",
    "QSpectrum",
    "RootSystem",
    "SpectrumReport",
    "ToleranceUnreachable",
    "UnknownLattice",
    "alpha_sweep",
    "closed_spectrum",
    "criticality",
    "discriminant",
    "eisenstein",
    "get",
    "hessian_spectrum",
    "large_alpha_class",
    "list_catalog",
    "make_entry",
    "make_irreducible",
    "noncritical_certificate",
    "numeric_spectrum",
    "parse_root_system",
    "theta_even_unimodular",
    "__version__",
]


def test_all_is_pinned():
    assert latmorse.__all__ == PUBLIC
    assert len(PUBLIC) == 28


def test_every_public_name_resolves():
    for name in latmorse.__all__:
        assert getattr(latmorse, name) is not None, name
