"""The quartic form Q on traceless matrices: spectra, designs, harmonics."""

from __future__ import annotations

import numpy as np
import pytest

from latmorse import enumlat, latcat, modforms, rootsys, symspace


def _random_traceless(rng, n: int) -> np.ndarray:
    h = rng.normal(size=(n, n))
    h = (h + h.T) / 2.0
    return h - np.trace(h) / n * np.eye(n)


def _qr_zero_sum(n: int) -> np.ndarray:
    """Orthonormalized chain e_k - e_(k+1) by numpy's QR, column signs fixed so
    that the first row is positive, as Gram-Schmidt leaves it."""
    q, _ = np.linalg.qr(np.eye(n, n - 1) - np.eye(n, n - 1, k=-1))
    return q * np.sign(q[0])


def _full_basis(n: int) -> np.ndarray:
    """The (d, n, n) basis of T0^n that ``_basis_values`` evaluates, built whole:
    (E_ij + E_ji)/sqrt(2) for i < j, then the orthonormalized E_ii - E_(i+1,i+1)."""
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    mats.extend(np.diag(column) for column in _qr_zero_sum(n).T)
    return np.stack(mats)


def test_zero_sum_basis_is_the_orthonormalized_chain():
    for n in range(2, 34):
        basis = rootsys._zero_sum_basis(n)
        assert basis.shape == (n, n - 1)
        assert np.max(np.abs(basis.T @ basis - np.eye(n - 1))) < 1e-15
        assert np.max(np.abs(basis.sum(axis=0))) < 1e-15
        assert np.max(np.abs(basis - _qr_zero_sum(n))) < 1e-15
    assert rootsys._zero_sum_basis(1).shape == (1, 0)


def test_basis_values_match_orthonormal_basis():
    rng = np.random.default_rng(5)
    for n in (2, 4, 7, 24):
        basis = _full_basis(n)
        d = n * (n + 1) // 2 - 1
        assert basis.shape == (d, n, n)
        for mat in basis:
            assert abs(np.trace(mat)) < 1e-12
            assert np.max(np.abs(mat - mat.T)) == 0.0
        gram = np.einsum("aij,bij->ab", basis, basis)
        assert np.max(np.abs(gram - np.eye(d))) < 1e-12
        # _basis_values reads x^T B x on exactly this basis, column by column
        points = rng.normal(size=(30, n))
        expected = np.einsum("ri,bij,rj->rb", points, basis, points)
        assert np.max(np.abs(symspace._basis_values(points) - expected)) < 1e-12


def test_quartic_form_isotropic_shells():
    # E8 and A2 have a single Q-eigenvalue, so Q[H] is proportional to Tr H^2
    rng = np.random.default_rng(3)
    for system, lam in ((rootsys.make_irreducible("E", 8), 24.0),
                        (rootsys.make_irreducible("A", 2), 6.0)):
        for _ in range(5):
            h = _random_traceless(rng, system.rank)
            tr2 = float(np.trace(h @ h))
            assert symspace.quartic_form(system, h) == pytest.approx(lam * tr2, rel=1e-10)


def test_closed_spectrum_rows():
    spec = symspace.closed_spectrum(rootsys.make_irreducible("D", 16))
    assert spec.entries == ((8.0, 120), (56.0, 15))
    assert spec.space_dim == 135

    spec = symspace.closed_spectrum(rootsys.parse_root_system("E8^2"))
    assert spec.entries == ((0.0, 64), (24.0, 70), (120.0, 1))

    spec = symspace.closed_spectrum(rootsys.parse_root_system("A1^24"))
    assert spec.entries == ((0.0, 276), (8.0, 23))
    assert spec.multiplicity_total == 299


def test_closed_vs_numeric_spectrum():
    cases = ["A2", "A3", "A5", "D4", "D6", "E6", "A2^2", "A5^4+D4"]
    for text in cases:
        system = rootsys.parse_root_system(text)
        closed = symspace.closed_spectrum(system)
        numeric = symspace.numeric_spectrum(system)
        assert len(closed.entries) == len(numeric.entries)
        for (lam_c, mult_c), (lam_n, mult_n) in zip(closed.entries, numeric.entries):
            assert lam_n == pytest.approx(lam_c, abs=1e-8)
            assert mult_n == mult_c


def test_unequal_coxeter_guard():
    mixed = rootsys.parse_root_system("A1+A2")
    with pytest.raises(symspace.UnequalCoxeter):
        symspace.closed_spectrum(mixed)
    # dense route has no such restriction
    numeric = symspace.numeric_spectrum(mixed)
    assert numeric.space_dim == 5

    with pytest.raises(ValueError):
        symspace.closed_spectrum(rootsys.empty_root_system())
    with pytest.raises(ValueError):
        symspace.numeric_spectrum(rootsys.make_irreducible("A", 1))


def test_design_checks():
    e8 = rootsys.make_irreducible("E", 8)
    assert symspace.design_check(e8.frame_roots, 2).passed
    assert symspace.design_check(e8.frame_roots, 4).passed

    a3 = rootsys.make_irreducible("A", 3)
    assert symspace.design_check(a3.frame_roots, 2).passed
    four = symspace.design_check(a3.frame_roots, 4)
    assert not four.passed
    assert four.residual > 1e-2

    with pytest.raises(symspace.OffSphere):
        symspace.design_check(np.array([[1.0, 0.0], [2.0, 0.0]]), 2)
    with pytest.raises(symspace.EmptyInput):
        symspace.design_check(np.zeros((0, 3)), 2)
    with pytest.raises(ValueError):
        symspace.design_check(e8.frame_roots, 3)


def test_harmonic_reconstruction():
    rng = np.random.default_rng(9)
    h = _random_traceless(rng, 5)
    parts = symspace.harmonic_components(h)
    for _ in range(10):
        x = rng.normal(size=5)
        expected = float(x @ h @ x) ** 2
        assert parts.reconstruct(x) == pytest.approx(expected, rel=1e-10, abs=1e-12)
        assert parts.quartic(x) == pytest.approx(expected, rel=1e-12)


def test_harmonic_p4_averages_to_zero_on_designs():
    # degree-4 harmonics integrate to zero; a 4-design shell sees that exactly
    rng = np.random.default_rng(3)
    h = _random_traceless(rng, 8)
    parts = symspace.harmonic_components(h)
    e8 = rootsys.make_irreducible("E", 8)
    total = sum(parts.p4(x) for x in e8.frame_roots)
    assert abs(total) < 1e-10

    p2_total = sum(parts.p2(x) for x in e8.frame_roots)
    assert abs(p2_total) < 1e-10


def test_harmonic_traceless_guard():
    with pytest.raises(symspace.NonTraceless):
        symspace.harmonic_components(np.eye(3))
    # traceless but not symmetric: H[x] reads only its symmetric part, and p0
    # from H alone would be 0 where that part gives 1/8
    with pytest.raises(ValueError, match="direction must be symmetric"):
        symspace.harmonic_components([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        symspace.harmonic_components(np.ones(3))


def test_shell_quartic_sum_matches_enumeration():
    entry = latcat.get("D16+")
    h = np.diag([15.0] + [-1.0] * 15)
    h /= np.sqrt(np.trace(h @ h))
    vectors, norms = enumlat.short_vectors(entry.gram, 4)
    for m in (1, 2):
        x = vectors[norms == 2 * m] @ entry.basis
        direct = float(np.sum(np.einsum("ri,ij,rj->r", x, h, x) ** 2))
        assert symspace.shell_quartic_sum(entry, h, m) == pytest.approx(direct, rel=1e-12)
    # the root shell reproduces the quartic form itself
    assert symspace.shell_quartic_sum(entry, h, 1) == pytest.approx(
        symspace.quartic_form(entry.root_system, h), rel=1e-12
    )


def test_shell_quartic_sum_guards():
    assert symspace.UnsupportedDimension is modforms.UnsupportedDimension
    with pytest.raises(modforms.UnsupportedDimension):
        symspace.shell_quartic_sum(latcat.get("E8"), np.diag([1.0, -1.0] * 4), 1)
    # the formula holds on traceless H only: I_16 would give 69120 for the
    # norm-4 shell of D16+, where enumeration gives 990720
    with pytest.raises(symspace.NonTraceless):
        symspace.shell_quartic_sum(latcat.get("D16+"), np.eye(16), 2)
    with pytest.raises(ValueError):
        symspace.shell_quartic_sum(latcat.get("D16+"), np.diag([1.0, -1.0] * 8), 0)


def test_quartic_values_shape():
    a3 = rootsys.make_irreducible("A", 3)
    vals = symspace.quartic_values(a3, np.diag([1.0, 0.0, -1.0]))
    assert vals.shape == (12,)
    assert symspace.quartic_form(a3, np.diag([1.0, 0.0, -1.0])) == pytest.approx(
        float(vals @ vals)
    )
