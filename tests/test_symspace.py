"""The quartic form Q on traceless matrices: spectra and designs."""

from __future__ import annotations

import numpy as np
import pytest

from latmorse import enumlat, latcat, rootsys, symspace


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
    with pytest.raises(ValueError, match="Coxeter numbers"):
        symspace.closed_spectrum(mixed)
    # dense route has no such restriction
    numeric = symspace.numeric_spectrum(mixed)
    assert numeric.space_dim == 5

    with pytest.raises(ValueError):
        symspace.closed_spectrum(rootsys.empty_root_system())
    with pytest.raises(ValueError):
        symspace.numeric_spectrum(rootsys.make_irreducible("A", 1))


def test_design_check_norm_guard_is_relative():
    # squared norms 1 and 4: off any common sphere at every scale, tiny ones too
    for scale in (1e-5, 1.0):
        points = scale * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
        with pytest.raises(ValueError, match="common positive norm"):
            symspace.design_check(points, 2)


def test_design_checks():
    e8 = rootsys.make_irreducible("E", 8)
    assert symspace.design_check(e8.frame_roots, 2).passed
    assert symspace.design_check(e8.frame_roots, 4).passed

    a3 = rootsys.make_irreducible("A", 3)
    assert symspace.design_check(a3.frame_roots, 2).passed
    four = symspace.design_check(a3.frame_roots, 4)
    assert not four.passed
    assert four.residual > 1e-2

    with pytest.raises(ValueError, match="common positive norm"):
        symspace.design_check(np.array([[1.0, 0.0], [2.0, 0.0]]), 2)
    # the origin is on no sphere, and both residuals divide by the radius
    with pytest.raises(ValueError, match="common positive norm"):
        symspace.design_check(np.zeros((4, 3)), 4)
    with pytest.raises(ValueError, match="nonempty 2d array"):
        symspace.design_check(np.zeros((0, 3)), 2)
    with pytest.raises(ValueError):
        symspace.design_check(e8.frame_roots, 3)


def test_design_check_is_relative():
    # E8's norm-4 shell in a random orthonormal frame: inexact coordinates, and
    # moment sums that grow as scale^2 and scale^4; a design at every scale
    e8 = latcat.get("E8")
    vectors, norms = enumlat.short_vectors(e8.gram, 4)
    shell = vectors[norms == 4] @ e8.basis
    assert shell.shape == (2160, 8)
    q, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(8, 8)))
    for scale in (1.0, 100.0, 1e4):
        points = scale * shell @ q
        for t in (2, 4):
            check = symspace.design_check(points, t)
            assert check.passed, (scale, t, check.residual)
            assert check.residual <= 1e-10


def test_quartic_form_direction_guard():
    # a rootless shell fixes no n: H is checked against its own shape first
    leech = latcat.get("Leech").root_system
    assert leech.count == 0
    with pytest.raises(ValueError):
        symspace.quartic_form(leech, "junk")
    with pytest.raises(ValueError, match="must be traceless"):
        symspace.quartic_form(leech, np.eye(5))
    h = _random_traceless(np.random.default_rng(4), 24)
    assert symspace.quartic_form(leech, h) == 0.0
    # a rooted shell checks H against its own rank
    a3 = rootsys.make_irreducible("A", 3)
    with pytest.raises(ValueError, match="must be traceless"):
        symspace.quartic_form(a3, np.eye(3))
    # traceless but not symmetric: H[x] reads only its symmetric part
    with pytest.raises(ValueError, match="direction must be symmetric"):
        symspace.quartic_form(a3, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        symspace.quartic_form(a3, np.ones(3))
    with pytest.raises(ValueError, match="expected a 3x3 matrix"):
        symspace.quartic_form(a3, h)
