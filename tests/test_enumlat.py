"""Short-vector enumeration against theta coefficients and hand counts."""

from __future__ import annotations

import math

import numpy as np
import pytest

from latmorse import enumlat, latcat, morse

# 2 * identity: the square lattice scaled so that |v|^2 = 2 (a^2 + b^2)
SCALED_Z2 = 2 * np.eye(2, dtype=np.int64)


def test_e8_shell_counts_match_theta():
    entry = latcat.get("E8")
    counts = enumlat.shell_counts(entry.gram, 4)
    assert counts == (240, 2160, 6720, 17520)
    for m, c in enumerate(counts, start=1):
        assert c == int(entry.theta.coefficient(m))


def test_d16_shell_counts_match_theta():
    entry = latcat.get("D16+")
    counts = enumlat.shell_counts(entry.gram, 2)
    assert counts == (480, 61920)


def test_short_vectors_symmetry_and_norms():
    vectors, norms = enumlat.short_vectors(latcat.get("E8").gram, 4)
    assert vectors.shape[0] == 240 + 2160
    assert np.all(norms % 2 == 0)
    seen = {tuple(int(c) for c in row) for row in vectors}
    assert len(seen) == vectors.shape[0]
    for row in vectors[:50]:
        assert tuple(int(-c) for c in row) in seen
    # norms are exact integers recomputed from the Gram matrix
    g = latcat.get("E8").gram
    check = np.einsum("ri,ij,rj->r", vectors.astype(np.int64), g, vectors.astype(np.int64))
    assert np.array_equal(check, norms)


def test_scaled_square_lattice_by_hand():
    # a^2 + b^2 takes values 1, 2, 4, 5 with 4, 4, 4, 8 representations
    counts = enumlat.shell_counts(SCALED_Z2, 5)
    assert counts == (4, 4, 0, 4, 8)


def test_brute_force_cross_check():
    rng = np.random.default_rng(41)
    for _ in range(5):
        lower = np.tril(rng.integers(-2, 3, size=(3, 3)))
        np.fill_diagonal(lower, rng.integers(1, 3, size=3))
        g = lower @ lower.T
        bound = 12
        vectors, norms = enumlat.short_vectors(g, bound)
        got = {tuple(int(c) for c in row) for row in vectors}

        # ellipsoid bounding box from the inverse Gram matrix
        inv = np.linalg.inv(g.astype(float))
        radii = [int(math.ceil(math.sqrt(bound * inv[i, i]) + 1e-9)) for i in range(3)]
        expected = set()
        for a in range(-radii[0], radii[0] + 1):
            for b in range(-radii[1], radii[1] + 1):
                for c in range(-radii[2], radii[2] + 1):
                    v = np.array([a, b, c], dtype=np.int64)
                    q = int(v @ g @ v)
                    if 1 <= q <= bound:
                        expected.add((a, b, c))
        assert got == expected
        for row, norm in zip(vectors, norms):
            v = row.astype(np.int64)
            assert int(v @ g @ v) == norm


def test_gram_validation():
    with pytest.raises(ValueError):
        enumlat.short_vectors(np.ones((2, 3)), 2)
    with pytest.raises(ValueError):
        enumlat.short_vectors(np.array([[2, 1], [0, 2]]), 2)
    with pytest.raises(ValueError):
        enumlat.short_vectors(np.array([[2.0, 0.5], [0.5, 2.0]]), 2)
    with pytest.raises(ValueError, match="not positive definite"):
        enumlat.short_vectors(np.array([[1, 2], [2, 1]]), 2)


def test_budget_guards():
    with pytest.raises(ValueError, match="enumeration limited to dimension 16"):
        enumlat.shell_counts(2 * np.eye(17, dtype=np.int64), 1)
    with pytest.raises(ValueError, match="shells limited to m <= 6"):
        enumlat.shell_counts(SCALED_Z2, enumlat.MAX_SHELL + 1)
    with pytest.raises(ValueError):
        enumlat.shell_counts(SCALED_Z2, 0)


def test_hessian_direct_hand_loop():
    alpha = 1.2
    h = np.diag([1.0, -1.0])
    vectors, norms = enumlat.short_vectors(SCALED_Z2, 8)
    basis = math.sqrt(2.0) * np.eye(2)
    total = 0.0
    for row, norm in zip(vectors, norms):
        x = row.astype(float) @ basis
        quad = float(x @ h @ x)
        hx = h @ x
        total += math.exp(-alpha * norm) * (0.5 * alpha * quad * quad - 0.5 * float(hx @ hx))
    total *= alpha
    assert enumlat.hessian_direct(SCALED_Z2, alpha, h, 4) == pytest.approx(total, rel=1e-13)


def test_hessian_direct_guards():
    with pytest.raises(ValueError):
        enumlat.hessian_direct(SCALED_Z2, 1.0, np.eye(2), 2)  # not traceless
    with pytest.raises(ValueError):
        enumlat.hessian_direct(SCALED_Z2, 1.0, np.diag([1.0, 0.0, -1.0]), 2)
    with pytest.raises(ValueError):
        enumlat.hessian_direct(SCALED_Z2, 1.0, np.diag([1.0, -1.0]), 2, basis=np.eye(2))
    # traceless, not symmetric: |Hx|^2 is H^2[x] only for a symmetric H
    with pytest.raises(ValueError, match="direction must be symmetric"):
        enumlat.hessian_direct(SCALED_Z2, 1.0, [[0.0, 1.0], [0.0, 0.0]], 2)


def test_odd_gram_rejected_before_walk():
    # Z^2 has norm-1 vectors: the even-lattice oracles must refuse it, not
    # drop or mis-bucket its odd norms; an explicit check survives python -O
    for call in (lambda: enumlat.shell_counts(np.eye(2), 2),
                 lambda: enumlat.hessian_direct(np.eye(2), 1.0, np.diag([1.0, -1.0]), 2)):
        with pytest.raises(ValueError, match="not even"):
            call()
    # an odd diagonal entry beyond the shell budget still makes the lattice odd
    with pytest.raises(ValueError, match="not even"):
        enumlat.shell_counts(np.diag([2, 13]), 1)
    # short_vectors enumerates any positive definite lattice
    _, norms = enumlat.short_vectors(np.eye(2), 2)
    assert sorted(norms.tolist()) == [1] * 4 + [2] * 4


def _nan_at(array, *index):
    out = np.array(array, dtype=float)
    out[index] = math.nan
    return out


# a check written as `value > bound` lets NaN through; each NaN input must raise
@pytest.mark.parametrize("case, match", [
    ("h_off_diagonal", "finite"),
    ("basis", "realize"),
    ("alpha", "alpha"),
    ("gram", "integral"),
])
def test_hessian_direct_rejects_nan(case, match):
    entry = latcat.get("E8")
    args = {"gram": entry.gram, "alpha": 1.0, "h": np.diag([1.0] * 4 + [-1.0] * 4),
            "m_max": 2, "basis": entry.basis}
    if case == "h_off_diagonal":
        args["h"] = _nan_at(_nan_at(args["h"], 0, 1), 1, 0)
    elif case == "basis":
        args["basis"] = _nan_at(entry.basis, 3, 2)
    elif case == "alpha":
        args["alpha"] = math.nan
    else:  # without a basis this raised "not positive definite"
        args.update(gram=_nan_at(_nan_at(entry.gram, 0, 1), 1, 0), basis=None)
    with pytest.raises(ValueError, match=match):
        enumlat.hessian_direct(**args)


def test_hessian_direct_matches_eigenvalue_series():
    # E8 has a single Q-eigenvalue, so every normalized traceless direction is
    # an eigenvector and the truncated series must match shell by shell
    rng = np.random.default_rng(17)
    entry = latcat.get("E8")
    h = rng.normal(size=(8, 8))
    h = (h + h.T) / 2.0
    h -= np.trace(h) / 8.0 * np.eye(8)
    h /= np.sqrt(np.trace(h @ h))
    alpha = 1.7
    direct = enumlat.hessian_direct(entry.gram, alpha, h, 3, basis=entry.basis)
    partial = morse.spectrum_partial(entry, alpha, 24, 3)
    assert direct == pytest.approx(partial, abs=1e-13)


def test_theta_tail_vs_enumerated_mass():
    # coefficient bound dominates the actual shell sizes it certifies tails for
    entry = latcat.get("E8")
    bound = entry.coeff_bound()
    counts = enumlat.shell_counts(entry.gram, 5)
    for m, c in enumerate(counts, start=1):
        assert c <= bound.eval(m)
