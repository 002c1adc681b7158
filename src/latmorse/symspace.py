"""The quartic form of a root shell on traceless symmetric matrices.

For a root system R in R^n the form

    Q[H] = sum_{x in R} (x^T H x)^2

is the second-order data of Gaussian lattice energy at a critical point.  This
module evaluates Q, diagonalizes it on the traceless space T0 (closed form for
ADE sums with equal Coxeter number, dense numerics otherwise), and checks
the spherical design identities behind the closed forms.

Conventions: matrices act in the root system's orthonormal frame coordinates;
<A, B> = Tr(AB); H[x] = x^T H x.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .rootsys import IrreducibleRootSystem, RootSystem, _zero_sum_basis, direct_sum

CLUSTER_TOL = 1e-6

# ---------------------------------------------------------------------------
# the quartic form
# ---------------------------------------------------------------------------


def _direction(h, n: int) -> np.ndarray:
    """H as a float n x n array, if it is a direction: finite, and symmetric and
    traceless to 1e-12 max(1, max|H|).  Q and every oracle below are defined on
    that space only, so anything else is a ValueError.
    """
    import numpy as np

    h = np.asarray(h, dtype=float)
    if h.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {h.shape}")
    if not np.isfinite(h).all():  # every comparison below is False for NaN
        raise ValueError("direction must be finite")
    tolerance = 1e-12 * max(1.0, float(np.abs(h).max()))
    if abs(float(np.trace(h))) > tolerance:
        raise ValueError("direction must be traceless")
    if float(np.abs(h - h.T).max()) > tolerance:
        raise ValueError("direction must be symmetric")
    return h


def quartic_form(system: RootSystem | IrreducibleRootSystem, h) -> float:
    """Q[H] = sum over roots of (x^T H x)^2, H a direction in frame coordinates.

    A rootless system fixes no n, so there H is checked against its own shape
    before Q is read as the empty sum 0.
    """
    import numpy as np

    rows = system.frame_roots
    if not len(rows):
        _direction(h, (np.shape(h) or (0,))[0])
        return 0.0
    values = np.einsum("ri,ij,rj->r", rows, _direction(h, rows.shape[1]), rows)
    return float(values @ values)


class QSpectrum(namedtuple("QSpectrum", "space_dim entries")):
    """Eigenvalues of Q on T0^n with multiplicities, ascending."""

    __slots__ = ()

    @property
    def multiplicity_total(self) -> int:
        return sum(m for _, m in self.entries)


def _component_rows(comp: IrreducibleRootSystem) -> list[tuple[int, int]]:
    """Traceless eigenvalue rows (value, multiplicity) of one irreducible shell."""
    n = comp.rank
    if comp.kind == "A":
        if n < 2:
            return []
        rows = [(2 * (n + 1), n)]
        if n * (n - 1) // 2 - 1 > 0:
            rows.append((4, n * (n - 1) // 2 - 1))
        return rows
    if comp.kind == "D":
        return [(4 * (n - 2), n - 1), (8, n * (n - 1) // 2)]
    return {6: [(12, 20)], 7: [(16, 27)], 8: [(24, 35)]}[n]


def closed_spectrum(system: RootSystem | IrreducibleRootSystem) -> QSpectrum:
    """Exact Q-spectrum on T0^n for irreducible shells and equal-Coxeter sums.

    Per component the traceless eigenvalues are the classified ones (4 and
    2(n+1) for A_n, 8 and 4(n-2) for D_n, 8h/(n+2) for the E's); a sum of m
    components with common Coxeter number h adds eigenvalue 0 on off-block
    matrices (multiplicity sum_{i<j} n_i n_j) and 4h on the trace-balanced
    diagonal directions (multiplicity m - 1).
    """
    if isinstance(system, IrreducibleRootSystem):
        system = direct_sum([system])
    if not system.components:
        raise ValueError("closed spectrum of an empty system is undefined")
    if not system.equal_coxeter and len(system.components) > 1:
        raise ValueError(
            f"components have Coxeter numbers {sorted(set(system.coxeter_numbers))}"
        )
    n = system.total_rank
    spec: dict[int, int] = {}
    for comp in system.components:
        for lam, mult in _component_rows(comp):
            spec[lam] = spec.get(lam, 0) + mult
    ranks = [c.rank for c in system.components]
    cross = (n * n - sum(r * r for r in ranks)) // 2
    if cross:
        spec[0] = spec.get(0, 0) + cross
    if len(system.components) > 1:
        h = system.coxeter_numbers[0]
        spec[4 * h] = spec.get(4 * h, 0) + len(system.components) - 1
    entries = tuple((float(lam), mult) for lam, mult in sorted(spec.items()))
    out = QSpectrum(space_dim=n * (n + 1) // 2 - 1, entries=entries)
    assert out.multiplicity_total == out.space_dim
    return out


def _basis_values(points: np.ndarray) -> np.ndarray:
    """x^T B x over points x (rows) and the elements B (columns) of an orthonormal
    basis of T0^n: first (E_ij + E_ji)/sqrt(2) for i < j in lexicographic order,
    then the n - 1 diagonal matrices whose diagonals are ``_zero_sum_basis(n)``."""
    import numpy as np

    n = points.shape[1]
    i, j = np.triu_indices(n, 1)
    return np.hstack([math.sqrt(2.0) * points[:, i] * points[:, j],
                      points**2 @ _zero_sum_basis(n)])


def quartic_gram(system: RootSystem | IrreducibleRootSystem) -> np.ndarray:
    """Gram matrix of the polarized quartic form on the ``_basis_values`` basis of T0^n."""
    values = _basis_values(system.frame_roots)
    return values.T @ values


def numeric_spectrum(system: RootSystem | IrreducibleRootSystem) -> QSpectrum:
    """Dense eigendecomposition of Q on T0^n with eigenvalue clustering.

    Eigenvalues within ``CLUSTER_TOL`` of each other fall into one cluster
    reported at the cluster mean; values within it of zero are snapped to zero.
    """
    import numpy as np

    if isinstance(system, IrreducibleRootSystem):
        system = direct_sum([system])
    n = system.total_rank
    if n < 2:
        raise ValueError("need rank >= 2 for a nontrivial traceless space")
    gram = quartic_gram(system)
    eigs = np.linalg.eigvalsh(gram)
    entries: list[tuple[float, int]] = []
    start = 0
    for i in range(1, len(eigs) + 1):
        if i == len(eigs) or eigs[i] - eigs[i - 1] > CLUSTER_TOL:
            cluster = eigs[start:i]
            value = float(np.mean(cluster))
            if abs(value) <= CLUSTER_TOL:
                value = 0.0
            entries.append((value, int(len(cluster))))
            start = i
    return QSpectrum(space_dim=len(eigs), entries=tuple(entries))


# ---------------------------------------------------------------------------
# spherical designs
# ---------------------------------------------------------------------------


DesignCheck = namedtuple("DesignCheck", "strength radius_sq residual passed")


def design_check(points, t: int) -> DesignCheck:
    """Test whether a centrally symmetric shell is a spherical t-design.

    t = 2: max-entry residual of sum x x^T = (r^2 |X| / n) I, divided by
    r^2 |X| / n, pass at 1e-10.
    t = 4: additionally the polarized quartic identity
    sum_x H[x] G[x] = (2 r^4 |X| / (n (n+2))) <H, G> over the ``_basis_values`` basis,
    its Gram residual divided by that scale, pass at 1e-8.
    Both residuals are relative, so the verdict does not depend on the radius.
    """
    import numpy as np

    if t not in (2, 4):
        raise ValueError("design strength t must be 2 or 4")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need a nonempty 2d array of points")
    k, n = pts.shape
    norms = np.einsum("ij,ij->i", pts, pts)
    r2 = float(np.mean(norms))
    if r2 <= 0.0 or np.max(np.abs(norms - r2)) > 1e-9 * r2:
        raise ValueError("points do not share a common positive norm")
    scale2 = r2 * k / n
    resid2 = float(np.max(np.abs(pts.T @ pts - scale2 * np.eye(n)))) / scale2
    if t == 2:
        return DesignCheck(2, r2, resid2, resid2 <= 1e-10)
    if n < 2:
        # no traceless directions on a line: the quartic identity is vacuous
        # and a centrally symmetric pair on S^0 is a design of every strength
        return DesignCheck(4, r2, resid2, resid2 <= 1e-10)
    values = _basis_values(pts)
    gram = values.T @ values
    scale4 = 2.0 * r2 * r2 * k / (n * (n + 2))
    resid4 = float(np.max(np.abs(gram - scale4 * np.eye(len(gram))))) / scale4
    passed = resid2 <= 1e-10 and resid4 <= 1e-8
    return DesignCheck(4, r2, max(resid4, resid2), passed)
