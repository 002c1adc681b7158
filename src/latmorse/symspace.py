"""The quartic form of a root shell on traceless symmetric matrices.

For a root system R in R^n the form

    Q[H] = sum_{x in R} (x^T H x)^2

is the second-order data of Gaussian lattice energy at a critical point.  This
module evaluates Q, diagonalizes it on the traceless space T0 (closed form for
ADE sums with equal Coxeter number, dense numerics otherwise), and provides
the spherical design checks and degree-4 harmonic decomposition behind those
formulas.

Conventions: matrices act in the root system's orthonormal frame coordinates;
<A, B> = Tr(AB); H[x] = x^T H x.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .modforms import UnsupportedDimension
from .rootsys import IrreducibleRootSystem, RootSystem, _zero_sum_basis, direct_sum

CLUSTER_TOL = 1e-6

class UnequalCoxeter(ValueError):
    """Closed spectrum requested for a sum with mixed Coxeter numbers."""


class EmptyInput(ValueError):
    pass


class OffSphere(ValueError):
    """Design check received points of unequal norm."""


class NonTraceless(ValueError):
    pass


# ---------------------------------------------------------------------------
# the quartic form
# ---------------------------------------------------------------------------


def _direction(h, n: int) -> np.ndarray:
    """H as a float n x n array, if it is a direction: finite, and symmetric and
    traceless to 1e-12 max(1, max|H|).  Q and every oracle below are defined on
    that space only, so anything else is a ValueError (NonTraceless for a trace).
    """
    import numpy as np

    h = np.asarray(h, dtype=float)
    if h.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {h.shape}")
    if not np.isfinite(h).all():  # every comparison below is False for NaN
        raise ValueError("direction must be finite")
    tolerance = 1e-12 * max(1.0, float(np.abs(h).max()))
    if abs(float(np.trace(h))) > tolerance:
        raise NonTraceless("direction must be traceless")
    if float(np.abs(h - h.T).max()) > tolerance:
        raise ValueError("direction must be symmetric")
    return h


def quartic_form(system: RootSystem | IrreducibleRootSystem, h) -> float:
    """Q[H] = sum over roots of (x^T H x)^2, H in frame coordinates."""
    if system.frame_roots.shape[0] == 0:
        return 0.0
    vals = quartic_values(system, h)
    return float(vals @ vals)


def quartic_values(system: RootSystem | IrreducibleRootSystem, h) -> np.ndarray:
    """The values x^T H x over the shell (one per root)."""
    import numpy as np

    rows = system.frame_roots
    h = _direction(h, rows.shape[1])
    return np.einsum("ri,ij,rj->r", rows, h, rows)


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
        raise UnequalCoxeter(
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

    t = 2: max-entry residual of sum x x^T = (r^2 |X| / n) I, pass at 1e-10.
    t = 4: additionally the polarized quartic identity
    sum_x H[x] G[x] = (2 r^4 |X| / (n (n+2))) <H, G> over the ``_basis_values`` basis,
    measured as a relative Gram residual, pass at 1e-8.
    """
    import numpy as np

    if t not in (2, 4):
        raise ValueError("design strength t must be 2 or 4")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptyInput("need a nonempty 2d array of points")
    k, n = pts.shape
    norms = np.einsum("ij,ij->i", pts, pts)
    r2 = float(np.mean(norms))
    if np.max(np.abs(norms - r2)) > 1e-9 * max(1.0, r2):
        raise OffSphere("points do not share a common norm")
    moment = pts.T @ pts
    target = r2 * k / n * np.eye(n)
    resid2 = float(np.max(np.abs(moment - target)))
    if t == 2:
        return DesignCheck(2, r2, resid2, resid2 <= 1e-10)
    if n < 2:
        # no traceless directions on a line: the quartic identity is vacuous
        # and a centrally symmetric pair on S^0 is a design of every strength
        return DesignCheck(4, r2, resid2, resid2 <= 1e-10)
    values = _basis_values(pts)
    gram = values.T @ values
    scale = 2.0 * r2 * r2 * k / (n * (n + 2))
    resid4 = float(np.max(np.abs(gram - scale * np.eye(len(gram))))) / scale
    passed = resid2 <= 1e-10 and resid4 <= 1e-8
    return DesignCheck(4, r2, max(resid4, resid2), passed)


# ---------------------------------------------------------------------------
# degree-4 harmonic decomposition
# ---------------------------------------------------------------------------


class HarmonicParts(namedtuple("HarmonicParts", "n h h_squared trace_sq p0")):
    """Decomposition H[x]^2 = p4(x) + |x|^2 p2(x) + |x|^4 p0 with p4, p2 harmonic."""

    __slots__ = ()

    def quartic(self, x) -> float:
        import numpy as np

        x = np.asarray(x, dtype=float)
        return float(x @ self.h @ x) ** 2

    def p2(self, x) -> float:
        import numpy as np

        x = np.asarray(x, dtype=float)
        n = self.n
        hx2 = float(x @ self.h_squared @ x)
        return (8.0 * hx2 - (8.0 / n) * self.trace_sq * float(x @ x)) / (8.0 + 2.0 * n)

    def p4(self, x) -> float:
        import numpy as np

        x = np.asarray(x, dtype=float)
        n = self.n
        norm2 = float(x @ x)
        hx = float(x @ self.h @ x)
        hx2 = float(x @ self.h_squared @ x)
        return (
            hx * hx
            - norm2 * (4.0 / (4.0 + n)) * hx2
            + norm2 * norm2 * (2.0 / ((4.0 + n) * (2.0 + n))) * self.trace_sq
        )

    def reconstruct(self, x) -> float:
        import numpy as np

        x = np.asarray(x, dtype=float)
        norm2 = float(x @ x)
        return self.p4(x) + norm2 * self.p2(x) + norm2 * norm2 * self.p0


def harmonic_components(h) -> HarmonicParts:
    """Split H[x]^2 into harmonic layers; H must be a direction (``_direction``)."""
    import numpy as np

    h = np.asarray(h, dtype=float)
    n = h.shape[0] if h.ndim else 0
    h = _direction(h, n)
    h2 = h @ h
    tr2 = float(np.trace(h2))
    p0 = 2.0 * tr2 / ((2.0 + n) * n)
    return HarmonicParts(n=n, h=h, h_squared=h2, trace_sq=tr2, p0=p0)


# ---------------------------------------------------------------------------
# shell quartic sums from modular data
# ---------------------------------------------------------------------------


def shell_quartic_sum(lattice, h, m: int) -> float:
    """sum over the norm-2m shell of H[x]^2, from the lattice's modular data.

    The degree-4 harmonic part of the theta series is c times the normalized
    cusp form, with c pinned by the root shell:
    c = Q[H] - (8 / ((2+n) n)) |L(2)| Tr H^2.  The shell sum is then
    c b_m + 4 m^2 (2 / ((2+n) n)) a_m Tr H^2.  This holds for a direction H
    (``_direction``) only: a trace adds terms t |x|^2 H[x] and t^2 |x|^4 to
    H[x]^2 that it does not carry.  Dimension 8 has no cusp form.
    """
    import numpy as np

    n = lattice.dimension
    if lattice.cusp is None:
        raise UnsupportedDimension("no cusp form in dimension 8")
    if m < 1:
        raise ValueError("shell index m >= 1")
    h = _direction(h, n)
    tr2 = float(np.trace(h @ h))
    q = quartic_form(lattice.root_system, h) if lattice.root_count else 0.0
    c = q - 8.0 / ((2.0 + n) * n) * lattice.root_count * tr2
    a_m = float(lattice.theta.coefficient(m))
    b_m = float(lattice.cusp.coefficient(m))
    return c * b_m + 4.0 * m * m * (2.0 / ((2.0 + n) * n)) * a_m * tr2
