"""Criticality and certified Morse data for Gaussian-core energy.

The energy of a lattice under f(r) = e^(-alpha r^2) is a function on the
space of unimodular deformations, and for the lattices in the catalog both
questions about it reduce to q-series with certified tails:

* criticality is decided exactly by second moments of the root shell, since
  the degree-2 harmonic theta series is a cusp form whose weight-(n/2 + 2)
  space is trivial for n <= 24 and spanned by Delta E6 = q - 528 q^2 - ...
  for n = 32: there <H, S_m> = c_m <H, S_1> for traceless H, so a moment
  defect's gradient pairing is -alpha <H, S_1> Delta E6(e^(-2 alpha)), one
  q-series certified like an eigenvalue;

* at a critical lattice the traceless Hessian diagonalizes along the
  eigenspaces of the root-shell quartic form Q, and each eigenvalue is an
  explicit series in the theta coefficients a_m and the coefficients b_m of
  a normalized weight-(n/2 + 4) cusp form.

Every reported eigenvalue carries an error radius that accounts for series
truncation (via the coefficient bounds in ``modforms``) and floating point
roundoff, so sign decisions and the resulting local min / max / saddle
classification are certificates, not estimates.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from . import modforms, symspace
from .latcat import LatticeEntry
from .records import Frozen
from .rootsys import second_moment_blocks

CLASS_LOCAL_MIN = "LocalMin"
CLASS_LOCAL_MAX = "LocalMax"
CLASS_SADDLE = "Saddle"
CLASS_INDETERMINATE = "Indeterminate"

_ROUNDOFF = 1e-13

# unit roundoff of float64
_U = 2.0**-53

# m <= _TERMS summed by every spectrum and certificate; the certified tails
# beyond need 2 alpha' (_TERMS + 1) >= n/2 + 1 (9 for the weight-18 Delta E6),
# true at every alpha' >= pi a request sums at
_TERMS = 16

# largest x = 2 alpha' m of the leading dual shell that the fold accepts: the
# certified tails bottom out at modforms' exp floor (e^-700, just above the
# float64 underflow at e^-708), and the leading weight e^-x must stay e^40
# above it for the radius to resolve a sign
_LEADING_X_MAX = -modforms._LOG_FLOOR - 40.0


class NotCritical(ValueError):
    pass


class CertificateFails(ArithmeticError):
    pass


class ToleranceUnreachable(ArithmeticError):
    pass


class Inapplicable(ValueError):
    pass


def truncate_decimal(x: float, digits: int) -> float:
    """Truncate toward zero to the given number of decimal places.

    Once 10^-digits is below the spacing of floats at x, x comes back as it
    is.  Past 10^308 the scale is no float, and the product is exact.
    """
    if 10.0**-digits < math.ulp(x):
        return x
    scale = 10**digits
    return math.trunc(x * scale if digits <= 308 else Fraction(x) * scale) / scale


# ---------------------------------------------------------------------------
# modular duality: alpha < pi folds onto pi^2 / alpha
# ---------------------------------------------------------------------------


class _Fold(namedtuple("_Fold", "at scale rel arg_rel")):
    """The side ``at`` where a request at alpha sums its series.

    Every catalog lattice is unimodular, so Poisson summation gives
    E_alpha(e^(tH/2) L) = const + s E_alpha'(e^(-tH/2) L) with
    s = (pi/alpha)^(n/2): Hessian eigenvalues at alpha are s times those at
    alpha' = pi^2 / alpha, and the gradient pairing is -s times its dual.
    For alpha < pi the series at alpha' > pi converge fast (16 terms).

    At alpha >= pi the fold is the identity: at = alpha, scale = 1 and
    rel = arg_rel = 0, so ``spectral`` returns its inputs bit for bit
    (1.0 v == v and 1.0 (1.0 + 0.0) (r + 0.0) == r).

    Error model of the dual side, u = 2^-53.  ``at`` = fl(fl(pi pi) / alpha)
    is within arg_rel = 3u of pi^2 / alpha: math.pi is within 0.36u of pi,
    then two roundings.  Partial sums take that into account through their
    envelopes; the certified tails carry a 1e-9 inflation, above its effect
    on them: 2 alpha' m * 3u < 4e-12 at their first index m = _TERMS + 1,
    since the fold sums at pi < alpha' <= 330.  ``scale`` =
    fl(fl(pi / alpha)^(n/2)) is within (0.75 n + 2)u of s: the input error
    grows n/2-fold, plus one ulp of pow.  ``rel`` = (n + 8)u
    adds the rounding of the product with s and of the few operations that
    scale a radius back.
    """

    __slots__ = ()

    @property
    def side(self) -> str:
        """Where the series are summed: at alpha ("direct") or pi^2/alpha ("dual")."""
        return "dual" if self.arg_rel else "direct"

    def spectral(self, value, radius, magnitude, envelope):
        """(value, radius) at alpha from their values at ``at``.

        ``magnitude`` bounds |value| at ``at`` (its sum of absolute summands)
        and carries the error of s; ``envelope`` bounds the change of that
        value per unit relative change of alpha'.  Applied to a roundoff part
        alone, it gives the part of the scaled radius that more terms cannot
        reduce.
        """
        extra = self.rel * magnitude + self.arg_rel * envelope
        return self.scale * value, self.scale * (1.0 + self.rel) * (radius + extra)


def _direct_side(alpha: float) -> _Fold:
    """The identity fold: sum at alpha itself."""
    return _Fold(at=alpha, scale=1.0, rel=0.0, arg_rel=0.0)


def _dual_side(entry: LatticeEntry, alpha: float) -> _Fold:
    """The dual fold: sum at pi^2 / alpha, on either side of pi."""
    n = entry.dimension
    return _Fold(
        at=math.pi * math.pi / alpha,
        scale=(math.pi / alpha) ** (n // 2),
        rel=(n + 8) * _U,
        arg_rel=3 * _U,
    )


def _fold(entry: LatticeEntry, alpha: float, error: type[Exception]) -> _Fold:
    """The identity at and above alpha = pi, the dual fold below it.

    Raises ``error`` where the leading dual weight e^(-2 alpha' m) is too
    close to float64 underflow to resolve a sign: below alpha of about 0.03
    with roots, 0.06 without.
    """
    if alpha >= math.pi:
        return _direct_side(alpha)
    # before _dual_side: far enough below, its scale (pi/alpha)^(n/2) overflows
    at = math.pi * math.pi / alpha
    leading = next(m for m in range(1, entry.theta.length) if entry.theta.coeffs[m])
    if 2.0 * at * leading > _LEADING_X_MAX:
        raise error(
            f"underflow: alpha = {alpha:g} folds to pi^2/alpha = {at:g}, where "
            "the leading shell's weight is too close to float64 underflow for a "
            "certified sign"
        )
    return _dual_side(entry, alpha)


# ---------------------------------------------------------------------------
# criticality
# ---------------------------------------------------------------------------


class CriticalityResult(Frozen):
    """Outcome of the exact root-shell second-moment test.

    ``kind`` is "critical_all_alpha" or "moment_defect".  ``blocks`` lists
    (size, moment) pairs covering all n coordinates: one per irreducible
    component with its exact per-axis second moment 2h, plus a zero-moment
    block for coordinates outside the root span.  ``target`` is the isotropic
    value 2 a_1 / n, and ``defects`` the per-block deviations.
    """

    def __init__(self, kind: str, target: Fraction, blocks: tuple[tuple[int, Fraction], ...],
                 defects: tuple[Fraction, ...], reason: str) -> None:
        self.__dict__.update(kind=kind, target=target, blocks=blocks, defects=defects,
                             reason=reason)

    @property
    def is_critical(self) -> bool:
        return self.kind == "critical_all_alpha"

    @cached_property
    def witness(self) -> np.ndarray | None:
        """Traceless block-diagonal direction, defect d on each block's
        diagonal, read-only and built on first read; None when critical."""
        if self.is_critical:
            return None
        import numpy as np

        n = sum(size for size, _ in self.blocks)
        witness = np.zeros((n, n))
        offset = 0
        for (size, _), d in zip(self.blocks, self.defects):
            witness[offset : offset + size, offset : offset + size] = float(d) * np.eye(size)
            offset += size
        witness.setflags(write=False)
        return witness

    @cached_property
    def witness_pairing(self) -> float:
        """<W, S_1> = sum size d^2 for the witness W (0.0 when critical): the
        exact Fraction sum, rounded once."""
        return float(sum(size * d * d for (size, _), d in zip(self.blocks, self.defects)))


@lru_cache(maxsize=64)
def criticality(entry: LatticeEntry) -> CriticalityResult:
    """Decide whether the lattice is a critical point at every alpha.

    The decision is exact: rational block moments against the rational
    target.  A nonzero defect comes with a traceless block-diagonal witness
    direction along which the gradient does not vanish for generic alpha
    (``noncritical_certificate`` pins it down at a specific alpha).  Cached
    per entry; the result is immutable and its witness read-only.
    """
    n = entry.dimension
    system = entry.root_system
    target = Fraction(2 * entry.root_count, n)
    blocks: list[tuple[int, Fraction]] = [
        (comp.rank, Fraction(moment))
        for comp, moment in zip(system.components, second_moment_blocks(system))
    ]
    uncovered = n - system.total_rank
    if uncovered:
        blocks.append((uncovered, Fraction(0)))
    defects = tuple(moment - target for _, moment in blocks)
    assert sum(size * d for (size, _), d in zip(blocks, defects)) == 0

    if all(d == 0 for d in defects):
        kind, reason = "critical_all_alpha", (
            "every block of the root-shell second moment equals 2 a_1 / n, and "
            "the degree-2 harmonic theta series, a cusp form of weight n/2 + 2, "
            "is then forced to vanish (its space is trivial for n <= 24 and "
            "detected by the root-shell coefficient for n = 32), so every shell "
            "is a 2-design and the gradient vanishes at every alpha"
        )
    else:
        kind, reason = "moment_defect", (
            "the root-shell second moment is not isotropic: in dimension 32 the "
            "gradient pairing with the traceless witness H is -alpha <H, S_1> "
            "Delta E6(e^(-2 alpha)), nonzero at every alpha but pi; for n <= 24 "
            "no even unimodular lattice has this root shell"
        )
    return CriticalityResult(kind, target, tuple(blocks), defects, reason)


class Certificate(Frozen):
    """Proof that the gradient pairing with ``direction`` is nonzero.

    root_term is the m = 1 term of -alpha <H, S_1> Delta E6(e^(-2 alpha)),
    rounded down; remainder is |its terms 2..exact_terms| plus their radius
    (certified tail, roundoff, fold error), so root_term - remainder bounds
    |pairing| from below and validity is root_term > remainder.  Below
    alpha = pi both are scaled back from pi^2 / alpha, and ``constants``
    (which describe the side summed) gain ``dual_alpha`` and ``scale``.
    ``_direction`` is the caller's direction, or the CriticalityResult whose
    witness it is.
    """

    def __init__(self, lattice: str, alpha: float, _direction: object, root_term: float,
                 remainder: float, constants: dict) -> None:
        self.__dict__.update(lattice=lattice, alpha=alpha, _direction=_direction,
                             root_term=root_term, remainder=remainder, constants=constants)

    @property
    def direction(self) -> np.ndarray:
        """The traceless direction paired with the gradient."""
        given = self._direction
        return given.witness if isinstance(given, CriticalityResult) else given

    @property
    def exact_terms(self) -> int:
        return _TERMS

    @property
    def margin(self) -> float:
        return self.root_term - self.remainder


# Delta E6 (row 1 of weight 18) through q^_TERMS as floats: built on import, never by a request
_DELTA_E6 = tuple(map(float, modforms._monomial(
    *modforms._weight_rows(18)[1], modforms.DEFAULT_LENGTH)[: _TERMS + 1]))


def noncritical_certificate(entry: LatticeEntry, alpha: float, direction=None) -> Certificate:
    """Certify <grad E, H> != 0 at this alpha, proving the point noncritical.

    In dimension 32 the pairing -alpha sum_m e^(-2 alpha m) <H, S_m> is
    -alpha <H, S_1> Delta E6(e^(-2 alpha)) (module docstring), with <H, S_1>
    exact: S_1 - (2 a_1 / n) I is each block's defect times the identity.
    Delta E6 is summed through m = 16 at fold.at, closed with its
    Jenkins-Rouse tail and scaled back as a spectral line is (see _Fold).
    Raises CertificateFails when the sum does not clear its radius (alpha
    within roundoff of pi, where E6(i) = 0) or the root term underflows to 0
    (alpha above about 372), and Inapplicable for a moment
    defect in dimension <= 24, where no even unimodular lattice has it.
    """
    modforms._check_alpha(alpha)
    if entry.root_count == 0:
        raise CertificateFails("no root shell: the leading gradient term is absent")
    crit = criticality(entry)
    if not crit.is_critical and entry.dimension != 32:
        raise Inapplicable(f"{entry.name}: a moment defect in dimension {entry.dimension}, "
                           "where S_(n/2+2) is trivial: no even unimodular lattice has "
                           "this root shell")

    if direction is None:
        if crit.is_critical:
            raise CertificateFails(
                f"{entry.name} is critical at every alpha; no witness direction exists"
            )
        direction = crit
        root_pairing = crit.witness_pairing
    else:
        direction = symspace._direction(direction, entry.dimension)
        diagonal = iter(map(Fraction, direction.diagonal().tolist()))
        traces = [sum(itertools.islice(diagonal, size)) for size, _ in crit.blocks]
        # <H - (tr H / n) I, S_1>, exact: S_1 - target I is defect * identity on each block
        root_pairing = abs(float(sum(d * t for d, t in zip(crit.defects, traces))))

    if root_pairing <= 0:
        raise CertificateFails("direction pairs to zero with the root-shell moment")
    if alpha == math.pi:
        raise CertificateFails(
            "root term cannot dominate: every 32-dimensional even unimodular lattice "
            "is critical at alpha = pi, where the gradient pairing, <H, S_1> times "
            "Delta E6 at q = e^(-2 pi), vanishes with E6(i) = 0"
        )

    fold = _fold(entry, alpha, CertificateFails)
    at = fold.at
    root = at * math.exp(-2.0 * at) * root_pairing
    if root == 0.0:
        # nothing can dominate a remainder >= 0; and 2 at m may be inf, where the sums read NaN
        raise CertificateFails(f"root term 0 does not dominate: at alpha = {alpha:g} the "
                               "root term underflows to 0 in float64")
    value, radius = fold.spectral(root, 0.0, root, (2.0 * at + 1.0) * root)
    root_term = value - radius
    # m >= 2: their 1e-13 roundoff also covers the root term's ulps where the two are close
    terms = [c * math.exp(-2.0 * at * m) for m, c in enumerate(_DELTA_E6) if m > 1]
    partial = math.fsum(terms)
    assert partial <= 0.0, "Delta E6 - q is negative at q < e^(-2 pi), where E6 > 0"
    abs_sum = math.fsum(map(abs, terms))
    envelope = math.fsum((2.0 * at * m + 1.0) * abs(t) for m, t in enumerate(terms, 2))
    tail = _cusp_bound(18).series_tail(_TERMS + 1, at)
    weight = at * root_pairing
    value, radius = fold.spectral(weight * partial, weight * (tail + _ROUNDOFF * abs_sum),
                                  weight * abs_sum, weight * envelope)
    remainder = radius - value
    constants = {"root_pairing": root_pairing, "partial_sum": partial, "tail": tail}
    if fold.side == "dual":
        constants.update(dual_alpha=at, scale=fold.scale)
    if not root_term > remainder:
        where = f" (summed at pi^2/alpha = {at:g})" if fold.side == "dual" else ""
        raise CertificateFails(
            f"root term {root_term:.6g} does not dominate remainder {remainder:.6g} "
            f"at alpha = {alpha:g}{where}"
        )
    return Certificate(entry.name, alpha, direction, root_term, remainder, constants)


# ---------------------------------------------------------------------------
# certified Hessian spectrum
# ---------------------------------------------------------------------------


class SpectralLine(namedtuple("SpectralLine", "q_eigenvalue multiplicity value error_radius")):
    """One Hessian eigenvalue: Q-eigenvalue lambda, multiplicity, certified mu."""

    __slots__ = ()

    @property
    def sign(self) -> int:
        if self.value - self.error_radius > 0:
            return 1
        if self.value + self.error_radius < 0:
            return -1
        return 0


class SpectrumReport(Frozen):
    """Certified spectrum at ``alpha``; ``side`` says where the series were
    summed: "direct" at alpha, or "dual" at pi^2 / alpha (alpha < pi)."""

    def __init__(self, lattice: str, alpha: float, terms: int, lines: tuple[SpectralLine, ...],
                 classification: str, morse_index: int | None, margin: float,
                 side: str = "direct") -> None:
        self.__dict__.update(lattice=lattice, alpha=alpha, terms=terms, lines=lines,
                             classification=classification, morse_index=morse_index,
                             margin=margin, side=side)

    def to_json_dict(self) -> dict:
        def f(x: float) -> float:
            return float(f"{x:.12g}")

        return {
            "lattice": self.lattice,
            "alpha": f(self.alpha),
            "terms": self.terms,
            "classification": self.classification,
            "morse_index": self.morse_index,
            "margin": f(self.margin),
            "lines": [
                {
                    "lambda": line.q_eigenvalue,
                    "multiplicity": line.multiplicity,
                    "mu": f(line.value),
                    "error_radius": f(line.error_radius),
                    "sign": line.sign,
                }
                for line in self.lines
            ],
            "side": self.side,
        }


@lru_cache(maxsize=64)
def _lambda_spectrum(entry: LatticeEntry) -> tuple[tuple[int, int], ...]:
    """(lambda, multiplicity) rows of the root-shell quartic form Q, cached per entry."""
    n = entry.dimension
    if entry.root_count == 0:
        return ((0, n * (n + 1) // 2 - 1),)
    assert entry.root_system.total_rank == n
    spec = symspace.closed_spectrum(entry.root_system)
    return tuple((int(round(lam)), mult) for lam, mult in spec.entries)


def classify(lines) -> tuple[str, int | None, float]:
    """(classification, morse_index, margin) from certified signs.

    margin is the smallest |mu| - radius over all lines: positive margins
    mean every sign decision has room, a nonpositive margin means some
    eigenvalue interval touches zero and the answer is Indeterminate.
    """
    lines = tuple(lines)
    if not lines:
        raise ValueError("no spectral lines to classify")
    margin = min(abs(line.value) - line.error_radius for line in lines)
    signs = [line.sign for line in lines]
    if any(s == 0 for s in signs):
        return CLASS_INDETERMINATE, None, margin
    index = sum(line.multiplicity for line in lines if line.sign < 0)
    if all(s > 0 for s in signs):
        return CLASS_LOCAL_MIN, 0, margin
    if all(s < 0 for s in signs):
        return CLASS_LOCAL_MAX, index, margin
    return CLASS_SADDLE, index, margin


def _kernel(entry: LatticeEntry, at: float, terms: int):
    """(Sa, sum |Sa summands|, Sb, sum |Sb summands|, Ea, Eb), one fsum each, over
    m = 1..terms of a_m x (x - c) e^-x and b_m (at^2 / 2) e^-x, x = 2 at m, c = n/2 + 1.

    Ea and Eb bound |d Sa / d log at| and |d Sb / d log at| for _Fold:
    |x d/dx [x (x - c) e^-x]| <= (x + 2) x (x + c) e^-x and
    |at d/d at [at^2 e^-x]| <= (x + 2) at^2 e^-x.
    """
    c = entry.dimension / 2 + 1
    h = at * at / 2.0
    a, b = (row[1 : terms + 1].tolist() for row in entry.series_floats(terms + 1))
    rows = [(0.0, 0.0, 0.0, 0.0)]  # adds nothing, and keeps zip(*rows) four wide at terms = 0
    for m, am, bm in zip(range(1, terms + 1), a, b):
        x = 2.0 * at * m
        w = math.exp(-x)
        if w == 0.0:
            break  # w falls with m, so every later summand is 0.0 too; and inf * 0.0 is NaN
        v = (x + 2.0) * w
        rows.append((am * x * (x - c) * w, bm * h * w, abs(am) * x * (x + c) * v, abs(bm) * h * v))
    sa, sb, ea, eb = zip(*rows)
    return (math.fsum(sa), math.fsum(map(abs, sa)), math.fsum(sb), math.fsum(map(abs, sb)),
            math.fsum(ea), math.fsum(eb))


def _eigenvalue(fold: _Fold, n: int, sums, tails, coef: int) -> tuple[float, float]:
    """(mu, radius) at alpha of mu = (Sa + coef Sb) / (n(n+2)), coef = lambda n(n+2) - 8 a_1,
    from the _kernel sums and the (theta, cusp) _tails at fold.at: its radius is
    the tails plus _ROUNDOFF of the absolute sum, scaled back through the fold."""
    sa, sa_abs, sb, sb_abs, ea, eb = sums
    k, denom = abs(coef), float(n * (n + 2))
    abs_sum = sa_abs + k * sb_abs
    radius = (tails[0] + k * tails[1] + _ROUNDOFF * abs_sum) / denom
    return fold.spectral((sa + coef * sb) / denom, radius, abs_sum / denom, (ea + k * eb) / denom)


def _tails(entry: LatticeEntry, at: float, terms: int) -> tuple[float, float]:
    """Certified theta and cusp tails of Sa and Sb beyond m = terms (nonincreasing in it).
    Raises ToleranceUnreachable ("overflow") when a tail is not finite."""
    a_tail = 4.0 * at * at * entry.coeff_bound().series_tail(terms + 1, at, extra_exponent=2)
    b_tail = 0.0
    if entry.cusp is not None:
        cusp = _cusp_bound(entry.dimension // 2 + 4)
        b_tail = (at * at / 2.0) * cusp.series_tail(terms + 1, at)
    for tail, factor in ((a_tail, "4 alpha^2"), (b_tail, "alpha^2 / 2")):
        if not math.isfinite(tail):
            raise ToleranceUnreachable(f"overflow: at alpha = {at:g} the factor {factor} "
                                       "of a tail bound exceeds the float64 range")
    return a_tail, b_tail


@lru_cache(maxsize=4)
def _cusp_bound(k: int) -> modforms.CoeffBound:
    """Coefficient bound of the normalized weight-k cusp form q + ..."""
    return modforms.cusp_coeff_bound(k, (1,))


def hessian_spectrum(entry: LatticeEntry, alpha: float, tol: float = 1e-10) -> SpectrumReport:
    """Certified traceless Hessian spectrum of a critical lattice at alpha.

    Eigenvalues come out as mu(lambda) = (Sa + (lambda n(n+2) - 8 a_1) Sb)
    / (n(n+2)) with Sa, Sb series over theta and cusp coefficients.  Below
    alpha = pi the series are summed at pi^2 / alpha and scaled back by
    (pi/alpha)^(n/2) (``side`` = "dual", see _Fold).  They are summed once,
    through m = 16 (_TERMS): at every alpha' >= pi the certified tail part of
    a radius is then far below its roundoff part, which more terms only
    grow.  Raises ToleranceUnreachable when a radius exceeds tol or its tail
    part tol/2: with "roundoff-bound" when its roundoff part is above tol/2
    (or tol is not above 0), with "underflow" when only its tail part is,
    which happens at the tail bounds' e^-700 floor (alpha above about 20),
    and where dual-side weights underflow (alpha below about 0.03 to 0.06).
    """
    modforms._check_alpha(alpha)
    crit = criticality(entry)
    if not crit.is_critical:
        raise NotCritical(
            f"{entry.name} has a root-shell moment defect; the Hessian spectrum "
            "formula applies only at critical lattices"
        )
    fold = _fold(entry, alpha, ToleranceUnreachable)
    if not tol > 0:
        raise ToleranceUnreachable(
            f"roundoff-bound: tol {tol!r} is not positive, and every error radius "
            "has a positive roundoff part"
        )
    tails = _tails(entry, fold.at, _TERMS)
    n = entry.dimension
    sums = _kernel(entry, fold.at, _TERMS)
    lines, widest = [], 0
    for lam, mult in _lambda_spectrum(entry):
        coef = lam * n * (n + 2) - 8 * entry.root_count
        if entry.cusp is None:
            assert coef == 0, "dimension-8 spectrum must not touch the cusp series"
        lines.append(SpectralLine(lam, mult, *_eigenvalue(fold, n, sums, tails, coef)))
        widest = max(widest, abs(coef))
    # every part of a radius grows with |coef|: the widest line has the widest parts
    radius = max(line.error_radius for line in lines)
    tail = fold.spectral(0.0, (tails[0] + widest * tails[1]) / (n * (n + 2)), 0.0, 0.0)[1]
    if not (radius <= tol and tail <= tol / 2):
        where = (f"at {_TERMS} series terms the error radius {radius:.3g} has tail part "
                 f"{tail:.3g} and roundoff part {radius - tail:.3g}, against tol {tol:.3g}")
        if radius - tail > tol / 2:
            raise ToleranceUnreachable(f"roundoff-bound: {where}; the roundoff part is above "
                                       "tol/2, and more terms cannot reduce it")
        raise ToleranceUnreachable(f"underflow: {where}; the tail part is above tol/2, and "
                                   "the tail bounds stop at e^-700 at any length")

    # classify returns (classification, morse_index, margin), the fields in that order
    return SpectrumReport(entry.name, alpha, _TERMS, tuple(lines), *classify(lines), fold.side)


def spectrum_partial(entry: LatticeEntry, alpha: float, lam: int, m_terms: int) -> float:
    """Partial eigenvalue sum through m_terms, no tail: for truncation-matched
    cross-checks against direct shell enumeration."""
    modforms._check_alpha(alpha)
    if m_terms < 0:
        raise ValueError(f"m_terms must be >= 0, got {m_terms!r}")
    n = entry.dimension
    sa, _, sb, *_ = _kernel(entry, alpha, m_terms)
    return (sa + (lam * n * (n + 2) - 8 * entry.root_count) * sb) / float(n * (n + 2))


def alpha_sweep(entry: LatticeEntry, alphas, tol: float = 1e-10) -> list[SpectrumReport]:
    return [hessian_spectrum(entry, float(alpha), tol=tol) for alpha in alphas]


def large_alpha_class(entry: LatticeEntry) -> str:
    """Classification in the steep limit, from root data alone.

    As alpha grows, mu(lambda) ~ (lambda/2) alpha^2 e^(-2 alpha) for
    lambda > 0 while mu(0) ~ -(n + 2) alpha a_1 e^(-2 alpha) < 0, so the
    outcome is LocalMin exactly when Q has no zero eigenvalue.  Without a
    root shell both leading terms vanish and root data decides nothing.
    """
    if entry.root_count == 0:
        raise Inapplicable(
            f"{entry.name} has no roots; the steep-limit sign is not determined "
            "by the root shell"
        )
    crit = criticality(entry)
    if not crit.is_critical:
        raise NotCritical(f"{entry.name} is not critical")
    lams = [lam for lam, _ in _lambda_spectrum(entry)]
    return CLASS_SADDLE if 0 in lams else CLASS_LOCAL_MIN


def isotropic_hessian_series(
    entry: LatticeEntry, alpha: float, m_terms: int = 8
) -> tuple[float, float]:
    """(partial value, certified tail) of the single Hessian eigenvalue of a
    rootless lattice.

    With no roots Q vanishes identically, the cusp contribution carries the
    coefficient lambda n(n+2) - 8 a_1 = 0, and the whole traceless Hessian is
    mu * identity with mu = Sa / (n(n+2)).  The partial sum runs over
    m <= m_terms; its tail, a spectral line's radius at that length, covers
    the certified theta tail and the partial sum's roundoff.  Below alpha = pi
    both are summed at pi^2 / alpha and scaled back (see _Fold).
    """
    modforms._check_alpha(alpha)
    if entry.root_count != 0:
        raise Inapplicable("isotropic Hessian series requires a rootless lattice")
    fold = _fold(entry, alpha, ToleranceUnreachable)
    tails = _tails(entry, fold.at, m_terms)  # ValueError for too few terms
    return _eigenvalue(fold, entry.dimension, _kernel(entry, fold.at, m_terms), tails, 0)


# ---------------------------------------------------------------------------
# deformation cross-check
# ---------------------------------------------------------------------------


DeformationCheck = namedtuple("DeformationCheck", "measured_ratio expected_ratio agree")

_STEP = 1e-3


def deformation_check(gram, alpha: float, direction, m_max: int = 4) -> DeformationCheck:
    """Finite-difference check of the Hessian convention on an actual path.

    Deform along t -> e^(tH/2), so the squared norms become x^T e^(tH) x, and
    compare the Richardson second derivative, step _STEP, of the (truncated)
    energy with the analytic pairing from ``hessian_direct``.  Both truncate
    at the same shells, so the ratio must be the convention factor 2 up to
    O(_STEP^2).
    """
    import numpy as np

    from . import enumlat

    g = np.asarray(gram)
    h = np.asarray(direction, dtype=float)
    # validates the Gram matrix, shell budget, alpha and direction before any walk
    analytic = enumlat.hessian_direct(g, alpha, h, m_max)
    vectors, norms = enumlat.short_vectors(g, 2 * m_max)
    # shell by shell, so the energy sums add in a fixed order
    frame = np.linalg.cholesky(g.astype(float)).T
    points = vectors[np.argsort(norms, kind="stable")] @ frame.T

    evals, evecs = np.linalg.eigh(h)

    def energy(t: float) -> float:
        y = points @ evecs
        q = np.sum(y * y * np.exp(t * evals), axis=1)
        return float(np.sum(np.exp(-alpha * q)))

    d2 = (
        16.0 * (energy(_STEP) + energy(-_STEP))
        - (energy(2 * _STEP) + energy(-2 * _STEP))
        - 30.0 * energy(0.0)
    ) / (12.0 * _STEP * _STEP)
    ratio = d2 / analytic
    return DeformationCheck(
        measured_ratio=ratio,
        expected_ratio=2.0,
        agree=abs(ratio - 2.0) <= 1e-5 * max(1.0, abs(ratio)),
    )
