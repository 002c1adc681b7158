"""Exact q-series arithmetic and certified coefficient bounds.

Every modular form read here lies in the ring generated by E4, E6 and
Delta = (E4^3 - E6^2) / 1728 (Serre, *A Course in Arithmetic*, ch. VII), so
one cached basis of integer monomials in E4, E6 and Delta serves them all:
E4, E4^2, E4^3, E4^4, Delta, E4 Delta, E4^2 Delta and Delta E6.

* Theta series.  An even unimodular lattice of dimension n = 8k has its theta
  series in M_4k.  For k <= 2 that space is spanned by E4^k; for k = 3, 4 by
  E4^k and the cusp form E4^(k-3) Delta = q + O(q^2).  E4^k = 1 + 240k q + ...,
  so matching the coefficient of q, the root count a_1, gives

      theta = E4^k + (a_1 - 240k) E4^(k-3) Delta,

  and for k <= 2 forces a_1 = 240k.
* Cusp forms.  dim S_w = dim M_(w-12), and M_0, M_4, M_6, M_8 are spanned by
  1, E4, E6, E4^2; so S_12, S_16, S_18 and S_20 are spanned by Delta,
  E4 Delta, Delta E6 and E4^2 Delta.  The forms of weight n/2 + 4 that pair
  with the degree-4 harmonics of a dimension-n theta series are
  E4^(k-2) Delta; Delta E6 is the weight-18 form that pairs with the
  degree-2 harmonics in dimension 32.

Coefficients are exact ints (Fractions only where a fractional root count
leaves a combination non-integral); floats appear only in the certified-bound
layer, where every constant is rounded upward.  That layer keeps splitting
theta as E_(n/2) plus a cusp form, because the Jenkins-Rouse bound holds for
cusp forms only, and the Eisenstein part has the closed coefficient
(2k/|B_k|) sigma_(k-1)(m).  It provides three certified estimates:

* ``zeta_upper``          an upper enclosure of zeta(s) for integer s >= 2,
* ``jenkins_rouse_constant``  the explicit cusp-form coefficient bound
                          |a_m| <= C d(m) m^((k-1)/2) of Jenkins and Rouse,
* ``tail_bound``          sum_{m >= j} m^k e^(-2 alpha m) <= j^k e^(-2 alpha j)
                          + (2 alpha)^(-(k+1)) Gamma(k+1, 2 alpha j).

All upward rounding is done by a relative inflation of 1e-9, far above the
float64 rounding accumulated in these short formulas.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .records import Frozen

DEFAULT_LENGTH = 64

# relative inflation applied to every certified constant
_UP = 1.0 + 1e-9

# exp() floor: an upper bound that underflows must stay positive
_LOG_FLOOR = -700.0


class InvalidWeight(ValueError):
    """Eisenstein or cusp weight outside the supported even range."""


class InconsistentRootCount(ValueError):
    """Root count incompatible with the dimension's theta space."""


class UnsupportedDimension(ValueError):
    """Dimension without the required modular-form data."""


class MonotonicityViolated(ValueError):
    """tail_bound called left of the summand's maximum."""


class TruncationInsufficient(ValueError):
    """Series too short for the requested certified evaluation."""


# ---------------------------------------------------------------------------
# small number theory helpers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number (B_1 = +1/2 convention), exact: for even k = 2n >= 2,
    B_k = (-1)^(n-1) k T_n / (2^k (2^k - 1)), tangent numbers T_i built in ints."""
    if k < 0:
        raise ValueError("negative Bernoulli index")
    if k < 2:
        return Fraction(1, k + 1)
    if k % 2:
        return Fraction(0)
    n = k // 2
    t = [0, 1] + [0] * (n - 1)
    for j in range(2, n + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return Fraction((-1) ** (n - 1) * k * t[n], 4**n * (4**n - 1))


def _sigma_table(k: int, length: int) -> list[int]:
    """Divisor power sums sigma_k(m) for 0 <= m < length (0 at m = 0), by a sieve."""
    table = [0] * length
    for d in range(1, length):
        dk = d**k
        for m in range(d, length, d):
            table[m] += dk
    return table


# ---------------------------------------------------------------------------
# exact q-series
# ---------------------------------------------------------------------------


class QSeries(Frozen):
    """Truncated q-expansion sum_m c_m q^m with exact coefficients (int or Fraction).

    ``weight`` is the modular weight, carried so arithmetic can check that
    sums stay inside one space.  ``coeffs[m]`` is the coefficient of q^m;
    the truncation order is ``len(coeffs)``.  Equal weights and coefficients
    make equal series.
    """

    def __init__(self, weight: int, coeffs: tuple[int | Fraction, ...]) -> None:
        self.__dict__.update(weight=weight, coeffs=coeffs)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.weight == other.weight and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.weight, self.coeffs))

    @property
    def length(self) -> int:
        return len(self.coeffs)

    def coefficient(self, m: int) -> int | Fraction:
        if m >= len(self.coeffs):
            raise TruncationInsufficient(
                f"coefficient {m} beyond truncation order {len(self.coeffs)}"
            )
        return self.coeffs[m]

    def __add__(self, other: "QSeries") -> "QSeries":
        if self.weight != other.weight:
            raise InvalidWeight(
                f"cannot add weights {self.weight} and {other.weight}"
            )
        n = min(len(self.coeffs), len(other.coeffs))
        return QSeries(
            self.weight,
            tuple(a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])),
        )

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "QSeries") -> "QSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        a, b = self.coeffs, other.coeffs
        prod = [Fraction(0)] * n
        for i in range(n):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(n - i):
                prod[i + j] += ai * b[j]
        return QSeries(self.weight + other.weight, tuple(prod))

    def scale(self, factor) -> "QSeries":
        f = Fraction(factor)
        return QSeries(self.weight, tuple(f * c for c in self.coeffs))

    def floats(self) -> list[float]:
        return [float(c) for c in self.coeffs]

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def to_json_dict(self) -> dict:
        """Exact JSON form: rationals as 'p/q' strings."""
        return {
            "weight": self.weight,
            "coefficients": [
                str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
                for c in self.coeffs
            ],
        }


def eisenstein(k: int, length: int = DEFAULT_LENGTH) -> QSeries:
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(m) q^m."""
    if k < 4 or k % 2 != 0:
        raise InvalidWeight(f"Eisenstein weight must be even and >= 4, got {k}")
    factor = Fraction(-2 * k) / bernoulli(k)
    table = _sigma_table(k - 1, length)
    coeffs = [Fraction(1)] + [factor * table[m] for m in range(1, length)]
    return QSeries(k, tuple(coeffs))


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Truncated product of two integer q-expansions of equal length."""
    n, rb = len(a), b[::-1]
    return tuple(sum(map(operator.mul, a[: m + 1], rb[n - 1 - m :])) for m in range(n))


@lru_cache(maxsize=32)
def _basis(length: int) -> MappingProxyType:
    """E4^i E6^j Delta^l to ``length`` terms, keyed (i, j, l): E4^1..E4^4,
    Delta, E4 Delta, E4^2 Delta and Delta E6, all exact ints.

    Delta = (E4^3 - E6^2) / 1728 is an exact integer division.
    """
    e4 = (1,) + tuple(240 * s for s in _sigma_table(3, length)[1:])
    e6 = (1,) + tuple(-504 * s for s in _sigma_table(5, length)[1:])
    rows = {(1, 0, 0): e4}
    for i in (2, 3, 4):
        rows[i, 0, 0] = _convolve(rows[i - 1, 0, 0], e4)
    diff = [a - b for a, b in zip(rows[3, 0, 0], _convolve(e6, e6))]
    assert all(c % 1728 == 0 for c in diff)
    delta = rows[0, 0, 1] = tuple(c // 1728 for c in diff)
    assert delta[:2] == (0, 1)[:length]
    rows[1, 0, 1] = _convolve(e4, delta)
    rows[2, 0, 1] = _convolve(e4, rows[1, 0, 1])
    rows[0, 1, 1] = _convolve(delta, e6)
    return MappingProxyType(rows)


def _combine(base, row, factor: Fraction) -> tuple:
    """Coefficients of base + factor * row: ints where exact."""
    p, q = factor.numerator, factor.denominator
    nums = [b * q + p * r for b, r in zip(base, row)]
    return tuple(c // q if c % q == 0 else Fraction(c, q) for c in nums)


def discriminant(length: int = DEFAULT_LENGTH) -> QSeries:
    """The normalized weight-12 cusp form (E4^3 - E6^2) / 1728."""
    return QSeries(12, _basis(length)[0, 0, 1])


def eisenstein_first_coeff(k: int) -> Fraction:
    """Coefficient of q in E_k, i.e. -2k/B_k."""
    return Fraction(-2 * k) / bernoulli(k)


def cusp_normalized(n: int, length: int = DEFAULT_LENGTH) -> QSeries:
    """Normalized cusp form E4^(k-2) Delta of weight n/2 + 4 for n = 8k in {16, 24, 32}.

    These are the forms pairing with degree-4 harmonics of theta series
    (module docstring).  Dimension 8 has no cusp form of weight 8, which
    callers treat as an identically zero series.
    """
    k = n // 8
    if n % 8 or not 2 <= k <= 4:
        raise UnsupportedDimension(f"no weight-(n/2+4) cusp form stored for n={n}")
    return QSeries(4 * k + 4, _basis(length)[k - 2, 0, 1])


def theta_even_unimodular(n: int, root_count, length: int = DEFAULT_LENGTH) -> QSeries:
    """Theta series E4^k + (root_count - 240k) E4^(k-3) Delta of an even
    unimodular lattice of dimension n = 8k in {8, 16, 24, 32}.

    For k <= 2 there is no cusp form, and root_count must be 240k (module
    docstring).
    """
    k = n // 8
    if n % 8 or not 1 <= k <= 4:
        raise UnsupportedDimension(f"theta series known for n in 8..32 by 8, got {n}")
    rows, cusp = _basis(length), Fraction(root_count) - 240 * k
    if k < 3:
        if cusp:
            raise InconsistentRootCount(f"dimension {n} forces {240 * k} roots")
        return QSeries(4 * k, rows[k, 0, 0])
    return QSeries(4 * k, _combine(rows[k, 0, 0], rows[k - 3, 0, 1], cusp))


# ---------------------------------------------------------------------------
# certified bounds
# ---------------------------------------------------------------------------


def zeta_upper(s: int) -> float:
    """Certified upper bound on zeta(s) for integer s >= 2.

    Euler-Maclaurin at N = 20, cut after the B_2 term:
    zeta(s) <= sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2 + s N^(-s-1)/12.
    Every derivative of f = x^-s keeps one sign (f''' < 0, f^(4) > 0), so the
    remainder has the sign of the first omitted term,
    -s(s+1)(s+2) N^(-s-3)/720 <= 0: the cut sum is an upper bound, within
    1e-8 relative for every s >= 2.  The float evaluation is inflated upward.
    """
    if s < 2:
        raise ValueError("zeta_upper needs s >= 2")
    N = 20
    partial = sum(float(n) ** -s for n in range(N - 1, 0, -1))  # ascending magnitudes
    closing = N ** (1.0 - s) / (s - 1.0) + N ** (-float(s)) / 2.0 + s * N ** (-s - 1.0) / 12.0
    return (partial + closing) * _UP


def round_up_significant(x: float, digits: int) -> float:
    """Round x > 0 upward to the given number of significant digits."""
    assert x > 0 and digits >= 1
    exponent = math.floor(math.log10(x))
    scale = 10.0 ** (digits - 1 - exponent)
    return math.ceil(x * scale - 1e-12) / scale


class CoeffBound(namedtuple("CoeffBound", "terms")):
    """Certified bound sum_i c_i * m^(e_i) on |a_m|, all m >= 1."""

    __slots__ = ()

    def eval(self, m: int) -> float:
        return sum(c * float(m) ** e for c, e in self.terms)

    def series_tail(self, j: int, alpha: float, extra_exponent: int = 0) -> float:
        """Certified bound on sum_{m >= j} (bound at m) * m^extra * e^(-2 alpha m)."""
        return sum(
            c * tail_bound(j, e + extra_exponent, alpha) for c, e in self.terms
        )


def eisenstein_coeff_bound(n: int) -> CoeffBound:
    """Bound on the Eisenstein part of a dimension-n theta series.

    |(2k/|B_k|) sigma_{k-1}(m)| <= (2k/|B_k|) zeta(k-1) m^(k-1) with k = n/2;
    the constant is rounded up to 2 significant digits (n = 32 gives 4.6).
    """
    if n % 8 != 0 or not 8 <= n <= 32:
        raise UnsupportedDimension(f"Eisenstein bound defined for n in 8..32 by 8, got {n}")
    k = n // 2
    raw = abs(float(eisenstein_first_coeff(k))) * zeta_upper(k - 1)
    return CoeffBound(((round_up_significant(raw, 2), k - 1),))


def jenkins_rouse_constant(k: int, leading_coeffs) -> float:
    """Explicit constant C with |a_m| <= C d(m) m^((k-1)/2) for a weight-k cusp form.

    ``leading_coeffs`` are the first coefficients a_1..a_R of the form (any
    nonempty prefix works; the bound uses whatever is supplied).  Formula of
    Jenkins and Rouse, evaluated with upward rounding slack.
    """
    if k < 12 or k % 2 != 0:
        raise InvalidWeight(f"cusp weight must be even and >= 12, got {k}")
    coeffs = [float(c) for c in leading_coeffs]
    if not coeffs:
        raise ValueError("need at least one leading coefficient")
    quad = math.sqrt(sum(c * c / float(r + 1) ** (k - 1) for r, c in enumerate(coeffs)))
    lin = abs(sum(c * math.exp(-7.288 * (r + 1)) for r, c in enumerate(coeffs)))
    # e^18.72 * 41.41^(k/2) / k^((k-1)/2), safely in log space
    big = math.exp(18.72 + (k / 2) * math.log(41.41) - ((k - 1) / 2) * math.log(k))
    return math.sqrt(math.log(k)) * (11.0 * quad + big * lin) * _UP


def cusp_coeff_bound(k: int, leading_coeffs) -> CoeffBound:
    """Jenkins-Rouse bound with d(m) <= 2 sqrt(m) folded in: 2C m^(k/2)."""
    c = jenkins_rouse_constant(k, leading_coeffs)
    return CoeffBound(((2.0 * c, k // 2),))


@lru_cache(maxsize=256)
def theta_coeff_bound(n: int, root_count) -> CoeffBound:
    """Certified bound on |a_m| for the dimension-n theta with given root count.

    Eisenstein part from ``eisenstein_coeff_bound``; for n >= 24 the cusp part
    uses the Jenkins-Rouse constant of the cusp component, whose first
    coefficient is root_count - (coefficient of q in E_{n/2}).
    """
    eis = eisenstein_coeff_bound(n)
    if n < 24:
        return eis
    c1 = Fraction(root_count) - eisenstein_first_coeff(n // 2)
    if c1 == 0:
        return eis
    cusp = cusp_coeff_bound(n // 2, (c1,))
    return CoeffBound(eis.terms + cusp.terms)


def incomplete_gamma(s: int, x: float) -> float:
    """Upper incomplete Gamma(s, x) for integer s >= 1, x >= 0.

    Exact finite form (s-1)! e^-x sum_{t<s} x^t/t!, evaluated in log space so
    small values stay positive upper bounds instead of underflowing to zero.
    """
    if s < 1:
        raise ValueError("integer s >= 1 required")
    if x < 0:
        raise ValueError("x >= 0 required")
    if x == 0.0:
        return float(math.factorial(s - 1))
    # partial sum with the largest term factored out, all in logs
    logs = [t * math.log(x) - math.lgamma(t + 1) for t in range(s)]
    peak = max(logs)
    inner = sum(math.exp(v - peak) for v in logs)
    logval = math.lgamma(s) - x + peak + math.log(inner)
    return math.exp(max(logval, _LOG_FLOOR)) * _UP


def _check_alpha(alpha: float) -> None:
    """Raise ValueError unless the Gaussian parameter is positive and finite."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")


def tail_bound(j: int, k: int, alpha: float) -> float:
    """Certified bound on sum_{m >= j} m^k e^(-2 alpha m).

    Valid once the summand is nonincreasing from j on, which requires
    j >= k / (2 alpha); earlier j raises MonotonicityViolated.  The bound is
    j^k e^(-2 alpha j) + (2 alpha)^(-(k+1)) Gamma(k+1, 2 alpha j).
    """
    if j < 1 or k < 0:
        raise ValueError("need j >= 1 and k >= 0")
    _check_alpha(alpha)
    if 2.0 * alpha * j < k:
        raise MonotonicityViolated(
            f"tail start j={j} below k/(2 alpha) = {k / (2 * alpha):.3f}"
        )
    x = 2.0 * alpha * j
    first = math.exp(max(k * math.log(j) - x, _LOG_FLOOR))
    rest = incomplete_gamma(k + 1, x) * math.exp(
        max(-(k + 1) * math.log(2.0 * alpha), _LOG_FLOOR)
    )
    return (first + rest) * _UP


def theta_duality_residual(theta: QSeries, n: int, y: float) -> float:
    """|Theta(iy) - y^(-n/2) Theta(i/y)| from the truncated series.

    Both evaluations use every stored coefficient.  The neglected tails are
    certified first; if either can exceed 1e-12 the truncation is refused.
    """
    if not 0.5 <= y <= 2.0:
        raise ValueError("y restricted to [0.5, 2]")
    length = theta.length
    bound = theta_coeff_bound(n, theta.coeffs[1])
    for alpha_eff, scale in ((math.pi * y, 1.0), (math.pi / y, y ** (-n / 2.0))):
        if 2.0 * alpha_eff * length < max(e for _, e in bound.terms):
            raise TruncationInsufficient("series too short for tail certification")
        tail = bound.series_tail(length, alpha_eff) * scale
        if tail > 1e-12:
            raise TruncationInsufficient(
                f"certified tail {tail:.3e} exceeds 1e-12 at y={y}"
            )
    floats = theta.floats()
    lhs = _theta_value(floats, math.pi * y)
    rhs = y ** (-n / 2.0) * _theta_value(floats, math.pi / y)
    return abs(lhs - rhs)


def _theta_value(coeffs: list[float], alpha_eff: float) -> float:
    # ascending-term summation: small high-index terms first
    total = 0.0
    for m in range(len(coeffs) - 1, -1, -1):
        total += coeffs[m] * math.exp(-2.0 * alpha_eff * m)
    return total
