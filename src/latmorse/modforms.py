"""Exact q-series arithmetic and certified coefficient bounds.

Every modular form read here lies in some M_w, which the monomials
E4^a E6^b Delta^c with 4a + 6b + 12c = w span, where Delta = (E4^3 - E6^2) /
1728 (Serre, *A Course in Arithmetic*, ch. VII).  One weight rule picks a
basis of M_w: row c is E4^a E6^b Delta^c with 4a + 6b = w - 12c and b <= 1,
for each c with w - 12c >= 0 other than w - 12c = 2.  Row c is
q^c + O(q^(c+1)), so there are dim M_w rows and rows 1.. span S_w.

* Theta series.  An even unimodular lattice of dimension n = 8k has its theta
  series in M_4k, whose row 0 is E4^k = 1 + 240k q + ...  Where S_4k = 0
  (n = 8, 16) this forces the root count a_1 = 240k; where S_4k is a line
  (n = 24, 32, 40) matching a_1 gives

      theta = E4^k + (a_1 - 240k) E4^(k-3) Delta;

  beyond, a_1 alone does not fix theta.
* Cusp forms.  The forms of weight n/2 + 4 that pair with the degree-4
  harmonics of a dimension-n theta series are row 1 of that weight where
  S_(n/2+4) is a line (n = 16, 24, 32), and 0 where it is trivial (n = 8);
  Delta E6, row 1 of weight 18, pairs with the degree-2 harmonics in n = 32.

Coefficients are exact: ints in every row and theta series, Fractions in
``eisenstein``.  Floats appear only in the certified-bound layer, where every
constant is rounded upward.  That layer keeps splitting
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

from .records import Frozen

DEFAULT_LENGTH = 64

# relative inflation applied to every certified constant
_UP = 1.0 + 1e-9

# exp() floor: an upper bound that underflows must stay positive
_LOG_FLOOR = -700.0


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
    the truncation order is ``len(coeffs)``.  Like every ``Frozen`` record
    it compares by identity: compare ``coeffs`` to compare values.
    """

    def __init__(self, weight: int, coeffs: tuple[int | Fraction, ...]) -> None:
        self.__dict__.update(weight=weight, coeffs=coeffs)

    @property
    def length(self) -> int:
        return len(self.coeffs)

    def coefficient(self, m: int) -> int | Fraction:
        if m < 0:
            raise ValueError(f"no coefficient of q^{m} in a q-expansion")
        if m >= len(self.coeffs):
            raise ValueError(f"coefficient {m} beyond truncation order {len(self.coeffs)}")
        return self.coeffs[m]

    def __add__(self, other: "QSeries") -> "QSeries":
        if self.weight != other.weight:
            raise ValueError(f"cannot add weights {self.weight} and {other.weight}")
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


def eisenstein(k: int, length: int = DEFAULT_LENGTH) -> QSeries:
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(m) q^m."""
    if k < 4 or k % 2 != 0:
        raise ValueError(f"Eisenstein weight must be even and >= 4, got {k}")
    factor = Fraction(-2 * k) / bernoulli(k)
    table = _sigma_table(k - 1, length)
    coeffs = [Fraction(1)] + [factor * table[m] for m in range(1, length)]
    return QSeries(k, tuple(coeffs))


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Truncated product of two integer q-expansions of equal length."""
    n, rb = len(a), b[::-1]
    return tuple(sum(map(operator.mul, a[: m + 1], rb[n - 1 - m :])) for m in range(n))


def _weight_rows(w: int) -> list[tuple[int, int, int]]:
    """Exponents (a, b, c) of the rows of even weight w >= 0 (module docstring)."""
    # r = w - 12c = 4a + 6b: b = 1 exactly when r = 2 (mod 4), and then a = r // 4 - 1
    return [(r // 4 - r % 4 // 2, r % 4 // 2, c)
            for c, r in enumerate(range(w, -1, -12)) if r != 2]


@lru_cache(maxsize=256)
def _monomial(a: int, b: int, c: int, length: int) -> tuple[int, ...]:
    """E4^a E6^b Delta^c (a + b + c >= 1) to ``length`` terms in exact ints: one convolution
    of the cached monomial with one E4 (else E6, else Delta) fewer.  Delta = (E4^3 - E6^2)/1728."""
    if (a, b, c) == (0, 0, 1):
        diff = [x - y for x, y in zip(_monomial(3, 0, 0, length), _monomial(0, 2, 0, length))]
        assert all(d % 1728 == 0 for d in diff)
        return tuple(d // 1728 for d in diff)
    if a + b + c == 1:
        first = int(eisenstein_first_coeff(4 + 2 * b))
        return (1,) + tuple(first * s for s in _sigma_table(3 + 2 * b, length)[1:])
    factor = (1, 0, 0) if a else (0, 1, 0) if b else (0, 0, 1)
    rest = _monomial(a - factor[0], b - factor[1], c - factor[2], length)
    return _convolve(rest, _monomial(*factor, length))


def _eighth(n: int) -> int:
    """k = n / 8 for a dimension n that is a positive multiple of 8."""
    if n <= 0 or n % 8:
        raise ValueError(f"dimension must be a positive multiple of 8, got {n}")
    return n // 8


def discriminant(length: int = DEFAULT_LENGTH) -> QSeries:
    """The normalized weight-12 cusp form (E4^3 - E6^2) / 1728, row 1 of weight 12."""
    return QSeries(12, _monomial(*_weight_rows(12)[1], length))


def eisenstein_first_coeff(k: int) -> Fraction:
    """Coefficient of q in E_k, i.e. -2k/B_k."""
    return Fraction(-2 * k) / bernoulli(k)


def cusp_normalized(n: int, length: int = DEFAULT_LENGTH) -> QSeries:
    """Normalized cusp form of weight w = n/2 + 4, row 1 of that weight, where
    S_w is a line (n = 16, 24, 32), pairing with degree-4 harmonics of theta
    series (module docstring).  Where S_w = 0 (n = 8) the only such form is
    0, the zero series of weight w."""
    w = 4 * _eighth(n) + 4
    rows = _weight_rows(w)
    if len(rows) > 2:
        raise ValueError(f"S_{w} is not a line, so no cusp form is stored for n={n}")
    return QSeries(w, _monomial(*rows[1], length) if len(rows) == 2 else (0,) * length)


def _theta_rows(n: int, root_count: int) -> tuple[list[tuple[int, int, int]], int]:
    """Rows of weight n/2 and the count as an int, once (n, root_count) fixes a theta: a
    nonnegative int, 240 n/8 where S_(n/2) = 0, and S_(n/2) at most a line."""
    k, root_count = _eighth(n), operator.index(root_count)
    if root_count < 0:
        raise ValueError(f"root count must be nonnegative, got {root_count}")
    rows = _weight_rows(4 * k)
    if len(rows) > 2:
        raise ValueError(f"the root count does not fix theta in dimension {n}")
    if len(rows) == 1 and root_count != 240 * k:
        raise ValueError(f"dimension {n} forces {240 * k} roots")
    return rows, root_count


def theta_even_unimodular(n: int, root_count: int, length: int = DEFAULT_LENGTH) -> QSeries:
    """Theta series of an even unimodular lattice of dimension n with root_count
    roots, a nonnegative integer, from the rows of weight n/2 (module docstring)."""
    rows, root_count = _theta_rows(n, root_count)
    theta, cusp = _monomial(*rows[0], length), root_count - 30 * n  # a_1 - 240 n/8
    if cusp:
        theta = tuple(t + cusp * r for t, r in zip(theta, _monomial(*rows[1], length)))
    return QSeries(n // 2, theta)


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
    k = 4 * _eighth(n)
    raw = abs(float(eisenstein_first_coeff(k))) * zeta_upper(k - 1)
    return CoeffBound(((round_up_significant(raw, 2), k - 1),))


def jenkins_rouse_constant(k: int, leading_coeffs) -> float:
    """Explicit constant C with |a_m| <= C d(m) m^((k-1)/2) for a weight-k cusp form.

    ``leading_coeffs`` are exactly its first dim S_k coefficients, which fix it
    (module docstring).  Formula of Jenkins and Rouse, with upward rounding slack.
    """
    if k < 12 or k % 2 != 0:
        raise ValueError(f"cusp weight must be even and >= 12, got {k}")
    coeffs = [float(c) for c in leading_coeffs]
    if len(coeffs) != len(_weight_rows(k)) - 1:
        raise ValueError(f"S_{k} needs exactly {len(_weight_rows(k)) - 1} leading coefficients")
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
def theta_coeff_bound(n: int, root_count: int) -> CoeffBound:
    """Certified bound on |a_m| for the dimension-n theta with given root count.

    (n, root_count) must fix a theta series, as in ``theta_even_unimodular``.
    Eisenstein part from ``eisenstein_coeff_bound``; where S_(n/2) is not 0
    the cusp part uses the Jenkins-Rouse constant of the cusp component, whose
    first coefficient is root_count - (coefficient of q in E_{n/2}).
    """
    rows, root_count = _theta_rows(n, root_count)
    eis = eisenstein_coeff_bound(n)
    if len(rows) == 1:
        return eis
    cusp = cusp_coeff_bound(n // 2, (root_count - eisenstein_first_coeff(n // 2),))
    return CoeffBound(eis.terms + cusp.terms)


def incomplete_gamma(s: int, x: float) -> float:
    """Upper incomplete Gamma(s, x) for integer s >= 1, x >= 0.

    Exact finite form (s-1)! e^-x sum_{t<s} x^t/t!, evaluated in log space so
    small values stay positive upper bounds instead of underflowing to zero.
    """
    if s < 1:
        raise ValueError("integer s >= 1 required")
    if not x >= 0:
        raise ValueError("x >= 0 required")
    if x == 0.0:
        return float(math.factorial(s - 1))
    if x == math.inf:  # Gamma(s, inf) = 0: the floor that every x past ~700 returns
        return math.exp(_LOG_FLOOR) * _UP
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
    j >= k / (2 alpha); earlier j raises ValueError.  The bound is
    j^k e^(-2 alpha j) + (2 alpha)^(-(k+1)) Gamma(k+1, 2 alpha j).
    """
    if j < 1 or k < 0:
        raise ValueError("need j >= 1 and k >= 0")
    _check_alpha(alpha)
    if 2.0 * alpha * j < k:
        raise ValueError(f"tail start j={j} below k/(2 alpha) = {k / (2 * alpha):.3f}")
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
            raise ValueError("series too short for tail certification")
        tail = bound.series_tail(length, alpha_eff) * scale
        if tail > 1e-12:
            raise ValueError(f"certified tail {tail:.3e} exceeds 1e-12 at y={y}")
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
