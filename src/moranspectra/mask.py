"""Mask polynomials and exact vanishing arithmetic.

The mask polynomial of a digit set D is
m_D(xi) = (1/#D) sum_d exp(2 pi i <d, xi>), a Z^2-periodic trigonometric
polynomial with m_D(0) = 1 and |m_D| <= 1.  Numeric evaluation lives in
`eval_mask`; every verdict-bearing zero test goes through exact kernels:

* structured four-point sets use the closed-form zero set
  Z(m_D) = {xi : 2 Q^t xi in Z^2 \\ 2 Z^2},
* arbitrary finite sets reduce to "does a sum of rational-exponent roots of
  unity vanish", decided by remainder against the cyclotomic polynomial of
  the common denominator.

A vanishing sum of exactly four unit roots must split into two antipodal
pairs; that combinatorial shortcut is the fast path for the four-point sets
and a cross-check against the cyclotomic route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .digitsets import DigitSet, StructuredDigitSet
from .lattice import Mat2, Vec2

TWO_PI = 2.0 * cmath.pi


class HadamardError(ValueError):
    pass


class CardinalityMismatch(HadamardError):
    pass


class SingularMatrix(HadamardError):
    pass


def eval_mask(digits: DigitSet, xi) -> complex:
    """Numeric m_D(xi) in double precision; xi may be float or rational."""
    x = float(xi[0])
    y = float(xi[1])
    acc = 0j
    for dx, dy in digits.points():
        acc += cmath.exp(1j * TWO_PI * (dx * x + dy * y))
    return acc / len(digits)


# --- exact vanishing of root-of-unity sums --------------------------------


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial.

    Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, computed by exact integer
    polynomial division; the divisor chain keeps everything monic.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_div_exact(num, list(cyclotomic_coeffs(d)))
    return tuple(num)


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials known to divide exactly (den monic)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        coef = num[k + len(den) - 1]
        out[k] = coef
        if coef:
            for i, c in enumerate(den):
                num[k + i] -= coef * c
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


def _poly_rem_is_zero(coeffs: Sequence[int], monic: Sequence[int]) -> bool:
    """True iff the integer polynomial with given coefficients is divisible
    by the monic integer polynomial `monic`."""
    work = list(coeffs)
    deg_m = len(monic) - 1
    for k in range(len(work) - 1, deg_m - 1, -1):
        coef = work[k]
        if coef:
            for i in range(deg_m + 1):
                work[k - deg_m + i] -= coef * monic[i]
    return not any(work)


MAX_DENSE_DENOMINATOR = 100_000


def _check_dense_denominator(q: int) -> None:
    """The dense test allocates q coefficients and divides by Phi_q; refuse
    denominators past MAX_DENSE_DENOMINATOR before doing either."""
    if q > MAX_DENSE_DENOMINATOR:
        raise ValueError(
            f"common denominator {q} too large for the dense cyclotomic test"
        )


@dataclass(frozen=True)
class UnityRootSum:
    """A formal sum  sum_k  c_k * exp(2 pi i x_k)  with rational x_k mod 1."""

    counts: tuple[tuple[Fraction, int], ...]

    @staticmethod
    def from_exponents(exponents: Iterable) -> "UnityRootSum":
        counts: dict[Fraction, int] = {}
        for e in exponents:
            f = Fraction(e) % 1
            counts[f] = counts.get(f, 0) + 1
        return UnityRootSum(tuple(sorted(counts.items())))

    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def value(self) -> complex:
        return sum(c * cmath.exp(1j * TWO_PI * float(e)) for e, c in self.counts)

    def is_zero(self) -> bool:
        if not self.counts:
            return True
        if self.total() == 4:
            return self._antipodal_pairing_zero()
        return self._cyclotomic_zero()

    def _antipodal_pairing_zero(self) -> bool:
        # A vanishing 4-term sum of unit roots is two pairs differing by 1/2.
        counts = dict(self.counts)
        half = Fraction(1, 2)
        return all(counts.get((e + half) % 1, 0) == c for e, c in counts.items())

    def _cyclotomic_zero(self) -> bool:
        q = 1
        for e, _ in self.counts:
            q = math.lcm(q, e.denominator)
        _check_dense_denominator(q)
        coeffs = [0] * q
        for e, c in self.counts:
            coeffs[int(e * q)] += c
        if q == 1:
            return coeffs[0] == 0
        return _poly_rem_is_zero(coeffs, cyclotomic_coeffs(q))


def unity_sum_is_zero(exponents: Iterable) -> bool:
    """Exact verdict on whether sum_k exp(2 pi i x_k) vanishes."""
    return UnityRootSum.from_exponents(exponents).is_zero()


def unity_sum_is_zero_ints(numerators: Iterable[int], q: int) -> bool:
    """Exact vanishing of sum_k exp(2 pi i n_k / q) from integer numerators.

    Same verdict as `unity_sum_is_zero` on fractions n_k/q, and the same
    ValueError when q itself is past the dense test's limit; skips Fraction
    construction for hot loops (the discrete spectral-pair oracle).
    """
    _check_dense_denominator(q)
    coeffs = [0] * q
    for k in numerators:
        coeffs[k % q] += 1
    if q == 1:
        return coeffs[0] == 0
    return _poly_rem_is_zero(coeffs, cyclotomic_coeffs(q))


# --- exact mask zero tests -------------------------------------------------


def rational_vec(xi) -> tuple[Fraction, Fraction]:
    # Fraction(c) would re-validate a Fraction through the numbers ABCs,
    # which costs more than a level of the exact zero scan.
    x, y = xi
    return (
        x if type(x) is Fraction else Fraction(x),
        y if type(y) is Fraction else Fraction(y),
    )


def over_common_denominator(xi) -> tuple[int, int, int]:
    """(nx, ny, den) with xi = (nx, ny) / den exactly and den > 0 the lcm of
    the coordinates' denominators."""
    x, y = rational_vec(xi)
    den = math.lcm(x.denominator, y.denominator)
    return (
        x.numerator * (den // x.denominator),
        y.numerator * (den // y.denominator),
        den,
    )


def structured_zero_ints(digits: StructuredDigitSet, nx: int, ny: int, den: int) -> bool:
    """Exact zero test for structured sets at xi = (nx, ny) / den, den > 0:
    2 Q^t xi must be an integer vector outside 2 Z^2 (via
    m_D(xi) = m_D0(Q^t xi)), decided on integer numerators alone."""
    ax, ay = digits.alpha
    bx, by = digits.beta
    u = 2 * (ax * nx + ay * ny)
    v = 2 * (bx * nx + by * ny)
    if u % den or v % den:
        return False
    return (u // den) % 2 == 1 or (v // den) % 2 == 1


def mask_zero_exact(digits: StructuredDigitSet, xi) -> bool:
    """`structured_zero_ints` at a rational point."""
    return structured_zero_ints(digits, *over_common_denominator(xi))


def mask_zero_exact_generic(digits: DigitSet, xi) -> bool:
    """Exact zero test for any finite digit set and rational xi."""
    x, y = rational_vec(xi)
    return unity_sum_is_zero((dx * x + dy * y) % 1 for dx, dy in digits.points())


def digit_mask_zero(digits: DigitSet, xi) -> bool:
    """Dispatch to the structured closed form when available."""
    if isinstance(digits, StructuredDigitSet):
        return mask_zero_exact(digits, xi)
    return mask_zero_exact_generic(digits, xi)


def is_hadamard_triple(m: Mat2, digits: DigitSet, companions: Sequence[Vec2]) -> bool:
    """Exact Hadamard-triple test.

    (M, D, L) is Hadamard iff every difference of distinct companion points,
    pulled back through (M^*)^{-1}, lands in the zero set of m_D.  Rational
    companion points are accepted; all arithmetic is exact.
    """
    points = list(companions)
    if len(digits) != len(points):
        raise CardinalityMismatch(
            f"#D = {len(digits)} but #L = {len(points)}"
        )
    if len(set((Fraction(x), Fraction(y)) for x, y in points)) != len(points):
        raise CardinalityMismatch("companion set has repeated points")
    if m.det() == 0:
        raise SingularMatrix("system matrix must be invertible")
    minv_t = m.transpose().inverse()
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            diff = (
                Fraction(points[i][0]) - Fraction(points[j][0]),
                Fraction(points[i][1]) - Fraction(points[j][1]),
            )
            if not digit_mask_zero(digits, minv_t.apply(diff)):
                return False
    return True


def partition_of_unity_residual(
    m: Mat2, digits: DigitSet, companions: Sequence[Vec2], xi
) -> float:
    """| sum_{l in L} |m_D((M^*)^{-1}(xi + l))|^2  -  1 |  at a single xi.

    For a Hadamard triple this is zero for every xi (rows of the unitary
    exponential matrix have unit norm); the residual quantifies how far a
    candidate triple is from that identity.
    """
    minv_t = m.transpose().inverse()
    x, y = float(xi[0]), float(xi[1])
    total = 0.0
    for lx, ly in companions:
        eta = minv_t.as_float_rows()
        px = eta[0][0] * (x + float(lx)) + eta[0][1] * (y + float(ly))
        py = eta[1][0] * (x + float(lx)) + eta[1][1] * (y + float(ly))
        val = eval_mask(digits, (px, py))
        total += abs(val) ** 2
    return abs(total - 1.0)
