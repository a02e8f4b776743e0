"""Mask polynomials and exact vanishing arithmetic.

The mask polynomial of a digit set D is
m_D(xi) = (1/#D) sum_d exp(2 pi i <d, xi>), a Z^2-periodic trigonometric
polynomial with m_D(0) = 1 and |m_D| <= 1.  Numeric evaluation lives in
`eval_mask`; every verdict-bearing zero test goes through exact kernels
on integer numerators over one denominator, and `zero_kernel` is the one
place that picks a digit set's kernel:

* structured four-point sets use the closed-form zero set
  Z(m_D) = {xi : 2 Q^t xi in Z^2 \\ 2 Z^2},
* arbitrary finite sets reduce to "does a sum of rational-exponent roots of
  unity vanish", decided by one sparse recursion (`_vanishes`) that splits
  the sum over the prime factors of its reduced common denominator.

`digit_mask_zero` is the one edge that takes a rational point: it scales
xi to integer numerators over one denominator and asks the kernel.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Sequence

from .digitsets import DigitSet, StructuredDigitSet
from .lattice import (
    PI_UPPER,
    Mat2,
    Vec2,
    digit_expansion,
    distinct_differences,
    operator_norm_upper,
    over_common_denominator,
    sqrt_upper,
)

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


def _small_prime_factor(q: int, bound: int) -> int | None:
    """Smallest prime factor of q > 1 when it is at most `bound`, else None."""
    d = 2
    while d <= bound and d * d <= q:
        if q % d == 0:
            return d
        d += 1
    return q if q <= bound else None


def _vanishes(terms: dict[int, int], q: int) -> bool:
    """Exact test of sum_k c_k zeta_q^k = 0 for terms {k mod q: c_k}, q >= 1.

    Lam-Leung, J. Algebra 224 (2000).  Let p be the smallest prime of q and
    p^e exactly divide q.  If e >= 2, 1, zeta_q, ..., zeta_q^(s-1) with
    s = p^(e-1) is a basis of Q(zeta_q) over Q(zeta_{q/s}), so each class
    k mod s must vanish.  If e = 1, CRT writes the sum as sum_a zeta_p^a X_a
    with X_a in Q(zeta_{q/p}), which vanishes iff every X_a equals X_0.  A
    prime above the number of terms leaves some X_a empty, so every X_a must
    vanish; the prime search stops there.
    """
    terms = {k: c for k, c in terms.items() if c}
    if not terms:
        return True
    g = math.gcd(q, *terms)
    if g > 1:
        q //= g
        terms = {k // g: c for k, c in terms.items()}
    p = _small_prime_factor(q, len(terms)) if q > 1 else None
    if p is None:  # one term over q = 1, or every prime of q exceeds #terms
        return False
    s = 1
    while q % (s * p * p) == 0:
        s *= p
    classes: dict[int, dict[int, int]] = {}
    if s > 1:
        for k, c in terms.items():
            classes.setdefault(k % s, {})[k // s] = c
        return all(_vanishes(x, q // s) for x in classes.values())
    r = q // p
    if r == 1:  # p <= #terms <= q = p, so every residue is present
        return len(set(terms.values())) == 1
    r_inv, p_inv = pow(r, -1, p), pow(p, -1, r)
    for k, c in terms.items():
        classes.setdefault(k * r_inv % p, {})[k * p_inv % r] = c
    x0 = classes.get(0, {})
    for a in range(1, p):
        diff = dict(x0)
        for b, c in classes.get(a, {}).items():
            diff[b] = diff.get(b, 0) - c
        if not _vanishes(diff, r):
            return False
    return True


def unity_sum_is_zero_ints(numerators: Iterable[int], q: int) -> bool:
    """Exact vanishing of sum_k exp(2 pi i n_k / q) from integer numerators;
    numerators congruent mod q add their counts."""
    return _vanishes(Counter(k % q for k in numerators), q)


# --- exact mask zero tests -------------------------------------------------


def generic_zero_ints(digits: DigitSet, nx: int, ny: int, den: int) -> bool:
    """Exact zero test for any finite digit set at xi = (nx, ny) / den,
    den > 0: the unit-root sum of the numerators dx nx + dy ny over den."""
    return unity_sum_is_zero_ints((dx * nx + dy * ny for dx, dy in digits.points()), den)


def zero_kernel(digits: DigitSet) -> Callable[[int, int, int], bool]:
    """The digit set's exact zero test at (nx, ny) / den, den > 0: the
    structured closed form where it applies, the unit-root sum otherwise."""
    if not isinstance(digits, StructuredDigitSet):
        return partial(generic_zero_ints, digits)
    (ax, ay), (bx, by) = digits.alpha, digits.beta

    def structured_zero(nx: int, ny: int, den: int) -> bool:
        """2 Q^t xi must be an integer vector outside 2 Z^2 (via
        m_D(xi) = m_D0(Q^t xi)), decided on integer numerators alone."""
        u = 2 * (ax * nx + ay * ny)
        v = 2 * (bx * nx + by * ny)
        if u % den or v % den:
            return False
        return (u // den) % 2 == 1 or (v // den) % 2 == 1

    return structured_zero


def zero_norm_floor(digits: DigitSet) -> Fraction:
    """A positive rational below every ||eta|| with m_D(eta) = 0.

    Structured sets: 2 Q^t eta is a nonzero integer vector on the zero set,
    so ||eta|| >= 1 / (2 ||Q||).  Generic sets: 1 = |1 - m_D(eta)| <=
    2 pi max||d|| ||eta||.  D = {0} has no zeros, so any floor serves; a
    nonzero integer digit has norm^2 >= 1, so the max with 1 changes no
    other set.
    """
    if isinstance(digits, StructuredDigitSet):
        return Fraction(1) / (2 * operator_norm_upper(digits.q_matrix()))
    return Fraction(1) / (2 * PI_UPPER * sqrt_upper(max(digits.max_norm_sq(), 1)))


def digit_mask_zero(digits: DigitSet, xi) -> bool:
    """Exact m_D(xi) = 0 at a rational point, by the digit set's kernel."""
    (nx, ny), den = over_common_denominator(xi)
    return zero_kernel(digits)(nx, ny, den)


def is_hadamard_triple(m: Mat2, digits: DigitSet, companions: Sequence[Vec2]) -> bool:
    """Exact Hadamard-triple test.

    (M, D, L) is Hadamard iff every difference of distinct companion points,
    pulled back through (M^*)^{-1}, lands in the zero set of m_D.  Rational
    companion points are accepted.  They are scaled to integer numerators
    over one denominator, and each distinct sign-canonical difference (the
    zero set is symmetric) is pulled back by the integer form of (M^*)^{-1}
    and decided by the digit set's kernel.
    """
    points = list(companions)
    if len(digits) != len(points):
        raise CardinalityMismatch(f"#D = {len(digits)} but #L = {len(points)}")
    ints, q = digit_expansion([points])
    if len(set(ints)) != len(ints):
        raise CardinalityMismatch("companion set has repeated points")
    if m.det() == 0:
        raise SingularMatrix("system matrix must be invertible")
    (a, b, c, d), e = over_common_denominator(m.transpose().inverse().entries())
    zero = zero_kernel(digits)
    return all(
        zero(a * dx + b * dy, c * dx + d * dy, e * q) for _, dx, dy in distinct_differences(ints)
    )

