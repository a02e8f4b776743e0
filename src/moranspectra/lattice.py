"""Exact 2x2 lattice arithmetic and exact point sets.

Everything here is decision-grade: matrices carry Python ints or
``fractions.Fraction`` entries, so determinants, inverses, products and the
two eigenvalue-flavoured predicates (`is_expanding`,
`inverse_norm_below_one`) are computed without any floating point.  The
predicates are algebraic case splits on characteristic polynomials, which
keeps them correct arbitrarily close to the unit circle where a numeric
eigenvalue solve could misclassify.

Exact point sets are integer numerators over one denominator, formed only by
`over_common_denominator`.  `stage_numerators` is the one scaling of stage
images (a sequence of point sets) to integers, and `digit_expansion` sums
their product set.  A set's distinct differences come two ways:
`distinct_differences` walks them in order of first appearance along the
pair walk, one C-level set lookup per pair; `difference_set` finds them in
no promised order by one shift-OR on a Python int, one bit per grid cell of
the set's span, and declines a set whose span needs more than 512 bits per
point or 2^22 bits in all.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import filterfalse, islice, repeat
from operator import mul, sub
from typing import Iterable, Iterator, Optional, Sequence, Union

Scalar = Union[int, Fraction]
Vec2 = tuple[Scalar, Scalar]


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix [[a, b], [c, d]] over exact scalars (int or Fraction).

    Integer-entried instances play the role of lattice maps (the M_n and
    Q_n of a Moran system); Fraction-entried instances appear as exact
    inverses and reduced system matrices.
    """

    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    @staticmethod
    def scalar(t: Scalar) -> "Mat2":
        return Mat2(t, 0, 0, t)

    @staticmethod
    def from_columns(col1: Vec2, col2: Vec2) -> "Mat2":
        return Mat2(col1[0], col2[0], col1[1], col2[1])

    def rows(self) -> tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]:
        return ((self.a, self.b), (self.c, self.d))

    def entries(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.a, self.b, self.c, self.d)

    def det(self) -> Scalar:
        return self.a * self.d - self.b * self.c

    def trace(self) -> Scalar:
        return self.a + self.d

    def transpose(self) -> "Mat2":
        return Mat2(self.a, self.c, self.b, self.d)

    def is_integral(self) -> bool:
        return all(
            isinstance(e, int) or (isinstance(e, Fraction) and e.denominator == 1)
            for e in self.entries()
        )

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, v: Vec2) -> Vec2:
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def inverse(self) -> "Mat2":
        """Exact inverse with Fraction entries; raises on det == 0."""
        det = self.det()
        if det == 0:
            raise ZeroDivisionError("matrix is singular")
        return Mat2(
            Fraction(self.d, 1) / det,
            Fraction(-self.b, 1) / det,
            Fraction(-self.c, 1) / det,
            Fraction(self.a, 1) / det,
        )


def mat_product(matrices: Iterable[Mat2]) -> Mat2:
    """Left-to-right exact product of a nonempty sequence of matrices."""
    mats = list(matrices)
    if not mats:
        raise ValueError("mat_product needs at least one matrix")
    return reduce(mul, mats)


def is_expanding(m: Mat2) -> bool:
    """True iff both eigenvalues of m have modulus strictly greater than 1.

    Algebraic test on p(x) = x^2 - t x + d with t = tr(m), d = det(m):
    complex pair (t^2 < 4d) has common modulus sqrt(d), so expansion is
    d > 1; for real eigenvalues both roots must avoid [-1, 1], which is
    p(1) p(-1) > 0 minus the branch where both roots sit inside (-1, 1)
    (there |t| <= 2 and p(+-1) > 0), plus |d| > 1.
    """
    t = m.trace()
    d = m.det()
    if t * t < 4 * d:
        return d > 1
    p1 = 1 - t + d
    pm1 = 1 + t + d
    if abs(d) <= 1 or p1 * pm1 <= 0:
        return False
    return not (p1 > 0 and pm1 > 0 and abs(t) <= 2)


def in_gl2_2z(m: Mat2) -> bool:
    """True iff every entry is an even integer and det(m) != 0."""
    if not m.is_integral():
        return False
    return all(int(e) % 2 == 0 for e in m.entries()) and m.det() != 0


def gram_trace_det(m: Mat2) -> tuple[Scalar, Scalar]:
    """(trace, det) of m^t m, the Gram matrix carrying the singular values."""
    a, b, c, d = m.entries()
    s = a * a + b * b + c * c + d * d
    dd = m.det()
    return s, dd * dd


def inverse_norm_below_one(m: Mat2) -> bool:
    """Exact test for ||m^{-1}|| < 1 (operator norm, Euclidean).

    Equivalent to both eigenvalues of m^t m exceeding 1, i.e. the smallest
    singular value exceeding 1: with s = tr(m^t m) and q(x) the
    characteristic polynomial of m^t m, this is q(1) > 0 and s > 2.
    """
    if m.det() == 0:
        raise ZeroDivisionError("matrix is singular")
    s, det_gram = gram_trace_det(m)
    q1 = 1 - s + det_gram
    return q1 > 0 and s > 2


# --- exact point sets ----------------------------------------------------


def over_common_denominator(values: Iterable) -> tuple[list[int], int]:
    """Exact rationals as integer numerators over one q > 0, the lcm of
    their denominators: value i is numerators[i] / q.  Ints and Fractions
    are read as they are, anything else (a float, a str) through Fraction."""
    # Fraction(v) on a Fraction re-validates it through the numbers ABCs: slow.
    vals = [v if type(v) is int or type(v) is Fraction else Fraction(v) for v in values]
    q = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (q // v.denominator) for v in vals], q


def stage_numerators(stages: Iterable[Sequence[Vec2]]) -> tuple[list[list[tuple[int, int]]], int]:
    """Stage images as integer points (nx, ny) over one common q > 0, the
    lcm of every coordinate's denominator, stage by stage, not reduced."""
    images = [list(stage) for stage in stages]
    nums, q = over_common_denominator(c for stage in images for p in stage for c in p)
    pairs = iter(zip(nums[::2], nums[1::2]))
    return [list(islice(pairs, len(stage))) for stage in images], q


def digit_expansion(stages: Iterable[Sequence[Vec2]]) -> tuple[list[tuple[int, int]], int]:
    """Every sum sum_j v_j with v_j in the j-th stage's set (the images
    A_j x_j of the x_j in X_j), exactly.

    The sums come as integer numerators (nx, ny) over one q > 0, reduced by
    the gcd of q and every numerator, so q is the lcm of the sums'
    denominators; the first stage varies slowest.
    """
    ints, q = stage_numerators(stages)
    xs, ys = [0], [0]
    for stage in ints:
        xs = [px + dx for px in xs for dx, _ in stage]
        ys = [py + dy for py in ys for _, dy in stage]
    g = math.gcd(q, *xs, *ys)
    if g > 1:
        q, xs, ys = q // g, [x // g for x in xs], [y // g for y in ys]
    return list(zip(xs, ys)), q


def distinct_differences(ints: Sequence[tuple[int, int]]) -> Iterator[tuple[int, int, int]]:
    """The distinct sign-canonical differences of integer points, in order of
    first appearance along the pair walk (i < j, row by row).

    Yields (i, dx, dy) with (dx, dy) = +-(p_i - p_j), signed so that dx > 0
    or dx == 0 <= dy, for the first pair (i, j) that has it.  Each point is
    one int z = x K + y with odd K > 4 max|y|, so z_i - z_j has the sign of
    (dx, dy) in lexicographic order and decodes by divmod.  A C-level filter
    drops the differences seen before (both signs are recorded), so Python
    code runs once per distinct difference, not once per pair.
    """
    k = 4 * max((abs(y) for _, y in ints), default=0) + 1
    half = k // 2
    zs = [x * k + y for x, y in ints]
    seen: set[int] = set()
    for i, zi in enumerate(zs):
        for d in filterfalse(seen.__contains__, map(sub, repeat(zi), zs[i + 1:])):
            seen.add(d)
            seen.add(-d)
            dx, dy = divmod(abs(d) + half, k)
            yield i, dx, dy - half


# The shift-OR costs n shifts of a span-bit int against n^2 / 2 set lookups
# for the walk.  On random sets the two break even near span / n = 600 at
# n = 64, and the bitset still wins at 3,000 for n = 1,024, so 512 bits per
# point keeps every set it takes ahead.  The cap bounds the bitset at 512 KiB
# (and the string that decodes it at 4 MB).
_BITSET_BITS_PER_POINT = 512
_BITSET_MAX_BITS = 1 << 22


def difference_set(ints: Sequence[tuple[int, int]]) -> Optional[tuple[list[int], list[int]]]:
    """The distinct sign-canonical differences (dx, dy) of distinct integer
    points (dx > 0, or dx == 0 < dy), in no promised order, as the columns
    (dxs, dys) that the block zero scan takes, or None when the points are
    too sparse for the bitset.

    Each point is one int z = x W + (y - y0), with y0 = min y, h = max y - y0
    and W = 2h + 1, so that z_j - z_i = dx W + dy with |dy| <= h never wraps.
    With S = sum 2^(z - z_min), the OR over all points of S >> (z - z_min)
    has bit i set exactly when some difference z_j - z_i equals i >= 0; bit
    0 is the point itself, and bit i > 0 decodes as divmod(i + h, W) - (0, h)
    (Knuth, TAOCP 4A, 7.1.3).  The span max z - min z is checked against
    512 bits per point and 2^22 bits in all before any bitset is built.
    The set bits are found by one regular-expression scan of the bit
    string, and no tuple is made per difference.
    """
    if len(ints) < 2:
        return [], []
    y0 = min(y for _, y in ints)
    h = max(y for _, y in ints) - y0
    w = 2 * h + 1
    zs = [x * w + y - y0 for x, y in ints]
    z0 = min(zs)
    if max(zs) - z0 > min(_BITSET_BITS_PER_POINT * len(zs), _BITSET_MAX_BITS):
        return None
    offsets = [z - z0 for z in zs]
    s = 0
    for k in offsets:
        s |= 1 << k
    hits = 0
    for k in offsets:
        hits |= s >> k
    bits = bin(hits)[:1:-1]  # bits[i] is bit i; bit 0, the point itself, is set
    shifted = [one.start() + h for one in re.finditer("1", bits)][1:]
    return [i // w for i in shifted], [i % w - h for i in shifted]


# --- certified rational bounds -------------------------------------------
#
# Decision paths stay exact, but truncation bounds and scan thresholds need
# rational majorants of irrational norms.  These helpers return Fractions
# verified against the exact quantity by comparison, never by rounding alone.

PI_UPPER = Fraction(355, 113)  # 355/113 > pi


def sqrt_upper(x: Scalar) -> Fraction:
    """A rational r with r >= sqrt(x) >= 0, within relative 1e-12 of it.

    sqrt(p/q) = sqrt(p q 4^m) / (q 2^m), with m chosen so the integer square
    root carries at least 12 significant digits."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative input")
    if x == 0:
        return Fraction(0)
    n, scale = x.numerator * x.denominator, x.denominator
    target_bits = 81  # 10^24 < 2^81
    if n.bit_length() < target_bits:
        m = (target_bits - n.bit_length() + 1) // 2
        n, scale = n << 2 * m, scale << m
    s = math.isqrt(n)
    return Fraction(s if s * s == n else s + 1, scale)


def _gram_top_upper(m: Mat2) -> tuple[Fraction, Scalar]:
    """(a rational majorant of lambda_max(m^t m), det(m^t m)): lambda_max is
    (s + sqrt(s^2 - 4 det)) / 2 with s = tr(m^t m)."""
    s, det_gram = gram_trace_det(m)
    return (Fraction(s) + sqrt_upper(s * s - 4 * det_gram)) / 2, det_gram


def operator_norm_upper(m: Mat2) -> Fraction:
    """Certified rational upper bound for ||m|| (largest singular value)."""
    return sqrt_upper(_gram_top_upper(m)[0])


def inverse_norm_upper(m: Mat2) -> Fraction:
    """Certified rational upper bound for ||m^{-1}|| = 1/sigma_min(m):
    sigma_min^2 = det(m^t m) / lambda_max, taken at lambda_max's majorant."""
    lam_up, det_gram = _gram_top_upper(m)
    return sqrt_upper(lam_up / det_gram)
