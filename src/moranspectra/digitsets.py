"""Digit-set families for planar Moran systems.

Two shapes appear throughout: the structured four-point sets
{0, alpha, beta, -alpha-beta} whose basis matrix Q = (alpha | beta) has odd
determinant, and generic finite integer sets (e.g. the 16-point sumset used
by even-determinant regroupings).  Structured sets store only (alpha, beta);
Q and its determinant p are derived so the canonical reduction D = Q * D0
has a single source of truth.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Union

from .lattice import Mat2, digit_expansion


class DigitSetError(ValueError):
    pass


class OddityViolation(DigitSetError):
    """Structured digit set whose determinant p is even."""


class Degenerate(DigitSetError):
    """Structured digit set whose determinant p vanishes."""


class DigitCollision(DigitSetError):
    """Sumset produced repeated points, which would merge convolution weights."""


def _int_vec(v) -> tuple[int, int]:
    x, y = v
    if not (isinstance(x, int) and isinstance(y, int)):
        raise DigitSetError(f"digit coordinates must be integers, got {v!r}")
    return (x, y)


@dataclass(frozen=True)
class StructuredDigitSet:
    """Four-point set {0, alpha, beta, -alpha-beta} with odd basis determinant."""

    alpha: tuple[int, int]
    beta: tuple[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _int_vec(self.alpha))
        object.__setattr__(self, "beta", _int_vec(self.beta))
        p = self.p
        if p == 0:
            raise Degenerate(f"alpha={self.alpha}, beta={self.beta} are collinear (p=0)")
        if p % 2 == 0:
            raise OddityViolation(f"basis determinant p={p} must be odd")

    @property
    def p(self) -> int:
        return self.alpha[0] * self.beta[1] - self.alpha[1] * self.beta[0]

    def q_matrix(self) -> Mat2:
        """Basis matrix with columns alpha, beta; det = p."""
        return Mat2.from_columns(self.alpha, self.beta)

    def points(self) -> tuple[tuple[int, int], ...]:
        a, b = self.alpha, self.beta
        return ((0, 0), a, b, (-a[0] - b[0], -a[1] - b[1]))

    def __len__(self) -> int:
        return 4

    def max_norm_sq(self) -> int:
        return max(x * x + y * y for x, y in self.points())


@dataclass(frozen=True)
class GenericDigitSet:
    """A finite set of distinct integer points, order preserved."""

    points_tuple: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pts = tuple(_int_vec(v) for v in self.points_tuple)
        if not pts:
            raise DigitSetError("digit set must be nonempty")
        if len(set(pts)) != len(pts):
            raise DigitSetError("digit set has repeated points")
        object.__setattr__(self, "points_tuple", pts)

    def points(self) -> tuple[tuple[int, int], ...]:
        return self.points_tuple

    def __len__(self) -> int:
        return len(self.points_tuple)

    def max_norm_sq(self) -> int:
        return max(x * x + y * y for x, y in self.points_tuple)


DigitSet = Union[StructuredDigitSet, GenericDigitSet]


def canonical_digits() -> StructuredDigitSet:
    """The reduced set {(0,0), (1,0), (0,1), (-1,-1)}; basis matrix I, p = 1."""
    return StructuredDigitSet((1, 0), (0, 1))


def scaled_canonical(t: int) -> StructuredDigitSet:
    """t * canonical_digits() for odd nonzero t; basis matrix t*I, p = t^2."""
    if not isinstance(t, int) or t == 0:
        raise DigitSetError(f"scale must be a nonzero integer, got {t!r}")
    if t % 2 == 0:
        raise OddityViolation(f"scale t={t} must be odd")
    return StructuredDigitSet((t, 0), (0, t))


def sum_set(d1: DigitSet, d2: DigitSet) -> GenericDigitSet:
    """Pointwise sumset {a + b}; rejects collisions instead of collapsing them.

    A repeated sum would turn the uniform convolution weight into a
    non-uniform one, so it is an error, reported with the colliding points.
    """
    # Integer digits have q = 1, so the numerators are the sums themselves.
    sums = Counter(digit_expansion((d1.points(), d2.points()))[0])
    collisions = sorted(v for v, count in sums.items() if count > 1)
    if collisions:
        raise DigitCollision(f"sumset has repeated points: {collisions}")
    return GenericDigitSet(tuple(sums))


def scaled_by_matrix(q: Mat2, d: DigitSet) -> DigitSet:
    """Image q * D, staying structured when D is structured."""
    if not q.is_integral():
        raise DigitSetError("digit transport needs an integer matrix")
    if isinstance(d, StructuredDigitSet):
        a = q.apply(d.alpha)
        b = q.apply(d.beta)
        return StructuredDigitSet((int(a[0]), int(a[1])), (int(b[0]), int(b[1])))
    return GenericDigitSet(tuple((int(x), int(y)) for x, y in (q.apply(p) for p in d.points())))


def scaled_t_of(d: DigitSet) -> int | None:
    """The odd t with D = t * canonical_digits(), or None if D is not of that shape."""
    if not isinstance(d, StructuredDigitSet):
        return None
    t = d.alpha[0]
    if d.alpha == (t, 0) and d.beta == (0, t):
        return t
    return None
