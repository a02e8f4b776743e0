"""Candidate spectra: Hadamard towers, the |det| = 4 lattice spectrum,
exact orthogonality certificates, and completeness diagnostics.

Two constructions with deliberately different labels:

* `build_tower` stacks per-level companion sets L_j = (1/2) M_j^* F_2 into
  finite sets Lambda_k = { sum A_j l_j }, which `enumerate_tower` forms as
  (1/2) sum_j P_j f_j, f_j in F_2, with P_j = M_1^* ... M_j^*: integer
  images of F_2 for integer matrices, halved once (the recursion
  Lambda = L_1 + M_1^* Lambda' of An-He, J. Funct. Anal. 266 (2014)).
  Orthogonality of every truncation is certified exactly, but the tower is
  only an *orthogonal candidate*: for the constant (2I, canonical) system
  its union fills one quadrant while the unique spectrum through 0 is the
  full integer lattice.
* `build_lattice_spectrum` enumerates the lattice spectrum of the two-scale
  constant-tail family (tail in GL(2,2Z) with |det| = 4), which carries a
  completeness proof; it refuses systems whose scales fail the divisibility
  criterion.

Both return lists of Fraction pairs (one shared Fraction per numerator)
that also carry their integer form, the numerators over one q that
`digit_expansion` gives.  The exact checks run on integers:
`verify_orthogonality` and `discrete_spectrum_oracle` read the carried form
while the list still holds the very points it was built with and rescale
any other list, a mutated one included.  The oracle counts each
difference's residues mod q in one int, a slot per residue, while that
takes at most 64 bits per atom, and in a dict past that.

Completeness itself is never reported as a boolean: `completeness_sum`
returns the truncated quadratic sum at a point with explicit tolerances.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, islice
from operator import is_, mul
from sys import byteorder
from typing import Iterator, Optional, Sequence

from .classify import SPECTRAL, classify_thm16, thm16_shape
from .lattice import (
    Vec2,
    difference_set,
    digit_expansion,
    distinct_differences,
    over_common_denominator,
    stage_numerators,
)
from .mask import TWO_PI, _vanishes, is_hadamard_triple
from .moran import (
    CapExceeded,
    DEFAULT_POINT_CAP,
    MoranSystem,
    OutOfTheoryError,
    _Analysis,
    _analysis,
    _atom_count,
    _float_point,
    _zero_scan,
    attractor_stages,
    first_odd_level,
    fourier_many,
)

FracVec = tuple[Fraction, Fraction]

F2 = ((0, 0), (1, 0), (0, 1), (1, 1))


class TowerUnavailable(OutOfTheoryError):
    """A level >= 2 matrix is outside GL(2,2Z), so no half-lattice companion
    tower exists (consistent with the even-entry necessity).  Level and
    message are `first_odd_level`'s, as in the T1.1/T1.4 NotSpectral detail."""

    def __init__(self, level: int, message: str):
        super().__init__(message)
        self.level = level


@dataclass(frozen=True)
class SpectrumTower:
    """Per-level companion sets for Lambda_k = { sum_{j<=k} A_j l_j }.

    A_j = M_1^* ... M_{j-1}^* (A_1 = I); companions live in (1/2) Z^2 and are
    integral from level 2 on.  Every level's Hadamard property is verified
    exactly before construction succeeds.
    """

    LABEL = "orthogonal candidate"

    system: MoranSystem

    def companions(self, j: int) -> tuple[FracVec, ...]:
        """L_j = (1/2) M_j^* F_2."""
        mt = self.system.level(j)[0].transpose()
        return tuple((Fraction(x, 2), Fraction(y, 2)) for x, y in map(mt.apply, F2))


def build_tower(sys: MoranSystem) -> SpectrumTower:
    """Construct and exactly verify the half-lattice companion tower."""
    if not sys.all_structured():
        raise OutOfTheoryError("towers need structured digit sets")
    odd = first_odd_level(sys)
    if odd:
        raise TowerUnavailable(*odd)
    tower = SpectrumTower(sys)
    for n in range(1, len(sys.distinct()) + 1):
        m, d = sys.level(n)
        if not is_hadamard_triple(m, d, tower.companions(n)):
            raise OutOfTheoryError(f"level {n} companion set is not Hadamard")
    return tower


def enumerate_tower(
    tower: SpectrumTower, k: int, cap: int = DEFAULT_POINT_CAP
) -> list[FracVec]:
    """The 4^k points { sum_{j<=k} A_j l_j : l_j in L_j }, exactly: as
    A_j L_j = (1/2) P_j F_2 with P_j = M_1^* ... M_j^*, the sums of the
    images P_j F_2 (integers for integer matrices), halved once.

    Raises CapExceeded past the configured point cap and ValueError if the
    sums collide (they cannot for a verified tower).
    """
    if k < 1:
        raise ValueError("depth must be >= 1")
    if _atom_count(tower.system, k, cap)[0] is None:  # each level has 4 points
        raise CapExceeded(f"4^{k} tower points exceed cap {cap}")
    prefixes = accumulate((m.transpose() for m, _ in islice(tower.system, k)), mul)
    ints, q = digit_expansion([p.apply(f) for f in F2] for p in prefixes)
    if len(set(ints)) != len(ints):
        raise ValueError("tower enumeration produced duplicate points")
    return _ExactPoints(ints, 2 * q)


def build_lattice_spectrum(
    sys: MoranSystem, box: int, cap: int = DEFAULT_POINT_CAP
) -> list[FracVec]:
    """Enumerate the lattice spectrum of a two-scale constant-tail family
    inside [-box, box]^2.

    The spectrum is (1/t2) (L + M_1^* Z^2) with L = (1/2) M_1^* F_2: the
    companion lattice is constructed for the system rescaled by 1/t2, and
    dividing by t2 transports it back to the unscaled measure.  As
    F_2 + 2 Z^2 = Z^2, it is the lattice M_1^* Z^2 / (2 t2).  Requires the
    divisibility criterion (verdict Spectral); otherwise OutOfTheoryError.
    A negative box is a ValueError; CapExceeded comes at the (cap+1)-th point.
    """
    if box < 0:
        raise ValueError(f"box half-width must be >= 0, got {box}")
    shape = thm16_shape(sys)
    if shape is None:
        raise OutOfTheoryError("not a two-scale constant-tail scaled family")
    m1, m2, t1, t2 = shape
    verdict = classify_thm16(m1, m2, t1, t2)
    if verdict.outcome != SPECTRAL:
        raise OutOfTheoryError(f"lattice spectrum unavailable: {verdict.detail}")

    # The lattice is symmetric, so it is M n / den for n in Z^2 with the
    # integer matrix M = e M1^* and den = 2 e |t2|, e the common denominator
    # of M1's entries.  n ranges over the preimage of the box, which the
    # preimages of the corners (+-limit, +-limit) of M n's box bound.
    m1t = m1.transpose()
    (a, b, c, d), e = over_common_denominator(m1t.entries())
    den = 2 * e * abs(t2)
    limit = box * den
    corners = [m1t.inverse().apply((limit, sy * limit)) for sy in (1, -1)]
    n1_max = math.floor(max(abs(p[0]) for p in corners) / e)
    n2_max = math.floor(max(abs(p[1]) for p in corners) / e)
    ints = []
    for n1 in range(-n1_max, n1_max + 1):
        for n2 in range(-n2_max, n2_max + 1):
            x = a * n1 + b * n2
            y = c * n1 + d * n2
            if abs(x) <= limit and abs(y) <= limit:
                ints.append((x, y))
                if len(ints) > cap:
                    raise CapExceeded(f"lattice box {box} holds more than cap {cap} points")
    # den > 0, so sorting the numerators sorts the points.
    return _ExactPoints(sorted(ints), den)


class _ExactPoints(list):
    """The points (x, y) / den, den > 0, as Fraction pairs, one shared
    Fraction per distinct numerator, that carry their integer form: `ints`
    and `q`, reduced by the gcd of den and every numerator, are what
    `digit_expansion([points])` returns, and stay valid while the list
    holds the very element objects it was built with, `snapshot`."""

    __slots__ = ("ints", "q", "snapshot")

    def __init__(self, ints: list[tuple[int, int]], den: int):
        g = math.gcd(den, *chain.from_iterable(ints))
        if g > 1:
            ints, den = [(x // g, y // g) for x, y in ints], den // g
        fractions = {n: Fraction(n, den) for n in set(chain.from_iterable(ints))}
        super().__init__((fractions[x], fractions[y]) for x, y in ints)
        self.ints, self.q, self.snapshot = ints, den, tuple(self)


def _numerators(points: Sequence[Vec2]) -> tuple[list[tuple[int, int]], int]:
    """`digit_expansion([points])`: read off an `_ExactPoints` that still
    holds its own elements, so any mutation (an assignment, a sort, even
    `list.__setitem__`) falls back to the rescale."""
    if (isinstance(points, _ExactPoints) and len(points) == len(points.snapshot)
            and all(map(is_, points, points.snapshot))):
        return points.ints, points.q
    return digit_expansion([points])


@dataclass(frozen=True)
class OrthogonalityResult:
    ok: bool
    failing_pair: Optional[tuple[FracVec, FracVec]]
    pairs_checked: int
    distinct_differences: int

    def __bool__(self) -> bool:
        return self.ok


def verify_orthogonality(sys: MoranSystem, points: Sequence[Vec2]) -> OrthogonalityResult:
    """Certify that every difference of distinct points lies in the zero set.

    The points are scaled once to integer numerators over one common
    denominator q, or read off a tower or lattice that still holds the
    points it was built with.  The zero set is symmetric under negation, so each
    distinct sign-canonical difference is certified once, by the block zero
    scan of `fourier_zero_exact`, and none is scanned twice.  A dense set
    scans all the differences of `difference_set` as one block; if all pass,
    every pair is certified.  Otherwise the failing ones are kept, and the
    pair walk (i < j, row by row) looks its distinct differences up in that
    set, in order of first appearance, up to the first failure.  A set too
    sparse for the bitset scans the walk's differences in blocks of 1, 2,
    4, ..., so an early failure still stops the walk early.  Either way the
    result is that of the pair walk: the first failing pair in enumeration
    order, the pairs walked up to it, and the distinct differences met.
    """
    ints, q = _numerators(points)
    if len(set(ints)) != len(ints):
        raise ValueError("candidate spectrum has repeated points")
    n = len(ints)
    if n < 2:
        # No difference to certify, so the system is not analysed either.
        return OrthogonalityResult(True, None, 0, 0)
    ana = _analysis(sys)
    diffs = difference_set(ints)
    if diffs is None:
        distinct, failure = _first_failure_in_blocks(ana, distinct_differences(ints), q)
    else:
        xs, ys = diffs
        hits = _zero_scan(ana, xs, ys, q)
        failing = {(x, y) for x, y, hit in zip(xs, ys, hits) if hit is None}
        if not failing:
            return OrthogonalityResult(True, None, n * (n - 1) // 2, len(xs))
        distinct, failure = next(
            (k, (i, dx, dy))
            for k, (i, dx, dy) in enumerate(distinct_differences(ints), 1)
            if (dx, dy) in failing
        )
    if failure is None:
        return OrthogonalityResult(True, None, n * (n - 1) // 2, distinct)
    i, dx, dy = failure
    xi, yi = ints[i]
    pair = ((xi - dx, yi - dy), (xi + dx, yi + dy))
    j = next(j for j in range(i + 1, n) if ints[j] in pair)
    failing_pair = tuple((Fraction(x, q), Fraction(y, q)) for x, y in (ints[i], ints[j]))
    return OrthogonalityResult(False, failing_pair, i * n - i * (i + 1) // 2 + j - i, distinct)


def _first_failure_in_blocks(
    ana: _Analysis, walk: Iterator[tuple[int, int, int]], q: int
) -> tuple[int, Optional[tuple[int, int, int]]]:
    """The entries (i, dx, dy) of the walk, their differences (dx, dy) / q
    zero-scanned in blocks of 1, 2, 4, ... entries up to the block that
    holds the first failure: (entries met up to the first failing one,
    that entry), or (entries in the walk, None) when none fails.  The scans
    cover fewer than twice the entries met."""
    met, size = 0, 1
    while block := list(islice(walk, size)):
        hits = _zero_scan(ana, [dx for _, dx, _ in block], [dy for _, _, dy in block], q)
        if None in hits:
            k = hits.index(None)
            return met + k + 1, block[k]
        met += len(block)
        size *= 2
    return met, None


def completeness_sum(
    sys: MoranSystem, points: Sequence[Vec2], xi, eps: float
) -> float:
    """Q(xi) = sum_{lambda} |mu^(xi + lambda)|^2 over the finite candidate set.

    The terms come from one batched `fourier_many` call at the float points
    xi + lambda, each with Fourier tolerance eps / #points, and `math.fsum`
    returns their correctly rounded sum, so Q depends only on the set.
    """
    if not eps > 0:
        raise ValueError("tolerance must be positive")
    if not points:
        return 0.0
    x, y = _float_point(xi)
    shifted = ((x + float(lx), y + float(ly)) for lx, ly in points)
    return math.fsum(abs(res.value) ** 2 for res in fourier_many(sys, shifted, eps / len(points)))


@dataclass(frozen=True)
class CompletenessReport:
    """Truncated quadratic sums at sample points, with the metadata needed to
    read them: the final truncation size, the per-sum tolerance, and whether
    the sums grew monotonically along the nested truncations (they must; the
    terms are nonnegative)."""

    samples: tuple[tuple[float, float], ...]
    q_values: tuple[float, ...]
    truncation_points: int
    eps: float
    monotone_in_truncation: bool


def completeness_report(
    sys: MoranSystem,
    nested_sets: Sequence[Sequence[Vec2]],
    samples: Sequence,
    eps: float,
) -> CompletenessReport:
    """Evaluate Q over a nested chain of candidate truncations.

    `nested_sets` must be increasing by inclusion (e.g. tower truncations
    Lambda_1 c Lambda_2 c ... or growing lattice boxes); the report carries
    the Q values at the largest truncation and the monotonicity flag across
    the chain.
    """
    if not nested_sets:
        raise ValueError("need at least one candidate set")
    xs = [_float_point(s) for s in samples]
    monotone = True
    final_q: list[float] = []
    for xi in xs:
        prev = -1.0
        for pts in nested_sets:
            q = completeness_sum(sys, pts, xi, eps)
            if q < prev - 1e-9:
                monotone = False
            prev = q
        final_q.append(prev)
    return CompletenessReport(
        samples=tuple(xs),
        q_values=tuple(final_q),
        truncation_points=len(nested_sets[-1]),
        eps=eps,
        monotone_in_truncation=monotone,
    )


@dataclass(frozen=True)
class OracleReport:
    unitary: bool
    residual: float

    def __bool__(self) -> bool:
        return self.unitary


def _residue_counts(stages: list[list[tuple[int, int]]], dx: int, dy: int, q: int) -> dict[int, int]:
    """The counts of (s_1 + ... + s_n) . (dx, dy) mod q over the sumset of
    the stages, merged mod q after each stage: the work per stage is at most
    #stage times the residues so far, never the product of the stage sizes."""
    counts = {0: 1}
    for stage in stages:
        shifts = [(sx * dx + sy * dy) % q for sx, sy in stage]
        merged: dict[int, int] = {}
        for k, c in counts.items():
            for r in shifts:
                key = (k + r) % q
                merged[key] = merged.get(key, 0) + c
        counts = merged
    return counts


# Packed counts give each residue mod q one w-bit slot of a Python int, w
# the narrowest memoryview item with 2^w > 2 size, so no slot carries into
# the next and a new pattern decodes in one C-level pass over q slots.  Each
# stage costs #stage shift-adds of w q bits, against #stage times the
# residues so far for the dict of `_residue_counts`.  Measured on the 2I and
# 4I stages at levels 2-6 with q up to 10^6 (min of 3 x 20 calls): the
# shift-adds alone break even with the dict near 250 bits per atom, and
# shift-adds plus a decode, as when every pattern is new, near 30-60.  At
# 64 bits per atom a repeated pattern costs a seventh to a third of the
# dict, and the level-3 [[4,2],[2,4]] tower (54 bits per atom) still packs.
_PACKED_BITS_PER_ATOM = 64
_SLOT_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _packed_counts(stages: list[list[tuple[int, int]]], dx: int, dy: int, q: int, w: int) -> int:
    """The counts of `_residue_counts` as one int, count k in bits
    [w k, w (k + 1)): each stage adds the int shifted by w r for each of its
    residues r, and the slots past q fold back onto 0, 1, ... .  No count
    exceeds the atom count, below 2^w, so the adds never carry."""
    width = w * q
    low = (1 << width) - 1
    packed = 1
    for stage in stages:
        merged = 0
        for sx, sy in stage:
            merged += packed << w * ((sx * dx + sy * dy) % q)
        packed = (merged & low) + (merged >> width)
    return packed


def _unpacked(packed: int, q: int, w: int) -> dict[int, int]:
    """The dict of `_residue_counts` (nonzero counts by residue) from packed counts."""
    slots = memoryview(packed.to_bytes(w * q // 8, byteorder)).cast(_SLOT_FORMATS[w])
    return dict(zip(compress(range(q), slots), filter(None, slots)))


def discrete_spectrum_oracle(
    sys: MoranSystem,
    n: int,
    candidate: Sequence[Vec2],
) -> OracleReport:
    """Brute-force spectral-pair check at level n.

    H is the normalized exponential matrix between the prod_{j<=n} #D_j
    level-n atoms a and the candidates.  An entry of H*H is
    (1/size) sum_a e(a . d) for the difference d of its two candidates, so it
    depends only on the counts of a . d mod q over one common denominator q.
    The atoms are the sumset of the stage images, so for each distinct
    sign-canonical d of `difference_set` (of the walk `distinct_differences`
    for a candidate too sparse for the bitset, or with a repeated point,
    whose zero difference the bitset drops) the counts are built stage by
    stage: packed into one int (`_packed_counts`) while that takes at most
    64 bits per atom, in a dict (`_residue_counts`) past that.  Each count
    pattern is decided once: its exact vanishing (`unitary`) and its
    modulus, summed in residue order, so `residual`, the largest
    off-diagonal |H*H| entry, depends only on the candidate set.  The
    pattern memo is cleared once its keys hold 16 size residues or 8,192
    size bits, so memory stays O(size) for any q.  A candidate whose size
    is not the atom count is refused before any atom is built.
    """
    if n < 1:
        raise ValueError(f"oracle level must be >= 1, got {n}")
    size, text = _atom_count(sys, n, len(candidate))
    if size != len(candidate):
        raise ValueError(f"candidate has {len(candidate)} points, expected {text}")
    stages, qs = stage_numerators(attractor_stages(sys, n))
    atoms_i, _ = digit_expansion(stages)
    if len(set(atoms_i)) != size:
        raise ValueError("level-n convolution atoms collide; weights would merge")
    pts_i, ql = _numerators(candidate)
    q = qs * ql
    w = next((w for w in _SLOT_FORMATS if w > size.bit_length()), 0)  # 0: no item holds size
    key_bits = w * q if 0 < w * q <= _PACKED_BITS_PER_ATOM * size else 0  # 0: counts in a dict
    unitary, largest = True, 0.0
    moduli: dict[object, float] = {}  # count pattern -> |sum_k c_k e(k/q)|
    stored = 0  # residues held by the patterns in `moduli`
    diffs = difference_set(pts_i) if len(set(pts_i)) == size else None
    pairs = zip(*diffs) if diffs else ((dx, dy) for _, dx, dy in distinct_differences(pts_i))
    for dx, dy in pairs:
        if key_bits:
            pattern = _packed_counts(stages, dx, dy, q, w)
        else:
            counts = _residue_counts(stages, dx, dy, q)
            # size distinct residues all count 1, so they alone are the pattern
            pattern = frozenset(counts if len(counts) == size else counts.items())
        modulus = moduli.get(pattern)
        if modulus is None:
            if key_bits:
                counts = _unpacked(pattern, q, w)
            unitary = unitary and _vanishes(counts, q)
            # O(size) memory for any q; the level-3 tower patterns of 4I and
            # [[4,2],[2,4]] hold under 10 size residues, so none is decided twice.
            if stored > 16 * size or len(moduli) * key_bits > 8192 * size:
                moduli.clear()
                stored = 0
            terms = (c * cmath.rect(1.0, TWO_PI * k / q) for k, c in sorted(counts.items()))
            modulus = moduli[pattern] = abs(sum(terms))
            stored += len(counts)
        largest = max(largest, modulus)
    return OracleReport(unitary=unitary, residual=largest / size)
