"""Moran systems: eventually periodic (matrix, digit-set) sequences.

One type, `EventuallyPeriodic`, holds every eventually periodic sequence
here: a finite preperiod followed by an infinitely repeated period, read
at 1-based positions, iterated level by level, and reduced to its
canonical (shortest) form.  `MoranSystem` is the sequence of (expanding
integer matrix, digit set) pairs, `TWord` the word sigma picking each
level's digit scale, and `_analysis` keeps its per-level tables in the
same type, as plain tuples: the zero scan's exact (a, b, c, d, den, zero)
and the float evaluator's.  The measure of a system is the infinite
convolution of uniform measures on M_1^{-1}...M_n^{-1} D_n; its Fourier
transform is the infinite product of mask polynomials evaluated along the
backward orbit eta_j = (M_1^* ... M_j^*)^{-1} xi.  Products along the
levels are prefix walks (`itertools.accumulate`; `lattice.mat_product`
keeps the last): M_1^{-1}...M_j^{-1} for the stage images of
`attractor_stages`, M_1^*...M_j^* for `ZeroCertificate.verify` and the
towers of `spectra`.  The level table's integer (M^*)^{-1} over den is the
one exact form of a level's inverse in `_analysis`: the zero scan walks it,
and the run norms multiply its transposes.

Two evaluation paths coexist:

* `fourier` / `fourier_many` - double-precision truncated product with a
                   certified error bound: a tail bound, |1 - m_D(eta)| <=
                   2 pi ||mean d|| ||eta|| + 2 pi^2 lambda ||eta||^2 summed
                   over the geometric decay of ||eta_j||, plus an a priori
                   bound on the float rounding of the evaluation itself.
                   Both read one float level table built by `_analysis`
                   and stop at the level chosen by one truncation rule,
                   tested at each anchor on the computed orbit (see
                   `fourier`), so a point gets the same levels and bound
                   either way.
                   `fourier` walks one point in a scalar loop;
                   `fourier_many` steps blocks of points level by level in
                   numpy (imported only there), which pays off from about
                   twenty points on (one point costs some ten scalar evaluations);
* `fourier_zero_exact` - exact scan of the orbit, carried as integer
                   numerators over one reduced denominator, that either
                   produces a level-j witness in Z(m_{D_j}) or proves no
                   level can vanish because ||eta_j|| fell below the minimal
                   norm any mask zero must have.  The scan (`_zero_scan`)
                   takes a block of points level by level; this is the
                   block of one, and `spectra.verify_orthogonality` scans a
                   set's distinct differences as blocks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, combinations, cycle, islice
from operator import mul
from typing import Callable, Generic, Iterable, Iterator, Optional, Sequence, TypeVar

from .digitsets import (
    DigitSet,
    StructuredDigitSet,
    canonical_digits,
    scaled_by_matrix,
    scaled_canonical,
)
from .lattice import (
    Mat2,
    Vec2,
    digit_expansion,
    inverse_norm_upper,
    is_expanding,
    in_gl2_2z,
    inverse_norm_below_one,
    mat_product,
    operator_norm_upper,
    over_common_denominator,
    sqrt_upper,
)
from .mask import TWO_PI, digit_mask_zero, zero_kernel, zero_norm_floor

Level = tuple[Mat2, DigitSet]

MAX_SCAN_LEVELS = 100_000
DEFAULT_POINT_CAP = 65_536


class OutOfTheoryError(ValueError):
    """Inputs outside the hypothesis class a rule or construction needs."""


class CapExceeded(RuntimeError):
    """An enumeration would exceed the configured resource cap."""


class SystemInvalid(ValueError):
    """A Moran system failing validation was used where a valid one is required."""


T = TypeVar("T")


@dataclass(frozen=True)
class EventuallyPeriodic(Generic[T]):
    """The sequence a_1, a_2, ...: a finite preperiod, then a nonempty
    period repeated forever.  Positions are 1-based, and iterating yields
    a_1, a_2, a_3, ... without end."""

    preperiod: tuple[T, ...]
    period: tuple[T, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise ValueError("period must be nonempty")

    @classmethod
    def from_function(cls, f: Callable[[int], T], pre_len: int, period_len: int):
        """The sequence with preperiod f(1), ..., f(pre_len) and period
        f(pre_len + 1), ..., f(pre_len + period_len), for classes whose only
        fields are the two."""
        return cls(
            tuple(map(f, range(1, pre_len + 1))),
            tuple(map(f, range(pre_len + 1, pre_len + period_len + 1))),
        )

    def at(self, n: int) -> T:
        if n < 1:
            raise ValueError("positions are 1-based")
        p = len(self.preperiod)
        if n <= p:
            return self.preperiod[n - 1]
        return self.period[(n - p - 1) % len(self.period)]

    def __iter__(self) -> Iterator[T]:
        return chain(self.preperiod, cycle(self.period))

    def distinct(self) -> tuple[T, ...]:
        """One entry per position of the representation: preperiod, then period."""
        return self.preperiod + self.period

    def canonical(self):
        """The same sequence with a primitive period and the preperiod's
        trailing agreement with the period absorbed: the shortest
        preperiod and the shortest period."""
        period = self.period
        r = len(period)
        for length in range(1, r + 1):
            if r % length == 0 and period == period[:length] * (r // length):
                period = period[:length]
                break
        pre = self.preperiod
        while pre and pre[-1] == period[-1]:
            pre, period = pre[:-1], period[-1:] + period[:-1]
        return replace(self, preperiod=pre, period=period)


@dataclass(frozen=True)
class MoranSystem(EventuallyPeriodic[Level]):
    """Eventually periodic sequence of (matrix, digit set) levels."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for m, _ in self.distinct():
            if not all(isinstance(e, (int, Fraction)) for e in m.entries()):
                raise ValueError("system matrices must be exact (int or Fraction entries)")

    @staticmethod
    def constant(matrix: Mat2, digits: DigitSet) -> "MoranSystem":
        return MoranSystem((), ((matrix, digits),))

    level = EventuallyPeriodic.at

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # `_analysis` hashes its system on every lookup; the nested level
        # tuples are hashed on the first one only.
        return hash((self.preperiod, self.period))

    def matrices(self) -> tuple[Mat2, ...]:
        return tuple(m for m, _ in self.distinct())

    def all_structured(self) -> bool:
        """Whether every digit set is a four-point structured set."""
        return all(isinstance(d, StructuredDigitSet) for _, d in self.distinct())


def conjugate_system(sys: MoranSystem, q: Mat2) -> MoranSystem:
    """The similar system (Q M_n Q^{-1}, Q D_n) for unimodular integer Q."""
    if not q.is_integral() or abs(q.det()) != 1:
        raise ValueError("conjugation needs a unimodular integer matrix")
    qinv = q.inverse()

    def conj(n: int) -> Level:
        m, d = sys.at(n)
        mm = q * m * qinv
        mm = Mat2(*(int(e) for e in mm.entries())) if mm.is_integral() else mm
        return (mm, scaled_by_matrix(q, d))

    return MoranSystem.from_function(conj, len(sys.preperiod), len(sys.period))


# --- per-level analysis, cached on the (hashable) system -------------------


# One distinct level of the zero scan: (M^*)^{-1} = [[a, b], [c, d]] / den
# exactly (integers, den > 0), and the digit set's `mask.zero_kernel`.
_ExactLevel = tuple[int, int, int, int, int, Callable[[int, int, int], bool]]

# One distinct level of the float evaluator: the entries a, b, c, d of
# (M^*)^{-1} rounded to floats, the digit points as floats, #D, and the start
# value of the mask sum.  A leading zero digit adds exactly 1 + 0j to the sum
# whatever the point, so it is dropped from the points and starts the sum at
# 1 + 0j instead of 0j.
_FloatLevel = tuple[float, float, float, float, tuple[tuple[float, float], ...], int, complex]


@dataclass(frozen=True)
class _Analysis:
    levels: EventuallyPeriodic[_ExactLevel]
    # The float levels with the period unrolled to unrolled_len: the
    # preperiod runs up to the first anchor, each period up to the next.
    float_levels: EventuallyPeriodic[_FloatLevel]
    # float(||M_n^{-1}|| upper bound) * (1 + 1e-12) per preperiod level: the
    # orbit bound's growth factor while the preperiod is walked.
    preperiod_growth: tuple[float, ...]
    # float(K) * (1 + 1e-12), with K < 1 the certified bound on the norm of
    # the inverse of the product of unrolled_len period maps from phase 0.
    anchor_step: float
    # The tail beyond an anchor with orbit bound B is at most
    # (tail_linear + tail_quadratic * B) * B.
    tail_linear: float
    tail_quadratic: float
    # Float rounding of a product of J levels at a point of norm r is at most
    # rounding_per_norm * r + rounding_per_level * J, and the computed orbit
    # is within orbit * r of the exact one at every level (see `fourier`).
    rounding_per_norm: float
    rounding_per_level: float
    orbit: float
    max_norm: float  # above this ||xi|| a phase may overflow: refused
    preperiod_len: int
    unrolled_len: int                 # anchor spacing: a multiple of the period
    # The zero scan's stop test ||eta||^2 G^2 < F (G >= every consecutive-run
    # norm of the period, F the least mask.zero_norm_floor^2 of the levels)
    # on eta = (nx, ny) / den, cross-multiplied to integers:
    # (nx^2 + ny^2) * stop_scale < stop_floor * den^2.
    stop_scale: int
    stop_floor: int


def _second_order(digits: DigitSet) -> tuple[float, float]:
    """(||mean digit||^2, lambda) with lambda >= the top eigenvalue of the
    digit covariance C = (1/#D) sum_d d d^T (Gershgorin's bound): exact
    rationals, each rounded once to the nearest float.

    With theta_d = 2 pi <d, eta>, 1 - m_D(eta) = -(i/#D) sum_d theta_d +
    (1/#D) sum_d (1 + i theta_d - e^{i theta_d}), and |1 + i t - e^{it}| <=
    t^2 / 2, so |1 - m_D(eta)| <= 2 pi ||mean d|| ||eta|| + 2 pi^2 lambda
    ||eta||^2.  Every structured set sums to zero, leaving the square alone.
    """
    sx = sy = sxx = syy = sxy = 0
    for x, y in digits.points():
        sx, sy, sxx, syy, sxy = sx + x, sy + y, sxx + x * x, syy + y * y, sxy + x * y
    n = len(digits)
    return (sx * sx + sy * sy) / (n * n), (max(sxx, syy) + abs(sxy)) / n


# Unit roundoff of IEEE double precision (round to nearest).
_U = 2.0**-53
# Assumed accuracy of a computed e^{it} (cmath.rect(1, t), which is cos t +
# i sin t, the same floats as cmath.exp(it); numpy's complex exp): each part
# within 4 ulps of the exact value, so within 4 sqrt(2) u <= 6 u of it in
# modulus.
_EXP_ERROR = 6.0


def _rounding_constants(
    gamma: float, n_max: int, alpha: float, nu0: float, runs: float
) -> tuple[float, float, float]:
    """(rounding_per_norm, rounding_per_level, orbit) of the truncation rule
    (see `fourier`).  gamma >= every digit norm, n_max the largest #D, alpha
    >= the norm of every float level map with entries replaced by their
    moduli, nu0 >= sum_{j>=0} ||eta_j|| / ||xi|| and runs >= sum_{j>=i}
    ||(M_j^* ... M_{i+1}^*)^{-1}|| from any start level i.

    A step adds an orbit error of at most rho ||computed eta|| (two roundings
    per coordinate, plus the entries' own), and the error e_0 <= u ||xi|| of
    xi's float; each reaches the later levels through the maps, so the
    orbit errors E = sum_j ||e_j|| satisfy E <= runs (u ||xi|| (1 + rho) +
    rho (nu0 ||xi|| + E)), solved for E / ||xi|| as `orbit`.  Every single
    error is at most E, so ||computed eta_j|| + orbit ||xi|| bounds the
    exact ||eta_j|| at every level; the truncation rule uses that bound
    where it beats the a priori one.  orbit is inf, and so is
    rounding_per_norm, when runs * rho >= 1/2 leaves the rounding without
    control.  The margin covers the (1 + O(u)) factors dropped here and
    the float evaluation of these formulas."""
    per_level = (_EXP_ERROR + 2.0 + math.sqrt(2.0) * (n_max + 1)) * _U
    # Partial products may exceed modulus 1 by the mask and product roundings.
    margin = (1.0 + 1e-6) * math.exp(2 * MAX_SCAN_LEVELS * per_level)
    rho = 3.0 * _U * alpha * (1.0 + 1e-9)
    if runs * rho >= 0.5:
        return math.inf, margin * per_level, math.inf
    orbit = runs * (_U * (1.0 + rho) + rho * nu0) / (1.0 - runs * rho)
    phases = TWO_PI * gamma * (5.0 * _U * (nu0 + orbit) + orbit)
    return margin * phases, margin * per_level, orbit


_NO_CONTRACTION = "period inverse products do not contract (no unrolling below 256 works)"


@lru_cache(maxsize=256)
def _analysis(sys: MoranSystem) -> _Analysis:
    levels = []
    float_levels = []
    alpha = mean_sq = cov = 0.0
    n_max = 0
    for m, d in sys.distinct():
        if m.det() == 0:
            raise SystemInvalid("system matrix is singular")
        entries = m.transpose().inverse().entries()
        num, den = over_common_denominator(entries)
        levels.append((*num, den, zero_kernel(d)))
        a, b, c, e = (float(v) for v in entries)
        pts = tuple((float(dx), float(dy)) for dx, dy in d.points())
        acc0 = complex(pts[0] == (0.0, 0.0))
        float_levels.append((a, b, c, e, pts[1:] if acc0 else pts, len(pts), acc0))
        # ||entrywise |A|||_2 <= the larger of its largest row and column sums.
        alpha = max(alpha, abs(a) + abs(b), abs(c) + abs(e), abs(a) + abs(c), abs(b) + abs(e))
        level_mean_sq, level_cov = _second_order(d)
        mean_sq, cov = max(mean_sq, level_mean_sq), max(cov, level_cov)
        n_max = max(n_max, len(pts))
    # Were every anchor product below contracting, its inverse, the period
    # product M_{p+1}^* ... M_{p+r}^*, would be expanding: test that first.
    if not is_expanding(mat_product(m.transpose() for m, _ in sys.period)):
        raise SystemInvalid(_NO_CONTRACTION)
    preperiod_growth = tuple(
        float(inverse_norm_upper(m)) * (1.0 + 1e-12) for m, _ in sys.preperiod
    )
    p = len(sys.preperiod)
    # Orbit norms in the periodic region are bounded by certified operator
    # norms of the EXACT consecutive inverse products: a run of i = c*L + s
    # steps from phase ph factors as (anchor product)^c times a partial run.
    # Per-level norm products would be too weak (conditioning of canonical
    # reductions does not telescope level by level but cancels in products),
    # so the period is unrolled 1, 2, 4, ..., 256 times, to the first L where
    # the anchor products contract from every phase.  The run
    # (M_{ph+s}^* ... M_{ph+1}^*)^{-1} has the norm of its transpose, the
    # prefix M_{ph+1}^{-1} ... M_{ph+s}^{-1}; M^{-1} is the transpose of the
    # table's [[a, b], [c, d]] / den, so a prefix is an integer product over
    # a product of dens.
    period = [(Mat2(a, c, b, d), den) for a, b, c, d, den, _ in levels[p:]]
    r = len(period)
    for length in (r << k for k in range(9)):
        runs = [
            list(map(operator_norm_upper, accumulate(mats, mul), accumulate(dens, mul)))
            for mats, dens in (zip(*islice(cycle(period), ph, ph + length)) for ph in range(r))
        ]
        if all(run[-1] < 1 for run in runs):
            break
    else:
        raise SystemInvalid(_NO_CONTRACTION)
    growth, anchor_runs = max(map(max, runs)), runs[0]
    anchor = anchor_runs[-1]
    tail_sum, tail_sq_sum = sum(anchor_runs), sum(b * b for b in anchor_runs)
    zero_floor_sq = min(zero_norm_floor(d) ** 2 for _, d in sys.distinct())
    gamma = float(max(sqrt_upper(d.max_norm_sq()) for _, d in sys.distinct()))
    contraction = float(anchor)
    # Sums of the orbit norms beyond an anchor, per unit of its bound B,
    # with 1 - K and 1 - K^2 correctly rounded from K = k / q.
    k, q = anchor.numerator, anchor.denominator
    geo1 = float(tail_sum) / ((q - k) / q)
    geo2 = float(tail_sq_sum) / ((q * q - k * k) / (q * q))
    # nu >= sum_{j>=i} ||run from level i to j|| for i = p, p-1, ..., 0.
    nu = 1.0 + geo1
    runs_bound = nu
    for g in reversed(preperiod_growth):
        nu = 1.0 + g * nu
        runs_bound = max(runs_bound, nu)
    # From inside the periodic part: at most L - 1 runs of norm <= G up to
    # the next anchor, then G times that anchor's sums.
    runs_bound = max(runs_bound, 1.0 + float(growth) * (length - 1 + geo1))
    per_norm, per_level, orbit = _rounding_constants(gamma, n_max, alpha, nu, runs_bound)
    # A computed orbit norm is at most reach ||xi||, and a phase 2 pi <d, eta>
    # or a product in an orbit step max(2 pi gamma, alpha) times that norm;
    # 1e308 leaves room below the largest double for this formula's rounding.
    reach = nu + orbit if orbit < math.inf else nu  # nu: the exact orbit's
    return _Analysis(
        levels=EventuallyPeriodic(levels[:p], levels[p:]),
        float_levels=EventuallyPeriodic(float_levels[:p], float_levels[p:] * (length // r)),
        preperiod_growth=preperiod_growth,
        anchor_step=contraction * (1.0 + 1e-12),
        tail_linear=TWO_PI * math.sqrt(mean_sq) * geo1,
        tail_quadratic=2.0 * math.pi**2 * cov * geo2,
        rounding_per_norm=per_norm,
        rounding_per_level=per_level,
        orbit=orbit,
        max_norm=1e308 / (max(TWO_PI * gamma, alpha) * reach),
        preperiod_len=p,
        unrolled_len=length,
        stop_scale=growth.numerator**2 * zero_floor_sq.denominator,
        stop_floor=zero_floor_sq.numerator * growth.denominator**2,
    )


# --- validation -------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    errors: tuple[tuple[str, int], ...]   # (code, 1-based distinct-level index)
    iota: float                            # max ||M_n^{-1}|| (display value)
    gamma: float                           # max digit norm
    existence_bound: float                 # gamma * iota / (1 - iota)


def validate(sys: MoranSystem) -> ValidationReport:
    """Expansion and contraction checks plus the existence bound.

    Every level must be expanding with ||M^{-1}|| < 1 (exact tests); the
    report carries iota >= max ||M_n^{-1}|| (the certified bound, rounded
    up to a float), gamma = max ||d||, and the support radius bound
    gamma * iota / (1 - iota) for the limit measure.
    """
    errors: list[tuple[str, int]] = []
    iota = 0.0
    gamma = 0.0
    for i, (m, d) in enumerate(sys.distinct(), start=1):
        if not is_expanding(m):
            errors.append(("NotExpanding", i))
        elif not inverse_norm_below_one(m):
            errors.append(("NormAtLeastOne", i))
        else:
            up = inverse_norm_upper(m)
            f = float(up)
            iota = max(iota, f if f >= up else math.nextafter(f, math.inf))
        gamma = max(gamma, math.sqrt(float(d.max_norm_sq())))
    if errors:
        bound = math.inf
    else:
        bound = gamma * iota / (1.0 - iota)
    return ValidationReport(
        ok=not errors,
        errors=tuple(errors),
        iota=iota if not errors else math.inf,
        gamma=gamma,
        existence_bound=bound,
    )


# --- the matrix hypotheses of the rules --------------------------------------
# (predicate, detail template in {noun}, the matrix's role, {m}, its rows, and
# {det}, its |det|).  Predicates are looked up at call time, so a wrapped
# module global sees every call.

Hypothesis = tuple[Callable[[Mat2], bool], str]
DET_ABOVE_4: Hypothesis = (lambda m: abs(m.det()) > 4, "|det {m}| = {det} is not > 4")
DET_AT_LEAST_4: Hypothesis = (lambda m: abs(m.det()) >= 4, "|det {m}| = {det} is not >= 4")
DET_4: Hypothesis = (lambda m: abs(m.det()) == 4, "|det {m}| = {det} is not 4")
EXPANDING: Hypothesis = (lambda m: is_expanding(m), "{noun} {m} is not expanding")
IN_GL2_2Z: Hypothesis = (lambda m: in_gl2_2z(m), "{noun} {m} is not in GL(2,2Z)")
NORM_BELOW_1: Hypothesis = (lambda m: inverse_norm_below_one(m), "{noun} {m} has ||M^-1|| >= 1")


def first_failure(
    matrices: Iterable[Mat2], checks: Sequence[Hypothesis], noun: str = "matrix"
) -> Optional[str]:
    """The detail of the first check failing on the first matrix that fails
    one (every check on a matrix before the next matrix), or None."""
    for m in matrices:
        for holds, detail in checks:
            if not holds(m):
                rows = str([list(r) for r in m.rows()])
                return detail.format(noun=noun, m=rows, det=abs(m.det()))
    return None


def first_odd_level(sys: MoranSystem) -> Optional[tuple[int, str]]:
    """(level, detail) for the first matrix used at some level >= 2 that is
    not in GL(2,2Z), or None: the paper's spectrality condition fails.

    Distinct levels are tried in order, each cited at its first level >= 2:
    a preperiod's first entry never recurs, and with no preperiod the first
    period entry recurs at level 1 + r.
    """
    p, r = len(sys.preperiod), len(sys.period)
    for i, m in enumerate(sys.matrices()):
        if i > 0 or p == 0:
            level = i + 1 if i > 0 else 1 + r
            problem = first_failure((m,), (IN_GL2_2Z,), noun=f"level {level} matrix")
            if problem:
                return level, problem
    return None


# --- canonical reduction ----------------------------------------------------


def reduce_canonical(sys: MoranSystem) -> MoranSystem:
    """Rewrite a structured-digit system over the canonical four-point set.

    With Q_n the digit basis at level n (Q_0 = I), the reduced matrices are
    Mt_n = Q_n^{-1} M_n Q_{n-1} and every digit set becomes the canonical
    one; the measure is unchanged.  The result is eventually periodic with
    the preperiod extended by one level.
    """
    if not sys.all_structured():
        raise OutOfTheoryError("canonical reduction needs structured digit sets")
    d0 = canonical_digits()

    def reduced(n: int) -> Level:
        m, d = sys.at(n)
        q_prev = sys.at(n - 1)[1].q_matrix() if n > 1 else Mat2.identity()
        return (d.q_matrix().inverse() * m * q_prev, d0)  # type: ignore[union-attr]

    return MoranSystem.from_function(reduced, len(sys.preperiod) + 1, len(sys.period))


# --- Fourier product with certified truncation ------------------------------


@dataclass(frozen=True)
class FourierResult:
    value: complex
    # Certified bound on |true value - reported value|: the truncation tail
    # plus float rounding.  Above eps only where rounding alone reaches eps.
    bound: float
    levels: int        # truncation level J
    rounding: float = 0.0  # the rounding part of bound


def _is_exact_point(xi) -> bool:
    return isinstance(xi[0], (int, Fraction)) and isinstance(xi[1], (int, Fraction))


def _float_point(xi) -> tuple[float, float]:
    """xi as two finite floats; ValueError otherwise (an infinite or NaN
    coordinate would walk the orbit to the level cap)."""
    try:
        x, y = float(xi[0]), float(xi[1])
    except OverflowError:
        raise ValueError(f"point {xi!r} is too large for a float") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point {xi!r} has a non-finite coordinate")
    return x, y


# Below this x^2 + y^2 a computed orbit point may have underflowed, outside
# the rounding model; a point whose square overflowed reads inf.  Between
# the two the computed norm is used.
_ORBIT_FLOOR = 2.0**-900
_TOO_LARGE = "point ({!r}, {!r}) is too large: its phases would overflow a float"


def _tail(ana: _Analysis, bound: float) -> float:
    """The tail bound beyond an anchor whose exact orbit norm is <= bound."""
    return (ana.tail_linear + ana.tail_quadratic * bound) * bound


def _anchor_bound(bound: float, q: float, orbit_norm: float) -> float:
    """The orbit bound at an anchor: the smaller of the a priori bound and
    ||computed eta|| + orbit ||xi||, q = x^2 + y^2 at the computed eta."""
    if _ORBIT_FLOOR < q < math.inf:
        computed = (math.sqrt(q) + orbit_norm) * (1.0 + 1e-12)
        if computed < bound:
            return computed
    return bound


def _screen(ana: _Analysis, eps: float, orbit_norm: float) -> tuple[float, float]:
    """(T, S): no orbit bound above T has a tail <= eps, and no computed
    eta with x^2 + y^2 above S gives a bound <= T.  T is the largest B with
    tail(B) <= eps, or sqrt(eps / tail_quadratic) >= it where 4
    tail_quadratic eps overflows (inf at eps = inf), and S is (T - orbit
    ||xi||)^2 (-1 when that difference is not positive), each raised by
    1e-9 relative, far beyond the rounding of `_tail`, `_anchor_bound` and
    these formulas."""
    linear, quadratic = ana.tail_linear, ana.tail_quadratic
    if not quadratic:  # every digit is 0, so every tail is 0
        return math.inf, math.inf
    disc = linear * linear + 4.0 * quadratic * eps
    if disc < math.inf:
        t = 2.0 * eps / (linear + math.sqrt(disc)) * (1.0 + 1e-9)
    else:  # 4 q eps overflowed; quadratic T^2 <= eps at the root
        t = math.sqrt(eps / quadratic) * (1.0 + 1e-9)
    s = t - orbit_norm
    return t, (s * s * (1.0 + 1e-9) if s > 0 else -1.0)


_I_TWO_PI = 1j * TWO_PI


def fourier(sys: MoranSystem, xi, eps: float) -> FourierResult:
    """Truncated Fourier product with a certified error bound, <= eps
    unless float rounding alone reaches eps.

    An exact (int or Fraction) point in the zero set returns 0 with bound 0
    at the certificate's level; otherwise the product runs at the point's
    float, whose rounding the bound covers, to the truncation level J below.
    A non-finite or too large (`_Analysis.max_norm`) point raises ValueError.

    Truncation.  J is the first anchor level (preperiod end plus multiples
    of the unrolled period) whose bound, tail plus rounding, is <= eps;
    where the rounding part alone reaches eps first, J is the first anchor
    whose tail is <= eps and the bound reported is that total, above eps.

    Tail.  Partial products have modulus <= 1, so stopping at level J errs
    by at most sum_{j>J} |1 - m_{D_j}(eta_j)|, each term at most 2 pi
    ||mean d|| ||eta_j|| + 2 pi^2 lambda ||eta_j||^2 (`_second_order`).
    With K the anchor contraction and S, S_2 the sums of the partial-run
    norms and of their squares, the tail beyond an anchor whose exact orbit
    norm is at most B is at most 2 pi ||mean d|| B S / (1 - K) + 2 pi^2
    lambda B^2 S_2 / (1 - K^2) (`_tail`).  B is the smaller of two
    bounds (`_anchor_bound`): the a priori ||xi|| times the preperiod
    growths times K per anchor, and the computed ||eta_j|| plus the orbit
    rounding error orbit ||xi|| (`_rounding_constants`).  The second is
    much the smaller for a non-normal period map, whose powers contract far
    faster than K^k says, and is used only while 2^-900 < x^2 + y^2 < inf at
    the computed eta, so that the square neither underflowed nor
    overflowed.  The a priori bound keeps its own recursion, the smaller one
    is not carried to the next anchor: each anchor's computed point already
    bounds its orbit, and J is never above the a priori rule's.  The
    (1 + 1e-12) factors cover the rounding of the recursions and of the
    tail formulas.

    Rounding (Higham's model: each float operation errs by at most u =
    2^-53 relative, no underflow).  xi's own float differs from an exact
    point by u ||xi||.  Each orbit step with rounded (M^*)^{-1} entries adds
    an error of at most 3 u alpha ||computed eta||, which the later maps
    carry along, so the orbit errors sum to at most orbit ||xi||.  A phase
    2 pi <d, eta> is formed within 5 u ||d|| ||eta|| of the exact phase at
    the computed eta; e^{it} is within 6 u (`_EXP_ERROR`); the mask sum of
    #D terms within sqrt(2) (#D - 1) u, its division by #D within 2 u, and
    each step of the running product within 2 sqrt(2) u.  Summed over the J
    levels this is at most rounding_per_norm ||xi|| + rounding_per_level J,
    which holds for `fourier` and `fourier_many` alike.

    The anchor test runs inside the evaluation loop, so the orbit is walked
    once.  A screen computed once per call (`_screen`) costs each anchor a
    product multiply and a compare of the bound or of x^2 + y^2; the exact
    formulas run only at anchors that pass it, and give the same J and
    bound as running them at every anchor.
    """
    if not eps > 0:
        raise ValueError("tolerance must be positive")
    if _is_exact_point(xi):
        cert = fourier_zero_exact(sys, xi)
        if cert is not None:
            return FourierResult(0j, 0.0, cert.level)
    x, y = _float_point(xi)
    ana = _analysis(sys)
    norm = math.hypot(x, y)
    if norm > ana.max_norm:
        raise ValueError(_TOO_LARGE.format(x, y))
    # A zero point has an exact orbit, and an infinite rounding_per_norm or
    # orbit (no control over the orbit's rounding) times 0 would be NaN.
    rounding_at_0 = ana.rounding_per_norm * norm if norm else 0.0
    orbit_norm = ana.orbit * norm if norm else 0.0
    screen, screen_sq = _screen(ana, eps, orbit_norm)
    bound = norm * (1.0 + 1e-12)
    for growth in ana.preperiod_growth:
        bound *= growth
    j, stride, step = ana.preperiod_len, ana.unrolled_len, ana.anchor_step
    per_level = ana.rounding_per_level
    rect = cmath.rect
    value = complex(1.0)
    fallback = None
    levels, period = ana.float_levels.preperiod, ana.float_levels.period
    while True:
        for a, b, c, d, digits, n, acc in levels:
            x, y = a * x + b * y, c * x + d * y
            for dx, dy in digits:
                acc += rect(1.0, TWO_PI * (dx * x + dy * y))
            value *= acc / n
        if bound <= screen or x * x + y * y <= screen_sq:
            tail = _tail(ana, _anchor_bound(bound, x * x + y * y, orbit_norm))
            if tail <= eps:
                rounding = rounding_at_0 + per_level * j
                result = FourierResult(value, tail + rounding, j, rounding)
                if tail + rounding <= eps:
                    return result
                fallback = fallback or result
                if rounding >= eps:
                    return fallback
        if j >= MAX_SCAN_LEVELS:
            if fallback:
                return fallback
            raise CapExceeded("truncation level exceeded hard cap")
        j += stride
        bound *= step
        levels = period


FOURIER_BLOCK = 1024


def fourier_many(sys: MoranSystem, xis: Iterable, eps: float) -> Iterator[FourierResult]:
    """`fourier` at many float points: one result per point, in order.

    Each point gets the levels, bound and rounding `fourier` gives it, bit
    for bit: the truncation rule runs at each anchor on the whole block in
    numpy, through the same elementwise float operations, and ||xi|| comes
    from `math.hypot` as in `fourier`.  An anchor is skipped when no point
    of the block passes the loosest screen (`_screen` with orbit ||xi|| =
    0), where the rule would change nothing.  The value agrees with
    `fourier`'s to rounding: the orbits step through the same float
    operations, while the mask sums run in numpy.  Points are read and
    evaluated in blocks of FOURIER_BLOCK, so memory does not grow with the
    number of points.  There is no exact-zero short circuit; exact points
    are evaluated at their float values.  A point too far out for its
    phases gets `fourier`'s ValueError when its block is read.
    """
    if not eps > 0:
        raise ValueError("tolerance must be positive")
    ana = _analysis(sys)
    return _fourier_blocks(ana, iter(xis), eps)


def _fourier_blocks(ana: _Analysis, xis: Iterator, eps: float) -> Iterator[FourierResult]:
    import numpy as np

    # Digit coordinates as (#D, 1) columns, broadcast against a block's orbit.
    def column(level: _FloatLevel):
        a, b, c, d, pts, n, acc0 = level
        return (a, b, c, d, np.array([[dx] for dx, _ in pts]),
                np.array([[dy] for _, dy in pts]), acc0, 1.0 / n)

    preperiod = [column(lv) for lv in ana.float_levels.preperiod]
    period = [column(lv) for lv in ana.float_levels.period]
    linear, quadratic = ana.tail_linear, ana.tail_quadratic
    per_norm, per_level, orbit = ana.rounding_per_norm, ana.rounding_per_level, ana.orbit
    stride, step = ana.unrolled_len, ana.anchor_step
    screen, screen_sq = _screen(ana, eps, 0.0)
    while block := [_float_point(xi) for xi in islice(xis, FOURIER_BLOCK)]:
        norms = [math.hypot(x, y) for x, y in block]
        if max(norms) > ana.max_norm:
            x, y = next(p for p, r in zip(block, norms) if r > ana.max_norm)
            raise ValueError(_TOO_LARGE.format(x, y))
        rounding_at_0 = np.array([per_norm * r if r else 0.0 for r in norms])
        orbit_norm = np.array([orbit * r if r else 0.0 for r in norms])
        bound = np.array(norms) * (1.0 + 1e-12)
        for growth in ana.preperiod_growth:
            bound *= growth
        x = np.array([p[0] for p in block])
        y = np.array([p[1] for p in block])
        value = np.ones(len(block), dtype=complex)
        # The arrays above hold the points still running; `running` maps
        # them to their block positions, where each point's result (or
        # fallback, once it has one) is written.
        running = np.arange(len(block))
        has_fallback = np.zeros(len(block), dtype=bool)
        out_value = np.empty(len(block), dtype=complex)
        out_bound, out_rounding = np.empty(len(block)), np.empty(len(block))
        out_levels = np.empty(len(block), dtype=int)
        j, levels = ana.preperiod_len, preperiod
        while True:
            for a, b, c, d, dxs, dys, acc0, inv_n in levels:
                x, y = a * x + b * y, c * x + d * y
                terms = np.exp(_I_TWO_PI * (dxs * x + dys * y))
                value *= (acc0 + terms.sum(axis=0)) * inv_n
            # `_anchor_bound`, `_tail` and the decisions of `fourier`, where
            # the loosest screen (orbit ||xi|| = 0) lets some point through;
            # squares of far points overflow to inf here too.
            with np.errstate(over="ignore", invalid="ignore"):
                q = x * x + y * y
                if bound.min() <= screen or q.min() <= screen_sq:
                    computed = (np.sqrt(q) + orbit_norm) * (1.0 + 1e-12)
                    anchor = np.where((q > _ORBIT_FLOOR) & (q < math.inf) & (computed < bound),
                                      computed, bound)
                    tail = (linear + quadratic * anchor) * anchor
                    rounding = rounding_at_0 + per_level * j
                    total = tail + rounding
                    reached = tail <= eps
                    done = reached & (total <= eps)
                    record = done | (reached & ~has_fallback)
                    if record.any():
                        at = running[record]
                        out_value[at], out_bound[at] = value[record], total[record]
                        out_rounding[at], out_levels[at] = rounding[record], j
                    has_fallback |= reached
                    finished = done | (reached & (rounding >= eps))
                    if finished.all():
                        break
                    if finished.any():
                        keep = ~finished
                        x, y, value, bound = x[keep], y[keep], value[keep], bound[keep]
                        rounding_at_0, orbit_norm = rounding_at_0[keep], orbit_norm[keep]
                        running, has_fallback = running[keep], has_fallback[keep]
            if j >= MAX_SCAN_LEVELS:
                if not has_fallback.all():
                    raise CapExceeded("truncation level exceeded hard cap")
                break
            j += stride
            bound *= step
            levels = period
        yield from map(FourierResult, out_value.tolist(), out_bound.tolist(),
                       out_levels.tolist(), out_rounding.tolist())


# --- exact zero certificates -------------------------------------------------


@dataclass(frozen=True)
class ZeroCertificate:
    """Witness that xi lies in the zero set of the Fourier transform.

    level j and eta with m_{D_j}(eta) = 0 and M_1^* ... M_j^* eta = xi,
    all exact.
    """

    level: int
    witness: tuple[Fraction, Fraction]
    xi: tuple[Fraction, Fraction]

    def verify(self, sys: MoranSystem) -> bool:
        acc = mat_product(m.transpose() for m, _ in islice(sys, self.level))
        if acc.apply(self.witness) != self.xi:
            return False
        return digit_mask_zero(sys.level(self.level)[1], self.witness)


def fourier_zero_exact(sys: MoranSystem, xi) -> Optional[ZeroCertificate]:
    """Exact zero-set membership with certificate, or None.

    Scans eta_j = (M_1^* ... M_j^*)^{-1} xi; returns at the first level whose
    mask vanishes at eta_j.  Once past the preperiod, every future orbit norm
    is at most G ||eta_j|| with G the largest consecutive-run contraction
    product over the period, so when G ||eta_j|| drops below the smallest
    norm any mask zero can have, no later level can vanish and the scan
    stops with None.  The scan is `_zero_scan` on a block of one point; the
    witness is reduced to lowest terms here.
    """
    (nx, ny), den = over_common_denominator(xi)
    hit = _zero_scan(_analysis(sys), (nx,), (ny,), den)[0]
    if hit is None:
        return None
    level, wx, wy, wden = hit
    witness = (Fraction(wx, wden), Fraction(wy, wden))
    return ZeroCertificate(level, witness, (Fraction(nx, den), Fraction(ny, den)))


_ZeroHit = tuple[int, int, int, int]


def _zero_scan(
    ana: _Analysis, xs: Sequence[int], ys: Sequence[int], den: int
) -> list[Optional[_ZeroHit]]:
    """The zero scan of `fourier_zero_exact` at every point xi_k = (xs[k],
    ys[k]) / den of a block, den > 0: for each point the first level j whose
    mask vanishes at eta_j = (nx, ny) / den', as (j, nx, ny, den'), or None
    once no later level can vanish there.

    The scan is level-major: the level table is walked once for the block,
    and at each level one pass over the points still undecided maps each
    one, runs the level's zero test (`mask.zero_kernel`, chosen once by
    `_analysis`) and the stop test, and keeps the survivors.  Orbits are
    integer numerators over one denominator, reduced after the pass by the
    gcd of the survivors, so a hit need not be in lowest terms.  Neither
    test depends on how a point is scaled, so every point is decided at the
    level a block of one would decide it.  Raises CapExceeded when a point
    is undecided past MAX_SCAN_LEVELS levels.
    """
    hits: list[Optional[_ZeroHit]] = [None] * len(xs)
    live = list(zip(range(len(xs)), xs, ys))
    scale = ana.stop_scale
    for j, (a, b, c, d, level_den, zero) in enumerate(ana.levels, 1):
        if j > MAX_SCAN_LEVELS:
            raise CapExceeded("zero scan exceeded hard cap")
        den *= level_den
        # No point stops inside the preperiod: a floor of 0 keeps them all.
        floor = ana.stop_floor * den * den if j >= ana.preperiod_len else 0
        survivors, g = [], den
        for k, x, y in live:
            x, y = a * x + b * y, c * x + d * y
            if zero(x, y, den):
                hits[k] = (j, x, y, den)
            elif (x * x + y * y) * scale >= floor:
                survivors.append((k, x, y))
                g = math.gcd(g, x, y)
        if not survivors:
            break
        if g > 1:
            den //= g
            survivors = [(k, x // g, y // g) for k, x, y in survivors]
        live = survivors
    return hits


# --- words over scaled digit alphabets (the |det| = 4 families) -------------


@dataclass(frozen=True)
class TWord(EventuallyPeriodic[int]):
    """Eventually periodic word over {1..m} with scale list t_1 < ... < t_m.

    The word sigma selects digit sets D_n = t_{sigma_n} * canonical; the
    scale list is expected odd, pairwise coprime, strictly increasing and
    anchored at t_1 = 1 (violations are reported by `problems`, letting
    callers produce out-of-theory verdicts instead of hard errors).
    """

    t_values: tuple[int, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        m = len(self.t_values)
        if m == 0:
            raise ValueError("t_values must be nonempty")
        for letter in self.distinct():
            if not (isinstance(letter, int) and 1 <= letter <= m):
                raise ValueError(f"letter {letter!r} outside alphabet 1..{m}")

    def problems(self) -> Optional[str]:
        ts = self.t_values
        if any(t % 2 == 0 for t in ts):
            return "scale values must be odd"
        if ts[0] != 1:
            return "scale list must start at t_1 = 1"
        if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
            return "scale values must be strictly increasing"
        for a, b in combinations(ts, 2):
            if math.gcd(a, b) != 1:
                return f"scale values {a} and {b} are not coprime"
        return None

    def eventually_constant_letter(self) -> Optional[int]:
        """The tail letter if sigma is eventually constant, else None."""
        c = self.canonical()
        return c.period[0] if len(c.period) == 1 else None


def word_hypotheses_problem(word: TWord, matrices: Iterable[Mat2]) -> Optional[str]:
    """The first failed hypothesis of the |det| = 4 word results (T1.5 and
    the integer periodic zero set), the matrices before the word, or None."""
    mats = list(matrices)
    if not mats:
        return "no matrices supplied"
    return first_failure(mats, (EXPANDING, IN_GL2_2Z, DET_4, NORM_BELOW_1)) or word.problems()


def realize_word_system(
    word: TWord, matrix_preperiod: Sequence[Mat2], matrix_period: Sequence[Mat2]
) -> MoranSystem:
    """The Moran system with matrices from the given eventually periodic
    matrix sequence and digits D_n = t_{sigma_n} * canonical."""
    matrices = EventuallyPeriodic(matrix_preperiod, matrix_period)

    def level_at(n: int) -> Level:
        return (matrices.at(n), scaled_canonical(word.t_values[word.at(n) - 1]))

    # Both sequences are periodic past the longer preperiod, jointly with
    # the lcm of the periods.
    return MoranSystem.from_function(
        level_at,
        max(len(word.preperiod), len(matrices.preperiod)),
        math.lcm(len(word.period), len(matrices.period)),
    )


def integer_periodic_zero_nonempty(
    word: TWord, matrices: Iterable[Mat2]
) -> tuple[bool, Optional[tuple[Fraction, Fraction]]]:
    """Whether the word's measure has nonempty integer periodic zero set.

    Under the |det| = 4 even-matrix hypotheses this holds iff every letter
    of sigma carries one common scale t != 1; the witness (1/t, 0) then lies
    in (1/t) * punctured residue grid, all of which sits in the periodic
    zero set.  Hypothesis failures raise OutOfTheoryError with the word
    rule's detail.
    """
    problem = word_hypotheses_problem(word, matrices)
    if problem:
        raise OutOfTheoryError(problem)
    letters = set(word.distinct())
    if len(letters) != 1:
        return (False, None)
    t = word.t_values[next(iter(letters)) - 1]
    if abs(t) == 1:
        return (False, None)
    return (True, (Fraction(1, t), Fraction(0)))


# --- sums over product sets ---------------------------------------------------


def attractor_stages(sys: MoranSystem, depth: int) -> list[list[Vec2]]:
    """The exact stage images M_1^{-1}...M_j^{-1} D_j for j = 1..depth; the
    depth-k partial sums are their sumset.  A depth above MAX_SCAN_LEVELS
    raises CapExceeded before any stage is built: one-point digit sets keep
    the point count at 1, so no point cap bounds the depth."""
    if depth > MAX_SCAN_LEVELS:
        raise CapExceeded(f"depth {depth} exceeds the level cap {MAX_SCAN_LEVELS}")
    levels = list(islice(sys, depth))
    prefixes = accumulate((m.inverse() for m, _ in levels), mul)
    return [[prefix.apply(p) for p in d.points()] for prefix, (_, d) in zip(prefixes, levels)]


def _atom_count(sys: MoranSystem, depth: int, limit: int) -> tuple[Optional[int], str]:
    """(prod_{n<=depth} #D_n or None above limit, that product as text), as
    head * base^k by period, so any depth costs the same; base^k > limit is not formed."""
    period = [len(d) for _, d in sys.period]
    k, rest = divmod(max(depth - len(sys.preperiod), 0), len(period))
    head = math.prod(len(d) for _, d in sys.preperiod[:depth]) * math.prod(period[:rest])
    base = math.prod(period)
    if base > 1 and k > limit.bit_length():  # base^k >= 2^k > limit
        return None, f"{base}^{k}" if head == 1 else f"{head} * {base}^{k}"
    count = head * base**k
    return (count if count <= limit else None), str(count)


def attractor_points(
    sys: MoranSystem, depth: int, cap: int = DEFAULT_POINT_CAP
) -> list[tuple[float, float]]:
    """All depth-k partial sums sum_{j<=k} M_1^{-1}...M_j^{-1} d_j, each
    coordinate the float nearest its exact value."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    count, text = _atom_count(sys, depth, cap)
    if count is None:
        raise CapExceeded(f"{text} attractor points exceed cap {cap}")
    ints, q = digit_expansion(attractor_stages(sys, depth))
    return [(x / q, y / q) for x, y in ints]
