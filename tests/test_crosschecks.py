"""Dual-route consistency checks pitting the exact kernels against
independent numeric evaluations on randomized inputs."""

import cmath
import functools
import itertools
import math
import random
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import float_rows
from moranspectra import moran, spectra
from moranspectra.config import ConfigError, parse_config
from moranspectra.digitsets import (
    GenericDigitSet,
    StructuredDigitSet,
    canonical_digits,
    scaled_canonical,
    sum_set,
)
from moranspectra.lattice import (
    Mat2,
    difference_set,
    digit_expansion,
    distinct_differences,
    inverse_norm_below_one,
    inverse_norm_upper,
    is_expanding,
    operator_norm_upper,
    over_common_denominator,
    sqrt_upper,
    stage_numerators,
)
from moranspectra.mask import (
    eval_mask,
    generic_zero_ints,
    is_hadamard_triple,
    unity_sum_is_zero_ints,
    zero_norm_floor,
)
from moranspectra.moran import (
    FOURIER_BLOCK,
    FourierResult,
    MoranSystem,
    ZeroCertificate,
    attractor_stages,
    conjugate_system,
    fourier,
    fourier_many,
    fourier_zero_exact,
    reduce_canonical,
    validate,
)
from moranspectra.spectra import (
    OrthogonalityResult,
    _residue_counts,
    build_lattice_spectrum,
    build_tower,
    completeness_sum,
    discrete_spectrum_oracle,
    enumerate_tower,
    verify_orthogonality,
)

D0 = canonical_digits()
I2 = Mat2.scalar(2)

MIXED = MoranSystem(
    ((Mat2(0, -2, 2, 0), scaled_canonical(3)),),
    ((I2, D0), (Mat2(2, 2, 0, 2), scaled_canonical(5))),
)


def _numeric_hadamard_residual(m, digits, companions):
    """Unitarity residual of the normalized exponential matrix, computed
    directly from the definition."""
    minv = np.linalg.inv(np.array(float_rows(m)))
    rows = []
    for d in digits.points():
        base = minv @ np.array(d, float)
        rows.append([
            cmath.exp(2j * math.pi * (base[0] * lx + base[1] * ly))
            for lx, ly in ((float(Fraction(x)), float(Fraction(y))) for x, y in companions)
        ])
    h = np.array(rows) / math.sqrt(len(digits))
    return float(np.abs(h.conj().T @ h - np.eye(len(digits))).max())


def _random_structured(rng):
    while True:
        try:
            return StructuredDigitSet(
                (rng.randint(-3, 3), rng.randint(-3, 3)),
                (rng.randint(-3, 3), rng.randint(-3, 3)),
            )
        except ValueError:
            continue


def _random_expanding(rng):
    while True:
        m = Mat2(*(rng.randint(-5, 5) for _ in range(4)))
        if is_expanding(m):
            return m


F2_VECS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _hadamard_case(rng, generic, integral):
    """A random (M, D, L): M an integer matrix, or a non-integral level of a
    `reduce_canonical` system (digits D0); D structured, or a generic copy of
    it (reordered, sometimes translated, which keeps the zero set), so the
    unit-root kernel decides; L the half lattice (1/2) M^* F_2 (Hadamard for
    every structured D), a copy with one point moved, or random points, with
    coordinates as int, Fraction or str."""
    if integral:
        m, d = _random_expanding(rng), _random_structured(rng)
    else:
        levels = ((_random_expanding(rng), _random_structured(rng)) for _ in range(2))
        red = reduce_canonical(MoranSystem((next(levels),), (next(levels),)))
        m, d = red.level(rng.choice((1, 2)))
        if m.is_integral():
            return None
    if generic:
        pts = list(d.points())
        rng.shuffle(pts)
        if rng.random() < 0.5:
            vx, vy = rng.randint(-3, 3), rng.randint(-3, 3)
            pts = [(x + vx, y + vy) for x, y in pts]
        d = GenericDigitSet(tuple(pts))
    mt = m.transpose()
    companions = [tuple(Fraction(c) / 2 for c in mt.apply(v)) for v in F2_VECS]
    roll = rng.random()
    if roll < 0.3:
        i = rng.randrange(4)
        shift = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), 2))
        companions[i] = (companions[i][0] + shift[0], companions[i][1] + shift[1])
    elif roll < 0.55:
        companions = [(0, 0)] + [
            (Fraction(rng.randint(-6, 6), rng.randint(1, 3)), rng.randint(-4, 4)) for _ in range(3)
        ]
    if len({tuple(map(Fraction, c)) for c in companions}) != 4:
        return None
    if rng.random() < 0.3:
        companions = [tuple(str(c) for c in p) for p in companions]
    return m, d, companions


def test_hadamard_agrees_with_numeric_unitarity():
    """At least 40 Hadamard and 40 non-Hadamard triples per kind: integer or
    non-integral M, structured digits or a generic copy of them."""
    rng = random.Random(77)
    for generic in (False, True):
        for integral in (True, False):
            tested_true = tested_false = 0
            while tested_true < 40 or tested_false < 40:
                case = _hadamard_case(rng, generic, integral)
                if case is None:
                    continue
                m, d, companions = case
                assert m.is_integral() == integral
                assert isinstance(d, GenericDigitSet) == generic
                exact = is_hadamard_triple(m, d, companions)
                residual = _numeric_hadamard_residual(m, d, companions)
                assert exact == (residual < 1e-9), (m, d, companions, residual)
                tested_true += exact
                tested_false += not exact


def test_mixed_period_system_end_to_end():
    rep = validate(MIXED)
    assert rep.ok

    red = reduce_canonical(MIXED)
    rng = random.Random(19)
    for _ in range(40):
        xi = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = fourier(MIXED, xi, 1e-9).value
        b = fourier(red, xi, 1e-9).value
        assert abs(a - b) <= 2e-9

    tower = build_tower(MIXED)
    lam3 = enumerate_tower(tower, 3)
    assert len(lam3) == 64
    assert verify_orthogonality(MIXED, lam3).ok
    assert discrete_spectrum_oracle(MIXED, 2, enumerate_tower(tower, 2)).unitary


def test_zero_scan_agrees_with_long_products():
    """For small-denominator rationals the certified verdicts match the
    magnitude of a 60-level product: certified points are numerically tiny,
    uncertified points stay well away from zero."""
    systems = [
        MoranSystem.constant(I2, D0),
        MoranSystem.constant(Mat2(2, 2, 0, 2), D0),
        MIXED,
        MoranSystem(((Mat2.scalar(3), D0),), ((Mat2.scalar(4), D0),)),
    ]
    rng = random.Random(5)
    for sysm in systems:
        for _ in range(120):
            q = rng.choice([1, 2, 3, 4, 6])
            xi = (Fraction(rng.randint(-12, 12), q), Fraction(rng.randint(-12, 12), q))
            cert = fourier_zero_exact(sysm, xi)
            value = abs(fourier(sysm, (float(xi[0]), float(xi[1])), 1e-13).value)
            if cert is not None:
                assert cert.verify(sysm)
                assert value < 1e-10, (sysm, xi, value)
            else:
                assert value > 1e-6, (sysm, xi, value)


def test_even_determinant_regrouping_identity():
    """The alternating system (4I, 2*D0), (3I, D0) and the self-affine
    (12I, D0 + 6*D0) generate the same measure: level sets regroup pairwise
    (2*D0/4 + D0/12 = (D0 + 6*D0)/12 and so on).  Both the transforms and
    the exact zero certificates must agree."""
    from moranspectra.digitsets import GenericDigitSet, sum_set

    two_d0 = GenericDigitSet(tuple((2 * x, 2 * y) for x, y in D0.points()))
    six_d0 = GenericDigitSet(tuple((6 * x, 6 * y) for x, y in D0.points()))
    alternating = MoranSystem(
        (), ((Mat2.scalar(4), two_d0), (Mat2.scalar(3), D0))
    )
    regrouped = MoranSystem.constant(Mat2.scalar(12), sum_set(D0, six_d0))
    assert validate(alternating).ok and validate(regrouped).ok

    rng = random.Random(13)
    for _ in range(50):
        xi = (rng.uniform(-6, 6), rng.uniform(-6, 6))
        a = fourier(alternating, xi, 1e-9).value
        b = fourier(regrouped, xi, 1e-9).value
        assert abs(a - b) <= 2e-9, xi

    for xi in [(3, 0), (0, 3), (3, 3), (6, 0), (Fraction(3, 2), 0)]:
        ca = fourier_zero_exact(alternating, xi)
        cb = fourier_zero_exact(regrouped, xi)
        assert (ca is None) == (cb is None), xi
        if ca is not None:
            assert ca.verify(alternating) and cb.verify(regrouped)
    assert fourier_zero_exact(alternating, (3, 0)) is not None
    assert fourier_zero_exact(regrouped, (Fraction(1, 5), 0)) is None
    assert fourier_zero_exact(alternating, (Fraction(1, 5), 0)) is None


def test_lattice_completeness_sum_against_mpmath_product():
    """Q_8(0.3, 0.7) for the constant (2I, D0) system against a 30-digit
    product over Z^2 cap [-8, 8]^2, built without the package: each transform
    is prod_{j <= 100} m_D0(2^-j (xi + lambda)), whose omitted tail is below
    2 pi sqrt(2) ||xi + lambda|| 2^-100 < 1e-27."""
    mp = pytest.importorskip("mpmath")

    sysm = MoranSystem.constant(I2, D0)
    pts = build_lattice_spectrum(sysm, 8)
    grid = [(i, j) for i in range(-8, 9) for j in range(-8, 9)]
    assert sorted(pts) == grid
    with mp.workdps(30):
        total = mp.mpf(0)
        for i, j in grid:
            x, y = mp.mpf("0.3") + i, mp.mpf("0.7") + j
            val = mp.mpc(1)
            for _ in range(100):
                x, y = x / 2, y / 2
                ex, ey = mp.expjpi(2 * x), mp.expjpi(2 * y)
                val *= (1 + ex + ey + 1 / (ex * ey)) / 4
            total += abs(val) ** 2
        oracle = float(total)
    q = completeness_sum(sysm, pts, (0.3, 0.7), 1e-8)
    assert abs(q - oracle) <= 1e-8, (q, oracle)


def _random_valid_system(rng):
    def matrix():
        while True:
            m = Mat2(*(rng.randint(-6, 6) for _ in range(4)))
            if is_expanding(m) and inverse_norm_below_one(m):
                return m

    def digits():
        while True:
            try:
                return StructuredDigitSet(
                    (rng.randint(-3, 3), rng.randint(-3, 3)),
                    (rng.randint(-3, 3), rng.randint(-3, 3)),
                )
            except ValueError:
                continue

    pre = tuple((matrix(), digits()) for _ in range(rng.randint(0, 2)))
    per = tuple((matrix(), digits()) for _ in range(rng.randint(1, 3)))
    return MoranSystem(pre, per)


def test_random_systems_reduction_and_certificates():
    """Randomized eventually periodic systems: the canonical reduction must
    preserve both the transform and the exact zero verdicts, even when the
    reduced matrices oscillate between contracting and expanding levels."""
    rng = random.Random(2024)
    for _ in range(60):
        sysm = _random_valid_system(rng)
        assert validate(sysm).ok
        red = reduce_canonical(sysm)
        xi = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert abs(fourier(sysm, xi, 1e-9).value - fourier(red, xi, 1e-9).value) <= 2e-9
        for _ in range(3):
            q = rng.choice([1, 2, 4])
            z = (Fraction(rng.randint(-10, 10), q), Fraction(rng.randint(-10, 10), q))
            cert = fourier_zero_exact(sysm, z)
            cert_red = fourier_zero_exact(red, z)
            assert (cert is None) == (cert_red is None), (sysm, z)
            if cert is not None:
                assert cert.verify(sysm) and cert_red.verify(red)


def test_validation_iota_close_to_certified_bound():
    from moranspectra.lattice import inverse_norm_upper

    rng = random.Random(31)
    for _ in range(200):
        m = Mat2(*(rng.randint(-9, 9) for _ in range(4)))
        if m.det() == 0:
            continue
        sig = np.linalg.svd(np.array(float_rows(m)), compute_uv=False)
        assert float(inverse_norm_upper(m)) == pytest.approx(1.0 / sig.min(), rel=1e-9)


# --- integer certification paths against Fraction references ---------------
#
# The references below walk pairs, orbits and inner products in plain
# Fraction arithmetic, one exact test per pair or level, with nothing shared
# with the integer paths in src/ except the certified norm bounds of
# `lattice`, `mask.zero_norm_floor` and the integer vanishing-sum kernels,
# reached through `over_common_denominator`, for generic digit sets and
# unit-root sums.


@functools.lru_cache(maxsize=None)
def _period_runs(sysm):
    """(L, runs): runs[phase][i] = operator_norm_upper of the run of i + 1
    period maps (M^*)^{-1} from that phase, for the unrolled length L, the
    first of r, 2r, 4r, ... at which every phase's full run contracts."""
    maps = [m.transpose().inverse() for m, _ in sysm.period]
    r = length = len(maps)
    while True:
        runs_by_phase = []
        for phase in range(r):
            acc, runs = Mat2.identity(), []
            for step in range(length):
                acc = maps[(phase + step) % r] * acc
                runs.append(operator_norm_upper(acc))
            runs_by_phase.append(runs)
        if all(runs[-1] < 1 for runs in runs_by_phase):
            return length, runs_by_phase
        assert length < 256 * r, "period inverse products do not contract"
        length *= 2


def _reference_zero_scan(sysm, xi):
    """Fraction orbit scan with the structured closed form written out; it
    stops once G ||eta|| is below every level's `zero_norm_floor`, G the
    largest run norm of the unrolled period."""
    growth_sq = max(max(runs) for runs in _period_runs(sysm)[1]) ** 2
    floor_sq = min(zero_norm_floor(d) ** 2 for _, d in sysm.distinct())
    eta = xi_frac = (Fraction(xi[0]), Fraction(xi[1]))
    j = 0
    while True:
        j += 1
        m, d = sysm.level(j)
        ex, ey = m.transpose().inverse().apply(eta)
        eta = (Fraction(ex), Fraction(ey))
        if isinstance(d, StructuredDigitSet):
            u = 2 * (d.alpha[0] * eta[0] + d.alpha[1] * eta[1])
            v = 2 * (d.beta[0] * eta[0] + d.beta[1] * eta[1])
            hit = u.denominator == 1 and v.denominator == 1 and (u % 2, v % 2) != (0, 0)
        else:
            (nx, ny), den = over_common_denominator(eta)
            hit = generic_zero_ints(d, nx, ny, den)
        if hit:
            return ZeroCertificate(level=j, witness=eta, xi=xi_frac)
        if j >= len(sysm.preperiod) and (eta[0] ** 2 + eta[1] ** 2) * growth_sq < floor_sq:
            return None


def _reference_orthogonality(sysm, points):
    """The pairwise Fraction walk: every pair in enumeration order, verdicts
    memoized on sign-canonical Fraction differences."""
    pts = [(Fraction(p[0]), Fraction(p[1])) for p in points]
    memo = {}
    pairs = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            pairs += 1
            diff = (pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
            key = diff if diff > (0, 0) else (-diff[0], -diff[1])
            if key not in memo:
                memo[key] = _reference_zero_scan(sysm, key) is not None
            if not memo[key]:
                return OrthogonalityResult(False, (pts[i], pts[j]), pairs, len(memo))
    return OrthogonalityResult(True, None, pairs, len(memo))


def _reference_atoms(sysm, n):
    """The level-n atoms sum_{j<=n} M_1^{-1}...M_j^{-1} d_j as Fractions."""
    atoms = [(Fraction(0), Fraction(0))]
    prefix = Mat2.identity()
    for j in range(1, n + 1):
        m, d = sysm.level(j)
        prefix = prefix * m.inverse()
        images = [prefix.apply(p) for p in d.points()]
        atoms = [(ax + ix, ay + iy) for ax, ay in atoms for ix, iy in images]
    return atoms


def _reference_oracle_exact(sysm, n, candidate):
    """Every off-diagonal inner product of the level-n atoms and the
    candidate, tested pair by pair as a Fraction root-of-unity sum."""
    atoms = _reference_atoms(sysm, n)
    pts = [(Fraction(x), Fraction(y)) for x, y in candidate]
    return all(
        unity_sum_is_zero_ints(*over_common_denominator(
            ax * (pi[0] - pj[0]) + ay * (pi[1] - pj[1]) for ax, ay in atoms))
        for i, pi in enumerate(pts)
        for pj in pts[i + 1:]
    )


def _reference_oracle_residual(sysm, n, candidate):
    """The largest off-diagonal |H*H| entry of the dense normalized
    exponential matrix H between the level-n atoms and the candidate."""
    a = np.array([[float(x), float(y)] for x, y in _reference_atoms(sysm, n)])
    lam = np.array([[float(x), float(y)] for x, y in candidate])
    h = np.exp(2j * np.pi * (a @ lam.T)) / math.sqrt(len(a))
    gram = np.abs(h.conj().T @ h)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


SUM16 = sum_set(D0, GenericDigitSet(tuple((6 * x, 6 * y) for x, y in D0.points())))
CROSS_SYSTEMS = {
    "2I": MoranSystem.constant(I2, D0),
    "4I": MoranSystem.constant(Mat2.scalar(4), D0),
    "shear": MoranSystem.constant(Mat2(2, 2, 0, 2), D0),
    "4224": MoranSystem.constant(Mat2(4, 2, 2, 4), D0),
    "9to3": MoranSystem(((I2, scaled_canonical(9)),), ((I2, scaled_canonical(3)),)),
    "mixed": MIXED,
}
UNIMODULAR = (Mat2(1, 1, 0, 1), Mat2(2, 1, 1, 1), Mat2(0, -1, 1, 0))
# The systems of the certify benchmark; its conjugators are UNIMODULAR[:2].
CERTIFY = ("2I", "4I", "shear", "4224", "9to3")


def _planted(rng, points, denominators=range(3, 20)):
    """The points in a shuffled order with one or two of them shifted by a
    vector whose denominators are drawn from `denominators`."""
    pts = list(points)
    rng.shuffle(pts)
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(pts))
        shift = (Fraction(rng.randint(-9, 9), rng.choice(denominators)),
                 Fraction(rng.randint(-9, 9), rng.choice(denominators)))
        pts[i] = (pts[i][0] + shift[0], pts[i][1] + shift[1])
    return pts


BIG = 2**64
# (system, points, pairs_checked, ok): edge cases of the difference walk,
# each against the reference; the count pins where a failure falls.
EDGE_WALKS = {
    "empty": ("2I", [], 0, True),
    "single": ("2I", [(Fraction(1, 3), -2)], 0, True),
    "negative and zero y": ("2I", [(0, 0), (1, -1), (-1, 0), (0, -2), (2, 0), (-3, -5)], 15, True),
    # z_j + z_k = 2 z_i: the two differences of row 0 are one key.
    "symmetric triple": ("2I", [(1, 1), (2, 1), (0, 1), (5, -3)], 6, True),
    "numerators past 2^63": ("2I", [(BIG, -BIG), (BIG + 1, -BIG), (-BIG, BIG + 3), (0, 5 * BIG)], 6, True),
    "denominator past 2^63": ("2I", [(0, 0), (1, 0), (Fraction(1, 3**45), BIG), (2, 2)], 2, False),
    "fails at first pair": ("2I", [(0, 0), (Fraction(1, 3), 0), (1, 0), (0, 1)], 1, False),
    # 4I: (2,0) is a zero and (4,0) is not, so only the last pair fails; row
    # 0 is a symmetric triple.
    "fails at last pair": ("4I", [(0, 0), (2, 0), (-2, 0)], 3, False),
}


def test_orthogonality_matches_fraction_pair_walk():
    """All four fields of OrthogonalityResult, failing pair and counts at the
    failure included, on conjugated towers with planted rational shifts, a
    lattice, and the edge cases of EDGE_WALKS."""
    rng = random.Random(303)
    outcomes = set()
    for name, base in CROSS_SYSTEMS.items():
        for q in UNIMODULAR:
            sysm = conjugate_system(base, q)
            tower = enumerate_tower(build_tower(sysm), 3)
            cases = [tower] + [_planted(rng, tower) for _ in range(3)]
            for pts in cases:
                if len(set(pts)) != len(pts):
                    continue
                got = verify_orthogonality(sysm, pts)
                assert got == _reference_orthogonality(sysm, pts), (name, q)
                outcomes.add(got.ok)
    lattice = build_lattice_spectrum(CROSS_SYSTEMS["2I"], 3)
    for pts in (lattice, _planted(rng, lattice)):
        got = verify_orthogonality(CROSS_SYSTEMS["2I"], pts)
        assert got == _reference_orthogonality(CROSS_SYSTEMS["2I"], pts)
        outcomes.add(got.ok)
    assert outcomes == {True, False}
    # Depth-4 towers shifted at the first, middle and last point.  The 2I
    # and 9to3 sets stay under the bitset's guard, so their failure is met
    # in the bitset pass and reported by the ordered walk after it.
    routes = set()
    for name in CERTIFY:
        for q, shift in zip(UNIMODULAR, ((Fraction(1, 11), 0), (0, Fraction(1, 13)))):
            sysm = conjugate_system(CROSS_SYSTEMS[name], q)
            tower = enumerate_tower(build_tower(sysm), 4)
            for i in (0, len(tower) // 2, len(tower) - 1):
                pts = list(tower)
                pts[i] = (pts[i][0] + shift[0], pts[i][1] + shift[1])
                got = verify_orthogonality(sysm, pts)
                assert not got.ok and got == _reference_orthogonality(sysm, pts), (name, q, i)
                routes.add(difference_set(digit_expansion([pts])[0]) is not None)
    assert routes == {True, False}
    for name, (sys_name, pts, pairs, ok) in EDGE_WALKS.items():
        sysm = CROSS_SYSTEMS[sys_name]
        got = verify_orthogonality(sysm, pts)
        assert got == _reference_orthogonality(sysm, pts), name
        assert (got.pairs_checked, got.ok) == (pairs, ok), name
    # No pair, no zero scan: even a system the scan rejects passes.
    assert verify_orthogonality(MoranSystem.constant(Mat2(2, 1, 1, 2), D0), [(0, 0)]).ok


def test_difference_set_path():
    """Every certify tower (depth 4, both conjugators) and the box-8 and
    box-32 lattices take the bitset, which holds the walk's differences.
    The [[4,2],[2,4]] depth-5 tower (42,513 bits per point) and the EDGE_WALKS
    numerators past 2^63 are refused before any bitset is built."""
    for name in CERTIFY:
        for q in UNIMODULAR[:2]:
            tower = enumerate_tower(build_tower(conjugate_system(CROSS_SYSTEMS[name], q)), 4)
            ints = digit_expansion([tower])[0]
            walk = sorted((dx, dy) for _, dx, dy in distinct_differences(ints))
            assert sorted(zip(*difference_set(ints))) == walk, (name, q)
    for box, count in ((8, 544), (32, 8320)):
        ints = digit_expansion([build_lattice_spectrum(CROSS_SYSTEMS["2I"], box)])[0]
        assert len(difference_set(ints)[0]) == count
    sparse = (enumerate_tower(build_tower(CROSS_SYSTEMS["4224"]), 5),
              EDGE_WALKS["numerators past 2^63"][1])
    for pts in sparse:
        ints = digit_expansion([pts])[0]
        tracemalloc.start()
        try:
            assert difference_set(ints) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18  # the depth-5 bitset alone would be 5.4 MB


# The certify towers under both conjugators, and a reduced system whose
# level-1 matrix (2/9) I has Fraction entries.
PREFIX_SYSTEMS = [conjugate_system(CROSS_SYSTEMS[name], q)
                  for name in CERTIFY for q in UNIMODULAR[:2]]
PREFIX_SYSTEMS.append(reduce_canonical(CROSS_SYSTEMS["9to3"]))


def test_tower_equals_companion_sums():
    """`enumerate_tower` sums the integer images M_1^* ... M_j^* F_2 and
    halves once; the reference is the construction itself, the sums
    sum_j A_j l_j over the companions l_j in L_j = (1/2) M_j^* F_2 with
    A_j = M_1^* ... M_{j-1}^*, in Fractions, first level slowest."""
    assert not PREFIX_SYSTEMS[-1].preperiod[0][0].is_integral()
    for sysm in PREFIX_SYSTEMS:
        tower = build_tower(sysm)
        for k in (1, 2, 3, 4):
            sums, a = [(Fraction(0), Fraction(0))], Mat2.identity()
            for j in range(1, k + 1):
                sums = [(x + lx, y + ly) for x, y in sums for lx, ly in map(a.apply, tower.companions(j))]
                a = a * sysm.level(j)[0].transpose()
            got = enumerate_tower(tower, k)
            assert got == sums, (sysm, k)
            assert all(type(c) is Fraction for p in got for c in p)


def test_attractor_stages_equal_prefix_loop():
    """The stage images M_1^{-1} ... M_j^{-1} D_j, against the prefix
    product written out level by level."""
    for sysm in PREFIX_SYSTEMS + [reduce_canonical(MIXED)]:
        for k in (1, 2, 3, 4):
            prefix, stages = Mat2.identity(), []
            for n in range(1, k + 1):
                m, d = sysm.level(n)
                prefix = prefix * m.inverse()
                stages.append([prefix.apply(p) for p in d.points()])
            assert attractor_stages(sysm, k) == stages, (sysm, k)


def _first_appearances(points):
    """Sign-canonical differences in order of first appearance along the
    pair walk."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    seen = {}
    for i, (xi, yi) in enumerate(pts):
        for xj, yj in pts[i + 1:]:
            d = (xi - xj, yi - yj)
            seen.setdefault(d if d > (0, 0) else (-d[0], -d[1]))
    return list(seen)


def test_orthogonality_scans_each_difference_once_in_order(monkeypatch):
    """No distinct difference is zero-scanned twice.  A set the bitset takes
    is scanned as one block that holds each distinct difference once,
    whether it is orthogonal or not: a failing one then looks the pair
    walk's differences up among that block's failures and scans nothing
    more.  A set over the guard scans the walk's differences in blocks of
    1, 2, 4, ..., which concatenate to the walk's order and end with the
    block that holds the first failure."""
    blocks = []

    def spy(ana, xs, ys, den):
        blocks.append([(Fraction(x, den), Fraction(y, den)) for x, y in zip(xs, ys)])
        return moran._zero_scan(ana, xs, ys, den)

    monkeypatch.setattr(spectra, "_zero_scan", spy)
    rng = random.Random(505)
    shear = CROSS_SYSTEMS["shear"]
    tower = enumerate_tower(build_tower(shear), 3)
    cases = [(shear, tower), *((shear, _planted(rng, tower)) for _ in range(4))]
    tower_2i = enumerate_tower(build_tower(CROSS_SYSTEMS["2I"]), 3)
    for i in (0, 40):  # shifted by 1/11, the set stays under the guard
        pts = list(tower_2i)
        pts[i] = (pts[i][0] + Fraction(1, 11), pts[i][1])
        cases.append((CROSS_SYSTEMS["2I"], pts))
    cases += [(CROSS_SYSTEMS[name], pts) for name, pts, _, _ in EDGE_WALKS.values()]
    failures = {True: 0, False: 0}  # by whether the bitset was taken
    for sysm, pts in cases:
        if len(set(pts)) != len(pts):
            continue
        blocks.clear()
        got = verify_orthogonality(sysm, pts)
        order = _first_appearances(pts)
        scanned = [d for block in blocks for d in block]
        if not order:
            assert blocks == []
            continue
        dense = difference_set(digit_expansion([pts])[0]) is not None
        if dense:
            assert len(blocks) == 1 and sorted(scanned) == sorted(order)
        else:
            assert all(len(block) == 2**k for k, block in enumerate(blocks[:-1]))
            assert 0 < len(blocks[-1]) <= 2 ** (len(blocks) - 1)
            assert scanned == order[:len(scanned)]
        if got.ok:
            assert got.distinct_differences == len(order) == len(scanned)
            continue
        failures[dense] += 1
        met = order[:got.distinct_differences]
        assert fourier_zero_exact(sysm, met[-1]) is None
        assert all(fourier_zero_exact(sysm, d) is not None for d in met[:-1])
        if not dense:
            assert len(scanned) - len(blocks[-1]) < len(met) <= len(scanned)
    assert failures[True] >= 2 and failures[False] >= 3


def test_zero_certificates_match_fraction_scan():
    """Identical ZeroCertificates (or None) on a preperiodic structured
    system, its canonical reduction (rational matrices) and the generic
    16-point sumset; a generic denominator past 100,000, once refused for
    the dense Phi_q test, is decided at once on both routes."""
    systems = {
        "mixed": MIXED,
        "mixed reduced": reduce_canonical(MIXED),
        "sum16": MoranSystem.constant(Mat2.scalar(12), SUM16),
    }
    assert not reduce_canonical(MIXED).preperiod[0][0].is_integral()
    rng = random.Random(404)
    certified = 0

    def outcome(scan, sysm, xi):
        try:
            return scan(sysm, xi)
        except ValueError as exc:
            return ("ValueError", str(exc))

    for name, sysm in systems.items():
        for _ in range(150):
            q = rng.choice([1, 2, 3, 4, 5, 6, 8, 12, 24])
            xi = (Fraction(rng.randint(-60, 60), q), Fraction(rng.randint(-60, 60), q))
            got = outcome(fourier_zero_exact, sysm, xi)
            assert got == outcome(_reference_zero_scan, sysm, xi), (name, xi)
            certified += isinstance(got, ZeroCertificate)
        for xi in [(0, 0), (1, 1), (0.5, 3), (Fraction(1, 3), -2)]:
            assert fourier_zero_exact(sysm, xi) == _reference_zero_scan(sysm, xi), (name, xi)
    assert certified > 50
    big = (Fraction(1, 100_003), Fraction(0))
    sum16 = systems["sum16"]
    start = time.perf_counter()
    assert fourier_zero_exact(sum16, big) is None
    assert time.perf_counter() - start < 0.1
    start = time.perf_counter()
    assert _reference_zero_scan(sum16, big) is None
    assert time.perf_counter() - start < 0.1


ZERO_SCAN_SYSTEMS = {
    "mixed": MIXED,
    "mixed reduced": reduce_canonical(MIXED),
    "sum16": MoranSystem.constant(Mat2.scalar(12), SUM16),
    "shear": CROSS_SYSTEMS["shear"],
}


@settings(max_examples=120)
@seed(2525)
@example("mixed", [], 3, 2)
@example("mixed reduced", [(3, -6)], 4, 6)
@example("sum16", [(0, 0), (1, 0), (6, 6), (-60, 12), (1, 7)], 12, 35)
@given(
    st.sampled_from(sorted(ZERO_SCAN_SYSTEMS)),
    st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)), max_size=12),
    st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 24]),
    st.integers(1, 36),
)
def test_block_zero_scan_matches_fraction_scan(name, block, den, k):
    """Each point (x, y) / den of a block over one shared denominator gets
    the level and witness of the Fraction scan of that point alone, or None
    where that scan finds none; so does the block of its first point, and
    the empty block gets no entry.  The block scaled by k, (k x, k y) /
    (k den), gets the same levels, witnesses and Nones: the scan's tests do
    not depend on how a point is scaled."""
    sysm = ZERO_SCAN_SYSTEMS[name]
    ana = moran._analysis(sysm)

    def scan(points, k=1):
        hits = moran._zero_scan(ana, [k * x for x, _ in points], [k * y for _, y in points], k * den)
        assert len(hits) == len(points)
        return [hit and (hit[0], (Fraction(hit[1], hit[3]), Fraction(hit[2], hit[3]))) for hit in hits]

    got = scan(block)
    for (x, y), hit in zip(block, got):
        ref = _reference_zero_scan(sysm, (Fraction(x, den), Fraction(y, den)))
        assert hit == (ref and (ref.level, ref.witness)), (name, x, y, den)
    assert scan(block[:1]) == got[:1]
    assert scan(block, k) == got, (name, k)


def test_oracle_matches_per_pair_unity_sums():
    """The oracle's verdict equals a pair-by-pair Fraction check on towers,
    translated towers and towers with planted shifts; its float residual
    is small wherever the exact check passes and equals the dense
    off-diagonal max of |H*H| to rounding."""
    rng = random.Random(505)
    outcomes = set()
    for name, base in CROSS_SYSTEMS.items():
        for level in (1, 2):
            tower = enumerate_tower(build_tower(base), level)
            t = (Fraction(rng.randint(-5, 5), 3), Fraction(1, 3))
            translated = [(x + t[0], y + t[1]) for x, y in tower]
            for pts in (tower, translated, _planted(rng, tower, (3, 5))):
                rep = discrete_spectrum_oracle(base, level, pts)
                assert rep.unitary == _reference_oracle_exact(base, level, pts), (name, level)
                assert rep.residual < 1e-10 or not rep.unitary
                dense = _reference_oracle_residual(base, level, pts)
                assert abs(rep.residual - dense) < 1e-13, (name, level)
                outcomes.add(rep.unitary)
    assert outcomes == {True, False}
    # One vanishing test fails among many: (6, 0) repeats the residue of
    # (2, 0) modulo 4 Z^2, the dual period of the level-2 atoms of (2I, D0).
    sysm = CROSS_SYSTEMS["2I"]
    grid = [(x, y) for x in range(4) for y in range(4)]
    assert discrete_spectrum_oracle(sysm, 2, [(4, 4)] + grid[1:]).unitary
    lone = [(6, 0)] + grid[1:]
    assert not _reference_oracle_exact(sysm, 2, lone)
    assert not discrete_spectrum_oracle(sysm, 2, lone).unitary


def test_stage_counts_equal_flat_atom_counts():
    """The oracle's residue counts, merged mod q stage by stage, equal the
    counts over the flat atoms of `digit_expansion` at levels 1-4, for integer
    and rational matrices and a translated digit set without 0; so do the
    packed counts, decoded, both where the oracle packs them and past its
    bit bound (the 4224 stages over 216 q' at level 3, for one)."""
    translated = GenericDigitSet(tuple((x + 3, y - 2) for x, y in D0.points()))
    systems = {name: CROSS_SYSTEMS[name] for name in ("2I", "shear", "4224", "9to3")}
    systems["mixed reduced"] = reduce_canonical(MIXED)
    systems["translated"] = MoranSystem.constant(I2, translated)
    assert not systems["mixed reduced"].preperiod[0][0].is_integral()
    rng = random.Random(707)
    packed = set()
    for name, sysm in systems.items():
        for level in (1, 2, 3, 4):
            stages, qs = stage_numerators(attractor_stages(sysm, level))
            atoms, qa = digit_expansion(attractor_stages(sysm, level))
            w = next(w for w in spectra._SLOT_FORMATS if w > len(atoms).bit_length())
            for ql in (1, 3, 10):
                q = qs * ql
                packed.add(w * q <= spectra._PACKED_BITS_PER_ATOM * len(atoms))
                for _ in range(10):
                    dx, dy = rng.randint(-50, 50), rng.randint(-50, 50)
                    flat = Counter((ax * dx + ay * dy) * (qs // qa) % q for ax, ay in atoms)
                    assert _residue_counts(stages, dx, dy, q) == flat, (name, level, ql, dx, dy)
                    counts = spectra._unpacked(spectra._packed_counts(stages, dx, dy, q, w), q, w)
                    assert counts == flat, (name, level, ql, dx, dy)
    assert packed == {True, False}


# --- the float evaluator against its earlier scalar loop and mpmath ----------


def _reference_fourier(sysm, xi, eps, computed_orbit=True):
    """The scalar loop `fourier` ran before its float level table, kept as a
    reference: per-level float (M^*)^{-1} and ||M^{-1}|| bounds taken from the
    system's exact matrices, the anchor recursion written out, and
    `eval_mask` for every factor.  Exact points are not short-circuited.

    The truncation rule is restated from the exact data: the run norms of
    the unrolled period (`_period_runs`), the digits' mean and Gershgorin
    covariance bound, and the rounding and orbit error constants of
    `moran._rounding_constants`.  The tail beyond an anchor with orbit
    bound B is 2 pi ||mean d|| B S / (1 - K) + 2 pi^2 lambda B^2 S_2 /
    (1 - K^2).  The rule is tested at every anchor, with no screen.  At
    an anchor the orbit bound is the smaller of the a priori bound and the
    computed ||eta|| plus the orbit error, the latter only while 2^-900 <
    x^2 + y^2 < inf; with computed_orbit=False it is the a priori bound
    alone, the rule `fourier` used before it read the computed orbit."""
    u = 2.0**-53
    length, runs_by_phase = _period_runs(sysm)
    p = len(sysm.preperiod)
    inv = {m: float_rows(m.transpose().inverse()) for m in sysm.matrices()}
    runs = runs_by_phase[0]
    contraction, growth = runs[-1], max(max(r) for r in runs_by_phase)
    geo1 = float(sum(runs)) / float(1 - contraction)
    geo2 = float(sum(r * r for r in runs)) / float(1 - contraction * contraction)
    digit_sets = [d.points() for _, d in sysm.distinct()]
    gamma = float(max(sqrt_upper(max(x * x + y * y for x, y in pts)) for pts in digit_sets))
    mean_sq = max(Fraction(sum(x for x, _ in pts) ** 2 + sum(y for _, y in pts) ** 2,
                           len(pts) ** 2) for pts in digit_sets)
    cov = max(Fraction(max(sum(x * x for x, _ in pts), sum(y * y for _, y in pts))
                       + abs(sum(x * y for x, y in pts)), len(pts)) for pts in digit_sets)
    linear = 2.0 * math.pi * math.sqrt(float(mean_sq)) * geo1
    quadratic = 2.0 * math.pi**2 * float(cov) * geo2
    pre_growth = [float(inverse_norm_upper(m)) * (1.0 + 1e-12) for m, _ in sysm.preperiod]
    nu = runs_bound = 1.0 + geo1
    for g in reversed(pre_growth):
        nu = 1.0 + g * nu
        runs_bound = max(runs_bound, nu)
    runs_bound = max(runs_bound, 1.0 + float(growth) * (length - 1 + geo1))
    alpha = max(max(abs(a) + abs(b), abs(c) + abs(e), abs(a) + abs(c), abs(b) + abs(e))
                for (a, b), (c, e) in inv.values())
    rho = 3.0 * u * alpha * (1.0 + 1e-9)
    orbit = runs_bound * (u * (1.0 + rho) + rho * nu) / (1.0 - runs_bound * rho)
    per_level = (6.0 + 2.0 + math.sqrt(2.0) * (max(map(len, digit_sets)) + 1)) * u
    margin = (1.0 + 1e-6) * math.exp(2 * moran.MAX_SCAN_LEVELS * per_level)
    per_norm = margin * (2.0 * math.pi * gamma * (5.0 * u * (nu + orbit) + orbit))
    per_level = margin * per_level

    def factor(j, x, y):
        m, d = sysm.level(j)
        (a, b), (c, e) = inv[m]
        x, y = a * x + b * y, c * x + e * y
        return x, y, eval_mask(d, (x, y))

    x, y = float(xi[0]), float(xi[1])
    norm = math.hypot(x, y)
    bound = norm * (1.0 + 1e-12)
    for g in pre_growth:
        bound *= g
    # The first anchor whose tail plus rounding is <= eps, or, once the
    # rounding alone reaches eps, the first anchor whose tail is <= eps.
    j, level, value, fallback = p, 0, complex(1.0), None
    while True:
        while level < j:
            level += 1
            x, y, f = factor(level, x, y)
            value *= f
        orbit_bound, sq = bound, x * x + y * y
        if computed_orbit and 2.0**-900 < sq < math.inf:
            orbit_bound = min(bound, (math.sqrt(sq) + orbit * norm) * (1.0 + 1e-12))
        tail = (linear + quadratic * orbit_bound) * orbit_bound
        if tail <= eps:
            rounding = per_norm * norm + per_level * j
            cut = FourierResult(value, tail + rounding, j, rounding)
            fallback = fallback or cut
            if tail + rounding <= eps:
                return cut
            if rounding >= eps:
                return fallback
        j += length
        bound *= float(contraction) * (1.0 + 1e-12)


FOURIER_SYSTEMS = {
    "2I": MoranSystem.constant(I2, D0),
    "shear": MoranSystem.constant(Mat2(2, 2, 0, 2), D0),
    "rot3": MoranSystem.constant(Mat2(0, -2, 2, 0), scaled_canonical(3)),
    "9to3": CROSS_SYSTEMS["9to3"],
    "sum16": MoranSystem.constant(I2, SUM16),
    "mixed reduced": reduce_canonical(MIXED),
    # no zero digit in front: the mask sum starts from 0j
    "generic": MoranSystem.constant(Mat2(0, 2, -2, 0), GenericDigitSet(((1, 0), (0, 0), (0, 1)))),
}
FOURIER_EPS = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14)


def _float_points(rng, count):
    out = []
    for _ in range(count):
        r = rng.choice([1e-3, 1.0, 8.0, 60.0, 1e4])
        out.append((rng.uniform(-r, r), rng.uniform(-r, r)))
    return out


def test_fourier_equals_reference_loop():
    """`fourier` returns results == the reference loop's (value, bound and
    levels bit for bit) on random float points and on exact points; exact
    points in the zero set return 0 at their certificate's level."""
    assert not reduce_canonical(MIXED).preperiod[0][0].is_integral()
    rng = random.Random(606)
    exact = [(0, 0), (Fraction(1, 3), 2), (Fraction(1, 2), Fraction(-5, 7))]
    zeros = 0
    for name, sysm in FOURIER_SYSTEMS.items():
        for eps in FOURIER_EPS:
            for xi in _float_points(rng, 25) + [(0.0, 0.0), (-0.0, 2.5)] + exact:
                cert = fourier_zero_exact(sysm, xi) if isinstance(xi[0], (int, Fraction)) else None
                if cert is None:
                    ref = _reference_fourier(sysm, xi, eps)
                else:
                    ref, zeros = FourierResult(0j, 0.0, cert.level), zeros + 1
                assert fourier(sysm, xi, eps) == ref, (name, eps, xi)
    assert 0 < zeros < len(FOURIER_SYSTEMS) * len(FOURIER_EPS) * len(exact)


@settings(max_examples=300)
@seed(2121)
@given(
    st.sampled_from(sorted(FOURIER_SYSTEMS)),
    st.sampled_from(FOURIER_EPS),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.sampled_from([1e-300, 1e-3, 1.0, 8.0, 60.0, 1e4]),
)
def test_computed_orbit_cut_is_never_later(name, eps, ux, uy, scale):
    """The cut with the computed orbit is the unscreened rule's (the
    reference loop tests it at every anchor), never later than the a priori
    product rule's, and keeps a bound <= eps wherever that rule had one."""
    sysm, xi = FOURIER_SYSTEMS[name], (ux * scale, uy * scale)
    got = fourier(sysm, xi, eps)
    assert got == _reference_fourier(sysm, xi, eps)
    before = _reference_fourier(sysm, xi, eps, computed_orbit=False)
    assert got.levels <= before.levels
    assert got.bound <= eps or before.bound > eps


def test_computed_orbit_cut_on_the_shear():
    """The shear [[2, 2], [0, 2]] has K = 0.809 but ||(M^*)^{-k}|| ~ k 2^-k:
    at (0.3, 0.7) and eps 1e-6 the computed orbit stops the product at 15
    levels, where the a priori bound alone needs 40.  The bound still covers
    the 40-digit product, for the shear and the mixed reduced system at
    near, far and tiny points."""
    pytest.importorskip("mpmath")
    shear = FOURIER_SYSTEMS["shear"]
    res = fourier(shear, (0.3, 0.7), 1e-6)
    assert res.levels == 15 and res.bound <= 1e-6
    assert _reference_fourier(shear, (0.3, 0.7), 1e-6, computed_orbit=False).levels == 40
    points = [(0.3, 0.7), (-2.5, 1.25), (1e4, -7e3), (-3e3, 1e4), (1e-300, 0.0), (-1e-300, 1e-300)]
    for name in ("shear", "mixed reduced"):
        sysm = FOURIER_SYSTEMS[name]
        for eps in (1e-6, 1e-12):
            for xi, res in zip(points, fourier_many(sysm, points, eps)):
                err = float(abs(_mp_fourier(sysm, xi, res.levels + 80) - res.value))
                assert err <= res.bound, (name, eps, xi, err, res.bound)


def _cut(res):
    return res.levels, res.bound, res.rounding


# A large shear: the bound on its orbit rounding diverges (runs * rho >= 1/2).
UNCONTROLLED = MoranSystem.constant(Mat2(2, 10**6, 0, 2), D0)


@pytest.mark.parametrize("count", [0, 1, FOURIER_BLOCK, FOURIER_BLOCK + 1, 700])
def test_fourier_many_matches_fourier(count):
    """One result per point, in order, with the levels, bound and rounding
    of `fourier` and a value within 1e-14 of it, for block-sized and ragged
    inputs; far points in a block run longer than the others.  The edge
    points are the origin, a tiny point and one whose squares overflow; at
    eps 1e-15 the far points take the fallback, their rounding alone above
    eps.  On a system without rounding control every bound is inf but the
    origin's, whose orbit is exact."""
    rng = random.Random(707 + count)
    far = [(1e4, -3e3), (-2e3, -9e3), (1e200, 1e200)]
    for name, sysm in FOURIER_SYSTEMS.items():
        points = _float_points(rng, count) + [(0.0, 0.0), (1e-300, 0.0)] + far
        for eps in (1e-6, 1e-13, 1e-15):
            got = list(fourier_many(sysm, iter(points), eps))
            assert len(got) == len(points)
            for xi, res in zip(points, got):
                ref = fourier(sysm, xi, eps)
                assert _cut(res) == _cut(ref), (name, eps, xi)
                assert abs(res.value - ref.value) <= 1e-14, (name, eps, xi)
            if eps == 1e-15:
                assert all(res.rounding >= eps for res in got[-len(far):]), name
    assert moran._analysis(UNCONTROLLED).orbit == math.inf
    points = [(0.0, 0.0), (0.3, 0.7), (1e-300, 0.0), (-40.0, 2.0)]
    got = list(fourier_many(UNCONTROLLED, points, 1e-8))
    assert [_cut(res) for res in got] == [_cut(fourier(UNCONTROLLED, xi, 1e-8)) for xi in points]
    assert got[0].value == 1 and got[0].bound <= 1e-8
    assert all(res.bound == math.inf for res in got[1:])


@pytest.mark.parametrize("eps", [1e300, 1e308, sys.float_info.max, math.inf])
def test_fourier_at_huge_eps(eps):
    """Where 4 q eps overflowed, the tail screen read 0 (NaN at eps = inf),
    no anchor passed it, and every product ran to the level cap.  Each
    point now stops at the first anchor, the preperiod's end, as in the
    unscreened reference loop, in `fourier` and `fourier_many` alike."""
    rng = random.Random(2525)
    for name, sysm in FOURIER_SYSTEMS.items():
        points = _float_points(rng, 8) + [(0.0, 0.0), (1e-300, 0.0)]
        for xi, res in zip(points, fourier_many(sysm, points, eps)):
            ref = _reference_fourier(sysm, xi, eps)
            assert fourier(sysm, xi, eps) == ref, (name, xi)
            assert _cut(res) == _cut(ref) and abs(res.value - ref.value) <= 1e-14, (name, xi)
            assert ref.levels == len(sysm.preperiod)


@pytest.mark.parametrize(
    "sysm, xi",
    [
        (FOURIER_SYSTEMS["2I"], (1e308, 1e308)),
        (FOURIER_SYSTEMS["2I"], (-1e308, 5.0)),
        (MoranSystem.constant(I2, scaled_canonical(3)), (1e307, 1e307)),
    ],
)
def test_fourier_refuses_overflowing_phases(sysm, xi):
    """At a finite point whose phases overflow, `fourier` raised `math
    domain error` and `fourier_many` returned NaN with a finite bound and
    numpy warnings.  Both now raise the same ValueError, naming the point,
    from a check made once per point; far points below it are unchanged."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too large") as scalar:
            fourier(sysm, xi, 1e-8)
        with pytest.raises(ValueError, match="too large") as block:
            list(fourier_many(sysm, [(0.3, 0.7), xi], 1e-8))
        assert str(scalar.value) == str(block.value) == (
            f"point ({xi[0]!r}, {xi[1]!r}) is too large: its phases would overflow a float")
        far = (1e200, 1e200)
        assert _cut(next(fourier_many(sysm, [far], 1e-8))) == _cut(fourier(sysm, far, 1e-8))


def test_fourier_rejects_non_finite_points():
    sysm = FOURIER_SYSTEMS["2I"]
    for xi in [(math.inf, 0.0), (0.5, -math.inf), (math.nan, 1.0), (1e400, 0)]:
        with pytest.raises(ValueError, match="non-finite"):
            fourier(sysm, xi, 1e-8)
        with pytest.raises(ValueError, match="non-finite"):
            list(fourier_many(sysm, [(0.1, 0.2), xi], 1e-8))
    with pytest.raises(ValueError, match="too large"):
        fourier(sysm, (Fraction(10**400, 3), 1), 1e-8)
    with pytest.raises(ValueError, match="positive"):
        fourier_many(sysm, [], 0.0)


def _mp_fourier(sysm, xi, levels):
    """40-digit product of the first `levels` mask factors at the exact
    binary value of the float point xi, from the system's exact matrices."""
    import mpmath

    with mpmath.workdps(40):
        x, y = mpmath.mpf(xi[0]), mpmath.mpf(xi[1])
        value = mpmath.mpc(1)
        for n in range(1, levels + 1):
            m, digits = sysm.level(n)
            a, b, c, d = (mpmath.mpf(Fraction(e).numerator) / Fraction(e).denominator
                          for e in m.entries())
            det = a * d - b * c
            x, y = (d * x - c * y) / det, (-b * x + a * y) / det
            terms = (mpmath.expjpi(2 * (dx * x + dy * y)) for dx, dy in digits.points())
            value *= mpmath.fsum(terms) / len(digits)
        return value


def test_fourier_many_within_bound_of_mpmath():
    """|fourier_many - exact product| <= bound on sampled points, from eps
    1e-4 down to 1e-14, where float rounding dominates the bound at the far
    points, and at small points along the top eigenvector of the digit
    covariance, where the second-order tail is tight.  The reference runs 80
    levels past J, where its own tail is negligible."""
    pytest.importorskip("mpmath")
    rng = random.Random(808)
    for name, sysm in FOURIER_SYSTEMS.items():
        points = _float_points(rng, 3)
        for eps in FOURIER_EPS:
            for xi, res in zip(points, fourier_many(sysm, points, eps)):
                err = float(abs(_mp_fourier(sysm, xi, res.levels + 80) - res.value))
                assert err <= res.bound, (name, eps, xi, err, res.bound)
    small = [(1e-3, 1e-3), (1e-6, 1e-6)]
    for name in ("2I", "sum16"):
        sysm = FOURIER_SYSTEMS[name]
        for xi, res in zip(small, fourier_many(sysm, small, 1e-12)):
            err = float(abs(_mp_fourier(sysm, xi, res.levels + 80) - res.value))
            assert err <= res.bound <= 1e-12, (name, xi, err, res.bound)


def test_near_dirac_digit_sets_within_bound_of_mpmath():
    """Digit sets whose mean is nearly as long as their longest digit, where
    the second-order tail gains nothing on 2 pi max||d|| ||eta||: the one
    point (1, 0) and D0 + (30, 0).  Their bound still covers the 40-digit
    product from eps 0.5 down to 1e-12, and stays <= eps where rounding does
    not reach it."""
    pytest.importorskip("mpmath")
    shifted = GenericDigitSet(tuple((x + 30, y) for x, y in D0.points()))
    systems = [MoranSystem.constant(I2, GenericDigitSet(((1, 0),))),
               MoranSystem.constant(I2, shifted)]
    rng = random.Random(2323)
    points = _float_points(rng, 6) + [(0.3, 0.7), (-2.5, 1.25)]
    for sysm in systems:
        for eps in (0.5, 0.1, 1e-2, 1e-4, 1e-8, 1e-12):
            for xi, res in zip(points, fourier_many(sysm, points, eps)):
                err = float(abs(_mp_fourier(sysm, xi, res.levels + 80) - res.value))
                assert err <= res.bound, (sysm, eps, xi, err, res.bound)
                assert res.bound <= eps or res.rounding >= eps, (sysm, eps, xi)


def test_second_order_mask_bound_against_mpmath():
    """|1 - m_D(eta)| <= 2 pi ||mean d|| ||eta|| + 2 pi^2 lambda ||eta||^2
    with `_second_order`'s (||mean d||^2, lambda), at 40 digits, for every
    digit set of the Fourier systems, at small and large eta along the axes,
    the diagonals (D0's covariance eigenvectors) and random directions;
    lambda is 3/4 on D0."""
    mpmath = pytest.importorskip("mpmath")
    assert moran._second_order(D0) == (0.0, 0.75)
    rng = random.Random(909)
    digit_sets = {d for sysm in FOURIER_SYSTEMS.values() for _, d in sysm.distinct()}
    assert len(digit_sets) >= 5
    with mpmath.workdps(40):
        for digits in digit_sets:
            mean_sq, lam = moran._second_order(digits)
            pts = digits.points()
            directions = [(1, 1), (1, -1), (1, 0), (0, 1)]
            directions += [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)]
            for (ux, uy), r in itertools.product(directions, (1e-6, 1e-3, 0.05, 0.3, 2.0)):
                x = mpmath.mpf(ux) * r / mpmath.sqrt(ux * ux + uy * uy)
                y = mpmath.mpf(uy) * r / mpmath.sqrt(ux * ux + uy * uy)
                m = mpmath.fsum(mpmath.expjpi(2 * (dx * x + dy * y)) for dx, dy in pts) / len(pts)
                norm = mpmath.sqrt(x * x + y * y)
                rhs = 2 * mpmath.pi * mpmath.sqrt(mean_sq) * norm + 2 * mpmath.pi**2 * lam * norm**2
                assert abs(1 - m) <= rhs, (digits, ux, uy, r)


@given(st.text(alphabet="period:\n matrixdigts0123456789,-/ canol", max_size=120))
def test_parser_never_crashes(text):
    try:
        parse_config(text)
    except ConfigError:
        pass
