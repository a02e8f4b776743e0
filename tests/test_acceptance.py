"""End-to-end acceptance fixtures.

Each test exercises one acceptance criterion at its stated tolerance and
wall-clock budget and prints one PASS/FAIL line (run with `pytest -s` to see
the lines as they happen).

Criterion 8 contrasts the integer-lattice spectrum of the constant (2I, D0)
system with the quadrant tower through the completeness sums
Q(xi) = sum_lambda |mu^(xi + lambda)|^2, which are identically 1 exactly for a
complete orthogonal set.  Its thresholds (lattice >= 0.99, tower <= 0.9) are
on the limits of nested truncations, estimated by Aitken's delta-squared
extrapolation of three sums, not on any single truncation: the measure is
Lebesgue measure on a fractal-boundary self-affine tile, so the lattice
deficit 1 - Q_B over the box [-B, B]^2 decays only like
B^(-log2(4/3)) ~ B^(-0.415) (0.154, 0.117, 0.088, ..., 0.037 for
B = 8, 16, 32, ..., 256) and no box below B ~ 6e3 (about 1.5e8 points)
reaches 0.99.  The lattice clause also checks Bessel's inequality Q_B <= 1 on
each truncation.
"""

import math
import random
import time
from fractions import Fraction

from moranspectra.classify import NOT_SPECTRAL, SPECTRAL, classify
from moranspectra.digitsets import (
    GenericDigitSet,
    canonical_digits,
    scaled_canonical,
    sum_set,
)
from moranspectra.lattice import Mat2
from moranspectra.mask import (
    digit_mask_zero,
    eval_mask,
    generic_zero_ints,
    is_hadamard_triple,
)
from moranspectra.moran import (
    MoranSystem,
    TWord,
    conjugate_system,
    fourier,
    fourier_zero_exact,
    integer_periodic_zero_nonempty,
    realize_word_system,
)
from moranspectra.spectra import (
    build_lattice_spectrum,
    build_tower,
    completeness_sum,
    discrete_spectrum_oracle,
    enumerate_tower,
    verify_orthogonality,
)

D0 = canonical_digits()
I2, I3, I4 = Mat2.scalar(2), Mat2.scalar(3), Mat2.scalar(4)
SYS2 = MoranSystem.constant(I2, D0)
SYS4 = MoranSystem.constant(I4, D0)
F2 = [(i, j) for i in (0, 1) for j in (0, 1)]
F4 = [(i, j) for j in range(4) for i in range(4)]


def d_plus_6d():
    return sum_set(D0, GenericDigitSet(tuple((6 * x, 6 * y) for x, y in D0.points())))


def report(num, budget_s, started, ok, desc):
    elapsed = time.perf_counter() - started
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} ({elapsed:6.2f}s) {desc}")
    assert ok, f"criterion {num}: {desc}"
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.1f}s)"


def test_criterion_01_hadamard_fixtures():
    t0 = time.perf_counter()
    l_big = [(3 * x, 3 * y) for x, y in F4]
    ok = is_hadamard_triple(I2, D0, F2) and is_hadamard_triple(
        Mat2.scalar(12), d_plus_6d(), l_big
    )
    report(1, 1.0, t0, ok, "Hadamard fixtures (2I, D0, F2) and (12I, D0+6D0, 3F4)")


def test_criterion_02_zero_set_identity_exhaustive():
    t0 = time.perf_counter()
    ok = True
    for q in range(1, 25):
        for a in range(q):
            for b in range(q):
                xi = (Fraction(a, q), Fraction(b, q))
                exact = digit_mask_zero(D0, xi)
                numeric = abs(eval_mask(D0, xi)) < 1e-10
                if exact != numeric or exact != generic_zero_ints(D0, a, b, q):
                    ok = False
    report(2, 5.0, t0, ok, "closed form == unit-root sum == |mask| < 1e-10 at every q <= 24")


def test_criterion_03_partition_of_unity(partition_of_unity_residual):
    t0 = time.perf_counter()
    d6 = d_plus_6d()
    l_big = [(3 * x, 3 * y) for x, y in F4]
    worst = 0.0
    for i in range(50):
        for j in range(50):
            xi = (i / 50, j / 50)
            worst = max(worst, partition_of_unity_residual(I2, D0, F2, xi))
            worst = max(worst, partition_of_unity_residual(Mat2.scalar(12), d6, l_big, xi))
    report(3, 5.0, t0, worst < 1e-10, f"partition of unity on 50x50 grid (worst {worst:.2e})")


def test_criterion_04_closed_form_zero_set():
    t0 = time.perf_counter()
    ok = True
    for mbar in (Mat2.identity(), Mat2(1, 1, 0, 1), Mat2(0, -1, 1, 0)):
        for t in (1, 3, 5):
            sysm = MoranSystem.constant(Mat2.scalar(2) * mbar, scaled_canonical(t))
            for k1 in range(-6, 7):
                for k2 in range(-6, 7):
                    xi = (Fraction(k1, t), Fraction(k2, t))
                    cert = fourier_zero_exact(sysm, xi)
                    if (k1, k2) == (0, 0):
                        ok = ok and cert is None
                    else:
                        ok = ok and cert is not None and cert.verify(sysm)
            ok = ok and fourier_zero_exact(sysm, (Fraction(1, t + 2), 0)) is None
            ok = ok and fourier_zero_exact(sysm, (0, 0)) is None
    report(4, 10.0, t0, ok, "certificates exactly on (1/t)Z^2 minus 0 for 9 systems")


def test_criterion_05_classifier_tables():
    t0 = time.perf_counter()
    checks = [
        (classify(MoranSystem.constant(I3, D0)), NOT_SPECTRAL, "T1.4"),
        (classify(MoranSystem(((I3, D0),), ((I4, D0),))), SPECTRAL, "T1.4"),
        (classify(MoranSystem.constant(Mat2(4, 2, 2, 4), D0)), SPECTRAL, "T1.4"),
    ]
    for t1, t2, expected in [
        (9, 3, SPECTRAL),
        (3, 9, NOT_SPECTRAL),
        (5, 5, SPECTRAL),
        (3, 5, NOT_SPECTRAL),
    ]:
        sysm = MoranSystem(
            ((I2, scaled_canonical(t1)),), ((I2, scaled_canonical(t2)),)
        )
        checks.append((classify(sysm), expected, "T1.6"))
    for word, expected in [
        (TWord((), (1, 2), (1, 3)), SPECTRAL),
        (TWord((2,), (3,), (1, 3, 5)), NOT_SPECTRAL),
        (TWord((), (2,), (1, 3)), SPECTRAL),
        (TWord((1,), (2,), (1, 3)), NOT_SPECTRAL),
    ]:
        checks.append((classify(word, [I2]), expected, "T1.5"))
    ok = all(v.outcome == exp and v.rule == rule for v, exp, rule in checks)
    report(5, 1.0, t0, ok, "classifier tables for the three rule families")


def test_criterion_06_tower_orthogonality():
    t0 = time.perf_counter()
    ok = True
    for sysm in (SYS4, SYS2):
        tower = build_tower(sysm)
        for k in range(1, 5):
            res = verify_orthogonality(sysm, enumerate_tower(tower, k))
            ok = ok and res.ok
    report(6, 60.0, t0, ok, "tower truncations orthogonal up to k = 4 (32640 pairs)")


def test_criterion_07_oracle_cross_check():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for sysm in (SYS4, SYS2):
        tower = build_tower(sysm)
        for n in (1, 2, 3):
            rep = discrete_spectrum_oracle(sysm, n, enumerate_tower(tower, n))
            ok = ok and rep.unitary
            worst = max(worst, rep.residual)
    report(7, 30.0, t0, ok and worst < 1e-10,
           f"discrete spectral-pair oracle n <= 3 (worst residual {worst:.2e})")


def _aitken_limit(q1, q2, q3):
    """Aitken delta-squared estimate of the limit of q1, q2, q3; None unless
    the increments are positive and shrinking."""
    d1, d2 = q2 - q1, q3 - q2
    if not 0 < d2 < d1:
        return None
    return q3 - d2 * d2 / (d2 - d1)


def _lattice_clause(qs, eps):
    """Bessel's inequality on each sum and an estimated limit >= 0.99."""
    limit = _aitken_limit(*qs)
    ok = all(q <= 1 + eps for q in qs) and limit is not None and limit >= 0.99
    return ok, limit


def _fmt_sums(qs, limit):
    est = "undefined" if limit is None else f"{limit:.4f}"
    return f"{', '.join(f'{q:.4f}' for q in qs)} -> {est}"


def test_criterion_08_completeness_contrast():
    t0 = time.perf_counter()
    eps = 1e-8
    q_lattice = [
        completeness_sum(SYS2, build_lattice_spectrum(SYS2, box), (0.3, 0.7), eps)
        for box in (8, 16, 32)
    ]
    tower = build_tower(SYS2)
    q_tower = [
        completeness_sum(SYS2, enumerate_tower(tower, k), (-0.49, -0.49), eps)
        for k in (3, 4, 5)
    ]
    ok_lattice, lim_lattice = _lattice_clause(q_lattice, eps)
    lim_tower = _aitken_limit(*q_tower)
    ok_tower = q_tower[-1] <= 0.9 and lim_tower is not None and lim_tower <= 0.9
    report(
        8, 60.0, t0, ok_lattice and ok_tower,
        f"completeness contrast: lattice boxes 8/16/32 {_fmt_sums(q_lattice, lim_lattice)} "
        f"(each <= 1 + eps, limit needs >= 0.99), quadrant tower depths 3/4/5 "
        f"{_fmt_sums(q_tower, lim_tower)} (last and limit need <= 0.9)",
    )


def test_criterion_09_integer_periodic_zero_set():
    t0 = time.perf_counter()
    word23 = TWord((), (2,), (1, 3))
    ok_flag, witness = integer_periodic_zero_nonempty(word23, [I2])
    ok = ok_flag and witness == (Fraction(1, 3), Fraction(0))
    ok = ok and integer_periodic_zero_nonempty(TWord((), (1, 2), (1, 3)), [I2]) == (False, None)
    ok = ok and integer_periodic_zero_nonempty(TWord((), (1,), (1, 3)), [I2]) == (False, None)
    sysm = realize_word_system(word23, [], [I2])
    for k1 in range(-4, 5):
        for k2 in range(-4, 5):
            cert = fourier_zero_exact(sysm, (witness[0] + k1, witness[1] + k2))
            ok = ok and cert is not None and cert.verify(sysm)
    report(9, 10.0, t0, ok, "integer periodic zero set witness (1/3, 0) corroborated")


def _random_unimodular(rng):
    while True:
        m = Mat2(*(rng.randint(-3, 3) for _ in range(4)))
        if abs(m.det()) == 1:
            return m


def test_criterion_10_similarity_invariance():
    t0 = time.perf_counter()
    rng = random.Random(1234)
    systems = [
        MoranSystem.constant(I4, D0),
        MoranSystem.constant(I3, D0),
        MoranSystem.constant(Mat2(4, 2, 2, 4), D0),
        MoranSystem(((I2, scaled_canonical(9)),), ((I2, scaled_canonical(3)),)),
        MoranSystem(((I2, scaled_canonical(3)),), ((I2, scaled_canonical(5)),)),
        MoranSystem((), ((I2, scaled_canonical(1)), (I2, scaled_canonical(3)))),
    ]
    ok = True
    for _ in range(20):
        q = _random_unimodular(rng)
        for sysm in systems:
            conj = conjugate_system(sysm, q)
            a, b = classify(sysm), classify(conj)
            ok = ok and (a.outcome, a.rule) == (b.outcome, b.rule)
    qt = None
    worst = 0.0
    for _ in range(20):
        q = _random_unimodular(rng)
        qt = q.transpose()
        xi = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        for sysm in (SYS4, systems[3]):
            conj = conjugate_system(sysm, q)
            a = fourier(conj, xi, 1e-8).value
            b = fourier(sysm, qt.apply(xi), 1e-8).value
            worst = max(worst, abs(a - b))
    ok = ok and worst <= 2e-8
    report(10, 30.0, t0, ok,
           f"classify and fourier invariant under 20 random conjugations "
           f"(worst fourier gap {worst:.2e})")
