import cmath
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moranspectra.digitsets import (
    GenericDigitSet,
    StructuredDigitSet,
    canonical_digits,
    sum_set,
)
from moranspectra.lattice import Mat2, over_common_denominator
from moranspectra.mask import (
    CardinalityMismatch,
    SingularMatrix,
    digit_mask_zero,
    eval_mask,
    generic_zero_ints,
    is_hadamard_triple,
    unity_sum_is_zero_ints,
)

D0 = canonical_digits()
F2 = [(0, 0), (1, 0), (0, 1), (1, 1)]
F4 = [(i, j) for j in range(4) for i in range(4)]


def d_plus_6d():
    return sum_set(D0, GenericDigitSet(tuple((6 * x, 6 * y) for x, y in D0.points())))


def _mask_oracle(digits, xi):
    """Direct term-by-term complex summation."""
    return sum(
        cmath.exp(2j * cmath.pi * (dx * xi[0] + dy * xi[1])) for dx, dy in digits.points()
    ) / len(digits)


def test_eval_mask_examples():
    assert eval_mask(D0, (0, 0)) == pytest.approx(1.0)
    assert abs(eval_mask(D0, (0.5, 0.5))) < 1e-15
    # four-term summation oracle gives exactly 1/4 at (1/3, 0)
    assert _mask_oracle(D0, (1 / 3, 0)) == pytest.approx(0.25)
    assert eval_mask(D0, (Fraction(1, 3), 0)) == pytest.approx(0.25)


def test_unity_sum_examples():
    assert unity_sum_is_zero_ints([0, 1], 2)
    assert unity_sum_is_zero_ints([0, 1, 2], 3)
    # numeric oracle: the mixed 1/4, 1/3 sum is far from zero
    val = 1 + cmath.exp(2j * cmath.pi / 4) + cmath.exp(2j * cmath.pi / 3)
    assert abs(val) > 1.9
    assert not unity_sum_is_zero_ints([0, 3, 4], 12)


def test_unity_sum_adds_congruent_numerators():
    """Numerators congruent mod q add their counts, so 1 + 1 - 1 and
    -1 + 1 - 1 - 1 do not collapse into the vanishing 1 - 1."""
    assert not unity_sum_is_zero_ints([0, 2, 1], 2)
    assert not unity_sum_is_zero_ints([1, 0, 3, 5], 2)
    assert unity_sum_is_zero_ints([0, 2, 1, 3], 2)
    assert unity_sum_is_zero_ints([0, 3, 1, 4, 2, 5], 3)
    assert not unity_sum_is_zero_ints([0, 3, 6, 1, 4, 2], 3)


def test_unity_sum_ints_decides_large_denominator():
    """Denominators past 100,000, once refused for the dense Phi_q test that
    preceded the sparse kernel, are decided at once: the prime search stops
    at the number of terms and the recursion depth is at most log2 q."""
    q = 3 * 100_003
    start = time.perf_counter()
    assert not unity_sum_is_zero_ints([0, 1], 100_003)
    assert unity_sum_is_zero_ints([0, q // 3, 2 * q // 3], q)
    assert unity_sum_is_zero_ints([7, 7 + 2 * q // 3, 7 + 4 * q // 3, 5, 5 + q], 2 * q)
    assert not unity_sum_is_zero_ints([0, q // 3, 2 * q // 3 + 1], q)
    assert time.perf_counter() - start < 0.1
    assert unity_sum_is_zero_ints([0, 2], 4)
    assert not unity_sum_is_zero_ints([0, 1], 3)


def test_mask_zero_exact_examples():
    assert digit_mask_zero(D0, (Fraction(1, 2), 0))
    assert not digit_mask_zero(D0, (1, 1))
    d = StructuredDigitSet((1, 2), (0, 1))
    assert digit_mask_zero(d, (Fraction(1, 2), 0))
    # cross-check through the root-of-unity route
    assert generic_zero_ints(d, 1, 0, 2)
    assert not generic_zero_ints(d, 1, 1, 1)


def test_mask_zero_exact_generic_examples():
    d = d_plus_6d()
    for v in F4[1:]:
        assert digit_mask_zero(d, (Fraction(v[0], 4), Fraction(v[1], 4)))
    assert generic_zero_ints(D0, 1, 1, 2)
    two = GenericDigitSet(((0, 0), (1, 0)))
    assert abs(_mask_oracle(two, (1 / 3, 0))) > 0.4
    assert not digit_mask_zero(two, (Fraction(1, 3), 0))


def test_hadamard_examples():
    assert is_hadamard_triple(Mat2.scalar(2), D0, F2)
    l_big = [(3 * x, 3 * y) for x, y in F4]
    assert is_hadamard_triple(Mat2.scalar(12), d_plus_6d(), l_big)
    assert not is_hadamard_triple(Mat2.scalar(2), D0, [(2 * x, 2 * y) for x, y in F2])


def test_hadamard_errors():
    with pytest.raises(CardinalityMismatch):
        is_hadamard_triple(Mat2.scalar(2), D0, F2[:3])
    with pytest.raises(SingularMatrix):
        is_hadamard_triple(Mat2(1, 1, 1, 1), D0, F2)
    with pytest.raises(CardinalityMismatch):
        is_hadamard_triple(Mat2.scalar(2), D0, [(0, 0), (0, 0), (1, 0), (0, 1)])


def test_exact_numeric_agreement_random_rationals():
    rng = random.Random(7)
    for _ in range(10_000):
        q = rng.randint(1, 40)
        xi = (Fraction(rng.randint(-2 * q, 2 * q), q), Fraction(rng.randint(-2 * q, 2 * q), q))
        exact = digit_mask_zero(D0, xi)
        numeric = abs(eval_mask(D0, xi)) < 1e-10
        assert exact == numeric, xi


@given(
    st.floats(-5, 5).filter(lambda x: x == x),
    st.floats(-5, 5),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
def test_mask_periodicity(x, y, kx, ky):
    a = eval_mask(D0, (x, y))
    b = eval_mask(D0, (x + kx, y + ky))
    assert abs(a - b) < 1e-12


def test_partition_of_unity_on_grid(partition_of_unity_residual):
    d6 = d_plus_6d()
    l_big = [(3 * x, 3 * y) for x, y in F4]
    for i in range(10):
        for j in range(10):
            xi = (i / 10, j / 10)
            assert partition_of_unity_residual(Mat2.scalar(2), D0, F2, xi) < 1e-10
            assert partition_of_unity_residual(Mat2.scalar(12), d6, l_big, xi) < 1e-10


# Exponents up to 3, not reduced mod 1, so that congruent numerators reach
# the kernel's merge mod q.
exponents4 = st.lists(
    st.fractions(min_value=0, max_value=3, max_denominator=12), min_size=4, max_size=4
)


@given(exponents4)
def test_four_term_pairing_matches_cyclotomic(exps):
    """A sum of four unit roots vanishes iff it splits into two pairs whose
    exponents differ by 1/2: the combinatorial rule, written out here."""
    counts = Counter(e % 1 for e in exps)
    half = Fraction(1, 2)
    paired = all(counts[(e + half) % 1] == c for e, c in counts.items())
    assert unity_sum_is_zero_ints(*over_common_denominator(exps)) == paired


@given(
    st.sampled_from([2, 3, 4, 6, 8, 12, 30, 60]).flatmap(
        lambda q: st.tuples(
            st.just(q), st.lists(st.integers(min_value=0, max_value=3 * q), min_size=1, max_size=9)
        )
    )
)
def test_unity_sum_matches_numeric_magnitude(case):
    q, nums = case
    value = sum(cmath.exp(2j * cmath.pi * n / q) for n in nums)
    assert unity_sum_is_zero_ints(nums, q) == (abs(value) < 1e-9)


def test_cyclotomic_against_sympy():
    """`unity_sum_is_zero_ints` against the remainder of the dense
    polynomial sum_k x^(n_k) by sympy's cyclotomic polynomial Phi_q, on
    random sums and on planted unions of rotated p-cycles (p | q), some with
    one extra term."""
    import sympy

    x = sympy.symbols("x")
    rng = random.Random(606)
    verdicts = []
    for case in range(150):
        q = rng.randint(2, 420)
        if case % 2:
            primes = sympy.primefactors(q)
            nums = []
            for _ in range(rng.randint(1, 3)):
                p, s = rng.choice(primes), rng.randrange(q)
                nums += [s + j * (q // p) for j in range(p)]
            if case % 3 == 0:
                nums.append(rng.randrange(q))
        else:
            nums = [rng.randrange(q) for _ in range(rng.randint(1, 12))]
        coeffs = [0] * q
        for n in nums:
            coeffs[n % q] += 1
        phi = sympy.cyclotomic_poly(q, x, polys=True)
        rem = sympy.Poly(coeffs[::-1], x, domain="ZZ").rem(phi)
        verdict = unity_sum_is_zero_ints(nums, q)
        assert verdict == rem.is_zero, (q, nums)
        verdicts.append(verdict)
    assert 40 < sum(verdicts) < 110


def test_mask_bound_and_normalization():
    rng = random.Random(3)
    d = d_plus_6d()
    for _ in range(200):
        xi = (rng.uniform(-4, 4), rng.uniform(-4, 4))
        assert abs(eval_mask(d, xi)) <= 1 + 1e-12
    assert eval_mask(d, (0, 0)) == pytest.approx(1.0)
