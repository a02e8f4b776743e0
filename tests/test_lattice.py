import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import float_rows
from moranspectra.lattice import (
    Mat2,
    difference_set,
    digit_expansion,
    distinct_differences,
    in_gl2_2z,
    inverse_norm_below_one,
    inverse_norm_upper,
    is_expanding,
    mat_product,
    operator_norm_upper,
    sqrt_upper,
    stage_numerators,
)

I = Mat2.identity()

entries = st.integers(min_value=-9, max_value=9)
small_mats = st.builds(Mat2, entries, entries, entries, entries)
nonsingular = small_mats.filter(lambda m: m.det() != 0)


def test_det_examples():
    assert Mat2(2, 0, 0, 2).det() == 4
    assert I.det() == 1
    # hand multiplication: 4*4 - 2*2 = 12
    assert Mat2(4, 2, 2, 4).det() == 12


def test_mat_product_examples():
    assert mat_product([I]) == I
    assert mat_product([Mat2.scalar(2), Mat2.scalar(2)]) == Mat2.scalar(4)
    assert mat_product([Mat2(2, 2, 0, 2), Mat2(2, 0, 2, 2)]) == Mat2(8, 4, 4, 4)
    with pytest.raises(ValueError):
        mat_product([])


def test_is_expanding_examples():
    assert is_expanding(Mat2.scalar(2))
    assert not is_expanding(Mat2(1, 0, 0, 3))
    # characteristic-polynomial oracle: eigenvalues of [[0,-2],[2,0]] are +-2i
    ev = np.linalg.eigvals(np.array([[0, -2], [2, 0]], float))
    assert sorted(abs(ev)) == pytest.approx([2.0, 2.0])
    assert is_expanding(Mat2(0, -2, 2, 0))


def test_in_gl2_2z_examples():
    assert in_gl2_2z(Mat2.scalar(2))
    assert not in_gl2_2z(Mat2.scalar(3))
    assert in_gl2_2z(Mat2(4, 2, 2, 4))
    assert not in_gl2_2z(Mat2(2, 0, 2, 0))  # even but singular


def test_inverse_norm_below_one_examples():
    assert inverse_norm_below_one(Mat2.scalar(3))
    # singular-value oracle: sigma_min([[1,5],[0,1]]) < 1
    sig = np.linalg.svd(np.array([[1, 5], [0, 1]], float), compute_uv=False)
    assert sig.min() < 1
    assert not inverse_norm_below_one(Mat2(1, 5, 0, 1))
    assert inverse_norm_below_one(Mat2.scalar(2))  # ||M^-1|| = 1/2
    with pytest.raises(ZeroDivisionError):
        inverse_norm_below_one(Mat2(1, 1, 1, 1))


def _random_corpus(n=1000, seed=20240):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        m = Mat2(*(rng.randint(-9, 9) for _ in range(4)))
        out.append(m)
    return out


def test_expanding_agrees_with_float_eigenvalues():
    # agreement demanded whenever both eigenvalue moduli differ from 1 by > 1e-6
    for m in _random_corpus():
        ev = np.linalg.eigvals(np.array(float_rows(m)))
        if all(abs(abs(l) - 1.0) > 1e-6 for l in ev):
            assert is_expanding(m) == bool(all(abs(l) > 1 for l in ev)), m


def test_inverse_norm_below_one_implies_expanding():
    for m in _random_corpus():
        if m.det() != 0 and inverse_norm_below_one(m):
            assert is_expanding(m), m


@given(small_mats, small_mats, small_mats)
def test_mat_product_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(nonsingular, nonsingular)
def test_inverse_of_product_is_reversed_product_of_inverses(a, b):
    assert (a * b).inverse() == b.inverse() * a.inverse()


@given(nonsingular)
def test_exact_inverse_identity(m):
    prod = m * m.inverse()
    assert (prod.a, prod.b, prod.c, prod.d) == (1, 0, 0, 1)


even_entries = st.integers(min_value=-4, max_value=4).map(lambda k: 2 * k)
even_mats = st.builds(Mat2, even_entries, even_entries, even_entries, even_entries)


@given(even_mats.filter(lambda m: m.det() != 0), even_mats.filter(lambda m: m.det() != 0))
def test_gl2_2z_closed_under_products(a, b):
    assert in_gl2_2z(a * b)


@given(st.fractions(min_value=0, max_value=10**6))
def test_sqrt_bounds(x):
    up = sqrt_upper(x)
    assert x <= up * up
    if x > 0:
        assert (up * (1 - Fraction(1, 10**9))) ** 2 < x


@given(nonsingular)
def test_certified_norm_bounds_dominate_svd(m):
    sig = np.linalg.svd(np.array(float_rows(m)), compute_uv=False)
    assert float(operator_norm_upper(m)) >= sig.max() - 1e-9
    assert float(inverse_norm_upper(m)) >= 1.0 / sig.min() - 1e-9
    # and they are tight to a relative 1e-6
    assert float(operator_norm_upper(m)) <= sig.max() * (1 + 1e-6)
    assert float(inverse_norm_upper(m)) <= (1.0 / sig.min()) * (1 + 1e-6)


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=12)
stage_lists = st.lists(
    st.lists(st.tuples(small_fracs, small_fracs), min_size=1, max_size=3), min_size=1, max_size=3)


@given(stage_lists)
def test_digit_expansion_is_the_product_sumset(stages):
    """Against Fraction sums over itertools.product, first stage slowest; the
    integer stages of `stage_numerators` expand to the same points over the
    unreduced common denominator qs."""
    sums = [tuple(map(sum, zip(*choice))) for choice in itertools.product(*stages)]
    ints, q = digit_expansion(stages)
    assert [(Fraction(x, q), Fraction(y, q)) for x, y in ints] == sums
    assert q == math.lcm(*(c.denominator for p in sums for c in p))
    scaled, qs = stage_numerators(stages)
    assert [len(s) for s in scaled] == [len(s) for s in stages]
    assert qs == math.lcm(*(c.denominator for s in stages for p in s for c in p))
    assert [[(Fraction(x, qs), Fraction(y, qs)) for x, y in s] for s in scaled] == stages
    rescaled = [(x * q, y * q) for x, y in digit_expansion(scaled)[0]]
    assert rescaled == [(x * qs, y * qs) for x, y in ints]


@st.composite
def spread_sets(draw):
    """2 to 24 distinct integer points of an (a + 1) x (b + 1) box at an
    offset that may be negative; a = 0 is one column, b = 0 one row (h = 0,
    W = 1).  Up to 24 points and a, b <= 120 put sets on both sides of the
    512 bits per point guard."""
    a, b = draw(st.integers(0, 120)), draw(st.integers(0, 120))
    assume(a + b > 0)
    pts = draw(st.lists(st.tuples(st.integers(0, a), st.integers(0, b)),
                        min_size=2, max_size=24, unique=True))
    ox, oy = draw(st.integers(-200, 200)), draw(st.integers(-200, 200))
    return [(x + ox, y + oy) for x, y in pts]


@given(spread_sets())
@example([(0, 0), (1024, 0)])  # a span of 512 bits per point: the bitset
@example([(0, 0), (1025, 0)])  # one bit more: the stream
@example([(-7, 3), (-7, -1021)])  # one column, W = 2 * 1024 + 1
@example([(-3, -5), (2, 7), (-3, 7), (0, 0)])
def test_difference_set_is_the_walks_set(pts):
    """Whenever the bitset is taken, it holds exactly the distinct
    sign-canonical differences of the ordered walk, each once; it is taken
    exactly when the span of z = x W + (y - min y) is at most 512 bits per
    point (the 2^22 cap binds only past 8,192 points)."""
    y0 = min(y for _, y in pts)
    w = 2 * (max(y for _, y in pts) - y0) + 1
    zs = [x * w + y - y0 for x, y in pts]
    got = difference_set(pts)
    assert (got is None) == (max(zs) - min(zs) > 512 * len(pts))
    if got is not None:
        pairs = list(zip(*got))
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == {(dx, dy) for _, dx, dy in distinct_differences(pts)}


def test_difference_set_cap():
    """Past 8,192 points the cap of 2^22 bits binds before 512 bits per
    point: a row of 8,193 points spanning 2^22 takes the bitset, one
    spanning 2^22 + 1 does not."""
    row = [(x, 0) for x in range(8192)]
    got = difference_set(row + [(2**22, 0)])
    assert sorted(zip(*got)) == [(d, 0) for d in range(1, 8192)] + [(d, 0) for d in range(2**22 - 8191, 2**22 + 1)]
    assert difference_set(row + [(2**22 + 1, 0)]) is None
