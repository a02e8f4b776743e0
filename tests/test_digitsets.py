import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from moranspectra.digitsets import (
    Degenerate,
    DigitCollision,
    GenericDigitSet,
    OddityViolation,
    StructuredDigitSet,
    canonical_digits,
    scaled_by_matrix,
    scaled_canonical,
    scaled_t_of,
    sum_set,
)
from moranspectra.lattice import Mat2

D0 = canonical_digits()


def test_canonical_digits():
    assert set(D0.points()) == {(0, 0), (1, 0), (0, 1), (-1, -1)}
    assert D0.q_matrix() == Mat2.identity()
    assert D0.p == 1


def test_scaled_canonical():
    assert set(scaled_canonical(1).points()) == set(D0.points())
    assert set(scaled_canonical(3).points()) == {(0, 0), (3, 0), (0, 3), (-3, -3)}
    assert scaled_canonical(3).q_matrix() == Mat2.scalar(3)
    assert scaled_canonical(-5).p == 25
    with pytest.raises(OddityViolation):
        scaled_canonical(2)
    with pytest.raises(Exception):
        scaled_canonical(0)


def test_sum_set_d_plus_6d():
    six_d = GenericDigitSet(tuple((6 * x, 6 * y) for x, y in D0.points()))
    s = sum_set(D0, six_d)
    assert len(s) == 16
    assert len(set(s.points())) == 16


def test_sum_set_identity_element():
    zero = GenericDigitSet(((0, 0),))
    assert set(sum_set(zero, D0).points()) == set(D0.points())


def test_sum_set_rejects_collisions():
    # oracle: enumerate all 16 ordered sums of D0 + D0 and count distinct
    sums = [
        (a[0] + b[0], a[1] + b[1]) for a in D0.points() for b in D0.points()
    ]
    assert len(set(sums)) < 16
    with pytest.raises(DigitCollision):
        sum_set(D0, D0)


def test_validate_structured():
    d = StructuredDigitSet((1, 2), (0, 1))
    assert d.p == 1  # determinant by hand: 1*1 - 2*0
    with pytest.raises(OddityViolation):
        StructuredDigitSet((2, 0), (0, 2))
    with pytest.raises(Degenerate):
        StructuredDigitSet((1, 1), (2, 2))


def test_generic_rejects_duplicates_and_non_integers():
    with pytest.raises(Exception):
        GenericDigitSet(((0, 0), (0, 0)))
    with pytest.raises(Exception):
        GenericDigitSet(((0.5, 0),))
    with pytest.raises(Exception):
        GenericDigitSet(())


coords = st.integers(min_value=-20, max_value=20)
vecs = st.tuples(coords, coords)


@st.composite
def structured_sets(draw):
    alpha = draw(vecs)
    beta = draw(vecs)
    p = alpha[0] * beta[1] - alpha[1] * beta[0]
    assume(p != 0 and p % 2 == 1)
    return StructuredDigitSet(alpha, beta)


@given(structured_sets())
def test_elements_sum_to_zero(d):
    xs, ys = zip(*d.points())
    assert sum(xs) == 0 and sum(ys) == 0
    assert len(set(d.points())) == 4


@given(structured_sets())
def test_structured_is_q_matrix_image_of_canonical(d):
    q = d.q_matrix()
    image = {tuple(int(c) for c in q.apply(p)) for p in D0.points()}
    assert image == set(d.points())
    assert q.det() == d.p


@given(st.integers(min_value=-15, max_value=15).filter(lambda t: t % 2 == 1))
def test_scaled_q_matrix_is_t_identity(t):
    d = scaled_canonical(t)
    assert d.q_matrix() == Mat2.scalar(t)
    assert scaled_t_of(d) == t


def test_scaled_by_matrix_keeps_structure():
    q = Mat2(1, 1, 0, 1)
    d = scaled_by_matrix(q, scaled_canonical(3))
    assert isinstance(d, StructuredDigitSet)
    assert d.p == 9
    assert scaled_t_of(d) is None
