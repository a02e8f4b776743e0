import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranspectra.digitsets import (
    GenericDigitSet,
    StructuredDigitSet,
    canonical_digits,
    scaled_canonical,
)
from moranspectra.lattice import Mat2
from moranspectra.mask import digit_mask_zero
from moranspectra import moran
from moranspectra.moran import (
    CapExceeded,
    EventuallyPeriodic,
    MoranSystem,
    OutOfTheoryError,
    TWord,
    attractor_points,
    conjugate_system,
    fourier,
    fourier_zero_exact,
    integer_periodic_zero_nonempty,
    realize_word_system,
    reduce_canonical,
    SystemInvalid,
    validate,
)

D0 = canonical_digits()
I2, I3, I4 = Mat2.scalar(2), Mat2.scalar(3), Mat2.scalar(4)
SYS2 = MoranSystem.constant(I2, D0)
SYS4 = MoranSystem.constant(I4, D0)
SHEAR2 = Mat2(2, 2, 0, 2)


class TestValidate:
    def test_constant_2i(self):
        rep = validate(SYS2)
        assert rep.ok
        assert rep.iota == pytest.approx(0.5)
        assert rep.gamma == pytest.approx(math.sqrt(2))
        assert rep.existence_bound == pytest.approx(math.sqrt(2))

    def test_not_expanding(self):
        rep = validate(MoranSystem.constant(Mat2(1, 0, 0, 3), D0))
        assert not rep.ok
        assert rep.errors == (("NotExpanding", 1),)

    def test_norm_at_least_one(self):
        # singular-value oracle: sigma_min([[2,10],[0,2]]) < 1 though eigenvalues are 2,2
        m = np.array([[2, 10], [0, 2]], float)
        assert np.linalg.svd(m, compute_uv=False).min() < 1
        assert all(abs(l) > 1 for l in np.linalg.eigvals(m))
        rep = validate(MoranSystem.constant(Mat2(2, 10, 0, 2), D0))
        assert not rep.ok
        assert rep.errors == (("NormAtLeastOne", 1),)

    def test_error_level_indexing(self):
        sysm = MoranSystem(((I4, D0),), ((Mat2(1, 0, 0, 3), D0),))
        rep = validate(sysm)
        assert rep.errors == (("NotExpanding", 2),)


class TestReduceCanonical:
    def test_constant_4i_with_canonical_digits(self):
        red = reduce_canonical(SYS4)
        for m, d in red.preperiod + red.period:
            assert m == Mat2(Fraction(4), Fraction(0), Fraction(0), Fraction(4))
            assert d == D0

    def test_two_scale_formulas(self):
        sysm = MoranSystem(((I2, scaled_canonical(9)),), ((I2, scaled_canonical(3)),))
        red = reduce_canonical(sysm)
        m1 = red.preperiod[0][0]
        m2 = red.preperiod[1][0]
        m3 = red.period[0][0]
        assert m1 == Mat2(Fraction(2, 9), 0, 0, Fraction(2, 9))
        assert m2 == Mat2(Fraction(6), 0, 0, Fraction(6))
        assert m3 == Mat2(Fraction(2), 0, 0, Fraction(2))

    def test_general_structured_digits(self):
        d = StructuredDigitSet((1, 2), (0, 1))
        sysm = MoranSystem.constant(I4, d)
        red = reduce_canonical(sysm)
        # exact matrix inversion oracle: Q^{-1} via adjugate over det = 1
        q = d.q_matrix()
        qinv = Mat2(Fraction(1), Fraction(0), Fraction(-2), Fraction(1))
        prod = q * qinv
        assert (prod.a, prod.b, prod.c, prod.d) == (1, 0, 0, 1)
        assert red.preperiod[0][0] == Mat2.scalar(4) * qinv

    def test_measure_is_unchanged(self):
        sysm = MoranSystem(((I2, scaled_canonical(9)),), ((I2, scaled_canonical(3)),))
        red = reduce_canonical(sysm)
        rng = random.Random(5)
        for _ in range(100):
            xi = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            a = fourier(sysm, xi, 1e-9).value
            b = fourier(red, xi, 1e-9).value
            assert abs(a - b) <= 2e-9


class TestFourier:
    def test_at_origin(self):
        res = fourier(SYS4, (0, 0), 1e-8)
        assert res.value == 1.0
        assert res.bound == 0.0

    def test_exact_zero_short_circuit(self):
        res = fourier(SYS4, (2, 0), 1e-8)
        assert res.value == 0j
        assert res.bound == 0.0

    def test_against_high_precision_product(self):
        import mpmath as mp

        mp.mp.dps = 30
        val = mp.mpc(1)
        for j in range(1, 201):
            x, y = mp.mpf("0.3") / 2**j, mp.mpf("0.7") / 2**j
            val *= sum(
                mp.e ** (2j * mp.pi * (dx * x + dy * y)) for dx, dy in D0.points()
            ) / 4
        res = fourier(SYS2, (0.3, 0.7), 1e-8)
        assert abs(res.value - complex(val.real, val.imag)) < 1e-8
        assert res.bound <= 1e-8

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            fourier(SYS2, (0, 0), 0.0)

    def test_modulus_bounded(self):
        rng = random.Random(11)
        for _ in range(50):
            xi = (rng.uniform(-20, 20), rng.uniform(-20, 20))
            res = fourier(SYS2, xi, 1e-6)
            assert abs(res.value) <= 1 + 1e-6


class TestZeroCertificates:
    def test_shear_certificate(self):
        sysm = MoranSystem.constant(SHEAR2, D0)
        cert = fourier_zero_exact(sysm, (1, 1))
        assert cert is not None
        assert cert.verify(sysm)
        assert digit_mask_zero(D0, cert.witness)

    def test_shear_non_member(self):
        sysm = MoranSystem.constant(SHEAR2, D0)
        assert fourier_zero_exact(sysm, (Fraction(1, 3), 0)) is None

    def test_origin_is_never_certified(self):
        assert fourier_zero_exact(SYS2, (0, 0)) is None

    def test_certified_points_have_tiny_fourier_value(self):
        rng = random.Random(2)
        for _ in range(25):
            xi = (rng.randint(-8, 8), rng.randint(-8, 8))
            cert = fourier_zero_exact(SYS2, xi)
            if xi == (0, 0):
                assert cert is None
                continue
            assert cert is not None and cert.verify(SYS2)
            assert abs(fourier(SYS2, xi, 1e-9).value) <= 1e-9

    def test_closed_form_zero_set_small(self):
        # constant (2 Mbar, t D0): certificate exactly when t*xi is a nonzero
        # integer vector
        for mbar in (Mat2.identity(), Mat2(1, 1, 0, 1), Mat2(0, -1, 1, 0)):
            m = Mat2.scalar(2) * mbar
            for t in (1, 3):
                sysm = MoranSystem.constant(m, scaled_canonical(t))
                for k1 in range(-3, 4):
                    for k2 in range(-3, 4):
                        xi = (Fraction(k1, t), Fraction(k2, t))
                        cert = fourier_zero_exact(sysm, xi)
                        if (k1, k2) == (0, 0):
                            assert cert is None
                        else:
                            assert cert is not None and cert.verify(sysm)
                assert fourier_zero_exact(sysm, (Fraction(1, t + 2), 0)) is None


class TestSimilarity:
    def test_fourier_covariance(self):
        rng = random.Random(23)
        q = Mat2(1, 1, 0, 1)
        conj = conjugate_system(SYS4, q)
        qt = q.transpose()
        for _ in range(20):
            xi = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            a = fourier(conj, xi, 1e-9).value
            b = fourier(SYS4, qt.apply(xi), 1e-9).value
            assert abs(a - b) <= 2e-9

    def test_conjugation_requires_unimodular(self):
        with pytest.raises(ValueError):
            conjugate_system(SYS2, Mat2.scalar(2))


class TestWord:
    def test_structural_validation(self):
        with pytest.raises(ValueError):
            TWord((), (), (1, 3))
        with pytest.raises(ValueError):
            TWord((), (3,), (1, 3))

    def test_problems(self):
        assert TWord((), (1,), (1, 3)).problems() is None
        assert "odd" in TWord((), (1,), (1, 2)).problems()
        assert "start" in TWord((), (1,), (3, 5)).problems()
        assert "increasing" in TWord((), (1,), (1, 5, 3)).problems()
        assert "coprime" in TWord((), (1,), (1, 3, 9)).problems()

    def test_eventually_constant(self):
        assert TWord((), (2,), (1, 3)).eventually_constant_letter() == 2
        assert TWord((1, 2), (2, 2), (1, 3)).eventually_constant_letter() == 2
        assert TWord((), (1, 2), (1, 3)).eventually_constant_letter() is None

    def test_canonical_absorbs_tail(self):
        w = TWord((2, 3, 3), (3,), (1, 3, 5)).canonical()
        assert w.preperiod == (2,)
        assert w.period == (3,)

    def test_realize_word_system(self):
        w = TWord((2,), (3,), (1, 3, 5))
        sysm = realize_word_system(w, [], [I2])
        assert sysm.level(1) == (I2, scaled_canonical(3))
        assert sysm.level(2) == (I2, scaled_canonical(5))
        assert sysm.level(7) == (I2, scaled_canonical(5))


class TestIntegerPeriodicZero:
    def test_constant_nontrivial_scale(self):
        ok, witness = integer_periodic_zero_nonempty(TWord((), (2,), (1, 3)), [I2])
        assert ok and witness == (Fraction(1, 3), Fraction(0))

    def test_alternating_word(self):
        ok, witness = integer_periodic_zero_nonempty(TWord((), (1, 2), (1, 3)), [I2])
        assert not ok and witness is None

    def test_constant_scale_one(self):
        ok, witness = integer_periodic_zero_nonempty(TWord((), (1,), (1, 3)), [I2])
        assert not ok and witness is None

    def test_hypothesis_failures(self):
        with pytest.raises(OutOfTheoryError):
            integer_periodic_zero_nonempty(TWord((), (2,), (1, 3)), [I3])
        with pytest.raises(OutOfTheoryError):
            integer_periodic_zero_nonempty(TWord((), (2,), (1, 3)), [I4])
        with pytest.raises(OutOfTheoryError):
            integer_periodic_zero_nonempty(TWord((), (2,), (3, 5)), [I2])
        # expanding and even with |det| = 4 but operator norm >= 1
        with pytest.raises(OutOfTheoryError):
            integer_periodic_zero_nonempty(TWord((), (2,), (1, 3)), [Mat2(2, 4, 0, 2)])

    @pytest.mark.parametrize(
        "word, matrices",
        [
            (TWord((), (2,), (1, 3)), []),
            (TWord((), (2,), (1, 3)), [I3]),
            (TWord((), (2,), (1, 3)), [I2, I4]),
            (TWord((), (2,), (1, 3)), [Mat2(2, 4, 0, 2)]),
            (TWord((), (2,), (3, 5)), [I2]),
            (TWord((), (2,), (3, 5)), [Mat2(4, 0, 0, 1)]),
        ],
    )
    def test_hypothesis_failures_name_the_word_rule_detail(self, word, matrices):
        from moranspectra.classify import classify_thm15

        with pytest.raises(OutOfTheoryError) as err:
            integer_periodic_zero_nonempty(word, matrices)
        assert str(err.value) == classify_thm15(word, matrices).detail

    def test_witness_is_certified(self):
        word = TWord((), (2,), (1, 3))
        ok, witness = integer_periodic_zero_nonempty(word, [I2])
        sysm = realize_word_system(word, [], [I2])
        for k1 in range(-2, 3):
            for k2 in range(-2, 3):
                xi = (witness[0] + k1, witness[1] + k2)
                cert = fourier_zero_exact(sysm, xi)
                assert cert is not None and cert.verify(sysm)


class TestAttractor:
    def test_depth_one(self):
        pts = attractor_points(SYS2, 1)
        assert sorted(pts) == sorted([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (-0.5, -0.5)])

    def test_depth_two_cardinality(self):
        assert len(attractor_points(SYS2, 2)) == 16

    def test_depth_three_within_existence_bound(self):
        rep = validate(SYS4)
        pts = attractor_points(SYS4, 3)
        assert len(pts) == 64
        for x, y in pts:
            assert math.hypot(x, y) <= rep.existence_bound + 1e-12

    def test_cap(self):
        with pytest.raises(CapExceeded):
            attractor_points(SYS2, 5, cap=100)

    @settings(max_examples=200, deadline=None)
    @given(
        pre=st.lists(st.integers(1, 5), max_size=3),
        period=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        depth=st.integers(1, 40),
        limit=st.integers(1, 10**6),
    )
    def test_atom_count_is_the_level_product(self, pre, period, depth, limit):
        """`_atom_count`, taken per period, is the product of #D_n over the
        levels, or None above the limit; written out in full or as a power."""
        points = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]

        def levels(sizes):
            return tuple((I2, GenericDigitSet(tuple(points[:n]))) for n in sizes)

        sysm = MoranSystem(levels(pre), levels(period))
        count = math.prod(len(sysm.level(n)[1]) for n in range(1, depth + 1))
        got, text = moran._atom_count(sysm, depth, limit)
        assert got == (count if count <= limit else None)
        value = 1
        for factor in text.split(" * "):  # "n", "b^k" or "h * b^k"
            b, _, k = factor.partition("^")
            value *= int(b) ** int(k or 1)
        assert value == count

    def test_atom_count_of_a_huge_depth(self):
        assert moran._atom_count(SYS2, 10**11, 65_536) == (None, "4^100000000000")
        one = MoranSystem.constant(I2, GenericDigitSet(((0, 0),)))
        assert moran._atom_count(one, 10**11, 1) == (1, "1")

    @pytest.mark.parametrize("name", ["[[2,1],[1,2]]", "reduced mixed"])
    def test_points_are_correctly_rounded_exact_sums(self, name):
        """Each coordinate is the float nearest the exact partial sum, in the
        order of a Fraction loop over the product set."""
        mixed = MoranSystem(
            ((Mat2(0, -2, 2, 0), scaled_canonical(3)),),
            ((I2, D0), (SHEAR2, scaled_canonical(5))),
        )
        sysm = {
            "[[2,1],[1,2]]": MoranSystem.constant(Mat2(2, 1, 1, 2), D0),
            "reduced mixed": reduce_canonical(mixed),
        }[name]
        points = [(Fraction(0), Fraction(0))]
        prefix = Mat2.identity()
        for depth in range(1, 6):
            m, d = sysm.level(depth)
            prefix = prefix * m.inverse()
            images = [prefix.apply(p) for p in d.points()]
            points = [(px + ix, py + iy) for px, py in points for ix, iy in images]
            assert attractor_points(sysm, depth) == [(float(x), float(y)) for x, y in points]


class TestRepresentation:
    def test_canonical_representation_absorbs(self):
        sysm = MoranSystem(((I2, D0),), ((I2, D0),))
        crep = sysm.canonical()
        assert crep.preperiod == ()
        assert len(crep.period) == 1

    def test_unrolled_period_is_primitive(self):
        sysm = MoranSystem((), ((I2, D0), (I2, D0)))
        crep = sysm.canonical()
        assert len(crep.period) == 1

    def test_level_accessor(self):
        sysm = MoranSystem(((I3, D0),), ((I4, D0), (I2, D0)))
        assert sysm.level(1)[0] == I3
        assert sysm.level(2)[0] == I4
        assert sysm.level(3)[0] == I2
        assert sysm.level(4)[0] == I4
        with pytest.raises(ValueError):
            sysm.level(0)

    @settings(max_examples=300)
    @given(
        st.lists(st.integers(0, 2), max_size=5),
        st.lists(st.integers(0, 2), min_size=1, max_size=5),
    )
    def test_eventually_periodic_properties(self, pre, period):
        seq = EventuallyPeriodic(pre, period)
        horizon = 3 * (len(pre) + len(period))
        items = [x for _, x in zip(range(horizon), seq)]
        assert items == [seq.at(n) for n in range(1, horizon + 1)]
        with pytest.raises(ValueError):
            seq.at(0)

        canon = seq.canonical()
        assert [canon.at(n) for n in range(1, horizon + 1)] == items
        # Minimal: no representation with a preperiod and a period no longer
        # than the canonical ones, other than the canonical one, gives the
        # sequence (n > p' must satisfy a_n = a_{n + r'}).
        p, r = len(canon.preperiod), len(canon.period)
        for p2 in range(p + 1):
            for r2 in range(1, r + 1):
                if (p2, r2) != (p, r):
                    assert any(
                        canon.at(n) != canon.at(n + r2) for n in range(p2 + 1, p + r + 1)
                    ), (p2, r2)

        built = EventuallyPeriodic.from_function(seq.at, len(pre) + 1, 2 * len(period))
        assert (len(built.preperiod), len(built.period)) == (len(pre) + 1, 2 * len(period))
        assert [built.at(n) for n in range(1, horizon + 1)] == items

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError, match="period must be nonempty"):
            EventuallyPeriodic((1,), ())


class TestAnalysis:
    def test_non_expanding_period_rejected_up_front(self, monkeypatch):
        """A period whose product is not expanding is rejected before the
        period is unrolled: no operator norm bounds beyond one per level."""
        calls = []
        norm = moran.operator_norm_upper
        monkeypatch.setattr(moran, "operator_norm_upper", lambda m: calls.append(m) or norm(m))
        sysm = MoranSystem.constant(Mat2(1, 0, 0, 2), D0)
        with pytest.raises(SystemInvalid, match="period inverse products do not contract"):
            moran._analysis(sysm)
        assert len(calls) <= len(sysm.distinct())
