import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranspectra.classify import (
    NOT_SPECTRAL,
    OUT_OF_THEORY,
    SPECTRAL,
    classify,
    classify_thm11,
    classify_thm14,
    classify_thm15,
    classify_thm16,
    cor51_verdict,
    similarity_normalize,
    thm15_shape,
    thm16_shape,
)
from moranspectra.digitsets import (
    GenericDigitSet,
    StructuredDigitSet,
    canonical_digits,
    scaled_canonical,
    sum_set,
)
from moranspectra.lattice import Mat2
from moranspectra.moran import MoranSystem, TWord, conjugate_system

D0 = canonical_digits()
I2, I3, I4 = Mat2.scalar(2), Mat2.scalar(3), Mat2.scalar(4)


def two_scale(t1, t2, m1=I2, m2=I2):
    return MoranSystem(((m1, scaled_canonical(t1)),), ((m2, scaled_canonical(t2)),))


class TestThm14:
    def test_preperiod_exempt(self):
        v = classify_thm14(MoranSystem(((I3, D0),), ((I4, D0),)))
        assert v.outcome == SPECTRAL and v.rule == "T1.4"

    def test_odd_constant(self):
        v = classify_thm14(MoranSystem.constant(I3, D0))
        assert v.outcome == NOT_SPECTRAL

    def test_determinant_boundary_is_out_of_theory(self):
        v = classify_thm14(MoranSystem.constant(I2, D0))
        assert v.outcome == OUT_OF_THEORY
        assert "not > 4" in v.detail

    def test_even_structured(self):
        v = classify_thm14(MoranSystem.constant(Mat2(4, 2, 2, 4), D0))
        assert v.outcome == SPECTRAL


class TestThm11:
    def test_det4_with_odd_entry(self):
        v = classify_thm11(MoranSystem.constant(Mat2(2, 1, 0, 2), D0))
        assert v.outcome == NOT_SPECTRAL and v.rule == "T1.1"

    def test_no_violation_is_out_of_theory(self):
        v = classify_thm11(MoranSystem.constant(I2, D0))
        assert v.outcome == OUT_OF_THEORY

    def test_small_determinant(self):
        v = classify_thm11(MoranSystem.constant(Mat2(1, 2, 2, 1), D0))
        assert v.outcome == OUT_OF_THEORY
        assert "not >= 4" in v.detail

    def test_never_spectral_on_random_systems(self):
        rng = random.Random(9)
        for _ in range(200):
            m = Mat2(*(rng.randint(-6, 6) for _ in range(4)))
            try:
                v = classify_thm11(MoranSystem.constant(m, D0))
            except Exception:
                continue
            assert v.outcome != SPECTRAL


class TestThm15:
    def test_alternating(self):
        v = classify_thm15(TWord((), (1, 2), (1, 3)), [I2])
        assert v.outcome == SPECTRAL

    def test_prefixed_constant_tail(self):
        v = classify_thm15(TWord((2,), (3,), (1, 3, 5)), [I2])
        assert v.outcome == NOT_SPECTRAL

    def test_constant_word(self):
        v = classify_thm15(TWord((), (2,), (1, 3)), [I2])
        assert v.outcome == SPECTRAL

    def test_one_then_constant(self):
        v = classify_thm15(TWord((1,), (2,), (1, 3)), [I2])
        assert v.outcome == NOT_SPECTRAL

    def test_matrix_hypotheses(self):
        assert classify_thm15(TWord((), (1,), (1, 3)), [I3]).outcome == OUT_OF_THEORY
        assert classify_thm15(TWord((), (1,), (1, 3)), [I4]).outcome == OUT_OF_THEORY
        assert (
            classify_thm15(TWord((), (1,), (1, 3)), [Mat2(2, 4, 0, 2)]).outcome
            == OUT_OF_THEORY
        )

    def test_word_hypotheses(self):
        assert classify_thm15(TWord((), (1,), (3, 5)), [I2]).outcome == OUT_OF_THEORY
        assert classify_thm15(TWord((), (1,), (1, 3, 9)), [I2]).outcome == OUT_OF_THEORY


class TestThm16:
    @pytest.mark.parametrize(
        "t1,t2,expected",
        [(9, 3, SPECTRAL), (3, 9, NOT_SPECTRAL), (5, 5, SPECTRAL), (3, 5, NOT_SPECTRAL)],
    )
    def test_divisibility_table(self, t1, t2, expected):
        v = classify_thm16(I2, I2, t1, t2)
        assert v.outcome == expected and v.rule == "T1.6"

    def test_hypothesis_failures(self):
        assert classify_thm16(I2, I3, 3, 3).outcome == OUT_OF_THEORY
        assert classify_thm16(I2, I4, 3, 3).outcome == OUT_OF_THEORY
        assert classify_thm16(I2, I2, 2, 3).outcome == OUT_OF_THEORY
        assert classify_thm16(Mat2(1, 0, 0, 3), I2, 3, 3).outcome == OUT_OF_THEORY

    def test_first_matrix_needs_only_expansion(self):
        v = classify_thm16(Mat2(3, 1, 1, 2), I2, 15, 5)
        assert v.outcome == SPECTRAL


class TestDispatcher:
    def test_spectral_via_t14(self):
        v = classify(MoranSystem.constant(I4, D0))
        assert (v.outcome, v.rule) == (SPECTRAL, "T1.4")

    def test_word_input_uses_t15(self):
        v = classify(TWord((2,), (3,), (1, 3, 5)), [I2])
        assert (v.outcome, v.rule) == (NOT_SPECTRAL, "T1.5")

    def test_constant_det4_uses_t16(self):
        v = classify(MoranSystem.constant(I2, D0))
        assert (v.outcome, v.rule) == (SPECTRAL, "T1.6")

    def test_alternating_scales_use_t15(self):
        sysm = MoranSystem((), ((I2, scaled_canonical(1)), (I2, scaled_canonical(3))))
        v = classify(sysm)
        assert (v.outcome, v.rule) == (SPECTRAL, "T1.5")

    def test_cor51_catches_long_preperiods(self):
        sysm = MoranSystem(
            ((I2, scaled_canonical(3)), (I2, scaled_canonical(5))),
            ((I2, scaled_canonical(7)),),
        )
        v = classify(sysm)
        assert (v.outcome, v.rule) == (NOT_SPECTRAL, "C5.1")

    def test_generic_digits_are_out_of_theory(self):
        d6 = sum_set(D0, GenericDigitSet(tuple((6 * x, 6 * y) for x, y in D0.points())))
        v = classify(MoranSystem.constant(I2, d6))
        assert v.outcome == OUT_OF_THEORY
        assert "T1.4" in v.detail and "T1.1" in v.detail

    def test_word_without_matrices_raises(self):
        with pytest.raises(ValueError):
            classify(TWord((), (1,), (1, 3)))


def _random_unimodular(rng):
    while True:
        m = Mat2(*(rng.randint(-3, 3) for _ in range(4)))
        if abs(m.det()) == 1:
            return m


TABLE_SYSTEMS = [
    MoranSystem.constant(I4, D0),
    MoranSystem.constant(I3, D0),
    MoranSystem.constant(Mat2(4, 2, 2, 4), D0),
    MoranSystem(((I3, D0),), ((I4, D0),)),
    two_scale(9, 3),
    two_scale(3, 9),
    two_scale(3, 5),
    MoranSystem((), ((I2, scaled_canonical(1)), (I2, scaled_canonical(3)))),
    MoranSystem(((I2, scaled_canonical(3)),), ((I2, scaled_canonical(5)),)),
]


class TestSimilarityInvariance:
    def test_normalization_recovers_conjugation(self):
        rng = random.Random(41)
        for _ in range(25):
            q = _random_unimodular(rng)
            for sysm in TABLE_SYSTEMS:
                conj = conjugate_system(sysm, q)
                assert similarity_normalize(conj) == sysm

    def test_verdicts_invariant_under_conjugation(self):
        rng = random.Random(42)
        for _ in range(20):
            q = _random_unimodular(rng)
            for sysm in TABLE_SYSTEMS:
                base = classify(sysm)
                conj = classify(conjugate_system(sysm, q))
                assert (base.outcome, base.rule) == (conj.outcome, conj.rule), (
                    sysm,
                    q,
                )


class TestCrossRuleConsistency:
    @pytest.mark.parametrize("j", [2, 3])
    def test_one_then_j_words_agree_with_divisibility(self, j):
        ts = (1, 3, 5)
        word = TWord((1,), (j,), ts)
        v15 = classify_thm15(word, [I2])
        v16 = classify_thm16(I2, I2, ts[0], ts[j - 1])
        assert v15.outcome == v16.outcome == NOT_SPECTRAL

    def test_pure_two_letter_agreement(self):
        ts = (1, 3, 5)
        for i in (1, 2, 3):
            for j in (2, 3):
                if i == j:
                    continue
                word = TWord((i,), (j,), ts)
                v15 = classify_thm15(word, [I2])
                v16 = classify_thm16(I2, I2, ts[i - 1], ts[j - 1])
                assert v15.outcome == v16.outcome, (i, j)


class TestStability:
    def test_unrolling_period_changes_nothing(self):
        for sysm in TABLE_SYSTEMS:
            unrolled = MoranSystem(sysm.preperiod, sysm.period + sysm.period)
            a, b = classify(sysm), classify(unrolled)
            assert (a.outcome, a.rule) == (b.outcome, b.rule)

    def test_absorbing_preperiod_changes_nothing(self):
        for sysm in TABLE_SYSTEMS:
            padded = MoranSystem(
                sysm.preperiod + (sysm.period[-1],),
                sysm.period[-1:] + sysm.period[:-1] if len(sysm.period) > 1 else sysm.period,
            )
            a, b = classify(sysm), classify(padded)
            assert (a.outcome, a.rule) == (b.outcome, b.rule)


class TestShapes:
    def test_thm16_shape_constant(self):
        shape = thm16_shape(MoranSystem.constant(I2, D0))
        assert shape == (I2, I2, 1, 1)

    def test_thm15_shape_word_extraction(self):
        sysm = MoranSystem((), ((I2, scaled_canonical(5)), (I2, scaled_canonical(3))))
        word, mats = thm15_shape(sysm)
        assert word.t_values == (1, 3, 5)
        assert word.period == (3, 2)

    def test_thm15_shape_rejects_non_coprime(self):
        sysm = MoranSystem((), ((I2, scaled_canonical(3)), (I2, scaled_canonical(9))))
        assert isinstance(thm15_shape(sysm), str)


# --- hypothesis failures: detail strings and predicate order ------------------

GENERIC4 = GenericDigitSet(((0, 0), (1, 0), (0, 1), (-1, -1)))
NOT_EXPANDING = Mat2(4, 0, 0, 1)
ODD_DET4 = Mat2(2, 1, 0, 2)
NORM_AT_LEAST_ONE = Mat2(2, 4, 0, 2)
TWORD_3 = TWord((), (2,), (1, 3))


def constant(m, d=D0):
    return MoranSystem.constant(m, d)


def cor51_system(m2=I2, d2=scaled_canonical(5), t_tail=7):
    return MoranSystem(((I2, scaled_canonical(3)), (m2, d2)), ((I2, scaled_canonical(t_tail)),))


T14_NOTE = "T1.4: |det [[2, 0], [0, 2]]| = 4 is not > 4; T1.6: not a two-scale constant-tail family"
T11_NOTHING = "T1.1: necessity rule found no even-entry violation (it proves nothing positive)"

HYPOTHESIS_DETAILS = [
    ("T1.4 generic", classify_thm14, (constant(I2, GENERIC4),),
     "T1.4 needs four-point structured digit sets"),
    ("T1.4 det", classify_thm14, (constant(I2),), "|det [[2, 0], [0, 2]]| = 4 is not > 4"),
    ("T1.4 rational det", classify_thm14, (constant(Mat2(Fraction(5, 2), 0, 0, 1)),),
     "|det [[Fraction(5, 2), 0], [0, 1]]| = 5/2 is not > 4"),
    ("T1.4 expanding", classify_thm14, (constant(Mat2(6, 0, 0, 1)),),
     "matrix [[6, 0], [0, 1]] is not expanding"),
    ("T1.4 norm", classify_thm14, (constant(Mat2(3, 10, 0, 3)),),
     "matrix [[3, 10], [0, 3]] has ||M^-1|| >= 1"),
    ("T1.4 odd", classify_thm14, (constant(Mat2(5, 0, 0, 5)),),
     "level 2 matrix [[5, 0], [0, 5]] is not in GL(2,2Z)"),
    ("T1.4 rational odd", classify_thm14, (constant(Mat2(Fraction(9, 2), 0, 0, Fraction(9, 2))),),
     "level 2 matrix [[Fraction(9, 2), 0], [0, Fraction(9, 2)]] is not in GL(2,2Z)"),
    ("T1.1 generic", classify_thm11, (constant(I2, GENERIC4),),
     "T1.1 needs four-point structured digit sets"),
    ("T1.1 det", classify_thm11, (constant(Mat2(3, 0, 0, 1)),),
     "|det [[3, 0], [0, 1]]| = 3 is not >= 4"),
    ("T1.1 expanding", classify_thm11, (constant(NOT_EXPANDING),),
     "matrix [[4, 0], [0, 1]] is not expanding"),
    ("T1.1 odd", classify_thm11, (constant(ODD_DET4),),
     "level 2 matrix [[2, 1], [0, 2]] is not in GL(2,2Z)"),
    ("T1.5 empty", classify_thm15, (TWORD_3, []), "no matrices supplied"),
    ("T1.5 expanding", classify_thm15, (TWORD_3, [I2, NOT_EXPANDING]),
     "matrix [[4, 0], [0, 1]] is not expanding"),
    ("T1.5 odd", classify_thm15, (TWORD_3, [ODD_DET4]), "matrix [[2, 1], [0, 2]] is not in GL(2,2Z)"),
    ("T1.5 det", classify_thm15, (TWORD_3, [I4]), "|det [[4, 0], [0, 4]]| = 16 is not 4"),
    ("T1.5 norm", classify_thm15, (TWORD_3, [NORM_AT_LEAST_ONE]),
     "matrix [[2, 4], [0, 2]] has ||M^-1|| >= 1"),
    ("T1.5 word", classify_thm15, (TWord((), (2,), (3, 5)), [I2]),
     "scale list must start at t_1 = 1"),
    ("T1.5 matrices first", classify_thm15, (TWord((), (2,), (3, 5)), [NOT_EXPANDING]),
     "matrix [[4, 0], [0, 1]] is not expanding"),
    ("T1.6 scales", classify_thm16, (I2, I2, 2, 3), "scales t1=2, t2=3 must be odd"),
    ("T1.6 first expanding", classify_thm16, (NOT_EXPANDING, I2, 1, 3),
     "matrix [[4, 0], [0, 1]] is not expanding"),
    ("T1.6 tail expanding", classify_thm16, (I2, NOT_EXPANDING, 1, 3),
     "matrix [[4, 0], [0, 1]] is not expanding"),
    ("T1.6 tail odd", classify_thm16, (I2, ODD_DET4, 1, 3),
     "tail matrix [[2, 1], [0, 2]] is not in GL(2,2Z)"),
    ("T1.6 tail det", classify_thm16, (I2, I4, 1, 3), "|det [[4, 0], [0, 4]]| = 16 is not 4"),
    ("C5.1 decides", classify, (cor51_system(),),
     "tail scale 7 does not divide the last preperiod scale 5"),
    ("C5.1 expanding", classify, (cor51_system(m2=NOT_EXPANDING),),
     f"{T14_NOTE}; T1.5: matrix [[4, 0], [0, 1]] is not expanding; "
     "T1.1: matrix [[4, 0], [0, 1]] is not expanding"),
    ("C5.1 det", classify, (cor51_system(m2=I4),),
     f"{T14_NOTE}; T1.5: |det [[4, 0], [0, 4]]| = 16 is not 4; {T11_NOTHING}"),
    ("C5.1 scaled", classify, (cor51_system(d2=StructuredDigitSet((1, 2), (0, 1))),),
     f"{T14_NOTE}; T1.5: digit sets are not all scales of the canonical set; {T11_NOTHING}"),
    # A T1.6 shape whose hypotheses fail: C5.1 runs next and stays silent.
    ("T1.6 shape, tail det", classify,
     (MoranSystem(((I2, scaled_canonical(3)),), ((I4, scaled_canonical(5)),)),),
     "T1.4: |det [[2, 0], [0, 2]]| = 4 is not > 4; T1.6: |det [[4, 0], [0, 4]]| = 16 is not 4; "
     f"T1.5: |det [[4, 0], [0, 4]]| = 16 is not 4; {T11_NOTHING}"),
    ("T1.6 shape, first expanding", classify,
     (MoranSystem(((Mat2(4, 0, 0, 1), scaled_canonical(3)),), ((I4, scaled_canonical(5)),)),),
     "T1.4: |det [[4, 0], [0, 1]]| = 4 is not > 4; T1.6: matrix [[4, 0], [0, 1]] is not expanding; "
     "T1.5: matrix [[4, 0], [0, 1]] is not expanding; T1.1: matrix [[4, 0], [0, 1]] is not expanding"),
]


@pytest.mark.parametrize("rule, args, detail", [c[1:] for c in HYPOTHESIS_DETAILS],
                         ids=[c[0] for c in HYPOTHESIS_DETAILS])
def test_hypothesis_failure_details(rule, args, detail):
    assert rule(*args).detail == detail


def test_cor51_hypothesis_failures_defer():
    assert cor51_verdict(cor51_system()).rule == "C5.1"
    for sysm in (cor51_system(m2=NOT_EXPANDING), cor51_system(m2=I4),
                 cor51_system(d2=StructuredDigitSet((1, 2), (0, 1)))):
        assert cor51_verdict(sysm) is None


@pytest.fixture
def predicate_calls(monkeypatch):
    """The names of the exact lattice predicates, in call order, wherever
    the package looks them up."""
    import sys as _sys

    from moranspectra import lattice

    calls = []
    for name in ("is_expanding", "in_gl2_2z", "inverse_norm_below_one"):
        original = getattr(lattice, name)

        def wrapper(m, _name=name, _original=original):
            calls.append(_name)
            return _original(m)

        for mod_name, module in list(_sys.modules.items()):
            if mod_name.startswith("moranspectra") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


E, G, N = "is_expanding", "in_gl2_2z", "inverse_norm_below_one"


@pytest.mark.parametrize(
    "rule, args, expected",
    [
        (classify_thm14, (constant(Mat2(4, 2, 2, 4)),), [E, N, G]),
        (classify_thm14, (MoranSystem(((I3, D0),), ((I4, D0),)),), [E, N, E, N, G]),
        (classify_thm11, (constant(ODD_DET4),), [E, G]),
        (classify_thm15, (TWORD_3, [I2, NORM_AT_LEAST_ONE]), [E, G, N, E, G, N]),
        (classify_thm16, (I2, I2, 3, 1), [E, E, G]),
        (cor51_verdict, (cor51_system(),), [E, E, E]),
        (cor51_verdict, (cor51_system(d2=StructuredDigitSet((1, 2), (0, 1))),), [E]),
    ],
)
def test_predicate_call_order(predicate_calls, rule, args, expected):
    rule(*args)
    assert predicate_calls == expected
