"""Edge coverage: level citation in verdicts, preperiod/period interplay,
tolerance behavior, and config corner cases."""

import math
from fractions import Fraction

import pytest

from moranspectra.classify import NOT_SPECTRAL, classify, classify_thm14
from moranspectra.config import parse_config
from moranspectra.digitsets import canonical_digits, scaled_canonical
from moranspectra.lattice import Mat2
from moranspectra.moran import (
    FourierResult,
    MoranSystem,
    TWord,
    fourier,
    realize_word_system,
    validate,
)
from moranspectra.spectra import TowerUnavailable, build_tower

D0 = canonical_digits()
I2, I3, I4 = Mat2.scalar(2), Mat2.scalar(3), Mat2.scalar(4)


class TestLevelCitations:
    def test_second_preperiod_entry_is_not_exempt(self):
        sysm = MoranSystem(((I4, D0), (I3, D0)), ((I4, D0),))
        v = classify_thm14(sysm)
        assert v.outcome == NOT_SPECTRAL
        assert "level 2" in v.detail

    def test_constant_violation_cites_first_reappearance(self):
        v = classify_thm14(MoranSystem.constant(I3, D0))
        assert "level 2" in v.detail

    def test_two_level_period_cites_level_three(self):
        sysm = MoranSystem((), ((I3, D0), (I4, D0)))
        v = classify_thm14(sysm)
        assert v.outcome == NOT_SPECTRAL
        assert "level 3" in v.detail

    def test_tower_unavailable_level_in_two_level_period(self):
        sysm = MoranSystem((), ((I4, D0), (I3, D0)))
        with pytest.raises(TowerUnavailable) as err:
            build_tower(sysm)
        assert err.value.level == 2


class TestWordRealization:
    def test_word_period_lcm_with_matrix_period(self):
        cfg = parse_config(
            "period:\n"
            "  matrix: 2 0 0 2\n"
            "  matrix: 0 -2 2 0\n"
            "word:\n"
            "  sigma_period: 1 2 1\n"
            "  t_values: 1 3\n"
        )
        sysm = cfg.system()
        assert len(sysm.period) == 6  # lcm(2, 3)
        assert sysm.level(1) == (I2, scaled_canonical(1))
        assert sysm.level(2) == (Mat2(0, -2, 2, 0), scaled_canonical(3))
        assert sysm.level(8) == (Mat2(0, -2, 2, 0), scaled_canonical(3))
        assert validate(sysm).ok

    def test_word_preperiod_longer_than_matrix_preperiod(self):
        word_sys = realize_word_system(TWord((2, 2, 1), (1,), (1, 3)), [I4], [I2])
        assert word_sys.level(1) == (I4, scaled_canonical(3))
        assert word_sys.level(2) == (I2, scaled_canonical(3))
        assert word_sys.level(3) == (I2, scaled_canonical(1))
        assert word_sys.level(9) == (I2, scaled_canonical(1))


class TestFourierTolerances:
    def test_bound_shrinks_with_eps(self):
        sysm = MoranSystem.constant(I2, D0)
        loose = fourier(sysm, (0.3, 0.7), 1e-4)
        tight = fourier(sysm, (0.3, 0.7), 1e-12)
        assert tight.bound <= 1e-12 < loose.bound <= 1e-4
        assert tight.levels > loose.levels
        assert abs(loose.value - tight.value) <= loose.bound + tight.bound

    def test_larger_points_need_more_levels(self):
        sysm = MoranSystem.constant(I2, D0)
        near = fourier(sysm, (0.3, 0.7), 1e-8)
        far = fourier(sysm, (300.3, 700.7), 1e-8)
        assert far.levels > near.levels
        assert far.bound <= 1e-8

    def test_uncontrolled_rounding_bound_is_infinite(self):
        # Runs of up to 31 inverse maps reach norms near 10^5, so the orbit's
        # rounding errors are not bounded: the bound says so, and the exact
        # orbit of the origin keeps its exact bound.
        sysm = MoranSystem.constant(Mat2(2, 10**6, 0, 2), D0)
        far = fourier(sysm, (0.3, 0.7), 1e-8)
        assert far.bound == far.rounding == math.inf
        assert fourier(sysm, (0.0, 0.0), 1e-8) == FourierResult(1 + 0j, 0.0, 0, 0.0)


class TestConfigCorners:
    def test_matrix_without_digits_needs_word(self):
        cfg = parse_config("period:\n  matrix: 2 0 0 2\n")
        with pytest.raises(ValueError):
            cfg.system()

    def test_rational_companions_parse(self):
        cfg = parse_config(
            "hadamard:\n"
            "  matrix: 3 0 0 3\n"
            "  digits: canonical\n"
            "  companions: 0,0 3/2,0 0,3/2 3/2,3/2\n"
        )
        assert cfg.hadamard.companions[1] == (Fraction(3, 2), Fraction(0))

    def test_word_letter_out_of_alphabet(self):
        with pytest.raises(Exception):
            parse_config(
                "period:\n  matrix: 2 0 0 2\nword:\n  sigma_period: 4\n  t_values: 1 3\n"
            )

    def test_scaled_negative(self):
        cfg = parse_config("period:\n  matrix: 4 0 0 4\n  digits: scaled -3\n")
        assert cfg.period[0].digits == scaled_canonical(-3)


class TestVerdictsOnNegativeScales:
    def test_negative_scale_divisibility(self):
        sysm = MoranSystem(
            ((I2, scaled_canonical(-9)),), ((I2, scaled_canonical(3)),)
        )
        v = classify(sysm)
        assert v.outcome == "Spectral" and v.rule == "T1.6"

    def test_negative_tail_scale(self):
        sysm = MoranSystem(
            ((I2, scaled_canonical(3)),), ((I2, scaled_canonical(-9)),)
        )
        v = classify(sysm)
        assert v.outcome == NOT_SPECTRAL and v.rule == "T1.6"
