"""Refusal branches of the config parser, the CLI and the library, each
reached by one fixed input: the exception or exit code, with its message."""

import math
from fractions import Fraction

import pytest

from moranspectra.cli import main
from moranspectra.config import ConfigError, parse_config
from moranspectra.digitsets import (
    DigitSetError,
    GenericDigitSet,
    canonical_digits,
    scaled_by_matrix,
    scaled_canonical,
)
from moranspectra.lattice import Mat2, digit_expansion, sqrt_upper
from moranspectra.moran import (
    MoranSystem,
    OutOfTheoryError,
    SystemInvalid,
    TWord,
    fourier,
    reduce_canonical,
)
from moranspectra.spectra import (
    build_lattice_spectrum,
    build_tower,
    completeness_report,
    completeness_sum,
    verify_orthogonality,
)

D0 = canonical_digits()
I2 = Mat2.scalar(2)
SYS_2I = MoranSystem.constant(I2, D0)
GENERIC = MoranSystem.constant(I2, GenericDigitSet(((0, 0), (1, 0), (0, 1), (5, 5))))
CONST_2I = "period:\n  matrix: 2 0 0 2\n  digits: canonical\n"
GENERIC_CONFIG = "period:\n  matrix: 2 0 0 2\n  digits: generic 0,0 1,0 0,1 5,5\n"


@pytest.mark.parametrize("text, line, message", [
    ("period:\n  matrix: 2 0 0 2\n  shape: canonical\n", 3, "unknown level key 'shape'"),
    ("period:\n  matrix 2 0 0 2\n", 2, "expected 'key: value', got 'matrix 2 0 0 2'"),
    ("period:\n  digits: canonical\n  matrix: 2 0 0 2\n", 2,
     "digits: without a preceding matrix:"),
    (CONST_2I + "hadamard:\n  companions: 0,0 1/2\n", 5, "point must be x,y, got '1/2'"),
    (CONST_2I + "hadamard:\n  companions: 0,0 1/0,1\n", 5, "bad rational point '1/0,1'"),
    ("period:\n  matrix: 2 0 0 2\n  digits: generic 0,0 1/2,0\n", 3,
     "generic digits must be integer points"),
    ("period:\n  matrix: 2 0 0 2\n  digits: generic 0,0 a,b\n", 3, "bad rational point 'a,b'"),
    ("period:\n  matrix: 2 0 0 2\n  digits: generic 0,0 1,0,1\n", 3,
     "point must be x,y, got '1,0,1'"),
    ("period:\n  matrix: 2 0 0 2\n  digits: hexagonal 3\n", 3,
     "digits must be 'canonical' | 'scaled T' | 'structured A1 A2 B1 B2' | "
     "'generic x,y ...', got 'hexagonal 3'"),
], ids=["unknown key", "no colon", "digits first", "one-coordinate companion",
        "zero-denominator companion", "rational generic digit", "non-numeric generic digit",
        "three-coordinate generic digit", "unknown digits spec"])
def test_config_refusals(text, line, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_cli_xi_needs_two_coordinates(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text(CONST_2I)
    assert main(["fourier", str(path), "--xi", "0.3"]) == 2
    assert capsys.readouterr().err == "invalid input: --xi must be x,y, got '0.3'\n"


def test_cli_classify_check_out_of_theory(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text(GENERIC_CONFIG)
    assert main(["classify", str(path)]) == 0
    assert main(["classify", str(path), "--check"]) == 2
    assert "outcome: OutOfTheory\n" in capsys.readouterr().out


def test_cli_hadamard_needs_its_block(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text(CONST_2I)
    assert main(["hadamard", str(path)]) == 2
    assert capsys.readouterr().err == "invalid input: config has no hadamard: block\n"


@pytest.mark.parametrize("call, error, message", [
    (lambda: verify_orthogonality(SYS_2I, [(0, 0), (1, 0), (0, 0)]),
     ValueError, "candidate spectrum has repeated points"),
    (lambda: completeness_sum(SYS_2I, [], (0.3, 0.7), 0.0),
     ValueError, "tolerance must be positive"),
    (lambda: completeness_sum(SYS_2I, [], (0.3, 0.7), -1e-8),
     ValueError, "tolerance must be positive"),
    (lambda: completeness_sum(SYS_2I, [], (0.3, 0.7), math.nan),
     ValueError, "tolerance must be positive"),
    (lambda: completeness_report(SYS_2I, [], [(0.3, 0.7)], 1e-8),
     ValueError, "need at least one candidate set"),
    (lambda: build_tower(GENERIC), OutOfTheoryError, "towers need structured digit sets"),
    (lambda: build_lattice_spectrum(MoranSystem((), ((I2, D0), (I2, scaled_canonical(3)))), 4),
     OutOfTheoryError, "not a two-scale constant-tail scaled family"),
    (lambda: reduce_canonical(GENERIC),
     OutOfTheoryError, "canonical reduction needs structured digit sets"),
    (lambda: fourier(MoranSystem.constant(Mat2(2, 2, 1, 1), D0), (0.3, 0.7), 1e-8),
     SystemInvalid, "system matrix is singular"),
    (lambda: TWord((), (1,), ()), ValueError, "t_values must be nonempty"),
    (lambda: scaled_by_matrix(Mat2(Fraction(1, 2), 0, 0, 1), D0),
     DigitSetError, "digit transport needs an integer matrix"),
    (lambda: sqrt_upper(-1), ValueError, "negative input"),
    (lambda: sqrt_upper(Fraction(-1, 10**30)), ValueError, "negative input"),
], ids=["repeated point", "zero eps", "negative eps", "nan eps", "no sets",
        "generic tower", "outside T1.6", "generic reduction", "singular matrix",
        "no scales", "rational transport", "negative int", "tiny negative"])
def test_library_refusals(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_completeness_sum_of_no_points_is_zero():
    assert completeness_sum(SYS_2I, [], (0.3, 0.7), 1e-8) == 0.0


def test_scaled_by_matrix_on_generic_digits():
    digits = GenericDigitSet(((0, 0), (1, 0), (0, 1), (5, 5)))
    image = scaled_by_matrix(Mat2(1, 1, 0, 1), digits)
    assert image == GenericDigitSet(((0, 0), (1, 0), (1, 1), (10, 5)))
    assert all(type(c) is int for p in image.points() for c in p)


def test_digit_expansion_reduces_a_cancelled_denominator():
    """The stage coordinates have denominators 2 and 6, and the sums are
    integers, so the common denominator reduces to 1."""
    stages = [[(Fraction(1, 2), Fraction(1, 6))],
              [(Fraction(1, 2), Fraction(5, 6)), (Fraction(3, 2), Fraction(-1, 6))]]
    assert digit_expansion(stages) == ([(1, 1), (2, 0)], 1)
