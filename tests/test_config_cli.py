import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moranspectra
from moranspectra.cli import build_parser, main
from moranspectra.config import (
    ConfigError,
    HadamardSpec,
    LevelSpec,
    SystemConfig,
    format_config,
    parse_config,
)
from moranspectra.digitsets import (
    GenericDigitSet,
    StructuredDigitSet,
    canonical_digits,
    scaled_canonical,
)
from moranspectra.lattice import Mat2
from moranspectra.moran import MoranSystem, TWord, fourier, realize_word_system
from moranspectra.spectra import (
    build_lattice_spectrum,
    build_tower,
    completeness_report,
    enumerate_tower,
)

CONST_2I = """\
period:
  matrix: 2 0 0 2
  digits: canonical
"""

WORD_23 = """\
period:
  matrix: 2 0 0 2
word:
  sigma_preperiod: 2
  sigma_period: 3
  t_values: 1 3 5
"""

# Level digits beside a word block: two different systems in one config.
WORD_AND_DIGITS = """\
period:
  matrix: 2 0 0 2
  digits: generic 0,0 1,0 0,1 5,5
word:
  sigma_period: 2
  t_values: 1 3
"""

ZERO_DIGIT = """\
period:
  matrix: 2 0 0 2
  digits: generic 0,0
"""

HADAMARD_OK = """\
hadamard:
  matrix: 2 0 0 2
  digits: canonical
  companions: 0,0 1,0 0,1 1,1
"""


def write(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParse:
    def test_system_config(self):
        cfg = parse_config(CONST_2I)
        sysm = cfg.system()
        assert sysm.period == ((Mat2.scalar(2), canonical_digits()),)

    def test_word_config(self):
        cfg = parse_config(WORD_23)
        assert cfg.word == TWord((2,), (3,), (1, 3, 5))
        sysm = cfg.system()
        assert sysm.level(1)[1] == scaled_canonical(3)
        assert sysm.level(5)[1] == scaled_canonical(5)

    def test_digit_variants(self):
        cfg = parse_config(
            "period:\n"
            "  matrix: 4 0 0 4\n"
            "  digits: structured 1 2 0 1\n"
            "  matrix: 4 0 0 4\n"
            "  digits: generic 0,0 1,0 0,1 -1,-1\n"
        )
        assert len(cfg.period) == 2
        assert cfg.period[0].digits.alpha == (1, 2)
        assert isinstance(cfg.period[1].digits, GenericDigitSet)

    def test_positioned_errors(self):
        with pytest.raises(ConfigError) as err:
            parse_config("period:\n  matrix: 2 0\n")
        assert err.value.line == 2
        with pytest.raises(ConfigError) as err:
            parse_config("bogus:\n")
        assert err.value.line == 1
        with pytest.raises(ConfigError) as err:
            parse_config("period:\n  matrix: 2 0 0 2\n  digits: scaled 2\n")
        assert err.value.line == 3
        with pytest.raises(ConfigError) as err:
            parse_config("word:\n  t_values: 1 3\n")
        assert err.value.line == 1

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\nperiod:\n  matrix: 2 0 0 2  # M\n  digits: canonical\n")
        assert len(cfg.period) == 1


ROUND_TRIP_CONFIGS = [
    SystemConfig(period=[LevelSpec(Mat2.scalar(2), canonical_digits())]),
    SystemConfig(
        preperiod=[LevelSpec(Mat2(2, 2, 0, 2), scaled_canonical(9))],
        period=[LevelSpec(Mat2.scalar(2), scaled_canonical(3))],
    ),
    SystemConfig(
        period=[LevelSpec(Mat2.scalar(2), None)],
        word=TWord((2,), (3,), (1, 3, 5)),
    ),
    SystemConfig(
        period=[
            LevelSpec(
                Mat2.scalar(12),
                GenericDigitSet(((0, 0), (1, 0), (0, 1), (-1, -1))),
            )
        ],
        hadamard=HadamardSpec(
            Mat2.scalar(2),
            canonical_digits(),
            ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(3, 2))),
        ),
    ),
    SystemConfig(
        period=[LevelSpec(Mat2(4, 0, 0, 4), scaled_canonical(-3))],
    ),
]


@pytest.mark.parametrize("cfg", ROUND_TRIP_CONFIGS)
def test_round_trip(cfg):
    assert parse_config(format_config(cfg)) == cfg


small = st.integers(-6, 6)
odd = st.integers(-4, 4).map(lambda k: 2 * k + 1)
matrices = st.builds(Mat2, small, small, small, small)
digit_sets = st.one_of(
    st.just(canonical_digits()),
    odd.map(scaled_canonical),
    st.tuples(small, small, small, small)
    .filter(lambda v: (v[0] * v[3] - v[1] * v[2]) % 2 == 1)
    .map(lambda v: StructuredDigitSet(v[:2], v[2:])),
    st.lists(st.tuples(small, small), min_size=1, max_size=5, unique=True)
    .map(lambda pts: GenericDigitSet(tuple(pts))),
)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
hadamard_specs = st.builds(
    HadamardSpec,
    matrices,
    digit_sets,
    st.lists(st.tuples(rationals, rationals), max_size=4).map(tuple),
)


@st.composite
def system_configs(draw):
    """A config over 0-2 preperiod and 1-3 period levels whose digits come
    either from each level or from a word, with an optional hadamard block."""
    n_pre, n_per = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    word = None
    if draw(st.booleans()):
        t_values = tuple(draw(st.lists(odd.map(abs), min_size=1, max_size=3)))
        letters = st.integers(1, len(t_values))
        word = TWord(
            tuple(draw(st.lists(letters, max_size=2))),
            tuple(draw(st.lists(letters, min_size=1, max_size=3))),
            t_values,
        )
    levels = [
        LevelSpec(draw(matrices), None if word else draw(digit_sets))
        for _ in range(n_pre + n_per)
    ]
    hadamard = draw(st.none() | hadamard_specs)
    return SystemConfig(levels[:n_pre], levels[n_pre:], word, hadamard)


@settings(max_examples=200, deadline=None)
@given(system_configs())
def test_config_means_one_system(cfg):
    """Every generated config round-trips, and means the system of its
    levels, or of its word over its matrices; removing one level's digits
    from a config without a word is refused at that level's matrix line."""
    text = format_config(cfg)
    parsed = parse_config(text)
    assert parsed == cfg
    if cfg.word is not None:
        expected = realize_word_system(
            cfg.word, [l.matrix for l in cfg.preperiod], [l.matrix for l in cfg.period]
        )
    else:
        expected = MoranSystem(
            [(l.matrix, l.digits) for l in cfg.preperiod],
            [(l.matrix, l.digits) for l in cfg.period],
        )
    assert parsed.system() == expected
    lines = text.splitlines()
    levels_end = lines.index("hadamard:") if cfg.hadamard else len(lines)
    digits_at = [i for i in range(levels_end) if lines[i].startswith("  digits:")]
    assert len(digits_at) == (0 if cfg.word else len(cfg.preperiod) + len(cfg.period))
    for i in digits_at:
        with pytest.raises(ConfigError) as err:
            parse_config("\n".join(lines[:i] + lines[i + 1:]))
        assert err.value.line == i  # the matrix: line just above, 1-based


class TestExitCodes:
    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, CONST_2I)]) == 0
        out = capsys.readouterr().out
        assert "iota: 0.5" in out

    def test_validate_invalid(self, tmp_path, capsys):
        bad = "period:\n  matrix: 1 0 0 3\n  digits: canonical\n"
        assert main(["validate", write(tmp_path, bad)]) == 2
        assert "NotExpanding at level 1" in capsys.readouterr().out

    def test_parse_error_exit_3(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, "period:\n  matrix: x\n")]) == 3
        assert main(["validate", str(tmp_path / "missing.txt")]) == 3

    @pytest.mark.parametrize("command", ["validate", "classify"])
    def test_word_with_level_digits_exit_3(self, tmp_path, capsys, command):
        """The word supplies the digits, so a level's own `digits:` line is
        refused at that line instead of silently dropped."""
        with pytest.raises(ConfigError) as err:
            parse_config(WORD_AND_DIGITS)
        assert err.value.line == 3
        assert main([command, write(tmp_path, WORD_AND_DIGITS)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: line 3: ")

    @pytest.mark.parametrize("command", ["validate", "classify"])
    def test_level_without_digits_exit_3(self, tmp_path, capsys, command):
        """Without a word, a level with no digits: line is refused at its
        matrix: line, before any command runs."""
        assert main([command, write(tmp_path, "period:\n  matrix: 2 0 0 2\n")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: line 2: ")

    def test_empty_period_parse_error(self, tmp_path, capsys):
        # A config with no period: header is refused at its preperiod:
        # header, or at line 1 when it has none.
        pre_only = "preperiod:\n  matrix: 2 0 0 2\n  digits: canonical\n"
        for text, line in [(pre_only, 1), ("# levels\n" + pre_only, 2), ("", 1), ("# empty\n", 1)]:
            for command in ("validate", "classify"):
                assert main([command, write(tmp_path, text)]) == 3
                assert capsys.readouterr().err == f"parse error: line {line}: config has no period levels\n"
        assert main(["validate", write(tmp_path, "period:\n")]) == 3
        # A period: header with no levels is refused at its own line.
        assert capsys.readouterr().err.endswith("parse error: line 1: period: block has no levels\n")
        assert main(["validate", write(tmp_path, "# empty\nperiod:\n")]) == 3
        assert capsys.readouterr().err == "parse error: line 2: period: block has no levels\n"

    @pytest.mark.parametrize("text, line, noun", [
        ("period:\n  matrix: 2 0 0 2\nword:\n", 3, "word"),
        (CONST_2I + "hadamard:\n", 4, "hadamard"),
        ("hadamard:\n" + CONST_2I, 1, "hadamard"),
    ])
    @pytest.mark.parametrize("command", ["validate", "hadamard"])
    def test_bare_header_exit_3(self, tmp_path, capsys, text, line, noun, command):
        """A word: or hadamard: header with no keys is a block missing every
        required key, cited at the header, not a block that is not there."""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == line
        assert main([command, write(tmp_path, text)]) == 3
        assert capsys.readouterr().err.startswith(f"parse error: line {line}: {noun} block missing [")

    def test_classify_check(self, tmp_path):
        assert main(["classify", write(tmp_path, WORD_23), "--check"]) == 1
        assert main(["classify", write(tmp_path, CONST_2I), "--check"]) == 0

    def test_cap_exit_4(self, tmp_path):
        outdir = tmp_path / "out"
        assert main(["emit", write(tmp_path, CONST_2I), "--depth", "9", "--grid", "2",
                     "--out", str(outdir), "--cap", "100"]) == 4
        assert not outdir.exists()

    def test_grid_cap_exit_4(self, tmp_path):
        """4 attractor points fit the cap, but the 11 x 11 grid does not."""
        outdir = tmp_path / "out"
        assert main(["emit", write(tmp_path, CONST_2I), "--depth", "1", "--grid", "11",
                     "--out", str(outdir), "--cap", "100"]) == 4
        assert not outdir.exists()

    def test_cap_only_where_read(self):
        """Every subcommand's options and their defaults, pinned: --cap exists
        on the commands that enumerate points, and only there, and a new
        option shows up here.  The oracle's tower has 4^level points, so its
        --cap of 4^4 is the only bound on the level."""
        options = {
            "validate": {},
            "classify": {"check": False},
            "hadamard": {},
            "zero": {"xi": "0,0"},
            "fourier": {"xi": "0,0", "eps": 1e-8},
            "spectrum": {"cap": 65_536, "kind": "tower", "depth": 3, "box": 8, "xi": None,
                         "eps": 1e-8, "out": None},
            "oracle": {"cap": 256, "level": 2},
            "emit": {"cap": 65_536, "depth": 5, "box": 2, "grid": 50, "eps": 1e-8, "out": None},
        }
        parser = build_parser()
        for command, defaults in options.items():
            required = ["--xi=0,0"] if command in ("zero", "fourier") else []
            argv = [command, "cfg.txt", *required]
            got = vars(parser.parse_args(argv))
            assert got == {"command": command, "config": "cfg.txt", **defaults}, command

    def test_closed_stdout_exit_3(self, tmp_path):
        """A reader that is gone before the report is written: exit 3 and one
        stderr line, with no BrokenPipeError traceback at write or exit."""
        src = str(Path(moranspectra.__file__).parents[1])
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "moranspectra", "spectrum", write(tmp_path, CONST_2I),
                 "--kind", "tower", "--depth", "3"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        assert proc.stderr.startswith("output error")

    def test_numpy_loads_only_for_fourier_points(self, tmp_path):
        """Only `fourier_many` evaluating points imports numpy; the other
        commands run in a process that never loads it."""
        src = str(Path(moranspectra.__file__).parents[1])
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        cfg = write(tmp_path, CONST_2I + HADAMARD_OK)
        child = f"""
import contextlib, io, sys
import moranspectra
from moranspectra.cli import main
runs = [["validate"], ["classify"], ["zero", "--xi=1/2,0"], ["hadamard"],
        ["fourier", "--xi=0.3,0.7"], ["oracle", "--level", "2"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([cmd, {cfg!r}, *rest]) for cmd, *rest in runs]
assert codes == [0] * len(runs), codes
assert "numpy" not in sys.modules
sys_ = moranspectra.MoranSystem.constant(moranspectra.Mat2(2, 0, 0, 2),
                                         moranspectra.canonical_digits())
list(moranspectra.fourier_many(sys_, [(0.3, 0.7)], 1e-8))
assert "numpy" in sys.modules
"""
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_zero_digit_set_is_no_traceback(self, tmp_path, capsys):
        """D = {0} gives m_D = 1: no zero set, |mu^| = 1 everywhere.  Its zero
        norm floor used to divide by max||d|| = 0 (ZeroDivisionError)."""
        path = write(tmp_path, ZERO_DIGIT)

        def results(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            return json.loads(next(l for l in out.splitlines() if l.startswith("{")))["results"]

        assert results(["zero", path, "--xi", "1/2,0"])["in_zero_set"] is False
        assert results(["fourier", path, "--xi", "0.3,0.7"])["abs"] == 1
        assert results(["emit", path, "--depth", "2", "--grid", "3",
                        "--out", str(tmp_path / "out")])["attractor_points"] == 1

    def test_hadamard_mismatch_exit_2(self, tmp_path):
        bad = HADAMARD_OK.replace(" 1,1", "")
        assert main(["hadamard", write(tmp_path, bad)]) == 2

    @pytest.mark.parametrize("argv", [
        ["fourier", "--xi", "0.3,0.7"],
        ["spectrum", "--xi=0.3,0.7"],
        ["emit", "--depth", "2"],
    ], ids=["fourier", "spectrum", "emit"])
    @pytest.mark.parametrize("eps", ["inf", "1e308"])
    def test_huge_eps_exit_0(self, tmp_path, capsys, argv, eps):
        """An eps whose 4 q eps overflows made the tail screen 0, or NaN at
        inf, so every product ran to the level cap (exit 4)."""
        args = [argv[0], write(tmp_path, CONST_2I), *argv[1:], "--eps", eps]
        if argv[0] == "emit":
            args += ["--out", str(tmp_path / "out")]
        assert main(args) == 0
        assert capsys.readouterr().err == ""

    def test_zero_denominator_xi_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, CONST_2I)
        assert main(["zero", path, "--xi", "1/0,1"]) == 2
        assert "zero denominator" in capsys.readouterr().err
        assert main(["fourier", path, "--xi", "0.5,3/0"]) == 2

    @pytest.mark.parametrize("xi", ["1e400,0", "-1e400,0.5", "0.5,1e999"])
    def test_non_finite_xi_exit_2(self, tmp_path, capsys, xi):
        # Parsed as an infinite float, the point used to walk the orbit to
        # the level cap (exit 4) instead of being rejected.
        assert main(["fourier", write(tmp_path, CONST_2I), f"--xi={xi}"]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_scan_caps_exit_4(self, tmp_path, monkeypatch, capsys):
        from moranspectra import moran

        path = write(tmp_path, CONST_2I)
        monkeypatch.setattr(moran, "MAX_SCAN_LEVELS", 2)
        assert main(["zero", path, "--xi", "1001/3,0"]) == 4
        assert main(["fourier", path, "--xi", "0.3,0.7"]) == 4
        assert "hard cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            pytest.param(["--xi=nan,0"], id="nan,0"),
            pytest.param(["--xi=0.3,x"], id="0.3,x"),
            pytest.param(["--xi=1e400,0"], id="1e400,0"),
            pytest.param(["--xi=0.3,0.7", "--eps", "0"], id="eps 0"),
            pytest.param(["--xi=0.3,0.7", "--eps", "-1"], id="eps -1"),
            pytest.param(["--xi=0.3,0.7", "--eps", "nan"], id="eps nan"),
        ],
    )
    def test_spectrum_rejects_bad_xi_before_building(self, tmp_path, monkeypatch, capsys, flags):
        from moranspectra import spectra

        def late(*_):
            raise AssertionError("--xi checked after the spectrum was built")

        monkeypatch.setattr(spectra, "verify_orthogonality", late)
        assert main(["spectrum", write(tmp_path, CONST_2I), "--kind", "lattice",
                     "--box", "32", *flags]) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_oracle_refuses_level_before_enumerating(self, tmp_path, monkeypatch, capsys):
        """--cap bounds the 4^level-point tower, so a level past it (or below
        1) is refused before any tower point is built."""
        from moranspectra import spectra

        def late(*_, **__):
            raise AssertionError("a tower point was built before --level was checked")

        monkeypatch.setattr(spectra, "digit_expansion", late)
        assert main(["oracle", write(tmp_path, CONST_2I), "--level", "8"]) == 4
        assert "4^8 tower points exceed cap 256" in capsys.readouterr().err
        assert main(["oracle", write(tmp_path, CONST_2I), "--level", "0"]) == 2
        assert "depth must be >= 1" in capsys.readouterr().err

    def test_oracle_level_five_needs_cap(self, tmp_path, capsys):
        path = write(tmp_path, CONST_2I)
        assert main(["oracle", path, "--level", "5"]) == 4
        assert "4^5 tower points exceed cap 256" in capsys.readouterr().err
        assert main(["oracle", path, "--level", "5", "--cap", "1024"]) == 0
        assert "unitary: True" in capsys.readouterr().out

    def test_emit_cap_states_the_count(self, tmp_path, capsys):
        """Past the cap the count is written as a power, not as the partial
        product at which the count stopped (262144 = 4^9 here)."""
        path = write(tmp_path, CONST_2I)
        assert main(["emit", path, "--depth", str(10**11), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == (
            "resource cap: 4^100000000000 attractor points exceed cap 65536\n")
        assert main(["emit", path, "--depth", "9", "--cap", "100"]) == 4
        assert "4^9 attractor points exceed cap 100" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_emit_depth_is_bounded_for_one_point_digits(self, tmp_path, capsys):
        """{(0, 0)} has one attractor point at every depth, so no point cap
        stops a huge --depth; the level cap does, before --out is made."""
        start = time.perf_counter()
        assert main(["emit", write(tmp_path, ZERO_DIGIT), "--depth", str(10**11),
                     "--grid", "2", "--out", str(tmp_path / "o")]) == 4
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "resource cap: depth 100000000000 exceeds the level cap 100000\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["fourier", "--xi", "1e308,1e308"],
        ["fourier", "--xi=-1e308,5"],
        ["spectrum", "--xi", "1e308,0"],
    ])
    def test_overflowing_xi_exit_2(self, tmp_path, capsys, argv):
        """A finite point whose phases would overflow: exit 2 naming the point
        (it used to be `math domain error`, or a NaN completeness sum)."""
        assert main([argv[0], write(tmp_path, CONST_2I), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: point (") and "too large" in err

    def test_zero_decides_large_generic_denominator(self, tmp_path, capsys):
        # q = 1,200,036 at level 1: refused (exit 2) while the dense Phi_q
        # test's 100,000 limit stood.
        d0 = canonical_digits().points()
        digits = " ".join(f"{x + 6 * u},{y + 6 * v}" for x, y in d0 for u, v in d0)
        cfg = f"period:\n  matrix: 12 0 0 12\n  digits: generic {digits}\n"
        assert main(["zero", write(tmp_path, cfg), "--xi=1/100003,0"]) == 0
        assert "in_zero_set: False" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["emit", "--grid", "0"],
            ["emit", "--grid", "-3"],
            ["spectrum", "--kind", "lattice", "--box", "-1"],
            ["emit", "--depth", "0"],
        ],
    )
    def test_bad_ranges_exit_2(self, tmp_path, capsys, argv):
        outdir = tmp_path / "out"
        args = [argv[0], write(tmp_path, CONST_2I), *argv[1:]]
        if argv[0] == "emit":
            args += ["--out", str(outdir)]
        assert main(args) == 2
        assert "invalid input" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "cfg, flags",
        [
            ("period:\n  matrix: 2 1 1 2\n  digits: canonical\n", []),
            (CONST_2I, ["--eps", "0"]),
        ],
        ids=["non-expanding", "zero eps"],
    )
    def test_emit_rejects_before_writing(self, tmp_path, capsys, cfg, flags):
        outdir = tmp_path / "out"
        assert main(["emit", write(tmp_path, cfg), "--depth", "2", "--grid", "3",
                     "--out", str(outdir), *flags]) == 2
        assert "invalid input" in capsys.readouterr().err
        assert not list(tmp_path.glob("**/*.csv"))


class TestCommands:
    def test_hadamard(self, tmp_path, capsys):
        assert main(["hadamard", write(tmp_path, HADAMARD_OK)]) == 0
        assert "hadamard: True" in capsys.readouterr().out

    def test_zero_certificate(self, tmp_path, capsys):
        assert main(["zero", write(tmp_path, CONST_2I), "--xi", "1,1"]) == 0
        out = capsys.readouterr().out
        assert "'level': 1" in out and "1/2" in out

    def test_zero_requires_rational(self, tmp_path):
        assert main(["zero", write(tmp_path, CONST_2I), "--xi", "0.5,0.5"]) == 2

    def test_fourier(self, tmp_path, capsys):
        assert main(["fourier", write(tmp_path, CONST_2I), "--xi", "0.3,0.7",
                     "--eps", "1e-8"]) == 0
        out = capsys.readouterr().out
        truncation = json.loads(out.split("-- report --\n")[1].splitlines()[0])["truncation"]
        assert 0 < truncation["rounding"] < truncation["bound"] <= 1e-8
        assert f"rounding={truncation['rounding']}" in out

    def test_spectrum_tower_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "pts.csv"
        assert main(["spectrum", write(tmp_path, CONST_2I), "--kind", "tower",
                     "--depth", "2", "--out", str(out_csv)]) == 0
        with out_csv.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y"]
        assert len(rows) == 17
        assert "orthogonal: True" in capsys.readouterr().out

    def test_spectrum_lattice_completeness(self, tmp_path, capsys):
        assert main(["spectrum", write(tmp_path, CONST_2I), "--kind", "lattice",
                     "--box", "3", "--xi", "0,0"]) == 0
        out = capsys.readouterr().out
        assert "completeness_sum: 0.99" in out or "completeness_sum: 1.0" in out

    @pytest.mark.parametrize(
        "flags, builds",
        [
            (["--kind", "tower", "--depth", "3"], [1, 2, 3]),
            (["--kind", "lattice", "--box", "4"], [2, 4]),
            (["--kind", "lattice", "--box", "1"], [1]),
            (["--kind", "lattice", "--box", "0"], [0]),
        ],
    )
    def test_spectrum_xi_builds_each_truncation_once(self, tmp_path, monkeypatch, capsys,
                                                     flags, builds):
        from moranspectra import spectra

        kind = flags[1]
        name = "enumerate_tower" if kind == "tower" else "build_lattice_spectrum"
        real = getattr(spectra, name)
        calls = []
        monkeypatch.setattr(spectra, name, lambda s, k, cap: calls.append(k) or real(s, k, cap))
        assert main(["spectrum", write(tmp_path, CONST_2I), *flags, "--xi", "0.3,0.7"]) == 0
        assert sorted(calls) == builds
        sysm = parse_config(CONST_2I).system()
        base = build_tower(sysm) if kind == "tower" else sysm
        nested = [real(base, k, 65_536) for k in builds]
        out = capsys.readouterr().out
        results = json.loads(out.split("-- report --\n")[1].splitlines()[0])["results"]
        assert results["completeness_sum"] == completeness_report(
            sysm, nested, [(0.3, 0.7)], 1e-8).q_values[0]

    def test_spectrum_report_names_the_failing_pair(self, tmp_path, capsys, monkeypatch):
        """A set that fails certification reports its first failing pair as
        exact strings, p/q or p."""
        from moranspectra import spectra
        from moranspectra.spectra import OrthogonalityResult

        pair = ((Fraction(1, 2), Fraction(0)), (Fraction(-3), Fraction(5, 4)))
        monkeypatch.setattr(spectra, "verify_orthogonality",
                            lambda *_: OrthogonalityResult(False, pair, 7, 5))
        assert main(["spectrum", write(tmp_path, CONST_2I), "--kind", "tower",
                     "--depth", "2"]) == 0
        block = json.loads(capsys.readouterr().out.split("-- report --\n")[1].splitlines()[0])
        assert block["results"] == {
            "label": "orthogonal candidate", "points": 16, "orthogonal": False,
            "pairs_certified": 7, "failing_pair": [["1/2", "0"], ["-3", "5/4"]]}

    @pytest.mark.parametrize(
        "flags, label, truncation, rows, nested",
        [
            (["--kind", "tower", "--depth", "2"], "orthogonal candidate", "depth",
             ["0,0", "2,0", "0,2", "2,2", "1,0", "3,0", "1,2", "3,2",
              "0,1", "2,1", "0,3", "2,3", "1,1", "3,1", "1,3", "3,3"], [1, 2]),
            (["--kind", "lattice", "--box", "1"], "completeness-certified lattice spectrum", "box",
             ["-1,-1", "-1,0", "-1,1", "0,-1", "0,0", "0,1", "1,-1", "1,0", "1,1"], [1]),
        ],
        ids=["tower", "lattice"],
    )
    def test_spectrum_report_fields(self, tmp_path, capsys, flags, label, truncation, rows,
                                    nested):
        """Both kinds report the same fields from one builder: the label, the
        truncation size and eps, the point count and certified pairs, the
        completeness sum over the nested truncations, and the points as
        exact x,y CSV rows."""
        out_csv = tmp_path / "pts.csv"
        assert main(["spectrum", write(tmp_path, CONST_2I), *flags, "--xi=-0.49,0.7",
                     "--out", str(out_csv)]) == 0
        block = json.loads(capsys.readouterr().out.split("-- report --\n")[1].splitlines()[0])
        n = len(rows)
        sysm = parse_config(CONST_2I).system()
        if truncation == "depth":
            sets = [enumerate_tower(build_tower(sysm), k) for k in nested]
        else:
            sets = [build_lattice_spectrum(sysm, b) for b in nested]
        q = completeness_report(sysm, sets, [(-0.49, 0.7)], 1e-8).q_values[0]
        assert block["results"] == {
            "label": label, "points": n, "orthogonal": True, "pairs_certified": n * (n - 1) // 2,
            "completeness_sum": q, "completeness_monotone": True, "out": str(out_csv)}
        assert block["truncation"] == {truncation: int(flags[-1]), "eps": 1e-8}
        assert out_csv.read_bytes().decode() == "".join(f"{r}\r\n" for r in ["x,y", *rows])

    def test_oracle(self, tmp_path, capsys):
        assert main(["oracle", write(tmp_path, CONST_2I), "--level", "2"]) == 0
        assert "unitary: True" in capsys.readouterr().out

    def test_emit_files(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert main(["emit", write(tmp_path, CONST_2I), "--depth", "5",
                     "--grid", "5", "--out", str(outdir)]) == 0
        with (outdir / "attractor.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y"]
        assert len(rows) == 1025  # header + 4^5
        with (outdir / "fourier_grid.csv").open() as fh:
            grid = list(csv.reader(fh))
        assert grid[0] == ["x", "y", "absval"]
        assert len(grid) == 26


    def test_emit_grid_matches_fourier(self, tmp_path, capsys):
        """Each absval of the batched grid is |fourier| at that point."""
        cfg = "period:\n  matrix: 2 2 0 2\n  digits: scaled 3\n"
        outdir = tmp_path / "out"
        assert main(["emit", write(tmp_path, cfg), "--depth", "2", "--grid", "9",
                     "--box", "3", "--eps", "1e-10", "--out", str(outdir)]) == 0
        sysm = parse_config(cfg).system()
        with (outdir / "fourier_grid.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 81
        for x, y, absval in rows:
            ref = abs(fourier(sysm, (float(x), float(y)), 1e-10).value)
            assert abs(float(absval) - ref) <= 1e-14, (x, y)


class TestDeterminism:
    def test_report_blocks_identical(self, tmp_path, capsys):
        path = write(tmp_path, WORD_23)
        main(["classify", path])
        first = capsys.readouterr().out
        main(["classify", path])
        second = capsys.readouterr().out

        def block(text):
            for line in text.splitlines():
                if line.startswith("{"):
                    return json.loads(line)
            raise AssertionError("no JSON block")

        assert block(first) == block(second)

    @pytest.mark.parametrize("body, argv, nulls", [
        ("period:\n  matrix: 1 0 0 2\n  digits: canonical\n", ["validate"],
         {"results": ("iota", "existence_bound")}),
        ("period:\n  matrix: 2 1000000 0 2\n  digits: canonical\n",
         ["fourier", "--xi", "0.3,0.7"], {"truncation": ("bound", "rounding")}),
    ], ids=["validate", "fourier"])
    def test_infinite_numbers_are_null(self, tmp_path, capsys, body, argv, nulls):
        """The block is standard JSON: an infinite number is null there and
        stays `inf` in the human-readable lines."""
        main([argv[0], write(tmp_path, body), *argv[1:]])
        out = capsys.readouterr().out

        def refuse(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        line = next(l for l in out.splitlines() if l.startswith("{"))
        block = json.loads(line, parse_constant=refuse)
        for part, keys in nulls.items():
            for key in keys:
                assert block[part][key] is None
        assert "inf" in out.split("-- report --")[0]


# --- fuzzing the command line -------------------------------------------------

XI_PARTS = ["", " 1/2 ", "-3/4", "0", "1/0", "nan", "inf", "-inf", "1e400", "0.3",
            "1e-320", "9" * 60 + "/7", "1/" + "9" * 60, "x", "1/2/3", "1e"]
xi_strings = st.one_of(
    st.tuples(st.sampled_from(XI_PARTS), st.sampled_from(XI_PARTS)).map(",".join),
    st.sampled_from(XI_PARTS),
    st.text(max_size=6),
)
flag_values = st.one_of(
    xi_strings,
    st.sampled_from(["-1", "0", "1", "2", "3", "tower", "lattice", "1e9", "nan", "inf", "1e308"]),
)
flags = st.sampled_from(["--xi", "--eps", "--depth", "--box", "--grid", "--level",
                         "--kind", "--cap", "--check", "--out", "--bogus"])
commands = st.sampled_from(["validate", "classify", "hadamard", "zero", "fourier",
                            "spectrum", "oracle", "emit", "", "nope", "-h"])


# Degenerate but parseable systems: D = {0}, one nonzero digit, a collinear
# pair, a non-expanding matrix.
BODIES = [
    CONST_2I,
    ZERO_DIGIT,
    "period:\n  matrix: 2 0 0 2\n  digits: generic 1,2\n",
    "period:\n  matrix: 2 0 0 2\n  digits: generic 0,0 1,0\n",
    "period:\n  matrix: 2 0 0 1\n  digits: canonical\n",
]


@settings(max_examples=100, deadline=None)
@given(
    commands,
    st.sampled_from(["fuzz.txt", "missing.txt", "", "."]),
    st.lists(st.tuples(flags, flag_values), max_size=4),
    st.booleans(),
    st.sampled_from(BODIES),
)
@example("emit", "fuzz.txt", [], False, ZERO_DIGIT)
def test_cli_fuzz_exit_codes(tmp_path_factory, command, config, pairs, drop_value, body):
    """Any argv on any config body ends in a documented exit code
    (argparse's SystemExit counts as its code), never another exception;
    the shared parser keeps serving later calls unchanged."""
    workdir = tmp_path_factory.getbasetemp() / "fuzz"
    workdir.mkdir(exist_ok=True)
    (workdir / "cfg.txt").write_text(CONST_2I)
    (workdir / "fuzz.txt").write_text(body)
    argv = [command, config] if command else []
    for flag, value in pairs:
        argv += [flag] if drop_value else [flag, value]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            assert main(["validate", "cfg.txt"]) == 0
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 3, 4), argv
    assert build_parser() is build_parser()
