"""Declarative text configs for systems, words, and Hadamard queries.

Line-oriented format, one construct per line, `#` comments, two-space
indentation under section headers:

    preperiod:
      matrix: 2 0 0 2
      digits: scaled 9
    period:
      matrix: 2 0 0 2
      digits: scaled 3
    hadamard:
      matrix: 2 0 0 2
      digits: canonical
      companions: 0,0 1,0 0,1 1,1

Digit specs: `canonical` | `scaled T` | `structured A1 A2 B1 B2` |
`generic x,y x,y ...`.  A `word:` block (`sigma_preperiod: 2`,
`sigma_period: 3`, `t_values: 1 3 5`) supplies the digit scales, so its
level blocks hold matrices only; without one, every level needs `digits:`.
A level with neither is refused at its `matrix:` line, one with both at its
`digits:` line.  All numbers are exact; companion points accept rationals
like `1/2,3/2`.  Parse errors carry the line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .digitsets import (
    DigitSet,
    GenericDigitSet,
    StructuredDigitSet,
    canonical_digits,
    scaled_canonical,
    scaled_t_of,
)
from .lattice import Mat2
from .moran import MoranSystem, TWord, realize_word_system


class ConfigError(ValueError):
    """Config text that does not parse; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class LevelSpec:
    matrix: Mat2
    digits: Optional[DigitSet]


@dataclass
class HadamardSpec:
    matrix: Mat2
    digits: DigitSet
    companions: tuple[tuple[Fraction, Fraction], ...]


@dataclass
class SystemConfig:
    preperiod: list[LevelSpec] = field(default_factory=list)
    period: list[LevelSpec] = field(default_factory=list)
    word: Optional[TWord] = None
    hadamard: Optional[HadamardSpec] = None

    def require_period(self) -> None:
        if not self.period:
            raise ConfigError(0, "config has no period levels")

    def system(self) -> MoranSystem:
        """The Moran system this config describes (realizing a word if given)."""
        self.require_period()
        if self.word is not None:
            return realize_word_system(
                self.word,
                [l.matrix for l in self.preperiod],
                [l.matrix for l in self.period],
            )
        return MoranSystem(
            [(l.matrix, l.digits) for l in self.preperiod],
            [(l.matrix, l.digits) for l in self.period],
        )


def _parse_ints(text: str, line: int, expect: Optional[int] = None) -> tuple[int, ...]:
    parts = text.split()
    try:
        vals = tuple(map(int, parts))
    except ValueError:
        raise ConfigError(line, f"expected integers, got {text!r}")
    if expect is not None and len(vals) != expect:
        raise ConfigError(line, f"expected {expect} integers, got {len(vals)}")
    return vals


def _parse_matrix(text: str, line: int) -> Mat2:
    return Mat2(*_parse_ints(text, line, expect=4))


def _parse_point(tok: str, line: int) -> tuple[Fraction, Fraction]:
    parts = tok.split(",")
    if len(parts) != 2:
        raise ConfigError(line, f"point must be x,y, got {tok!r}")
    try:
        return (Fraction(parts[0]), Fraction(parts[1]))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(line, f"bad rational point {tok!r}")


def _parse_digits(text: str, line: int) -> DigitSet:
    parts = text.split()
    kind = parts[0] if parts else ""
    try:
        if kind == "canonical" and len(parts) == 1:
            return canonical_digits()
        if kind == "scaled" and len(parts) == 2:
            return scaled_canonical(int(parts[1]))
        if kind == "structured" and len(parts) == 5:
            a1, a2, b1, b2 = (int(p) for p in parts[1:])
            return StructuredDigitSet((a1, a2), (b1, b2))
        if kind == "generic" and len(parts) >= 2:
            pts = []
            for tok in parts[1:]:
                x, y = _parse_point(tok, line)
                if x.denominator != 1 or y.denominator != 1:
                    raise ConfigError(line, "generic digits must be integer points")
                pts.append((int(x), int(y)))
            return GenericDigitSet(tuple(pts))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(line, str(exc))
    raise ConfigError(
        line,
        f"digits must be 'canonical' | 'scaled T' | 'structured A1 A2 B1 B2' | "
        f"'generic x,y ...', got {text!r}",
    )


def _parse_companions(text: str, line: int) -> tuple[tuple[Fraction, Fraction], ...]:
    return tuple(_parse_point(tok, line) for tok in text.split())


# Each section's noun for error messages and one value parser per key.
_LEVEL_KEYS = ("level", {"matrix": _parse_matrix, "digits": _parse_digits})
_KEYS = {
    "preperiod": _LEVEL_KEYS,
    "period": _LEVEL_KEYS,
    "word": ("word", dict.fromkeys(("sigma_preperiod", "sigma_period", "t_values"), _parse_ints)),
    "hadamard": ("hadamard", {"matrix": _parse_matrix, "digits": _parse_digits,
                              "companions": _parse_companions}),
}


def parse_config(text: str) -> SystemConfig:
    cfg = SystemConfig()
    section: Optional[str] = None
    header_line: dict[str, int] = {}
    fields: dict[str, dict] = {"word": {}, "hadamard": {}}
    levels_at: dict[int, LevelSpec] = {}  # each level, by its matrix: line
    open_level: Optional[LevelSpec] = None
    digits_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        if not raw.startswith((" ", "\t")):
            head = stripped.strip()
            if not head.endswith(":") or head[:-1] not in _KEYS:
                raise ConfigError(lineno, f"expected a section header {tuple(_KEYS)}, got {head!r}")
            section, open_level = head[:-1], None
            header_line[section] = lineno
            continue
        if section is None:
            raise ConfigError(lineno, "content before any section header")
        body = stripped.strip()
        if ":" not in body:
            raise ConfigError(lineno, f"expected 'key: value', got {body!r}")
        key, _, value = body.partition(":")
        key, value = key.strip(), value.strip()
        noun, parsers = _KEYS[section]
        if key not in parsers:
            raise ConfigError(lineno, f"unknown {noun} key {key!r}")
        if noun == "level" and key == "digits" and open_level is None:
            raise ConfigError(lineno, "digits: without a preceding matrix:")
        parsed = parsers[key](value, lineno)
        if noun != "level":
            fields[section][key] = parsed
        elif key == "matrix":
            open_level = levels_at[lineno] = LevelSpec(parsed, None)
            getattr(cfg, section).append(open_level)
        else:
            open_level.digits, open_level = parsed, None
            digits_line = digits_line or lineno

    word, had = fields["word"], fields["hadamard"]
    if word and digits_line:
        raise ConfigError(digits_line, "level digits: conflict with the word: block's scales")
    if word:
        missing = {"sigma_period", "t_values"} - set(word)
        if missing:
            raise ConfigError(header_line["word"], f"word block missing {sorted(missing)}")
        try:
            cfg.word = TWord(
                word.get("sigma_preperiod", ()), word["sigma_period"], word["t_values"]
            )
        except ValueError as exc:
            raise ConfigError(header_line["word"], str(exc))
    if had:
        missing = {"matrix", "digits", "companions"} - set(had)
        if missing:
            raise ConfigError(header_line["hadamard"], f"hadamard block missing {sorted(missing)}")
        cfg.hadamard = HadamardSpec(**had)
    bare = [line for line, level in levels_at.items() if level.digits is None]
    if bare and cfg.word is None:
        raise ConfigError(bare[0], "level without digits needs a word: block")
    return cfg


def _format_digits(d: DigitSet) -> str:
    t = scaled_t_of(d)
    if t == 1:
        return "canonical"
    if t is not None:
        return f"scaled {t}"
    if isinstance(d, StructuredDigitSet):
        a, b = d.alpha, d.beta
        return f"structured {a[0]} {a[1]} {b[0]} {b[1]}"
    return "generic " + " ".join(f"{x},{y}" for x, y in d.points())


def _format_matrix(m: Mat2) -> str:
    return " ".join(str(e) for e in m.entries())


def format_config(cfg: SystemConfig) -> str:
    """Inverse of parse_config (round-trips exactly)."""
    out: list[str] = []
    for name, levels in (("preperiod", cfg.preperiod), ("period", cfg.period)):
        if levels:
            out.append(f"{name}:")
            for l in levels:
                out.append(f"  matrix: {_format_matrix(l.matrix)}")
                if l.digits is not None:
                    out.append(f"  digits: {_format_digits(l.digits)}")
    if cfg.word is not None:
        out.append("word:")
        if cfg.word.preperiod:
            out.append("  sigma_preperiod: " + " ".join(map(str, cfg.word.preperiod)))
        out.append("  sigma_period: " + " ".join(map(str, cfg.word.period)))
        out.append("  t_values: " + " ".join(map(str, cfg.word.t_values)))
    if cfg.hadamard is not None:
        h = cfg.hadamard
        out.append("hadamard:")
        out.append(f"  matrix: {_format_matrix(h.matrix)}")
        out.append(f"  digits: {_format_digits(h.digits)}")
        out.append(
            "  companions: "
            + " ".join(f"{x}" + "," + f"{y}" for x, y in h.companions)
        )
    return "\n".join(out) + "\n"
