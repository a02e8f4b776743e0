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
level blocks hold matrices only.  All numbers are exact; companion points
accept rationals like `1/2,3/2`.  Parse errors carry the line number.
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
        levels = []
        for l in self.preperiod + self.period:
            if l.digits is None:
                raise ValueError("level without digits needs a word: block")
            levels.append((l.matrix, l.digits))
        p = len(self.preperiod)
        return MoranSystem(levels[:p], levels[p:])


def _parse_ints(text: str, line: int, expect: Optional[int] = None) -> list[int]:
    parts = text.split()
    try:
        vals = [int(p) for p in parts]
    except ValueError:
        raise ConfigError(line, f"expected integers, got {text!r}")
    if expect is not None and len(vals) != expect:
        raise ConfigError(line, f"expected {expect} integers, got {len(vals)}")
    return vals


def _parse_matrix(text: str, line: int) -> Mat2:
    a, b, c, d = _parse_ints(text, line, expect=4)
    return Mat2(a, b, c, d)


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


_SECTIONS = ("preperiod", "period", "word", "hadamard")


def parse_config(text: str) -> SystemConfig:
    cfg = SystemConfig()
    section: Optional[str] = None
    word_fields: dict[str, tuple[int, ...]] = {}
    word_line = 0
    had_fields: dict[str, object] = {}
    had_line = digits_line = 0
    pending_matrix: Optional[Mat2] = None

    def close_level(line: int) -> None:
        nonlocal pending_matrix
        if pending_matrix is not None:
            target = cfg.preperiod if section == "preperiod" else cfg.period
            target.append(LevelSpec(pending_matrix, None))
            pending_matrix = None

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        if not raw.startswith((" ", "\t")):
            head = stripped.strip()
            if not head.endswith(":") or head[:-1] not in _SECTIONS:
                raise ConfigError(
                    lineno, f"expected a section header {_SECTIONS}, got {head!r}"
                )
            close_level(lineno)
            section = head[:-1]
            if section == "word":
                word_line = lineno
            if section == "hadamard":
                had_line = lineno
            continue
        if section is None:
            raise ConfigError(lineno, "content before any section header")
        body = stripped.strip()
        if ":" not in body:
            raise ConfigError(lineno, f"expected 'key: value', got {body!r}")
        key, _, value = body.partition(":")
        key, value = key.strip(), value.strip()

        if section in ("preperiod", "period"):
            if key == "matrix":
                close_level(lineno)
                pending_matrix = _parse_matrix(value, lineno)
            elif key == "digits":
                if pending_matrix is None:
                    raise ConfigError(lineno, "digits: without a preceding matrix:")
                target = cfg.preperiod if section == "preperiod" else cfg.period
                target.append(LevelSpec(pending_matrix, _parse_digits(value, lineno)))
                pending_matrix = None
                digits_line = digits_line or lineno
            else:
                raise ConfigError(lineno, f"unknown level key {key!r}")
        elif section == "word":
            if key in ("sigma_preperiod", "sigma_period", "t_values"):
                word_fields[key] = tuple(_parse_ints(value, lineno))
            else:
                raise ConfigError(lineno, f"unknown word key {key!r}")
        elif section == "hadamard":
            if key == "matrix":
                had_fields["matrix"] = _parse_matrix(value, lineno)
            elif key == "digits":
                had_fields["digits"] = _parse_digits(value, lineno)
            elif key == "companions":
                had_fields["companions"] = tuple(
                    _parse_point(tok, lineno) for tok in value.split()
                )
            else:
                raise ConfigError(lineno, f"unknown hadamard key {key!r}")
    close_level(len(lines))

    if word_fields and digits_line:
        raise ConfigError(digits_line, "level digits: conflict with the word: block's scales")
    if word_fields:
        missing = {"sigma_period", "t_values"} - set(word_fields)
        if missing:
            raise ConfigError(word_line, f"word block missing {sorted(missing)}")
        try:
            cfg.word = TWord(
                word_fields.get("sigma_preperiod", ()),
                word_fields["sigma_period"],
                word_fields["t_values"],
            )
        except ValueError as exc:
            raise ConfigError(word_line, str(exc))
    if had_fields:
        missing = {"matrix", "digits", "companions"} - set(had_fields)
        if missing:
            raise ConfigError(had_line, f"hadamard block missing {sorted(missing)}")
        cfg.hadamard = HadamardSpec(
            had_fields["matrix"], had_fields["digits"], had_fields["companions"]
        )
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
