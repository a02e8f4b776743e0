"""Command-line surface: validate | classify | hadamard | zero | fourier |
spectrum | oracle | emit.

Every subcommand reads a declarative config file (see `config`), prints a
human-readable report followed by a machine-readable JSON block, and exits
with: 0 success, 1 NotSpectral under --check, 2 invalid input, 3 parse
error or output that cannot be written (a closed stdout too), 4 resource
cap exceeded.  The JSON block is deterministic for fixed config and flags
(runtime is reported only in the human footer).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Optional

from . import spectra
from .classify import NOT_SPECTRAL, OUT_OF_THEORY, classify
from .config import ConfigError, SystemConfig, format_config, parse_config
from .digitsets import DigitSetError
from .mask import HadamardError, is_hadamard_triple
from .moran import (
    CapExceeded,
    DEFAULT_POINT_CAP,
    MoranSystem,
    OutOfTheoryError,
    SystemInvalid,
    _float_point,
    attractor_points,
    fourier,
    fourier_many,
    fourier_zero_exact,
    validate,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_CAP = 4


@dataclass
class Report:
    command: str
    inputs: dict
    results: dict = field(default_factory=dict)
    citations: list[str] = field(default_factory=list)
    truncation: dict = field(default_factory=dict)
    runtime_s: float = 0.0

    def render(self) -> str:
        lines = [f"== {self.command} =="]
        for k, v in self.results.items():
            lines.append(f"{k}: {v}")
        if self.citations:
            lines.append("citations: " + ", ".join(self.citations))
        if self.truncation:
            pairs = ", ".join(f"{k}={v}" for k, v in self.truncation.items())
            lines.append(f"truncation: {pairs}")
        block = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "citations": self.citations,
            "truncation": self.truncation,
        }
        lines.append("-- report --")
        lines.append(json.dumps(block, sort_keys=True, default=str))
        lines.append(f"(runtime {self.runtime_s:.3f}s)")
        return "\n".join(lines)


def _parse_xi(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--xi must be x,y, got {text!r}")
    out = []
    for p in parts:
        p = p.strip()
        if "/" in p or ("." not in p and "e" not in p.lower()):
            try:
                out.append(Fraction(p))
            except ZeroDivisionError:
                raise ValueError(f"--xi has a zero denominator: {text!r}") from None
        else:
            out.append(float(p))
    return tuple(out)


def _frac_str(v) -> str:
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def cmd_validate(cfg: SystemConfig, args, report: Report) -> int:
    sys_ = cfg.system()
    rep = validate(sys_)
    report.citations = ["existence bound for infinite convolutions"]
    report.results.update(
        ok=rep.ok,
        iota=rep.iota,
        gamma=rep.gamma,
        existence_bound=rep.existence_bound,
        errors=[f"{code} at level {lvl}" for code, lvl in rep.errors],
    )
    return EXIT_OK if rep.ok else EXIT_INVALID


def cmd_classify(cfg: SystemConfig, args, report: Report) -> int:
    if cfg.word is not None:
        cfg.require_period()
        matrices = [l.matrix for l in cfg.preperiod + cfg.period]
        verdict = classify(cfg.tword(), matrices)
    else:
        verdict = classify(cfg.system())
    report.results.update(
        outcome=verdict.outcome, rule=verdict.rule, detail=verdict.detail
    )
    report.citations = [verdict.rule] if verdict.rule else []
    if args.check:
        if verdict.outcome == NOT_SPECTRAL:
            return EXIT_CHECK_FAILED
        if verdict.outcome == OUT_OF_THEORY:
            return EXIT_INVALID
    return EXIT_OK


def cmd_hadamard(cfg: SystemConfig, args, report: Report) -> int:
    if cfg.hadamard is None:
        raise SystemInvalid("config has no hadamard: block")
    h = cfg.hadamard
    result = is_hadamard_triple(h.matrix, h.digits, h.companions)
    report.citations = ["unitary exponential matrix criterion"]
    report.results.update(hadamard=result, pairs=len(h.companions) * (len(h.companions) - 1) // 2)
    return EXIT_OK


def cmd_zero(cfg: SystemConfig, args, report: Report) -> int:
    sys_ = cfg.system()
    xi = _parse_xi(args.xi)
    if not all(isinstance(c, (int, Fraction)) for c in xi):
        raise SystemInvalid("zero queries need exact rational --xi (use p/q,r/s)")
    cert = fourier_zero_exact(sys_, xi)
    report.citations = ["zero-set union over pulled-back mask zeros"]
    if cert is None:
        report.results.update(in_zero_set=False, certificate=None)
    else:
        report.results.update(
            in_zero_set=True,
            certificate={
                "level": cert.level,
                "witness": [_frac_str(cert.witness[0]), _frac_str(cert.witness[1])],
                "verified": cert.verify(sys_),
            },
        )
    return EXIT_OK


def cmd_fourier(cfg: SystemConfig, args, report: Report) -> int:
    sys_ = cfg.system()
    xi = _parse_xi(args.xi)
    res = fourier(sys_, xi, args.eps)
    report.citations = ["infinite mask product"]
    report.results.update(
        value_re=res.value.real, value_im=res.value.imag, abs=abs(res.value)
    )
    report.truncation.update(
        eps=args.eps, bound=res.bound, rounding=res.rounding, levels=res.levels
    )
    return EXIT_OK


def cmd_spectrum(cfg: SystemConfig, args, report: Report) -> int:
    sys_ = cfg.system()
    xi = None if args.xi is None else _float_point(_parse_xi(args.xi))
    if xi is not None:
        fourier_many(sys_, (), args.eps)  # checks eps, as in `emit`, before any build
    if args.kind == "tower":
        tower = spectra.build_tower(sys_)
        points = spectra.enumerate_tower(tower, args.depth, cap=args.cap)
        report.results["label"] = tower.label
        report.truncation["depth"] = args.depth
    else:
        points = spectra.build_lattice_spectrum(sys_, args.box, cap=args.cap)
        report.results["label"] = "completeness-certified lattice spectrum"
        report.truncation["box"] = args.box
    orth = spectra.verify_orthogonality(sys_, points)
    report.citations = ["orthogonality via zero-set certificates"]
    report.results.update(
        points=len(points),
        orthogonal=orth.ok,
        pairs_certified=orth.pairs_checked,
    )
    if not orth.ok:
        p, q = orth.failing_pair
        report.results["failing_pair"] = [
            [_frac_str(p[0]), _frac_str(p[1])],
            [_frac_str(q[0]), _frac_str(q[1])],
        ]
    if xi is not None:
        # The truncation already built is reused; only the others are built.
        if args.kind == "tower":
            nested = [
                points if k == args.depth else spectra.enumerate_tower(tower, k, cap=args.cap)
                for k in range(1, args.depth + 1)
            ]
        else:
            boxes = sorted({max(1, args.box // 2), args.box})
            nested = [
                points if b == args.box else spectra.build_lattice_spectrum(sys_, b, cap=args.cap)
                for b in boxes
            ]
        comp = spectra.completeness_report(sys_, nested, [xi], args.eps)
        report.results["completeness_sum"] = comp.q_values[0]
        report.results["completeness_monotone"] = comp.monotone_in_truncation
        report.truncation["eps"] = args.eps
        report.citations.append("quadratic sum criterion for spectra")
    if args.out:
        path = Path(args.out)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y"])
            for x, y in points:
                writer.writerow([_frac_str(x), _frac_str(y)])
        report.results["out"] = str(path)
    return EXIT_OK


def cmd_oracle(cfg: SystemConfig, args, report: Report) -> int:
    sys_ = cfg.system()
    spectra.check_oracle_level(args.level, args.oracle_cap)
    tower = spectra.build_tower(sys_)
    points = spectra.enumerate_tower(tower, args.level, cap=args.cap)
    rep = spectra.discrete_spectrum_oracle(sys_, args.level, points, cap=args.oracle_cap)
    report.citations = ["discrete spectral-pair unitarity"]
    report.results.update(
        level=args.level,
        points=len(points),
        unitary=rep.unitary,
        residual=rep.residual,
    )
    return EXIT_OK


def write_attractor_csv(path: Path, pts: list[tuple[float, float]]) -> int:
    """Write attractor points (see `attractor_points`) as x,y rows; return
    their number."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        writer.writerows(pts)
    return len(pts)


def write_fourier_grid_csv(path: Path, sys_: MoranSystem, box: float, n: int, eps: float) -> None:
    """Write |mu^| on the n x n grid over [-box, box]^2 as x,y,absval rows."""
    axis = [-box + 2 * box * i / (n - 1) if n > 1 else 0.0 for i in range(n)]

    def grid():
        return ((x, y) for x in axis for y in axis)

    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "absval"])
        for (x, y), res in zip(grid(), fourier_many(sys_, grid(), eps)):
            writer.writerow([x, y, abs(res.value)])


def cmd_emit(cfg: SystemConfig, args, report: Report) -> int:
    if args.grid < 1:
        raise ValueError(f"--grid must be >= 1, got {args.grid}")
    sys_ = cfg.system()
    # fourier_many checks the system and eps when called, before it reads a
    # point, and attractor_points checks --depth and --cap before it builds a
    # point: run those checks before anything is created or written.
    fourier_many(sys_, (), args.eps)
    points = attractor_points(sys_, args.depth, cap=args.cap)
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    attractor_path = outdir / "attractor.csv"
    count = write_attractor_csv(attractor_path, points)
    report.results.update(attractor=str(attractor_path), attractor_points=count)
    report.truncation.update(depth=args.depth)
    grid_path = outdir / "fourier_grid.csv"
    write_fourier_grid_csv(grid_path, sys_, float(args.box), args.grid, args.eps)
    report.results.update(fourier_grid=str(grid_path), grid=args.grid)
    report.truncation.update(box=args.box, eps=args.eps)
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "hadamard": cmd_hadamard,
    "zero": cmd_zero,
    "fourier": cmd_fourier,
    "spectrum": cmd_spectrum,
    "oracle": cmd_oracle,
    "emit": cmd_emit,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main`
    call (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="moranspectra",
        description="Spectral analysis of planar Moran measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a config file")
        p.add_argument("--cap", type=int, default=DEFAULT_POINT_CAP,
                       help="point-count resource cap")
        return p

    add("validate")
    p = add("classify")
    p.add_argument("--check", action="store_true",
                   help="exit 1 on NotSpectral, 2 on OutOfTheory")
    add("hadamard")
    p = add("zero")
    p.add_argument("--xi", required=True, help="rational point p/q,r/s")
    p = add("fourier")
    p.add_argument("--xi", required=True, help="evaluation point x,y")
    p.add_argument("--eps", type=float, default=1e-8)
    p = add("spectrum")
    p.add_argument("--kind", choices=("tower", "lattice"), default="tower")
    p.add_argument("--depth", type=int, default=3, help="tower truncation k")
    p.add_argument("--box", type=int, default=8, help="lattice box half-width")
    p.add_argument("--xi", default=None, help="completeness evaluation point")
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--out", default=None, help="CSV output path for the points")
    p = add("oracle")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--oracle-cap", type=int, default=4)
    p = add("emit")
    p.add_argument("--depth", type=int, default=5, help="attractor depth")
    p.add_argument("--box", type=int, default=2, help="grid box half-width")
    p.add_argument("--grid", type=int, default=50, help="grid points per axis")
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    report = Report(command=args.command, inputs={"config": args.config})
    start = time.perf_counter()
    try:
        cfg = parse_config(Path(args.config).read_text())
        report.inputs["echo"] = format_config(cfg)
        code = _COMMANDS[args.command](cfg, args, report)
    except (ConfigError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (SystemInvalid, OutOfTheoryError, HadamardError, DigitSetError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report.runtime_s = time.perf_counter() - start
    try:
        print(report.render(), flush=True)
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so the interpreter's
        # final flush cannot raise again (see the `signal` docs on SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("output error: stdout is closed", file=sys.stderr)
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
