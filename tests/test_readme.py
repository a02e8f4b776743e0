"""The README's library quickstart, run as written: each commented result
in it must be what the code returns."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    text = README.read_text()
    section = text.split("## Quickstart (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


# (expression, its README comment, the check of its value)
CLAIMS = [
    ("classify(sys2).outcome", "'Spectral' (rule T1.6)",
     lambda v, ns: v == "Spectral" and ns["classify"](ns["sys2"]).rule == "T1.6"),
    ("fourier(sys2, (0.3, 0.7), 1e-8)", "value + certified bound (tail + rounding)",
     lambda v, ns: v.bound <= 1e-8 and 0 < v.rounding < v.bound),
    ("fourier_zero_exact(sys2, (1, 1))", "exact certificate: level 1, witness (1/2, 1/2)",
     lambda v, ns: v.level == 1 and v.witness == (Fraction(1, 2), Fraction(1, 2))
     and v.verify(ns["sys2"])),
    ("len(points)", None, lambda v, ns: v == 64),
    ("verify_orthogonality(sys2, points).ok", "True, one certificate per difference",
     lambda v, ns: v is True),
]


def test_library_quickstart_runs_as_documented():
    code = _quickstart()
    lines = [" ".join(line.split()) for line in code.splitlines()]
    assert "points = enumerate_tower(tower, 3) # 64 exact points" in lines
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    for expr, comment, holds in CLAIMS:
        if comment is not None:
            assert f"{expr} # {comment}" in lines, expr
        assert holds(eval(expr, namespace), namespace), expr
