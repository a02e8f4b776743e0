"""Golden outputs: each family in tests/golden/ is recomputed and compared.

A family file holds its inputs as data (point sets as integer numerators
over one denominator q, systems as a base name and a conjugator) next to
the expected outputs, so these tests rebuild no input and import nothing
from `bench/`.  A change that means to move outputs rewrites the families
it moves, by hand, and says how many cases moved:

    PYTHONPATH=src python tests/test_golden.py --write [family ...]
"""

import json
import math
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from moranspectra.digitsets import canonical_digits, scaled_canonical
from moranspectra.lattice import Mat2
from moranspectra.moran import MoranSystem, conjugate_system
from moranspectra.spectra import (
    build_lattice_spectrum,
    build_tower,
    completeness_sum,
    discrete_spectrum_oracle,
    enumerate_tower,
    verify_orthogonality,
)

GOLDEN = Path(__file__).parent / "golden"

D0 = canonical_digits()
I2 = Mat2.scalar(2)
# The systems of the certify benchmark and its two conjugators.
BASES = {
    "2I": MoranSystem.constant(I2, D0),
    "4I": MoranSystem.constant(Mat2.scalar(4), D0),
    "shear": MoranSystem.constant(Mat2(2, 2, 0, 2), D0),
    "4224": MoranSystem.constant(Mat2(4, 2, 2, 4), D0),
    "9to3": MoranSystem(((I2, scaled_canonical(9)),), ((I2, scaled_canonical(3)),)),
}
CONJUGATORS = ((1, 1, 0, 1), (2, 1, 1, 1))
# Prime denominators coprime to every det and digit scale above: a point
# shifted by one leaves the zero set against every other point.
PRIME_SHIFTS = ((Fraction(1, 11), 0), (0, Fraction(1, 13)), (Fraction(1, 17), Fraction(1, 19)))
# An integer vector in the dual of every level-3 atom set above (their
# denominators divide 2^3, 4^3 and 6^3), far enough out that a candidate
# holding it is too sparse for the bitset of `difference_set`.
FAR = (12**3 * 10, 0)
EPS = (1e-6, 1e-8, 1e-12)


def _system(spec):
    base, q = spec
    return conjugate_system(BASES[base], Mat2(*q)) if q else BASES[base]


def _encode(points):
    q = math.lcm(*(Fraction(c).denominator for p in points for c in p))
    return {"q": q, "ints": [[int(Fraction(c) * q) for c in p] for p in points]}


def _decode(data):
    q = data["q"]
    return [(Fraction(x, q), Fraction(y, q)) for x, y in data["ints"]]


def _shifted(points, i, shift):
    out = list(points)
    out[i] = (out[i][0] + shift[0], out[i][1] + shift[1])
    return out


def _small_shift(rng):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(3, 19)) for _ in range(2))


# --- families: inputs (written once) and outputs (recomputed) ----------------


def _orthogonality_inputs():
    """Certify towers at depths 3-4, unconjugated and under both
    conjugators; each with one point moved by a prime shift in place, and
    shuffled with one point moved by a small-denominator shift; and the
    (2I, D0) lattice in boxes 3, 8 and 16."""
    rng = random.Random(2611)
    sets, cases = {}, []
    for base, q in product(BASES, (None, *CONJUGATORS)):
        spec = [base, q]
        tower = build_tower(_system(spec))
        for depth in (3, 4):
            pts = enumerate_tower(tower, depth)
            name = f"{base} Q={q} depth {depth}"
            sets[name] = pts
            i = rng.randrange(len(pts))
            sets[f"{name} prime shift at {i}"] = _shifted(pts, i, rng.choice(PRIME_SHIFTS))
            shuffled = rng.sample(pts, len(pts))
            i = rng.randrange(len(pts))
            sets[f"{name} shuffled, small shift at {i}"] = _shifted(shuffled, i, _small_shift(rng))
            cases += [{"system": spec, "points": key} for key in list(sets)[-3:]]
    for box in (3, 8, 16):
        sets[f"2I box {box}"] = build_lattice_spectrum(BASES["2I"], box)
        cases.append({"system": ["2I", None], "points": f"2I box {box}"})
    return sets, cases


def _orthogonality(case, sets):
    res = verify_orthogonality(_system(case["system"]), sets[case["points"]])
    pair = res.failing_pair and [[str(c) for c in p] for p in res.failing_pair]
    return {"ok": res.ok, "failing_pair": pair, "pairs_checked": res.pairs_checked,
            "distinct_differences": res.distinct_differences}


def _oracle_inputs():
    """The certify systems' towers at levels 1-3, each also translated,
    shuffled with one point moved by a small-denominator shift, with a
    repeated point, and with one point moved out to FAR."""
    rng = random.Random(2612)
    sets, cases = {}, []
    for base, level in product(BASES, (1, 2, 3)):
        pts = enumerate_tower(build_tower(BASES[base]), level)
        t = (Fraction(rng.randint(-5, 5), 3), Fraction(1, 3))
        name = f"{base} level {level}"
        sets[name] = pts
        sets[f"{name} translated by {t[0]}, {t[1]}"] = [(x + t[0], y + t[1]) for x, y in pts]
        i = rng.randrange(len(pts))
        sets[f"{name} shuffled, small shift at {i}"] = _shifted(
            rng.sample(pts, len(pts)), i, _small_shift(rng))
        sets[f"{name} repeated point"] = pts[:-1] + pts[:1]
        sets[f"{name} sparse"] = _shifted(pts, -1, FAR)
        cases += [{"system": [base, None], "level": level, "points": key}
                  for key in list(sets)[-5:]]
    return sets, cases


def _oracle(case, sets):
    rep = discrete_spectrum_oracle(_system(case["system"]), case["level"], sets[case["points"]])
    return {"unitary": rep.unitary, "residual": rep.residual}


def _completeness_inputs():
    """Q on the (2I, D0) lattice in boxes 4, 8 and 16 and its tower at
    depths 3-5, at three seeded points and three tolerances."""
    rng = random.Random(2613)
    sets = {f"2I box {box}": build_lattice_spectrum(BASES["2I"], box) for box in (4, 8, 16)}
    tower = build_tower(BASES["2I"])
    sets.update((f"2I depth {k}", enumerate_tower(tower, k)) for k in (3, 4, 5))
    points = [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(3)]
    cases = [{"points": key, "xi": xi, "eps": eps} for key, xi, eps in product(sets, points, EPS)]
    return sets, cases


def _completeness(case, sets):
    return {"q": completeness_sum(BASES["2I"], sets[case["points"]], tuple(case["xi"]), case["eps"])}


# family -> (inputs, output, absolute tolerance per float field; exact otherwise)
FAMILIES = {
    "orthogonality": (_orthogonality_inputs, _orthogonality, {}),
    "oracle": (_oracle_inputs, _oracle, {"residual": 1e-13}),
    "completeness": (_completeness_inputs, _completeness, {"q": 1e-13}),
}


def _load(family):
    data = json.loads((GOLDEN / f"{family}.json").read_text())
    return {k: _decode(v) for k, v in data["sets"].items()}, data["cases"]


@pytest.mark.parametrize("family", FAMILIES)
def test_golden_family(family):
    sets, cases = _load(family)
    _, output, tolerances = FAMILIES[family]
    for case in cases:
        got = output(case, sets)
        for key, want in case["expected"].items():
            if key in tolerances:
                assert abs(got[key] - want) <= tolerances[key], (case, key, got[key])
            else:
                assert got[key] == want, (case, key, got[key])


def test_golden_fixture_is_small():
    assert sum(f.stat().st_size for f in GOLDEN.glob("*.json")) < 2**20
    assert {f.stem for f in GOLDEN.glob("*.json")} == set(FAMILIES)


def write(family):
    """Recompute the family's inputs and outputs and write its file, one set
    or case per line."""
    inputs, output, _ = FAMILIES[family]
    sets, cases = inputs()
    for case in cases:
        case["expected"] = output(case, sets)
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(_encode(v))}" for k, v in sets.items())
    rows = ",\n".join(f"  {json.dumps(c)}" for c in cases)
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / f"{family}.json").write_text(f'{{"sets": {{\n{lines}\n}},\n"cases": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write [family ...]  (families: {', '.join(FAMILIES)})")
    for name in sys.argv[2:] or FAMILIES:
        write(name)
