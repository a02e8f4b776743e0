"""Golden outputs: each family in tests/golden/ is recomputed and compared.

A family file holds its inputs as data (point sets as integer numerators
over one denominator q; systems as a base name and a conjugator, a config
text, or {"reduce_canonical": config text}) next to the expected outputs,
so these tests rebuild no input and import nothing from `bench/`.  A change
that means to move outputs rewrites the families it moves, by hand, and
says how many cases moved; the writer prints that count per family, against
the file it replaces, with the first case that moved:

    PYTHONPATH=src python tests/test_golden.py --write [family ...]
"""

import hashlib
import json
import math
import random
import sys
import tempfile
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from moranspectra import moran
from moranspectra.config import parse_config
from moranspectra.digitsets import (
    GenericDigitSet,
    StructuredDigitSet,
    canonical_digits,
    scaled_canonical,
    sum_set,
)
from moranspectra.lattice import Mat2, digit_expansion, is_expanding
from moranspectra.mask import digit_mask_zero
from moranspectra.moran import (
    MoranSystem,
    SystemInvalid,
    attractor_points,
    attractor_stages,
    conjugate_system,
    fourier,
    fourier_many,
    fourier_zero_exact,
    reduce_canonical,
)
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
MIXED = MoranSystem(
    ((Mat2(0, -2, 2, 0), scaled_canonical(3)),),
    ((I2, D0), (Mat2(2, 2, 0, 2), scaled_canonical(5))),
)
# Every named system: the certify systems and the Fourier test systems.
SYSTEMS = {
    **BASES,
    "rot3": MoranSystem.constant(Mat2(0, -2, 2, 0), scaled_canonical(3)),
    "sum16": MoranSystem.constant(
        I2, sum_set(D0, GenericDigitSet(tuple((6 * x, 6 * y) for x, y in D0.points())))),
    # Fraction matrices and a preperiod.
    "mixed reduced": reduce_canonical(MIXED),
    # No zero digit in front: the mask sum starts from 0j.
    "generic": MoranSystem.constant(Mat2(0, 2, -2, 0), GenericDigitSet(((1, 0), (0, 0), (0, 1)))),
    "mixed": MIXED,
    # A Fraction first matrix, (2/9) I.
    "9to3 reduced": reduce_canonical(BASES["9to3"]),
    # Numerators near 10^24 at depth 4.
    "big shear": MoranSystem.constant(Mat2(2, 10**6, 0, 2), D0),
}
FOURIER_NAMES = ("2I", "shear", "rot3", "9to3", "sum16", "mixed reduced", "generic")
# Prime denominators coprime to every det and digit scale above: a point
# shifted by one leaves the zero set against every other point.
PRIME_SHIFTS = ((Fraction(1, 11), 0), (0, Fraction(1, 13)), (Fraction(1, 17), Fraction(1, 19)))
# An integer vector in the dual of every level-3 atom set above (their
# denominators divide 2^3, 4^3 and 6^3), far enough out that a candidate
# holding it is too sparse for the bitset of `difference_set`.
FAR = (12**3 * 10, 0)
EPS = (1e-6, 1e-8, 1e-12)
# A point set of more points is stored as its count and the sha256 of its
# numerators, which keeps the fixture under 1 MiB.
INLINE_POINTS = 256


def _system(spec):
    if isinstance(spec, str):
        return parse_config(spec).system()
    if isinstance(spec, dict):
        return reduce_canonical(_system(spec["reduce_canonical"]))
    base, q = spec
    return conjugate_system(SYSTEMS[base], Mat2(*q)) if q else SYSTEMS[base]


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


def _towers_inputs():
    """Towers and attractor points at depths 1-4 and lattice spectra in
    boxes 3, 8 and 16 of 22 systems: the certify systems, unconjugated and
    under both conjugators, and the Fourier, mixed, reduced 9to3 and big
    shear systems.  Each refusal is an output too.  The big shear has no
    lattice case: `build_lattice_spectrum` walks the bounding box of the
    preimage of the box, some 10^6 times the points it keeps, and takes
    seconds in box 3."""
    specs = [[base, q] for base, q in product(BASES, (None, *CONJUGATORS))]
    specs += [[name, None] for name in ("mixed", "mixed reduced", "9to3 reduced", "rot3", "sum16",
                                        "generic", "big shear")]
    sizes = {"tower": (1, 2, 3, 4), "attractor": (1, 2, 3, 4), "lattice": (3, 8, 16)}
    cases = [{"system": spec, "kind": kind, "size": size}
             for spec in specs for kind in sizes for size in sizes[kind]
             if not (kind == "lattice" and spec[0] == "big shear")]
    return {}, cases


def _numerators(ints, q):
    """Points (x, y) / q as stored: inline, or as count and sha256 past INLINE_POINTS."""
    ints = [[x, y] for x, y in ints]
    if len(ints) <= INLINE_POINTS:
        return {"q": q, "ints": ints}
    digest = hashlib.sha256(json.dumps(ints).encode()).hexdigest()
    return {"q": q, "count": len(ints), "sha256": digest}


def _towers(case, sets):
    """The exact points as integer numerators over q, reduced, in the order
    returned; for towers and lattices whether every coordinate is a
    Fraction, and for attractor points whether `attractor_points` returns
    each exact coordinate correctly rounded."""
    sysm, kind, size = _system(case["system"]), case["kind"], case["size"]
    try:
        if kind == "attractor":
            ints, q = digit_expansion(attractor_stages(sysm, size))
            rounded = attractor_points(sysm, size) == [(x / q, y / q) for x, y in ints]
            return {"points": _numerators(ints, q), "rounded": rounded}
        if kind == "tower":
            pts = enumerate_tower(build_tower(sysm), size)
        else:
            pts = build_lattice_spectrum(sysm, size)
    except ValueError as exc:
        return {"refused": f"{type(exc).__name__}: {exc}"}
    enc = _encode(pts)
    fractions = all(type(c) is Fraction for p in pts for c in p)
    return {"points": _numerators(enc["ints"], enc["q"]), "fractions": fractions}


def _survey_texts():
    """The config texts of the survey benchmark's seed-1 systems, in the
    order it writes them: the one use of `bench/`, made only when writing."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        workloads.survey_jobs(1, Path(tmp))
        return [path.read_text() for path in sorted(Path(tmp, "survey").glob("*.txt"))]


def _random_text(rng):
    """A structured system with 0-1 preperiod and 1-2 period levels, each
    an integer matrix with entries in [-4, 4] (expanding three times in
    four) and random digits with odd basis determinant."""
    def level():
        while True:
            m = Mat2(*(rng.randint(-4, 4) for _ in range(4)))
            if m.det() and (is_expanding(m) or rng.random() < 0.25):
                break
        while True:
            a1, a2, b1, b2 = (rng.randint(-2, 2) for _ in range(4))
            if (a1 * b2 - a2 * b1) % 2:
                break
        return [f"  matrix: {m.a} {m.b} {m.c} {m.d}", f"  digits: structured {a1} {a2} {b1} {b2}"]

    lines = ["preperiod:", *level()] if rng.random() < 0.5 else []
    lines.append("period:")
    for _ in range(rng.randint(1, 2)):
        lines += level()
    return "\n".join(lines) + "\n"


def _mask_zero(digits):
    """Some eta with m_D(eta) = 0, or None: (Q^t)^{-1} (1/2, 0) for a
    structured set (2 Q^t eta = (1, 0)), else the first (a/n, b/n) with
    n <= 12 that is one."""
    if isinstance(digits, StructuredDigitSet):
        return digits.q_matrix().transpose().inverse().apply((Fraction(1, 2), Fraction(0)))
    grid = ((Fraction(a, n), Fraction(b, n)) for n in range(2, 13) for a in range(n) for b in range(n))
    return next((eta for eta in grid if digit_mask_zero(digits, eta)), None)


def _zero_inputs():
    """The survey benchmark's 294 seed-1 systems; the certify systems,
    unconjugated and under both conjugators; the mixed reduced and generic
    systems; three slowly contracting ones; and 30 seeded random structured
    systems with their `reduce_canonical` forms.  Each at three seeded
    quarter points, a known level-1 zero xi = M_1^t eta and a level-2 one
    M_1^t M_2^t eta."""
    rng = random.Random(2701)
    specs = _survey_texts() + [[base, q] for base, q in product(BASES, (None, *CONJUGATORS))]
    specs += [["mixed reduced", None], ["generic", None]]
    # Companion matrices with an eigenvalue near 1 + 1/t: the period unrolls
    # 64 and 128 times, and past 256 for t = 1000, which is refused.
    specs += [f"period:\n  matrix: 0 -{t} 1 {t}\n  digits: canonical\n" for t in (100, 300, 1000)]
    for _ in range(30):
        text = _random_text(rng)
        specs += [text, {"reduce_canonical": text}]
    cases = []
    for spec in specs:
        sysm = _system(spec)
        xis = [(Fraction(rng.randint(-7, 7), 4), Fraction(rng.randint(-7, 7), 4)) for _ in range(3)]
        (m1, d1), (m2, d2) = sysm.level(1), sysm.level(2)
        for m, eta in ((m1, _mask_zero(d1)), (m2 * m1, _mask_zero(d2))):
            if eta is not None:
                xis.append(m.transpose().apply(eta))
        cases.append({"system": spec, "xis": [[str(x), str(y)] for x, y in xis]})
    return {}, cases


def _zero(case, sets):
    sysm = _system(case["system"])
    try:
        ana = moran._analysis(sysm)
    except SystemInvalid as exc:
        return {"refused": str(exc)}
    certs = (fourier_zero_exact(sysm, (Fraction(x), Fraction(y))) for x, y in case["xis"])
    return {"unrolled_len": ana.unrolled_len, "stop_scale": ana.stop_scale,
            "stop_floor": ana.stop_floor,
            "zeros": [c and [c.level, [str(w) for w in c.witness]] for c in certs]}


def _fourier_inputs():
    """Each Fourier test system at ten tolerances from 0.5 to 1e-15 and the
    same eight points: five seeded ones of norm up to about 1e-3, 1, 8, 60
    and 1e4, the origin, a tiny point and a far one."""
    rng = random.Random(2702)
    cases = []
    for name in FOURIER_NAMES:
        xis = [[rng.uniform(-r, r), rng.uniform(-r, r)] for r in (1e-3, 1.0, 8.0, 60.0, 1e4)]
        xis += [[0.0, 0.0], [1e-300, 0.0], [-3e3, 1e4]]
        cases += [{"system": [name, None], "eps": eps, "xis": xis}
                  for eps in (0.5, 1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-15)]
    return {}, cases


def _fourier(case, sets):
    sysm, eps = _system(case["system"]), case["eps"]
    xis = [tuple(xi) for xi in case["xis"]]
    out = {}
    for name, results in (("fourier", [fourier(sysm, xi, eps) for xi in xis]),
                          ("fourier_many", list(fourier_many(sysm, xis, eps)))):
        out[name] = [[r.levels, r.bound, r.rounding] for r in results]
        out[f"{name} value"] = [[r.value.real, r.value.imag] for r in results]
    return out


# family -> (inputs, output, absolute tolerance per float field; exact otherwise)
FAMILIES = {
    "orthogonality": (_orthogonality_inputs, _orthogonality, {}),
    "oracle": (_oracle_inputs, _oracle, {"residual": 1e-13}),
    "completeness": (_completeness_inputs, _completeness, {"q": 1e-13}),
    "zero": (_zero_inputs, _zero, {}),
    "fourier": (_fourier_inputs, _fourier, {"fourier value": 1e-14, "fourier_many value": 1e-14}),
    "towers": (_towers_inputs, _towers, {}),
}


def _load(family):
    data = json.loads((GOLDEN / f"{family}.json").read_text())
    return {k: _decode(v) for k, v in data["sets"].items()}, data["cases"]


def _close(got, want, tol):
    """Within tol, elementwise through nested lists."""
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_close, got, want, [tol] * len(want)))
    return abs(got - want) <= tol


@pytest.mark.parametrize("family", FAMILIES)
def test_golden_family(family):
    sets, cases = _load(family)
    _, output, tolerances = FAMILIES[family]
    for case in cases:
        got = output(case, sets)
        assert set(got) == set(case["expected"]), case
        for key, want in case["expected"].items():
            if key in tolerances:
                assert _close(got[key], want, tolerances[key]), (case, key, got[key])
            else:
                assert got[key] == want, (case, key, got[key])


def test_golden_fixture_is_small():
    assert sum(f.stat().st_size for f in GOLDEN.glob("*.json")) < 2**20
    assert {f.stem for f in GOLDEN.glob("*.json")} == set(FAMILIES)


def _inputs_key(case):
    return json.dumps({k: v for k, v in case.items() if k != "expected"}, sort_keys=True)


def write(family):
    """Recompute the family's inputs and outputs and write its file, one set
    or case per line; print how many cases' expected outputs moved against
    the file replaced (a case whose inputs are new counts as moved) and the
    first that did."""
    inputs, output, _ = FAMILIES[family]
    sets, cases = inputs()
    for case in cases:
        case["expected"] = output(case, sets)
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(_encode(v))}" for k, v in sets.items())
    rows = ",\n".join(f"  {json.dumps(c)}" for c in cases)
    path = GOLDEN / f"{family}.json"
    old = json.loads(path.read_text())["cases"] if path.exists() else []
    GOLDEN.mkdir(exist_ok=True)
    path.write_text(f'{{"sets": {{\n{lines}\n}},\n"cases": [\n{rows}\n]}}\n')
    before = {_inputs_key(c): c["expected"] for c in old}
    # Compared as read back, so tuples and floats are as the file holds them.
    moved = [c for c in _load(family)[1] if before.get(_inputs_key(c)) != c["expected"]]
    print(f"{family}: {len(moved)} of {len(cases)} cases moved ({len(old)} before)")
    if moved:
        first = moved[0]
        print(f"  first: {_inputs_key(first)[:300]}")
        print(f"    was {json.dumps(before.get(_inputs_key(first)))[:300]}")
        print(f"    now {json.dumps(first['expected'])[:300]}")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write [family ...]  (families: {', '.join(FAMILIES)})")
    for name in sys.argv[2:] or FAMILIES:
        write(name)
