"""Seeded inputs, jobs and output checks for the three benchmark workloads.

Every workload is a fixed list of jobs (one "round") built from the seed.
The seed decides orders, offsets, sample points and the planted negative;
it never changes how much work a round holds, so runs on different seeds
measure the same amount of work.  See README.md for why each workload
exists and which layers it loads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import moranspectra as ms
import moranspectra.cli
from moranspectra import Mat2, MoranSystem, canonical_digits, scaled_canonical

D0 = canonical_digits()
I2 = Mat2.scalar(2)
SUM16 = ms.sum_set(D0, ms.GenericDigitSet(tuple((6 * x, 6 * y) for x, y in D0.points())))


@dataclass
class Job:
    """One closed-loop request: `run` is timed; `digest` and `check` are not.

    `digest` turns the raw output into a comparable value (repeats of a job
    must digest equal), `check` returns a problem string or None, and
    `corrupt` flips the digest's verdict for the benchmark's self-test.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    corrupt: Callable[[object], object]
    digest: Callable[[object], object] = lambda out: out


def _flip_ok(res):
    return dataclasses.replace(res, ok=not res.ok)


# --- certify: exact verification ---------------------------------------------

CERTIFY_SYSTEMS = {
    "2I": MoranSystem.constant(I2, D0),
    "4I": MoranSystem.constant(Mat2.scalar(4), D0),
    "shear": MoranSystem.constant(Mat2(2, 2, 0, 2), D0),
    "4224": MoranSystem.constant(Mat2(4, 2, 2, 4), D0),
    "9to3": MoranSystem(((I2, scaled_canonical(9)),), ((I2, scaled_canonical(3)),)),
}
# Every system is verified under every conjugator in each round, so the work
# of a round does not depend on the seed (the two give 480-3280 distinct
# differences per tower).
CONJUGATORS = (Mat2(1, 1, 0, 1), Mat2(2, 1, 1, 1))
# Shifts with a prime denominator coprime to every det and digit scale above,
# so a shifted point's differences leave the zero set at every level.
PLANTED_SHIFTS = ((Fraction(1, 11), Fraction(0)), (Fraction(0), Fraction(1, 13)),
                  (Fraction(1, 17), Fraction(1, 19)))


def _tower_job(name: str, sys: MoranSystem, depth: int) -> Job:
    n = 4**depth

    def run():
        points = ms.enumerate_tower(ms.build_tower(sys), depth)
        return len(points), ms.verify_orthogonality(sys, points)

    def check(d):
        count, res = d
        if count != n or res.pairs_checked != n * (n - 1) // 2:
            return f"{name}: {count} points, {res.pairs_checked} pairs"
        return None if res.ok else f"{name}: valid tower rejected at {res.failing_pair}"

    return Job(name, run, check, lambda d: (d[0], _flip_ok(d[1])))


def _oracle_job(name: str, sys: MoranSystem, level: int) -> Job:
    def run():
        points = ms.enumerate_tower(ms.build_tower(sys), level)
        return ms.discrete_spectrum_oracle(sys, level, points)

    def check(rep):
        return None if rep.unitary else f"{name}: not unitary (residual {rep.residual})"

    return Job(name, run, check, lambda rep: dataclasses.replace(rep, unitary=not rep.unitary))


def _lattice_job(name: str, sys: MoranSystem, box: int, n: int) -> Job:
    def run():
        points = ms.build_lattice_spectrum(sys, box)
        return len(points), ms.verify_orthogonality(sys, points)

    def check(d):
        count, res = d
        if count != n or res.pairs_checked != n * (n - 1) // 2:
            return f"{name}: {count} points, {res.pairs_checked} pairs"
        return None if res.ok else f"{name}: lattice spectrum rejected at {res.failing_pair}"

    return Job(name, run, check, lambda d: (d[0], _flip_ok(d[1])))


def _planted_job(name: str, sys: MoranSystem, points: list, planted) -> Job:
    def run():
        return ms.verify_orthogonality(sys, points)

    def check(res):
        if res.ok:
            return f"{name}: planted point {planted} not detected"
        if planted not in res.failing_pair:
            return f"{name}: failing pair {res.failing_pair} misses planted point {planted}"
        return None

    return Job(name, run, check, _flip_ok)


def certify_jobs(seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    rng = random.Random(seed)
    depth, oracle_level, box = (2, 2, 2) if tiny else (4, 3, 8)
    jobs = []
    for (sname, base), q in itertools.product(CERTIFY_SYSTEMS.items(), CONJUGATORS):
        sys = ms.conjugate_system(base, q)
        jobs.append(_tower_job(f"tower {sname} Q={q.entries()}", sys, depth))
    for sname, base in CERTIFY_SYSTEMS.items():
        jobs.append(_oracle_job(f"oracle {sname}", base, oracle_level))
    lattice_points = {2: 25, 8: 289}[box]
    jobs.append(_lattice_job(f"lattice 2I box {box}", CERTIFY_SYSTEMS["2I"], box, lattice_points))

    sname = rng.choice(sorted(CERTIFY_SYSTEMS))
    q = rng.choice(CONJUGATORS)
    sys = ms.conjugate_system(CERTIFY_SYSTEMS[sname], q)
    points = ms.enumerate_tower(ms.build_tower(sys), depth)
    i = rng.randrange(len(points))
    sx, sy = rng.choice(PLANTED_SHIFTS)
    points[i] = (points[i][0] + sx, points[i][1] + sy)
    jobs.append(_planted_job(f"planted {sname} Q={q.entries()} point {i}", sys, points, points[i]))
    rng.shuffle(jobs)
    return jobs


# --- transform: certified numeric products -----------------------------------

PORTRAITS = {
    "2I": MoranSystem.constant(I2, D0),
    "4I": MoranSystem.constant(Mat2.scalar(4), D0),
    "shear": MoranSystem.constant(Mat2(2, 2, 0, 2), D0),
    "rot3": MoranSystem.constant(Mat2(0, -2, 2, 0), scaled_canonical(3)),
    "sum16": MoranSystem.constant(I2, SUM16),
}
# eps of scripts/tile_portraits.py, the CLI default, and a tight one.  Each
# round runs every eps, so the seed does not change the work per round.
EPS_VALUES = (1e-6, 1e-8, 1e-12)
MP_EXTRA_LEVELS = 200


def mp_fourier(sys: MoranSystem, xi, levels: int):
    """40-digit product of the first `levels` mask factors at the exact
    binary value of the float point xi; independent of moranspectra's
    float evaluator (only the system's exact levels are read)."""
    import mpmath

    with mpmath.workdps(40):
        x, y = mpmath.mpf(xi[0]), mpmath.mpf(xi[1])
        value = mpmath.mpc(1)
        for n in range(1, levels + 1):
            m, digits = sys.level(n)
            a, b, c, d = (mpmath.mpf(Fraction(e).numerator) / Fraction(e).denominator
                          for e in m.entries())
            det = a * d - b * c
            # eta_n = (M_n^T)^{-1} eta_{n-1}
            x, y = (d * x - c * y) / det, (-b * x + a * y) / det
            s = mpmath.fsum(mpmath.expjpi(2 * (dx * x + dy * y)) for dx, dy in digits.points())
            value *= s / len(digits)
        return value


def _row_job(name, systems, rows, eps, samples) -> Job:
    """One grid row of every gallery system at one eps; `samples` are the
    (system index, point index) pairs checked against mp_fourier."""

    def run():
        return tuple(tuple(ms.fourier(sys, xi, eps) for xi in xs) for sys, xs in zip(systems, rows))

    def check(results):
        for sys, xs, res in zip(systems, rows, results):
            for xi, r in zip(xs, res):
                if not (r.bound <= eps and abs(r.value) <= 1 + r.bound):
                    return f"{name}: xi={xi} value {r.value} bound {r.bound}"
        for k, j in samples:
            r = results[k][j]
            ref = mp_fourier(systems[k], rows[k][j], r.levels + MP_EXTRA_LEVELS)
            err = float(abs(ref - r.value))
            if err > r.bound:
                return f"{name}: xi={rows[k][j]} error {err:.3e} exceeds bound {r.bound:.3e}"
        return None

    def corrupt(results):
        k, j = samples[0]
        r = results[k][j]
        bumped = dataclasses.replace(r, value=r.value + 10 * (r.bound + 1e-9))
        row = results[k][:j] + (bumped,) + results[k][j + 1:]
        return results[:k] + (row,) + results[k + 1:]

    return Job(name, run, check, corrupt)


def _attractor_job(name, systems, depths) -> Job:
    def run():
        return tuple(len(ms.attractor_points(sys, depth)) for sys, depth in zip(systems, depths))

    def check(counts):
        expected = tuple(len(sys.level(1)[1]) ** d for sys, d in zip(systems, depths))
        return None if counts == expected else f"{name}: {counts} points, expected {expected}"

    return Job(name, run, check, lambda counts: counts[:-1] + (counts[-1] + 1,))


def _completeness_job(name, sys, points, nested, xi, eps) -> Job:
    def run():
        return ms.completeness_sum(sys, points, xi, eps)

    def check(q):
        if not 0.0 <= q <= 1.0 + eps:
            return f"{name}: Q={q} outside [0, 1+eps]"
        # |Q_hat - Q| <= 2 eps + eps^2 per sum, plus summation rounding.
        slack = 2 * (2 * eps + eps * eps) + 2 * len(points) * 2.0**-53
        q_small = ms.completeness_sum(sys, nested, xi, eps)
        if q_small > q + slack:
            return f"{name}: Q not monotone ({q_small} on the subset > {q})"
        return None

    return Job(name, run, check, lambda q: q + 1.0)


def transform_jobs(seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    rng = random.Random(seed)
    n = 3 if tiny else 21
    systems = list(PORTRAITS.values())
    depths = [3 if len(sys.level(1)[1]) > 4 else 6 for sys in systems]
    jobs = [_attractor_job("attractor clouds", systems, depths)]
    for eps in EPS_VALUES:
        offsets = [(rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2)) for _ in systems]
        for i in range(n):
            rows = [[(-4.0 + 8.0 * i / (n - 1) + ox, -4.0 + 8.0 * j / (n - 1) + oy)
                     for j in range(n)] for ox, oy in offsets]
            samples = [(rng.randrange(len(systems)), rng.randrange(n))]
            jobs.append(_row_job(f"grid row {i} eps={eps:g}", systems, rows, eps, samples))
    sys = PORTRAITS["2I"]
    box, tower_depth = (2, 2) if tiny else (16, 5)
    tower = ms.build_tower(sys)
    sets = {
        f"lattice box {box}": (ms.build_lattice_spectrum(sys, box),
                               ms.build_lattice_spectrum(sys, box // 2)),
        f"tower depth {tower_depth}": (ms.enumerate_tower(tower, tower_depth),
                                       ms.enumerate_tower(tower, tower_depth - 1)),
    }
    for (label, (points, nested)), eps in itertools.product(sets.items(), EPS_VALUES):
        xi = (rng.random(), rng.random())
        jobs.append(_completeness_job(f"completeness {label} eps={eps:g}",
                                      sys, points, nested, xi, eps))
    rng.shuffle(jobs)
    return jobs


# --- survey: many distinct systems through the CLI ----------------------------


def _matrix_pool(lo: int, hi: int, step: int = 1):
    """All integer 2x2 matrices with entries step*[lo, hi], with their
    smallest |eigenvalue|, smallest singular value and determinant (numpy,
    independent of moranspectra's exact predicates)."""
    vals = [step * v for v in range(lo, hi + 1)]
    ints = np.array(list(itertools.product(vals, repeat=4)), dtype=np.int64)
    mats = ints.reshape(-1, 2, 2).astype(float)
    eig = np.abs(np.linalg.eigvals(mats)).min(axis=1)
    sv = np.linalg.svd(mats, compute_uv=False)[:, 1]
    det = np.rint(np.linalg.det(mats)).astype(np.int64)
    return ints, eig, sv, det


def _pools():
    ints, eig, sv, det = _matrix_pool(-4, 4)
    ok = (eig > 1.05) & (sv > 1.05)          # expanding, ||M^-1|| < 1, with margin
    even = (ints % 2 == 0).all(axis=1)
    eints, eeig, esv, edet = _matrix_pool(-1, 1, step=2)
    eok = (eeig > 1.05) & (esv > 1.05) & (np.abs(edet) == 4)
    pick = lambda rows: [tuple(int(v) for v in r) for r in rows]
    return {
        "any": pick(ints[ok]),
        "big": pick(ints[ok & (np.abs(det) > 4)]),
        "big_even": pick(ints[ok & even & (np.abs(det) > 4)]),
        "big_odd": pick(ints[ok & ~even & (np.abs(det) > 4)]),
        "det4": pick(ints[ok & (np.abs(det) == 4)]),
        "det4_even": pick(eints[eok]),
        # 2U with U of finite order: denominators stay powers of 2 and the
        # zero scan ends within the dense cyclotomic test's size limit.
        "generic": pick(eints[eok & (eeig > 1.9)]),
    }


# Each has an eigenvalue of modulus 1; all take about as long to be
# rejected, so the seed does not change the work.  Every one is surveyed
# NON_EXPANDING_REPEATS times with different digits: the family's ~12x
# slower jobs set job_tail_ms, and a tail read from a few jobs would move
# with every slow spell of the machine.
NON_EXPANDING_REPEATS = 3
NON_EXPANDING = ((1, 0, 0, 2), (2, 0, 0, 1), (1, 0, 0, -2), (-2, 0, 0, 1),
                 (-1, 0, 0, 2), (2, 0, 0, -1))
T16_DIVIDES = ((3, 1), (5, 1), (9, 3), (15, 3), (15, 5), (21, 7), (25, 5), (27, 9))
T16_NOT_DIVIDES = ((1, 3), (3, 5), (5, 3), (3, 9), (7, 3), (9, 5), (5, 15), (11, 3))
C51_SCALES = ((1, 3, 5), (3, 5, 7), (1, 9, 5), (5, 7, 3), (9, 5, 3), (3, 11, 7), (1, 5, 9))
T_VALUES = ((1, 3), (1, 3, 5), (1, 3, 5, 7), (1, 5, 7), (1, 3, 7, 11))
# Systems per family in one round; more than moran._analysis's 256-entry
# cache, so cycling through them misses it every time.
SURVEY_FAMILIES = (("T1.4-even", 36), ("T1.4-odd", 36), ("T1.6-divides", 36),
                   ("T1.6-not-divides", 36), ("C5.1", 36), ("T1.5-spectral", 30),
                   ("T1.5-not-spectral", 30), ("generic", 36),
                   ("non-expanding", NON_EXPANDING_REPEATS * len(NON_EXPANDING)))


def _mat_line(m) -> str:
    return "  matrix: " + " ".join(map(str, m))


def _structured(rng) -> tuple[int, int, int, int]:
    """Random alpha, beta with odd basis determinant."""
    while True:
        a1, a2, b1, b2 = (rng.randint(-2, 2) for _ in range(4))
        if (a1 * b2 - a2 * b1) % 2:
            return a1, a2, b1, b2


def _digits_line(digits) -> str:
    return "  digits: structured " + " ".join(map(str, digits))


def _known_zero(m, eta) -> tuple[Fraction, Fraction]:
    """xi = M_1^T eta, which is in the zero set when eta is a level-1 mask zero."""
    a, b, c, d = m
    return (a * eta[0] + c * eta[1], b * eta[0] + d * eta[1])


def _family_system(family: str, rng, pools, index: int):
    """(config text, expected classify outcome, rule, level-1 zero or None)
    for the family's `index`-th system."""
    choice = rng.choice
    if family in ("T1.4-even", "T1.4-odd"):
        tail = choice(pools["big_even" if family == "T1.4-even" else "big_odd"])
        first, digits = tail, _structured(rng)
        lines = []
        if rng.random() < 0.5:
            first = choice(pools["big"])
            lines += ["preperiod:", _mat_line(first), _digits_line(digits)]
            digits_tail = _structured(rng)
        else:
            digits_tail = digits
        lines += ["period:", _mat_line(tail), _digits_line(digits_tail)]
        outcome = ms.SPECTRAL if family == "T1.4-even" else ms.NOT_SPECTRAL
        a1, a2, b1, b2 = digits
        p = a1 * b2 - a2 * b1
        # 2 Q^T eta = (1, 0) with Q = [alpha beta]: a mask zero of the level-1 digits.
        eta = (Fraction(b2, 2 * p), Fraction(-b1, 2 * p))
        return "\n".join(lines), outcome, "T1.4", _known_zero(first, eta)
    if family.startswith("T1.6"):
        t1, t2 = choice(T16_DIVIDES if family == "T1.6-divides" else T16_NOT_DIVIDES)
        m1, m2 = choice(pools["any"]), choice(pools["det4_even"])
        text = "\n".join(["preperiod:", _mat_line(m1), f"  digits: scaled {t1}",
                          "period:", _mat_line(m2), f"  digits: scaled {t2}"])
        outcome = ms.SPECTRAL if family == "T1.6-divides" else ms.NOT_SPECTRAL
        return text, outcome, "T1.6", _known_zero(m1, (Fraction(1, 2 * t1), 0))
    if family == "C5.1":
        a, b, c = choice(C51_SCALES)
        ma, mb, mc = (choice(pools["det4"]) for _ in range(3))
        text = "\n".join(["preperiod:", _mat_line(ma), f"  digits: scaled {a}",
                          _mat_line(mb), f"  digits: scaled {b}",
                          "period:", _mat_line(mc), f"  digits: scaled {c}"])
        return text, ms.NOT_SPECTRAL, "C5.1", _known_zero(ma, (Fraction(1, 2 * a), 0))
    if family.startswith("T1.5"):
        ts = choice(T_VALUES)
        letters = range(1, len(ts) + 1)
        if family == "T1.5-not-spectral":
            tail = rng.randint(2, len(ts))
            pre = [choice(letters) for _ in range(rng.randint(0, 2))]
            pre.append(choice([l for l in letters if l != tail]))
            period = [tail]
        else:
            pre = [choice(letters) for _ in range(rng.randint(0, 2))]
            period = [choice(letters) for _ in range(rng.randint(2, 3))]
            if len(set(period)) == 1:
                period[0] = 1 if period[0] != 1 else 2
        mats = [choice(pools["det4_even"]) for _ in range(rng.randint(1, 2))]
        lines = ["period:"] + [_mat_line(m) for m in mats] + ["word:"]
        if pre:
            lines.append("  sigma_preperiod: " + " ".join(map(str, pre)))
        lines += ["  sigma_period: " + " ".join(map(str, period)),
                  "  t_values: " + " ".join(map(str, ts))]
        outcome = ms.NOT_SPECTRAL if family == "T1.5-not-spectral" else ms.SPECTRAL
        t = ts[(pre or period)[0] - 1]
        return "\n".join(lines), outcome, "T1.5", _known_zero(mats[0], (Fraction(1, 2 * t), 0))
    if family == "generic":
        digits = " ".join(f"{x},{y}" for x, y in SUM16.points())
        lines, first = [], choice(pools["generic"])
        if rng.random() < 0.5:
            lines += ["preperiod:", _mat_line(first), "  digits: canonical"]
            tail = choice(pools["generic"])
        else:
            tail = first
        lines += ["period:", _mat_line(tail), f"  digits: generic {digits}"]
        # eta = (1/2, 0) is a zero of m_D0, hence of both digit sets.
        return "\n".join(lines), ms.OUT_OF_THEORY, None, _known_zero(first, (Fraction(1, 2), 0))
    if family == "non-expanding":
        text = "\n".join(["period:", _mat_line(NON_EXPANDING[index % len(NON_EXPANDING)]),
                          _digits_line(_structured(rng))])
        return text, ms.OUT_OF_THEORY, None, None
    raise ValueError(family)


def _xi_arg(xi) -> str:
    return ",".join(str(Fraction(v)) for v in xi)


def _report(stdout: str):
    lines = stdout.splitlines()
    if "-- report --" not in lines:
        return None
    return json.loads(lines[lines.index("-- report --") + 1])


_CHECK_EXIT = {ms.SPECTRAL: 0, ms.NOT_SPECTRAL: 1, ms.OUT_OF_THEORY: 2}


def _survey_job(name, family, path, outcome, rule, known, rng) -> Job:
    valid = family != "non-expanding"
    zero_xis = [(Fraction(rng.randint(-7, 7), 4), Fraction(rng.randint(1, 7), 4)) for _ in range(3)]
    if known is not None:
        zero_xis[0] = known
    fxi = f"{rng.uniform(-2, 2)!r},{rng.uniform(-2, 2)!r}"
    argvs = ([["validate", path], ["classify", path, "--check"]]
             + [["zero", path, f"--xi={_xi_arg(xi)}"] for xi in zero_xis]
             + [["fourier", path, f"--xi={fxi}"]])

    def run():
        outs = []
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = ms.cli.main(argv)
            outs.append((code, buf.getvalue()))
        return outs

    def digest(outs):
        return tuple((code, _report(text)) for code, text in outs)

    def check(d):
        (vcode, vrep), (ccode, crep), *zeros, (fcode, frep) = d
        if not valid:
            if any(code != 2 for code, _ in d):
                return f"{name}: exit codes {[code for code, _ in d]}, expected all 2"
            return None
        if vcode != 0 or not vrep["results"]["ok"]:
            return f"{name}: validate exit {vcode}"
        res = crep["results"] if crep else {}
        if ccode != _CHECK_EXIT[outcome] or res.get("outcome") != outcome or res.get("rule") != rule:
            return f"{name}: classify exit {ccode} {res.get('outcome')} {res.get('rule')}"
        for k, (code, rep) in enumerate(zeros):
            if code != 0:
                return f"{name}: zero exit {code}"
            res = rep["results"]
            if res["in_zero_set"] and not res["certificate"]["verified"]:
                return f"{name}: unverified certificate {res['certificate']}"
            if k == 0 and known is not None and not res["in_zero_set"]:
                return f"{name}: known zero {_xi_arg(known)} not found"
        if fcode != 0:
            return f"{name}: fourier exit {fcode}"
        tr, res = frep["truncation"], frep["results"]
        if not (tr["bound"] <= tr["eps"] and res["abs"] <= 1 + tr["bound"]):
            return f"{name}: fourier abs {res['abs']} bound {tr['bound']}"
        return None

    def corrupt(d):
        ccode, crep = d[1]
        return d[:1] + ((0 if ccode else 1, crep),) + d[2:]

    return Job(name, run, check, corrupt, digest)


def survey_jobs(seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    rng = random.Random(seed)
    pools = _pools()
    cfgdir = workdir / "survey"
    cfgdir.mkdir(parents=True, exist_ok=True)
    seen: set[str] = set()
    jobs = []
    for family, count in SURVEY_FAMILIES:
        for index in range(1 if tiny else count):
            while True:
                text, outcome, rule, known = _family_system(family, rng, pools, index)
                if text not in seen:
                    break
            seen.add(text)
            path = cfgdir / f"{len(jobs):04d}.txt"
            path.write_text(text + "\n")
            jobs.append(_survey_job(f"{family} {path.name}", family, str(path),
                                    outcome, rule, known, rng))
    # One fixed order for every round: cycling through more distinct systems
    # than the analysis cache holds makes each first lookup a miss.
    rng.shuffle(jobs)
    return jobs


BUILDERS = {"certify": certify_jobs, "transform": transform_jobs, "survey": survey_jobs}
