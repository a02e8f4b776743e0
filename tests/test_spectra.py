import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moranspectra import spectra
from moranspectra.classify import NOT_SPECTRAL, classify_thm11, thm16_shape
from moranspectra.digitsets import (
    GenericDigitSet,
    StructuredDigitSet,
    canonical_digits,
    scaled_canonical,
)
from moranspectra.lattice import Mat2, digit_expansion
from moranspectra.moran import (
    DET_AT_LEAST_4,
    EXPANDING,
    CapExceeded,
    MoranSystem,
    OutOfTheoryError,
    conjugate_system,
    first_failure,
    first_odd_level,
    fourier_zero_exact,
)
from moranspectra.spectra import (
    TowerUnavailable,
    build_lattice_spectrum,
    build_tower,
    completeness_report,
    completeness_sum,
    discrete_spectrum_oracle,
    enumerate_tower,
    verify_orthogonality,
)

D0 = canonical_digits()
I2, I3, I4, I5 = Mat2.scalar(2), Mat2.scalar(3), Mat2.scalar(4), Mat2.scalar(5)
SYS2 = MoranSystem.constant(I2, D0)
SYS4 = MoranSystem.constant(I4, D0)

F2 = [(Fraction(i), Fraction(j)) for i in (0, 1) for j in (0, 1)]

# The systems the certify benchmark runs the oracle on, unconjugated.
CERTIFY_SYSTEMS = {
    "2I": SYS2,
    "4I": SYS4,
    "shear": MoranSystem.constant(Mat2(2, 2, 0, 2), D0),
    "4224": MoranSystem.constant(Mat2(4, 2, 2, 4), D0),
    "9to3": MoranSystem(((I2, scaled_canonical(9)),), ((I2, scaled_canonical(3)),)),
}

# Structured levels with even and odd matrices; [[1, 1], [-1, 1]] breaks
# T1.1's |det| >= 4 and diag(1, 4) its expansion hypothesis.
STRUCTURED_LEVELS = st.tuples(
    st.sampled_from([I2, I4, Mat2(4, 2, 2, 4), I3, I5, Mat2(2, 1, 0, 2), Mat2(3, 1, 1, 3),
                     Mat2(1, 1, -1, 1), Mat2(1, 0, 0, 4)]),
    st.sampled_from([D0, scaled_canonical(3), StructuredDigitSet((1, 2), (0, 1))]),
)


def _peak_bytes(f):
    """Run f under tracemalloc and return the peak of traced allocations."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _fraction_tower(tower, k):
    """Lambda_k by the Fraction loop over the product set, level 1 slowest."""
    points = [(Fraction(0), Fraction(0))]
    a = Mat2.identity()
    for j in range(1, k + 1):
        images = [a.apply(l) for l in tower.companions(j)]
        points = [(px + ix, py + iy) for px, py in points for ix, iy in images]
        a = a * tower.system.level(j)[0].transpose()
    return points


def _fraction_lattice(sysm, box):
    """(1/t2) (L + M1^* Z^2) in [-box, box]^2 by the Fraction loop over the
    k in the preimage of the box, sorted."""
    m1, _, _, t2 = thm16_shape(sysm)
    m1t = m1.transpose()
    bound = Fraction(abs(t2)) * box
    points = set()
    for v in F2:
        lx, ly = (c / 2 for c in m1t.apply(v))
        corners = [m1t.inverse().apply((sx * bound - lx, sy * bound - ly))
                   for sx in (-1, 1) for sy in (-1, 1)]
        for k1 in range(math.floor(min(c[0] for c in corners)),
                        math.ceil(max(c[0] for c in corners)) + 1):
            for k2 in range(math.floor(min(c[1] for c in corners)),
                            math.ceil(max(c[1] for c in corners)) + 1):
                wx, wy = m1t.apply((k1, k2))
                x, y = Fraction(lx + wx, t2), Fraction(ly + wy, t2)
                if abs(x) <= box and abs(y) <= box:
                    points.add((x, y))
    return sorted(points)


class TestTower:
    @pytest.mark.parametrize(
        "sysm",
        [
            SYS2,
            MoranSystem.constant(Mat2(2, 2, 0, 2), D0),
            MoranSystem(((Mat2(Fraction(5, 3), 1, 0, 3), D0),), ((I2, scaled_canonical(3)),)),
        ],
        ids=["2I", "shear", "rational level 1"],
    )
    def test_enumeration_matches_fraction_loop(self, sysm):
        tower = build_tower(sysm)
        for k in range(1, 5):
            got = enumerate_tower(tower, k)
            assert got == _fraction_tower(tower, k)
            assert all(type(c) is Fraction for p in got for c in p)

    def test_companions_2i(self):
        tower = build_tower(SYS2)
        assert set(tower.companions(1)) == set(F2)

    def test_companions_4i(self):
        tower = build_tower(SYS4)
        assert set(tower.companions(1)) == {
            (Fraction(2 * i), Fraction(2 * j)) for i in (0, 1) for j in (0, 1)
        }

    def test_unavailable_for_odd_matrices(self):
        with pytest.raises(TowerUnavailable) as err:
            build_tower(MoranSystem.constant(I3, D0))
        assert err.value.level == 2

    @settings(max_examples=200)
    @given(st.lists(STRUCTURED_LEVELS, max_size=2),
           st.lists(STRUCTURED_LEVELS, min_size=1, max_size=3))
    @example([], [(I3, D0), (I5, D0)])
    def test_refusal_is_first_odd_level(self, pre, period):
        """The tower is refused exactly at `first_odd_level`, and its message
        is T1.1's NotSpectral detail whenever T1.1's hypotheses hold."""
        sysm = MoranSystem(tuple(pre), tuple(period))
        odd = first_odd_level(sysm)
        try:
            build_tower(sysm)
            refusal = None
        except TowerUnavailable as exc:
            refusal = (exc.level, str(exc))
        except OutOfTheoryError:  # a level that is not Hadamard
            refusal = None
        assert refusal == odd
        if first_failure(sysm.matrices(), (DET_AT_LEAST_4, EXPANDING)) is None:
            verdict = classify_thm11(sysm)
            assert (verdict.outcome == NOT_SPECTRAL) == (odd is not None)
            if odd is not None:
                assert verdict.detail == odd[1]

    def test_first_level_exempt(self):
        sysm = MoranSystem(((I3, D0),), ((I4, D0),))
        tower = build_tower(sysm)
        assert set(tower.companions(1)) == {
            (Fraction(3 * i, 2), Fraction(3 * j, 2)) for i in (0, 1) for j in (0, 1)
        }

    def test_zero_in_every_companion_set(self):
        tower = build_tower(SYS4)
        for j in range(1, 5):
            assert (Fraction(0), Fraction(0)) in tower.companions(j)


class TestEnumerate:
    def test_depth_one(self):
        tower = build_tower(SYS2)
        assert set(enumerate_tower(tower, 1)) == set(F2)

    def test_depth_two_is_f4(self):
        tower = build_tower(SYS2)
        expected = {(Fraction(i), Fraction(j)) for i in range(4) for j in range(4)}
        assert set(enumerate_tower(tower, 2)) == expected

    def test_depth_two_4i(self):
        tower = build_tower(SYS4)
        # direct enumeration oracle: 2 F2 + 8 F2 coordinatewise
        expected = {
            (Fraction(2 * a + 8 * c), Fraction(2 * b + 8 * d))
            for a in (0, 1)
            for b in (0, 1)
            for c in (0, 1)
            for d in (0, 1)
        }
        pts = enumerate_tower(tower, 2)
        assert len(pts) == 16
        assert set(pts) == expected

    def test_cap(self):
        tower = build_tower(SYS2)
        with pytest.raises(CapExceeded):
            enumerate_tower(tower, 9)
        with pytest.raises(CapExceeded):
            enumerate_tower(tower, 3, cap=10)

    def test_huge_depth_refused_without_forming_4_to_the_k(self):
        """4^(10^8) would be a 2 * 10^8-bit integer (25 MB)."""
        tower = build_tower(SYS2)

        def refuse():
            with pytest.raises(CapExceeded, match=r"4\^100000000 tower points exceed cap 65536"):
                enumerate_tower(tower, 10**8)

        assert _peak_bytes(refuse) < 1_000_000
        # The bit-length shortcut agrees with 4^k > cap at the boundary.
        for cap in (4**5 - 1, 4**5, 4**5 + 1, 2 * 4**5):
            for k in range(1, 8):
                if 4**k > cap:
                    with pytest.raises(CapExceeded):
                        enumerate_tower(tower, k, cap=cap)
                else:
                    assert len(enumerate_tower(tower, k, cap=cap)) == 4**k


class TestLatticeSpectrum:
    def test_2i_gives_integer_lattice(self):
        pts = build_lattice_spectrum(SYS2, 2)
        expected = {
            (Fraction(i), Fraction(j)) for i in range(-2, 3) for j in range(-2, 3)
        }
        assert set(pts) == expected

    def test_shear_first_level(self):
        m1 = Mat2(2, 2, 0, 2)
        sysm = MoranSystem(((m1, D0),), ((I2, D0),))
        pts = build_lattice_spectrum(sysm, 4)
        # exact lattice enumeration oracle: (1/2) M1^* (F2 + 2 Z^2) in the box
        m1t = m1.transpose()
        expected = set()
        for v1 in (0, 1):
            for v2 in (0, 1):
                for k1 in range(-8, 9):
                    for k2 in range(-8, 9):
                        x, y = m1t.apply((v1 + 2 * k1, v2 + 2 * k2))
                        p = (Fraction(x, 2), Fraction(y, 2))
                        if abs(p[0]) <= 4 and abs(p[1]) <= 4:
                            expected.add(p)
        assert set(pts) == expected

    def test_scaled_family_divides(self):
        sysm = MoranSystem(((I2, scaled_canonical(9)),), ((I2, scaled_canonical(3)),))
        pts = build_lattice_spectrum(sysm, 1)
        # spectrum of the t2-rescaled system, transported back by 1/t2
        expected = {
            (Fraction(i, 3), Fraction(j, 3)) for i in range(-3, 4) for j in range(-3, 4)
        }
        assert set(pts) == expected

    @pytest.mark.parametrize(
        "sysm",
        [
            SYS2,
            MoranSystem(((I2, scaled_canonical(9)),), ((I2, scaled_canonical(3)),)),
            MoranSystem(((Mat2(3, 1, 0, 3), scaled_canonical(-9)),),
                        ((Mat2(2, 0, 2, 2), scaled_canonical(-3)),)),
            MoranSystem(((Mat2(Fraction(5, 2), Fraction(1, 3), 0, Fraction(5, 2)), scaled_canonical(3)),),
                        ((I2, scaled_canonical(-3)),)),
        ],
        ids=["2I", "9to3", "negative scales", "rational level 1"],
    )
    def test_enumeration_matches_fraction_loop(self, sysm):
        for box in range(9):
            got = build_lattice_spectrum(sysm, box)
            assert got == _fraction_lattice(sysm, box), box
            assert all(type(c) is Fraction for p in got for c in p)

    def test_cap_refuses_before_building_the_box(self):
        """Box 500 holds 1,002,001 points; the refusal comes at the 65,537th."""

        def refuse():
            with pytest.raises(CapExceeded, match="lattice box 500 holds more than cap 65536"):
                build_lattice_spectrum(SYS2, 500)

        assert _peak_bytes(refuse) < 20_000_000
        assert len(build_lattice_spectrum(SYS2, 3, cap=49)) == 49
        with pytest.raises(CapExceeded, match="lattice box 3 holds more than cap 48"):
            build_lattice_spectrum(SYS2, 3, cap=48)

    def test_out_of_theory_when_divisibility_fails(self):
        sysm = MoranSystem(((I2, scaled_canonical(3)),), ((I2, scaled_canonical(9)),))
        with pytest.raises(OutOfTheoryError):
            build_lattice_spectrum(sysm, 2)

    def test_out_of_theory_for_wrong_shape(self):
        with pytest.raises(OutOfTheoryError):
            build_lattice_spectrum(MoranSystem.constant(I4, D0), 2)


class TestOrthogonality:
    def test_f4_is_orthogonal_for_2i(self):
        tower = build_tower(SYS2)
        res = verify_orthogonality(SYS2, enumerate_tower(tower, 2))
        assert res.ok and res.failing_pair is None

    def test_failing_pair_reported(self):
        res = verify_orthogonality(SYS2, [(0, 0), (Fraction(1, 3), 0)])
        assert not res.ok
        assert res.failing_pair == (
            (Fraction(0), Fraction(0)),
            (Fraction(1, 3), Fraction(0)),
        )

    def test_singleton(self):
        res = verify_orthogonality(SYS2, [(Fraction(1, 7), Fraction(2, 7))])
        assert res.ok and res.pairs_checked == 0

    def test_tower_orthogonality_small_depths(self):
        for sysm in (SYS2, SYS4):
            tower = build_tower(sysm)
            for k in (1, 2, 3):
                assert verify_orthogonality(sysm, enumerate_tower(tower, k)).ok

    def test_similarity_transported_spectrum(self):
        q = Mat2(1, 1, 0, 1)
        conj = conjugate_system(SYS4, q)
        tower = build_tower(SYS4)
        lam = enumerate_tower(tower, 2)
        qt_inv = q.transpose().inverse()
        transported = [qt_inv.apply(p) for p in lam]
        res = verify_orthogonality(conj, transported)
        assert res.ok


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# Each mutation of a point list, with a point that is in no tower or lattice.
PLANTED = (Fraction(1, 11), Fraction(0))
MUTATIONS = {
    "index": lambda pts: pts.__setitem__(3, PLANTED),
    "slice": lambda pts: pts.__setitem__(slice(2, 4), [PLANTED, pts[2]]),
    "append": lambda pts: pts.append(PLANTED),
    "sort": lambda pts: pts.sort(key=lambda p: (-p[1], p[0])),
    "reverse": lambda pts: pts.reverse(),
    "list.__setitem__": lambda pts: list.__setitem__(pts, -1, PLANTED),
}


class TestCarriedIntegers:
    """Towers and lattices carry their integer numerators, which the
    checkers read only while the list is unchanged."""

    BUILDS = {
        "tower": (SYS2, 3, lambda: enumerate_tower(build_tower(SYS2), 3)),
        "conjugated tower": (conjugate_system(SYS4, Mat2(2, 1, 1, 1)), 2,
                             lambda: enumerate_tower(build_tower(conjugate_system(SYS4, Mat2(2, 1, 1, 1))), 2)),
        "lattice": (SYS2, 3, lambda: build_lattice_spectrum(SYS2, 3)),
    }

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_mutation_drops_the_carried_form(self, build, mutation):
        sysm, level, make = self.BUILDS[build]
        points = make()
        MUTATIONS[mutation](points)
        plain = list(points)
        assert spectra._numerators(points) == digit_expansion([plain])
        assert verify_orthogonality(sysm, points) == verify_orthogonality(sysm, plain)
        assert (_outcome(discrete_spectrum_oracle, sysm, level, points)
                == _outcome(discrete_spectrum_oracle, sysm, level, plain))

    @pytest.mark.parametrize("build", BUILDS)
    def test_unchanged_result_is_read_as_carried(self, build):
        sysm, _, make = self.BUILDS[build]
        points = make()
        ints, q = spectra._numerators(points)
        assert (ints, q) == digit_expansion([list(points)])
        assert ints is points.ints

    def test_results_compare_equal_to_plain_lists(self):
        tower = build_tower(SYS2)
        points = enumerate_tower(tower, 3)
        assert points == _fraction_tower(tower, 3) and _fraction_tower(tower, 3) == points
        assert build_lattice_spectrum(SYS2, 4) == _fraction_lattice(SYS2, 4)
        assert points[:] == list(points) and type(points[:]) is list


class TestCompleteness:
    def test_only_origin_contributes_at_zero(self):
        pts = build_lattice_spectrum(SYS2, 8)
        q = completeness_sum(SYS2, pts, (0.0, 0.0), 1e-9)
        assert q == pytest.approx(1.0, abs=1e-9)

    def test_q_bounded_for_orthogonal_sets(self):
        pts = build_lattice_spectrum(SYS2, 6)
        rng = random.Random(17)
        for _ in range(100):
            xi = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            q = completeness_sum(SYS2, pts, xi, 1e-6)
            assert q <= 1 + 1e-6

    def test_monotone_in_inclusion(self):
        xi = (0.3, 0.7)
        q_small = completeness_sum(SYS2, build_lattice_spectrum(SYS2, 4), xi, 1e-8)
        q_big = completeness_sum(SYS2, build_lattice_spectrum(SYS2, 8), xi, 1e-8)
        assert q_big >= q_small - 1e-9

    def test_completeness_report_over_nested_truncations(self):
        tower = build_tower(SYS2)
        nested = [enumerate_tower(tower, k) for k in (1, 2, 3)]
        rep = completeness_report(SYS2, nested, [(0.1, 0.2), (0.3, 0.7)], 1e-7)
        assert rep.truncation_points == 64
        assert rep.monotone_in_truncation
        assert len(rep.q_values) == 2
        assert all(0 <= q <= 1 + 1e-6 for q in rep.q_values)

    def test_completeness_report_flags_a_shrinking_chain(self):
        """A chain given largest set first is not nested upward: its sums
        fall, and the report says so (and keeps the last, smallest one)."""
        boxes = [build_lattice_spectrum(SYS2, b) for b in (4, 2)]
        rep = completeness_report(SYS2, boxes, [(0.3, 0.7)], 1e-8)
        assert not rep.monotone_in_truncation
        assert rep.truncation_points == 25
        assert rep.q_values[0] == completeness_sum(SYS2, boxes[1], (0.3, 0.7), 1e-8)

    def test_lattice_beats_quadrant_tower(self):
        # the tower fills one quadrant only; the lattice spectrum is complete
        tower = build_tower(SYS2)
        lam5 = enumerate_tower(tower, 5)
        q_tower = completeness_sum(SYS2, lam5, (-0.49, -0.49), 1e-8)
        q_lattice = completeness_sum(
            SYS2, build_lattice_spectrum(SYS2, 16), (0.3, 0.7), 1e-8
        )
        assert q_tower <= 0.9
        assert q_lattice > q_tower + 0.25
        # measured 0.8832; the deficit 1 - Q decays like B^(-log2(4/3)) ~ B^(-0.415)
        assert q_lattice > 0.88


    @pytest.mark.parametrize("eps", [1e-6, 1e-12])
    def test_sum_depends_only_on_the_set(self, eps):
        """Q is a sum over a set: shuffling the box-16 lattice or the
        depth-5 tower leaves it unchanged to the last bit."""
        rng = random.Random(2601)
        for pts in (build_lattice_spectrum(SYS2, 16), enumerate_tower(build_tower(SYS2), 5)):
            xi = (rng.random(), rng.random())
            q = completeness_sum(SYS2, pts, xi, eps)
            for _ in range(10):
                shuffled = rng.sample(pts, len(pts))
                assert completeness_sum(SYS2, shuffled, xi, eps) == q


class TestOracle:
    def test_report_depends_only_on_the_set(self):
        """Both fields of the report are functions of the candidate set:
        five shuffles of each certify tower at levels 2 and 3 give the same
        report to the last bit."""
        rng = random.Random(2602)
        for name, sysm in CERTIFY_SYSTEMS.items():
            tower = build_tower(sysm)
            for level in (2, 3):
                pts = enumerate_tower(tower, level)
                rep = discrete_spectrum_oracle(sysm, level, pts)
                assert rep.unitary, (name, level)
                for _ in range(5):
                    shuffled = rng.sample(pts, len(pts))
                    assert discrete_spectrum_oracle(sysm, level, shuffled) == rep, (name, level)

    def test_repeated_point_is_not_unitary(self):
        """A repeated candidate makes two equal columns of H, so H*H has an
        off-diagonal 1; the bitset drops that zero difference, so the walk
        must see it."""
        pts = [(0, 0), (0, 0), (1, 0), (0, 1)]
        assert discrete_spectrum_oracle(SYS2, 1, pts) == spectra.OracleReport(False, 1.0)

    def test_walk_only_without_the_bitset(self, monkeypatch):
        """A dense candidate takes its differences from `difference_set`
        alone; the unconjugated [[4,2],[2,4]] level-3 tower is too sparse
        for the bitset and walks."""
        calls = []
        walk = spectra.distinct_differences

        def spy(ints):
            calls.append(len(ints))
            return walk(ints)

        monkeypatch.setattr(spectra, "distinct_differences", spy)
        assert discrete_spectrum_oracle(SYS2, 5, enumerate_tower(build_tower(SYS2), 5))
        assert calls == []
        sysm = CERTIFY_SYSTEMS["4224"]
        assert discrete_spectrum_oracle(sysm, 3, enumerate_tower(build_tower(sysm), 3))
        assert calls == [64]

    def test_4i_level_one(self):
        tower = build_tower(SYS4)
        rep = discrete_spectrum_oracle(SYS4, 1, enumerate_tower(tower, 1))
        assert rep.unitary and rep.residual < 1e-10

    def test_4i_wrong_candidate(self):
        rep = discrete_spectrum_oracle(SYS4, 1, F2)
        assert not rep.unitary

    def test_2i_level_two(self):
        tower = build_tower(SYS2)
        rep = discrete_spectrum_oracle(SYS2, 2, enumerate_tower(tower, 2))
        assert rep.unitary and rep.residual < 1e-10

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError):
            discrete_spectrum_oracle(SYS2, 2, F2)

    def test_level_cap(self):
        """The candidate bounds the oracle's work: level 40 has 4^40 atoms,
        so four candidates are refused before any atom is built."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"candidate has 4 points, expected 4\^40$"):
            discrete_spectrum_oracle(SYS2, 40, F2)
        assert time.perf_counter() - start < 0.01

    def test_level_past_the_level_cap(self):
        """One atom at every level: the candidate cannot bound the level, so
        the stages refuse it, as fast as a size mismatch."""
        one = MoranSystem.constant(I2, GenericDigitSet(((0, 0),)))
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="depth 100000000000 exceeds the level cap"):
            discrete_spectrum_oracle(one, 10**11, [(0, 0)])
        assert time.perf_counter() - start < 0.01

    @pytest.mark.parametrize("n", [0, -1])
    def test_level_below_one_is_invalid_input(self, n):
        with pytest.raises(ValueError, match="oracle level must be >= 1"):
            discrete_spectrum_oracle(SYS2, n, F2)

    def test_exact_check_reduces_the_common_denominator(self):
        """One shifted point puts the atom-times-candidate denominator at
        4 * 7429; the exact check decides it in milliseconds, and so it does
        at 4 * 37,145, past the 100,000 the dense Phi_q test refused."""
        tower = enumerate_tower(build_tower(SYS2), 2)

        def shifted(dx, dy):
            return [(tower[0][0] + dx, tower[0][1] + dy)] + tower[1:]

        pts = shifted(Fraction(1, 17) + Fraction(1, 23), Fraction(2, 19))
        start = time.perf_counter()
        rep = discrete_spectrum_oracle(SYS2, 2, pts)
        assert time.perf_counter() - start < 0.1
        assert not rep.unitary
        pts = shifted(Fraction(1, 17) + Fraction(1, 23), Fraction(2, 19) + Fraction(1, 5))
        start = time.perf_counter()
        rep = discrete_spectrum_oracle(SYS2, 2, pts)
        assert time.perf_counter() - start < 0.1
        assert not rep.unitary

    def test_level_four_needs_no_dense_matrix(self):
        """The residual comes from one count per distinct difference, so
        the level-4 oracle peaks below the 1 MiB of one 256 x 256 complex
        matrix (the dense residual peaked at 3 MiB)."""
        points = enumerate_tower(build_tower(SYS2), 4)
        tracemalloc.start()
        try:
            rep = discrete_spectrum_oracle(SYS2, 4, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.unitary and rep.residual < 1e-10
        assert peak < 2**20

    def test_generic_candidate_stays_small(self):
        """Shifts over two large primes make nearly every difference and
        residue distinct; the float residual still keeps O(size) memory."""
        rng = random.Random(7)

        def shift(p):
            return Fraction(rng.randint(1, p - 1), p)

        tower = enumerate_tower(build_tower(SYS2), 2)
        points = [(x + shift(1000003), y + shift(1000033)) for x, y in tower]
        tracemalloc.start()
        try:
            rep = discrete_spectrum_oracle(SYS2, 2, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not rep.unitary and 0.5 < rep.residual <= 1
        assert peak < 64 * 2**10

    def test_each_count_pattern_decided_once(self, monkeypatch):
        """The level-3 4I oracle meets 364 distinct differences but only 29
        residue-count patterns; each pattern reaches `_vanishes` once."""
        calls = []
        vanishes = spectra._vanishes

        def spy(terms, q):
            calls.append((frozenset(terms.items()), q))
            return vanishes(terms, q)

        monkeypatch.setattr(spectra, "_vanishes", spy)
        rep = discrete_spectrum_oracle(SYS4, 3, enumerate_tower(build_tower(SYS4), 3))
        assert rep.unitary and rep.residual < 1e-10
        assert len(calls) == len(set(calls)) == 29

    def test_pattern_is_counts_not_residues(self):
        """Over the atoms (0,0), (1/4,0), (0,1/4), (1/2,0), the difference
        (2,2) meets the residues {0, 1/2} twice each (a vanishing sum) and
        (2,0) meets them with counts 3 and 1: one residue set, two patterns."""
        sysm = MoranSystem.constant(I4, GenericDigitSet(((0, 0), (1, 0), (0, 1), (2, 0))))
        assert not discrete_spectrum_oracle(sysm, 1, [(0, 0), (2, 2), (2, 0), (4, 2)]).unitary

    def test_level_five_stays_small(self):
        """Counts merged stage by stage never hold the 1,024 flat residues
        per difference, and patterns are memoised in O(size) entries."""
        points = enumerate_tower(build_tower(SYS2), 5)
        reports = []
        peak = _peak_bytes(lambda: reports.append(discrete_spectrum_oracle(SYS2, 5, points)))
        assert reports[0].unitary and reports[0].residual < 1e-10
        assert peak < 2 * 2**20

    def test_oracle_consistency_up_to_three(self):
        for sysm in (SYS2, SYS4):
            tower = build_tower(sysm)
            for n in (1, 2, 3):
                rep = discrete_spectrum_oracle(sysm, n, enumerate_tower(tower, n))
                assert rep.unitary, (sysm, n)
