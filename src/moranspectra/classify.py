"""Decision procedures for the spectrality of Moran systems.

Each rule verifies its hypotheses exactly before speaking; outcomes are
Spectral / NotSpectral only when a rule genuinely applies, otherwise
OutOfTheory with the first failed hypothesis named.  Verdicts carry a rule
tag (T1.1, T1.4, T1.5, T1.6, C5.1) so downstream reports can cite which
criterion decided.

The dispatcher walks one table, `RULES`, the if-and-only-if rules before
the necessity-only one: T1.4, then T1.6 / C5.1 on constant-tail scaled
families, then the word criterion T1.5, then T1.1.  If no rule decides, it
walks the table again after normalizing away a shared unimodular similarity
factor read off the digit bases (spectrality is similarity-invariant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

from .digitsets import scaled_t_of
from .lattice import Mat2
from .moran import (
    DET_4,
    DET_ABOVE_4,
    DET_AT_LEAST_4,
    EXPANDING,
    IN_GL2_2Z,
    NORM_BELOW_1,
    Hypothesis,
    MoranSystem,
    TWord,
    conjugate_system,
    first_failure,
    first_odd_level,
    word_hypotheses_problem,
)

SPECTRAL = "Spectral"
NOT_SPECTRAL = "NotSpectral"
OUT_OF_THEORY = "OutOfTheory"

RULE_T11 = "T1.1"
RULE_T14 = "T1.4"
RULE_T15 = "T1.5"
RULE_T16 = "T1.6"
RULE_C51 = "C5.1"


@dataclass(frozen=True)
class Verdict:
    outcome: str
    rule: Optional[str]
    detail: str

    @property
    def decisive(self) -> bool:
        return self.outcome in (SPECTRAL, NOT_SPECTRAL)


def _structured_rule(
    sys: MoranSystem, rule: str, checks: Sequence[Hypothesis]
) -> Optional[Verdict]:
    """OutOfTheory at the first failed hypothesis of a rule on four-point
    structured digits, NotSpectral at `first_odd_level`, else None."""
    if not sys.all_structured():
        return Verdict(OUT_OF_THEORY, rule, f"{rule} needs four-point structured digit sets")
    problem = first_failure(sys.matrices(), checks)
    if problem:
        return Verdict(OUT_OF_THEORY, rule, problem)
    odd = first_odd_level(sys)
    return Verdict(NOT_SPECTRAL, rule, odd[1]) if odd else None


# --- rule T1.4: strict determinant family ----------------------------------


def classify_thm14(sys: MoranSystem) -> Verdict:
    """Iff rule for structured digits with |det| > 4 and uniform contraction:
    spectral exactly when every matrix from level 2 on has all-even entries."""
    return _structured_rule(sys, RULE_T14, (DET_ABOVE_4, EXPANDING, NORM_BELOW_1)) or Verdict(
        SPECTRAL,
        RULE_T14,
        "all |det| > 4, all ||M^-1|| < 1, and every matrix from level 2 on is in GL(2,2Z)",
    )


# --- rule T1.1: necessity at |det| >= 4 -------------------------------------


def classify_thm11(sys: MoranSystem) -> Verdict:
    """Necessity-only rule: with |det| >= 4 throughout and bounded digit
    determinants, an odd-entry matrix at any level >= 2 forces NotSpectral."""
    return _structured_rule(sys, RULE_T11, (DET_AT_LEAST_4, EXPANDING)) or Verdict(
        OUT_OF_THEORY,
        RULE_T11,
        "necessity rule found no even-entry violation (it proves nothing positive)",
    )


# --- rule T1.5: word criterion over coprime scales ---------------------------


def classify_thm15(word: TWord, matrices: Iterable[Mat2]) -> Verdict:
    """Iff word rule for |det| = 4 even-matrix systems with digit scales
    t_{sigma_n}: non-spectral exactly when sigma is eventually constant at a
    letter j != 1 after at least one differing letter."""
    problem = word_hypotheses_problem(word, matrices)
    if problem:
        return Verdict(OUT_OF_THEORY, RULE_T15, problem)
    canon = word.canonical()
    tail = canon.eventually_constant_letter()
    if tail is not None and tail != 1 and canon.preperiod:
        return Verdict(
            NOT_SPECTRAL,
            RULE_T15,
            f"word is eventually constant at letter {tail} (t={word.t_values[tail - 1]}) "
            f"after a differing letter",
        )
    return Verdict(
        SPECTRAL,
        RULE_T15,
        "word is not of the form prefix + constant tail at a letter other than 1",
    )


# --- rule T1.6: two-scale constant-tail family -------------------------------


def classify_thm16(m1: Mat2, m2: Mat2, t1: int, t2: int) -> Verdict:
    """Iff rule for D_1 = t1*D0 followed by the constant tail (M2, t2*D0):
    spectral exactly when t2 divides t1."""
    if t1 % 2 == 0 or t2 % 2 == 0 or t1 == 0 or t2 == 0:
        return Verdict(OUT_OF_THEORY, RULE_T16, f"scales t1={t1}, t2={t2} must be odd")
    problem = first_failure((m1, m2), (EXPANDING,)) or first_failure(
        (m2,), (IN_GL2_2Z, DET_4), noun="tail matrix"
    )
    if problem:
        return Verdict(OUT_OF_THEORY, RULE_T16, problem)
    if t1 % t2 == 0:
        return Verdict(SPECTRAL, RULE_T16, f"t2={t2} divides t1={t1}")
    return Verdict(NOT_SPECTRAL, RULE_T16, f"t2={t2} does not divide t1={t1}")


# --- shape detection ----------------------------------------------------------


def thm16_shape(sys: MoranSystem) -> Optional[tuple[Mat2, Mat2, int, int]]:
    """(M1, M2, t1, t2) when sys is a two-scale constant-tail scaled family."""
    crep = sys.canonical()
    if len(crep.period) != 1 or len(crep.preperiod) > 1:
        return None
    m1, d1 = crep.distinct()[0]
    m2, d2 = crep.period[0]
    t1, t2 = scaled_t_of(d1), scaled_t_of(d2)
    if t1 is None or t2 is None:
        return None
    return (m1, m2, t1, t2)


def cor51_verdict(sys: MoranSystem) -> Optional[Verdict]:
    """Necessity rule for longer scaled preperiods with a constant tail:
    all levels expanding with |det| = 4 and the tail scale not dividing the
    last preperiod scale force NotSpectral."""
    crep = sys.canonical()
    if len(crep.period) != 1 or len(crep.preperiod) < 2:
        return None
    scales = []
    for m, d in crep.distinct():
        t = scaled_t_of(d)
        if t is None or first_failure((m,), (EXPANDING, DET_4)):
            return None
        scales.append(t)
    t_last_pre, t_tail = scales[-2], scales[-1]
    if t_last_pre % t_tail != 0:
        return Verdict(
            NOT_SPECTRAL,
            RULE_C51,
            f"tail scale {t_tail} does not divide the last preperiod scale {t_last_pre}",
        )
    return None


def thm15_shape(sys: MoranSystem) -> Union[tuple[TWord, tuple[Mat2, ...]], str]:
    """Extract (word, matrices) when every digit set is a positive odd scale
    of the canonical set with pairwise coprime scales; else a reason string."""
    scales = [scaled_t_of(d) for _, d in sys.distinct()]
    for t in scales:
        if t is None:
            return "digit sets are not all scales of the canonical set"
        if t < 0:
            return f"scale {t} is negative"
    values = sorted(set(scales) | {1})
    for a, b in combinations(values, 2):
        if math.gcd(a, b) != 1:
            return f"scales {a} and {b} are not coprime"
    letters = [values.index(t) + 1 for t in scales]
    p = len(sys.preperiod)
    word = TWord(tuple(letters[:p]), tuple(letters[p:]), tuple(values))
    return (word, sys.matrices())


def similarity_normalize(sys: MoranSystem) -> MoranSystem:
    """Undo a shared unimodular similarity read off the digit bases.

    When every digit basis factors as t_n * Qhat with one unimodular Qhat,
    conjugating by Qhat^{-1} turns the digits into t_n * canonical without
    changing spectrality; classification then sees the normalized system.
    """
    if not sys.all_structured():
        return sys
    qhat: Optional[Mat2] = None
    for _, d in sys.distinct():
        q = d.q_matrix()  # type: ignore[union-attr]
        p = abs(int(q.det()))
        t = math.isqrt(p)
        if t * t != p:
            return sys
        if any(int(e) % t for e in q.entries()):
            return sys
        candidate = Mat2(*(int(e) // t for e in q.entries()))
        if qhat is None:
            qhat = candidate
        elif candidate != qhat:
            return sys
    if qhat is None or qhat == Mat2.identity():
        return sys
    inv = qhat.inverse()
    inv_int = Mat2(*(int(e) for e in inv.entries()))
    return conjugate_system(sys, inv_int)


# --- dispatcher ---------------------------------------------------------------


def _thm16_rule(sys: MoranSystem) -> Verdict:
    shape = thm16_shape(sys)
    if shape is None:
        return Verdict(OUT_OF_THEORY, RULE_T16, "not a two-scale constant-tail family")
    return classify_thm16(*shape)


def _thm15_rule(sys: MoranSystem) -> Verdict:
    shape = thm15_shape(sys)
    if isinstance(shape, str):
        return Verdict(OUT_OF_THEORY, RULE_T15, shape)
    return classify_thm15(*shape)


# The iff rules first, T1.1 (necessity only) last.  C5.1 needs a canonical
# preperiod of at least 2 and T1.6 one of at most 1, so both never apply.
RULES = (classify_thm14, _thm16_rule, cor51_verdict, _thm15_rule, classify_thm11)


def _classify_system(sys: MoranSystem) -> tuple[Optional[Verdict], list[str]]:
    traces: list[str] = []
    for rule in RULES:
        v = rule(sys)
        if v is None:
            continue
        if v.decisive:
            return v, traces
        traces.append(f"{v.rule}: {v.detail}")
    return None, traces


def classify(
    target: Union[MoranSystem, TWord], matrices: Optional[Sequence[Mat2]] = None
) -> Verdict:
    """First decisive rule of `RULES` wins; word inputs go straight to the
    word rule.

    The rules run on the system as given, then (if nothing decides) on its
    similarity-normalized form: normalization can only help when a shared
    digit-basis conjugation obscures the scaled shape, and running the raw
    form first keeps verdicts on well-conditioned inputs independent of how
    the normalized conjugate is conditioned.  Any two decisive paths agree,
    since each rule is a proved criterion about the same measure.
    """
    if isinstance(target, TWord):
        if matrices is None:
            raise ValueError("classifying a word needs its matrix sequence")
        return classify_thm15(target, matrices)

    verdict, traces = _classify_system(target)
    if verdict is not None:
        return verdict
    normalized = similarity_normalize(target)
    if normalized != target:
        verdict, norm_traces = _classify_system(normalized)
        if verdict is not None:
            return verdict
        traces = [f"after similarity normalization: {t}" for t in norm_traces]
    return Verdict(OUT_OF_THEORY, None, "; ".join(traces))
