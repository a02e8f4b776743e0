"""The package's public names, pinned: an addition or removal in
`moranspectra.__all__` has to show up as a reviewed change to this list."""

import importlib

import moranspectra

PUBLIC_API = [
    "CapExceeded", "CardinalityMismatch", "CompletenessReport", "Degenerate",
    "DigitCollision", "FourierResult", "GenericDigitSet", "Mat2", "MoranSystem",
    "NOT_SPECTRAL", "OUT_OF_THEORY", "OddityViolation", "OracleReport",
    "OrthogonalityResult", "OutOfTheoryError", "SPECTRAL", "SingularMatrix",
    "SpectrumTower", "StructuredDigitSet", "SystemInvalid", "TWord", "TowerUnavailable",
    "ValidationReport", "Verdict", "ZeroCertificate", "attractor_points",
    "build_lattice_spectrum", "build_tower", "canonical_digits", "classify",
    "classify_thm11", "classify_thm14", "classify_thm15", "classify_thm16",
    "completeness_report", "completeness_sum", "conjugate_system",
    "discrete_spectrum_oracle", "enumerate_tower", "eval_mask", "fourier",
    "fourier_many", "fourier_zero_exact", "in_gl2_2z", "integer_periodic_zero_nonempty",
    "inverse_norm_below_one", "is_expanding", "is_hadamard_triple",
    "mat_product", "realize_word_system", "reduce_canonical",
    "scaled_canonical", "sum_set", "validate", "verify_orthogonality",
]


def test_public_api_is_pinned():
    assert sorted(moranspectra.__all__) == PUBLIC_API


def test_classify_name_is_the_function():
    """`moranspectra.classify` is the function; the module of the same name
    stays reachable by its import path (the benchmark tracer wraps it)."""
    module = importlib.import_module("moranspectra.classify")
    assert callable(moranspectra.classify) and moranspectra.classify is module.classify
    assert module.RULES[0] is moranspectra.classify_thm14
