"""Spectral analysis of planar Moran measures.

Exact lattice arithmetic, mask-polynomial zero sets, Hadamard triples,
certified Fourier products, candidate spectra, and theorem-backed
spectrality classifiers for eventually periodic systems.  The package
attribute `classify` is the function; the module of that name (which holds
`RULES`) is `importlib.import_module("moranspectra.classify")`.
"""

from types import ModuleType as _ModuleType

from .lattice import (
    Mat2,
    in_gl2_2z,
    inverse_norm_below_one,
    is_expanding,
    mat_product,
)
from .digitsets import (
    DigitCollision,
    Degenerate,
    GenericDigitSet,
    OddityViolation,
    StructuredDigitSet,
    canonical_digits,
    scaled_canonical,
    sum_set,
)
from .mask import (
    CardinalityMismatch,
    SingularMatrix,
    eval_mask,
    is_hadamard_triple,
)
from .moran import (
    CapExceeded,
    FourierResult,
    MoranSystem,
    OutOfTheoryError,
    SystemInvalid,
    TWord,
    ValidationReport,
    ZeroCertificate,
    attractor_points,
    conjugate_system,
    fourier,
    fourier_many,
    fourier_zero_exact,
    integer_periodic_zero_nonempty,
    realize_word_system,
    reduce_canonical,
    validate,
)
from .spectra import (
    CompletenessReport,
    OracleReport,
    OrthogonalityResult,
    SpectrumTower,
    TowerUnavailable,
    build_lattice_spectrum,
    build_tower,
    completeness_report,
    completeness_sum,
    discrete_spectrum_oracle,
    enumerate_tower,
    verify_orthogonality,
)
from .classify import (
    NOT_SPECTRAL,
    OUT_OF_THEORY,
    SPECTRAL,
    Verdict,
    classify,
    classify_thm11,
    classify_thm14,
    classify_thm15,
    classify_thm16,
)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
