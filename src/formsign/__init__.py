"""Decide nonnegativity of homogeneous polynomials on the nonnegative orthant.

The sign of a form is scale invariant along rays, so the standard simplex
carries every direction of the orthant.  This package subdivides the simplex
into rational subsimplexes, restricts the form to each cell by an exact
linear substitution, prunes cells whose restricted coefficients are all
nonnegative, and stops with an exact rational counterexample the moment a
cell's barycenter value goes negative.  All arithmetic is over
`fractions.Fraction`; there is no floating point anywhere in a verdict.
"""

from .engine import (
    Branch,
    IndexPath,
    LevelResult,
    Outcome,
    RunStats,
    Verdict,
    decide,
    expand_level,
    run_report,
    witness_point,
)
from .forms import (
    DimensionMismatchError,
    Exponents,
    Form,
    InhomogeneousError,
    as_fraction,
)
from .oracle import GridResult, GridSpec, closed_form_central_power, grid_classify
from .parsing import (
    MAX_EXPONENT,
    FormSyntaxError,
    VariableContext,
    format_form,
    parse_form,
)
from .subdivision import (
    ConvergenceReport,
    NormalizedMatrix,
    SchemeError,
    SchemeValidation,
    SubdivisionScheme,
    barycenter,
    check_convergence,
    compose,
    diameter_sq,
    format_scheme,
    load_scheme,
    make_central3_scheme,
    make_midpoint3_scheme,
    make_star3_scheme,
    make_trisection3_scheme,
    make_wds_scheme,
    matrix_power,
    parse_scheme,
    save_scheme,
    validate_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "ConvergenceReport",
    "DimensionMismatchError",
    "Exponents",
    "Form",
    "FormSyntaxError",
    "GridResult",
    "GridSpec",
    "IndexPath",
    "InhomogeneousError",
    "LevelResult",
    "MAX_EXPONENT",
    "NormalizedMatrix",
    "Outcome",
    "RunStats",
    "SchemeError",
    "SchemeValidation",
    "SubdivisionScheme",
    "Verdict",
    "VariableContext",
    "as_fraction",
    "barycenter",
    "check_convergence",
    "closed_form_central_power",
    "compose",
    "decide",
    "diameter_sq",
    "expand_level",
    "format_form",
    "format_scheme",
    "grid_classify",
    "load_scheme",
    "make_central3_scheme",
    "make_midpoint3_scheme",
    "make_star3_scheme",
    "make_trisection3_scheme",
    "make_wds_scheme",
    "matrix_power",
    "parse_form",
    "parse_scheme",
    "run_report",
    "save_scheme",
    "validate_scheme",
    "witness_point",
]
