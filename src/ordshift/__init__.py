"""Ordinal regression with location and dispersion (location-shift) effects.

Cumulative and adjacent-categories models with global, location-shift, or
category-specific covariate effects; B-spline additive predictors; nested
deviance testing; Wald inference; and star/smooth plots.
"""

from .data import OrdinalDataset, load_csv
from .design import ModelSpec, Term, constraint_map, expand_design
from .exceptions import (
    DataError,
    FormulaError,
    InvalidInputError,
    NestingError,
    OrdshiftError,
    SpecError,
    StartError,
    ThresholdOrderError,
)
from .fit import (
    FitResult,
    fisher_info,
    fit,
    log_likelihood,
    predict,
    score,
    smooth_values,
    standard_errors,
)
from .formula import FormulaSpec, parse_formula
from .inference import (
    ComparisonTable,
    StarPoint,
    TestResult,
    chisq_sf,
    lrt,
    model_ladder,
    normal_cdf,
    normal_quantile,
    smooth_term_tests,
    star_data,
    wald_table,
)
from .links import Family, scaling_factors
from .report import render_report
from .simulate import draw_responses, locshift_example, simulate_dataset
from .splines import BasisDef, bspline_basis, knot_sequence
from .svgplot import render_smooth_svg, render_star_svg

__version__ = "0.1.0"

__all__ = [
    "BasisDef",
    "ComparisonTable",
    "DataError",
    "Family",
    "FitResult",
    "FormulaError",
    "FormulaSpec",
    "InvalidInputError",
    "ModelSpec",
    "NestingError",
    "OrdinalDataset",
    "OrdshiftError",
    "SpecError",
    "StarPoint",
    "StartError",
    "Term",
    "TestResult",
    "ThresholdOrderError",
    "bspline_basis",
    "chisq_sf",
    "constraint_map",
    "draw_responses",
    "expand_design",
    "fisher_info",
    "fit",
    "knot_sequence",
    "load_csv",
    "locshift_example",
    "log_likelihood",
    "lrt",
    "model_ladder",
    "normal_cdf",
    "normal_quantile",
    "parse_formula",
    "predict",
    "render_report",
    "render_smooth_svg",
    "render_star_svg",
    "scaling_factors",
    "score",
    "simulate_dataset",
    "smooth_term_tests",
    "smooth_values",
    "standard_errors",
    "star_data",
    "wald_table",
]
