"""Ordinal regression with location and dispersion (location-shift) effects.

Cumulative and adjacent-categories models with global, location-shift, or
category-specific covariate effects; B-spline additive predictors; nested
deviance testing; Wald inference; and star/smooth plots.
"""

from .data import OrdinalDataset, load_csv
from .design import ModelSpec, Term
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
from .formula import parse_formula
from .inference import (
    ComparisonTable,
    StarPoint,
    TestResult,
    lrt,
    model_ladder,
    smooth_term_tests,
    star_data,
    wald_table,
)
from .links import Family
from .report import render_report
from .simulate import locshift_example, simulate_dataset
from .svgplot import render_smooth_svg, render_star_svg

__version__ = "0.1.0"

__all__ = [
    "ComparisonTable",
    "DataError",
    "Family",
    "FitResult",
    "FormulaError",
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
    "fisher_info",
    "fit",
    "load_csv",
    "locshift_example",
    "log_likelihood",
    "lrt",
    "model_ladder",
    "parse_formula",
    "predict",
    "render_report",
    "render_smooth_svg",
    "render_star_svg",
    "score",
    "simulate_dataset",
    "smooth_term_tests",
    "smooth_values",
    "standard_errors",
    "star_data",
    "wald_table",
]
