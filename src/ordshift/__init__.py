"""Ordinal regression with location and dispersion (location-shift) effects.

Cumulative and adjacent-categories models with global, location-shift, or
category-specific covariate effects; B-spline additive predictors; nested
deviance testing; Wald inference; and star/smooth plots.
"""

from .data import OrdinalDataset, load_csv
from .design import (
    ExpandedDesign,
    ModelSpec,
    Term,
    VariableSpec,
    constraint_map,
    expand_design,
)
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
    category_probabilities,
    fisher_info,
    fit,
    log_likelihood,
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
from .links import (
    LOGIT,
    Family,
    Link,
    category_probs_adjacent,
    category_probs_cumulative,
    scaling_factor,
    scaling_factors,
)
from .report import render_report
from .simulate import draw_responses, locshift_example, simulate_dataset
from .splines import BasisDef, bspline_basis, center_basis, knot_sequence
from .svgplot import render_smooth_svg, render_star_svg

__version__ = "0.1.0"
