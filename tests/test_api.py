"""The package's top-level exports."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import ordshift

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the paper's workflow: data, formula, spec, family, fit and what a fit
# gives, the ladder and its tests, tables, renderers, simulation, exceptions
EXPORTED = frozenset({
    "OrdinalDataset", "load_csv", "parse_formula", "ModelSpec", "Term", "Family",
    "fit", "FitResult", "predict", "standard_errors", "smooth_values",
    "log_likelihood", "score", "fisher_info",
    "model_ladder", "ComparisonTable", "lrt", "TestResult", "smooth_term_tests",
    "wald_table", "star_data", "StarPoint",
    "render_report", "render_star_svg", "render_smooth_svg",
    "simulate_dataset", "locshift_example",
    "OrdshiftError", "DataError", "FormulaError", "SpecError", "InvalidInputError",
    "NestingError", "StartError", "ThresholdOrderError",
})
# building blocks that the package once exported, each still public in its
# own module
IN_MODULE = {
    "BasisDef": "splines",
    "bspline_basis": "splines",
    "knot_sequence": "splines",
    "chisq_sf": "inference",
    "normal_cdf": "inference",
    "normal_quantile": "inference",
    "scaling_factors": "links",
    "constraint_map": "design",
    "draw_responses": "simulate",
    "FormulaSpec": "formula",
    "expand_design": "design",
}
# internal or removed names that the package once exported
NOT_EXPORTED = tuple(IN_MODULE) + (
    "Link",
    "LOGIT",
    "LogitLink",
    "VariableSpec",
    "ExpandedDesign",
    "center_basis",
    "category_probs_cumulative",
    "category_probs_adjacent",
    "scaling_factor",
    "category_probabilities",
)
# xml.sax.saxutils, imported once for its escape(), pulled in all of these
NETWORK_STACK = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket")


def _top_level_imports(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "ordshift" and node.level == 0:
            names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_resolves():
    assert len(set(ordshift.__all__)) == len(ordshift.__all__)
    assert set(ordshift.__all__) == EXPORTED and len(EXPORTED) == 35
    for name in ordshift.__all__:
        assert getattr(ordshift, name) is not None, name


def test_readme_and_demo_imports_are_exported():
    sources = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    imported = set().union(*(_top_level_imports(source) for source in sources))
    assert {"fit", "ModelSpec", "render_report"} <= imported
    assert imported <= set(ordshift.__all__)


def test_removed_and_internal_names_not_exported():
    for name in NOT_EXPORTED:
        assert name not in ordshift.__all__
        assert not hasattr(ordshift, name), name
    for name, module in IN_MODULE.items():
        assert getattr(importlib.import_module(f"ordshift.{module}"), name) is not None, name


def test_import_loads_no_network_stack():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, ordshift; print(ordshift.__file__); print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    where, modules = proc.stdout.splitlines()
    assert pathlib.Path(where).resolve().parent == ROOT / "src" / "ordshift"
    loaded = set(modules.split())
    assert "ordshift.svgplot" in loaded
    assert [name for name in NETWORK_STACK if name in loaded] == []
