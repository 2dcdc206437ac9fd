"""Text and markdown report rendering."""

import pathlib
from dataclasses import replace

import numpy as np
import pytest

from ordshift.data import load_csv
from ordshift.design import ModelSpec
from ordshift.exceptions import InvalidInputError
from ordshift.formula import parse_formula
from ordshift.inference import ComparisonTable, LadderRow, model_ladder
from ordshift.links import Family
from ordshift.report import render_report

DATA_DIR = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def synthetic_ladder():
    formula = parse_formula("y ~ age + group + score | age + group")
    data = load_csv(DATA_DIR / "synthetic.csv", formula, categorical=("group",))
    spec = ModelSpec(Family("cumulative"), "locshift", formula.location, formula.dispersion)
    return model_ladder(data, spec)


@pytest.fixture(scope="module")
def ladder():
    return synthetic_ladder()


class TestTextReport:
    def test_golden_snapshot(self, ladder):
        fits = [row.fit for row in ladder.rows if row.ok]
        report = render_report(ladder, fits, format="text")
        expected = (GOLDEN / "report.txt").read_text(encoding="utf-8")
        assert report == expected

    def test_deterministic(self, ladder):
        fits = [row.fit for row in ladder.rows if row.ok]
        a = render_report(ladder, fits)
        b = render_report(synthetic_ladder(), fits)
        assert a.split("\n")[:8] == b.split("\n")[:8]
        assert render_report(ladder, fits) == a

    def test_layout_numbers(self, ladder):
        report = render_report(ladder, [])
        assert "Model with category-specific effects" in report
        assert "Location-shift model" in report
        assert "Model with global effects" in report
        row = ladder.row("locshift")
        assert f"{row.fit.deviance:.2f}" in report
        assert f"{row.test.p_value:.4f}" in report
        assert str(row.fit.df_residual) in report

    def test_failed_row_rendered(self, ladder):
        stopped = replace(ladder.row("locshift").fit, converged=False, warnings=[
            "did not converge", "stopped at the threshold-order boundary"])
        table = ComparisonTable(family="cumulative", reverse=False)
        table.rows = [
            LadderRow("catspec", "Model with category-specific effects",
                      error="fit failed (boom)"),
            LadderRow("locshift", "Location-shift model", fit=stopped,
                      error="fit failed (did not converge)"),
            ladder.row("global"),
        ]
        for format in ("text", "markdown"):
            report = render_report(table, [], format=format)
            line = next(l for l in report.split("\n") if "category-specific" in l)
            assert "fit failed" in line
            notes = [l for l in report.split("\n") if l.startswith("note: ")]
            # the fit's "did not converge" is already the row's reason
            assert notes == [
                "note: Model with category-specific effects: fit failed (boom)",
                "note: Location-shift model: fit failed (did not converge); "
                "stopped at the threshold-order boundary",
            ]

    def test_wald_blocks_present(self, ladder):
        fit = ladder.row("locshift").fit
        report = render_report(None, [fit])
        assert "Location effects" in report
        assert "Dispersion effects" in report
        assert "Thresholds" in report
        assert report.index("Location effects") < report.index("Dispersion effects")

    def test_small_p_renders_as_zero(self, ladder):
        fit = ladder.row("locshift").fit
        report = render_report(None, [fit])
        assert "0.0000" in report  # intercept p-values are below 5e-5


class TestMarkdownReport:
    def test_structure(self, ladder):
        fits = [ladder.row("locshift").fit]
        report = render_report(ladder, fits, format="markdown")
        lines = report.split("\n")
        assert lines[0].startswith("## Model comparison")
        header = next(l for l in lines if l.startswith("| Model"))
        sep = lines[lines.index(header) + 1]
        assert set(sep.replace("|", "").strip()) <= {"-", ":", " "}

    def test_pipes_escaped(self, ladder):
        fit = ladder.row("locshift").fit
        fit.layout.names[0] = "weird|name"
        try:
            report = render_report(None, [fit], format="markdown")
            assert "weird\\|name" in report
        finally:
            fit.layout.names[0] = "(Intercept):1"

    def test_unknown_format(self, ladder):
        with pytest.raises(InvalidInputError):
            render_report(ladder, [], format="html")
