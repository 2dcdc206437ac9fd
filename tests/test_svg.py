"""Star-plot and smooth-plot SVG rendering."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from helpers import random_dataset

from ordshift.design import ModelSpec, Term
from ordshift.exceptions import SpecError
from ordshift.fit import fit
from ordshift.inference import StarPoint
from ordshift.links import Family
from ordshift.simulate import simulate_dataset
from ordshift.svgplot import render_smooth_svg, render_star_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg: str):
    return ET.fromstring(svg)


def elements(root, tag, cls=None):
    found = root.iter(f"{SVG_NS}{tag}")
    if cls is None:
        return list(found)
    return [e for e in found if e.get("class") == cls]


def point(value=1.0, lo=None, hi=None, name="v"):
    lo = value if lo is None else lo
    hi = value if hi is None else hi
    return StarPoint(name, value, lo, hi, value, lo, hi)


class TestStarSvg:
    def test_label_escaped_as_xml_text(self):
        from xml.sax.saxutils import escape

        name = 'a<b & "c" > d&amp;'
        svg = render_star_svg([point(1.2, 1.0, 1.4, name=name)])
        assert f">{escape(name)}</text>" in svg
        labels = [e.text for e in elements(parse(svg), "text", cls="star-label")]
        assert labels == [name]

    def test_empty_input_reference_lines_only(self):
        root = parse(render_star_svg([]))
        refs = elements(root, "line", cls="ref")
        assert len(refs) == 2
        assert elements(root, "circle") == []
        assert elements(root, "polyline") == []

    def test_point_at_unity_sits_on_reference_lines(self):
        svg = render_star_svg([point(1.0)])
        root = parse(svg)
        refs = elements(root, "line", cls="ref")
        marker = elements(root, "circle", cls="star")[0]
        vertical = next(r for r in refs if r.get("x1") == r.get("x2"))
        horizontal = next(r for r in refs if r.get("y1") == r.get("y2"))
        assert float(marker.get("cx")) == pytest.approx(float(vertical.get("x1")), abs=0.01)
        assert float(marker.get("cy")) == pytest.approx(float(horizontal.get("y1")), abs=0.01)

    def test_one_star_per_point_with_labels(self):
        points = [
            StarPoint("age", 0.9, 0.8, 1.0, 1.1, 1.0, 1.25),
            StarPoint("gender", 0.7, 0.6, 0.82, 1.05, 0.95, 1.15),
            StarPoint("res", 1.4, 1.2, 1.6, 0.85, 0.7, 1.02),
        ]
        root = parse(render_star_svg(points))
        assert len(elements(root, "circle", cls="star")) == 3
        assert len(elements(root, "line", cls="star-arm")) == 6
        labels = {e.text for e in elements(root, "text", cls="star-label")}
        assert labels == {"age", "gender", "res"}

    def test_survey_style_quadrant(self):
        # location effect above 1, dispersion effect below 1: the marker must
        # land above the y=1 line and left of the x=1 line (log axes)
        star = StarPoint("Residence4", math.exp(1.339), math.exp(1.05), math.exp(1.63),
                         math.exp(-0.155), math.exp(-0.237), math.exp(-0.073))
        root = parse(render_star_svg([star]))
        refs = elements(root, "line", cls="ref")
        vertical = next(r for r in refs if r.get("x1") == r.get("x2"))
        horizontal = next(r for r in refs if r.get("y1") == r.get("y2"))
        marker = elements(root, "circle", cls="star")[0]
        assert float(marker.get("cx")) < float(vertical.get("x1"))  # left of x=1
        assert float(marker.get("cy")) < float(horizontal.get("y1"))  # above y=1

    def test_zero_width_interval_arms_collapse(self):
        root = parse(render_star_svg([point(1.3)]))
        arms = elements(root, "line", cls="star-arm")
        for arm in arms:
            assert arm.get("x1") == arm.get("x2") or arm.get("y1") == arm.get("y2")
        horizontal = next(a for a in arms if a.get("y1") == a.get("y2"))
        assert horizontal.get("x1") == horizontal.get("x2")

    def test_deterministic(self):
        points = [StarPoint("a", 1.2, 1.0, 1.4, 0.8, 0.7, 0.9)]
        assert render_star_svg(points) == render_star_svg(points)


def _smooth_fit(seed=3, nonlinear=True, n=500, n_basis=6):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=n)
    z = rng.uniform(-1.0, 1.0, size=n)
    channel = np.sin(1.3 * x) if nonlinear else 0.8 * x
    gen = ModelSpec(Family("cumulative"), "locshift", (Term("f"),), (Term("z"),))
    params = np.concatenate([[-1.2, -0.3, 0.5, 1.4], [1.0], [0.15]])
    data = simulate_dataset(gen, params, {"f": channel, "x": x, "z": z}, 5, rng)
    spec = ModelSpec(
        Family("cumulative"), "locshift",
        (Term("x", smooth=True, n_basis=n_basis),), (Term("z"),),
    )
    return fit(spec, data), x


class TestSmoothSvg:
    def test_panel_present_and_parses(self):
        result, x = _smooth_fit()
        root = parse(render_smooth_svg(result, "x"))
        curves = elements(root, "polyline", cls="curve")
        assert len(curves) == 1
        pts = curves[0].get("points").split()
        assert len(pts) == 200

    def test_grid_spans_data_range(self):
        result, x = _smooth_fit()
        root = parse(render_smooth_svg(result, "x"))
        texts = [e.text for e in elements(root, "text")]
        assert f"{x.min():g}" in texts
        assert f"{x.max():g}" in texts

    def test_linear_truth_plots_straight(self):
        # an unpenalized low-dimensional basis fitted to a linear effect must
        # plot within a thin band around its own least-squares line
        result, _ = _smooth_fit(seed=5, nonlinear=False, n=2000, n_basis=4)
        root = parse(render_smooth_svg(result, "x"))
        pts = elements(root, "polyline", cls="curve")[0].get("points").split()
        xy = np.array([[float(v) for v in p.split(",")] for p in pts])
        slope, intercept = np.polyfit(xy[:, 0], xy[:, 1], 1)
        residual = xy[:, 1] - (slope * xy[:, 0] + intercept)
        band = xy[:, 1].max() - xy[:, 1].min()
        assert np.max(np.abs(residual)) < 0.08 * band

    def test_two_panels_for_dual_smooth(self):
        rng = np.random.default_rng(11)
        data, _, _ = random_dataset(rng, n=300, k=5)
        spec = ModelSpec(
            Family("cumulative"), "locshift",
            (Term("v1", smooth=True, n_basis=4), Term("v2")),
            (Term("v1", smooth=True, n_basis=4),),
        )
        result = fit(spec, data)
        root = parse(render_smooth_svg(result, "v1"))
        assert len(elements(root, "polyline", cls="curve")) == 2

    def test_non_smooth_variable_rejected(self):
        result, _ = _smooth_fit()
        with pytest.raises(SpecError):
            render_smooth_svg(result, "z")
