"""End-to-end CLI behavior: goldens, determinism, exit codes.

Every test but the golden ladder runs ``cli.main`` in-process (run_cli); that
one runs ``python -m ordshift`` in a subprocess (run_module). Each call of
``cli.main`` sends the package's INFO lines, such as the CSV load, to the
stderr it was called with, and leaves the root logger alone.
"""

import contextlib
import importlib
import io
import logging
import pathlib
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from helpers import boundary_dataset

from ordshift import cli

FIT_MODULE = importlib.import_module("ordshift.fit")
DATA = pathlib.Path(__file__).parent / "data" / "synthetic.csv"
GOLDEN = pathlib.Path(__file__).parent / "golden"
FORMULA = "y ~ age + group + score | age + group"
SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(*args):
    """``cli.main(args)`` with its stdout and stderr as a subprocess would
    have them; a SystemExit becomes its exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        # a UserWarning (star_data's exclusions) goes to stderr, where a
        # subprocess prints it, instead of failing the test; a RuntimeWarning
        # still fails it
        stack.enter_context(warnings.catch_warnings())
        warnings.simplefilter("default", UserWarning)
        warnings.showwarning = _print_warning
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())


def _print_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run_module(*args):
    """``python -m ordshift`` in a subprocess."""
    return subprocess.run([sys.executable, "-m", "ordshift", *args],
                          capture_output=True, text=True)


def recoded(tmp_path, codes):
    """synthetic.csv with each response y written as ``codes[y - 1]``."""
    lines = DATA.read_text().splitlines()
    path = tmp_path / "recoded.csv"
    path.write_text("\n".join([lines[0]] + [f"{codes[int(line[0]) - 1]}{line[1:]}"
                                            for line in lines[1:]]) + "\n")
    return path


def ladder_args(tmp_path, **extra):
    args = [
        "--data", str(DATA),
        "--formula", FORMULA,
        "--categorical", "group",
        "--structure", "ladder",
        "--out", str(tmp_path / "report.txt"),
        "--star", str(tmp_path / "star.svg"),
    ]
    for flag, value in extra.items():
        args += [f"--{flag}", value]
    return args


class TestEndToEnd:
    def test_ladder_with_star_matches_goldens(self, tmp_path):
        proc = run_module(*ladder_args(tmp_path))
        assert proc.returncode == 0, proc.stderr
        report = (tmp_path / "report.txt").read_bytes()
        assert report == (GOLDEN / "report.txt").read_bytes()
        star = (tmp_path / "star.svg").read_bytes()
        assert star == (GOLDEN / "star.svg").read_bytes()

    def test_smooth_fit_matches_goldens(self, tmp_path):
        # s(age) takes its basis, DEFAULT_N_BASIS, from the design
        proc = run_cli("--data", str(DATA), "--formula", "y ~ s(age) + group + score | age + group",
                       "--categorical", "group", "--structure", "locshift",
                       "--out", str(tmp_path / "smooth_report.txt"),
                       "--smooth", f"age:{tmp_path / 'smooth.svg'}")
        assert proc.returncode == 0, proc.stderr
        for name in ("smooth_report.txt", "smooth.svg"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_readme_flag_table_lists_the_parser_options(self):
        # the table leaves out the required --formula and --data
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme[readme.index("| flag | meaning |"):].split("\n\n")[0]
        documented = re.findall(r"^\| `(--[a-z]+)", table, flags=re.M)
        options = [a.option_strings[-1] for a in cli.build_parser()._actions
                   if not a.required and a.dest != "help"]
        assert sorted(documented) == sorted(options)

    def test_star_svg_valid_with_one_star_per_dual_variable(self, tmp_path):
        proc = run_cli(*ladder_args(tmp_path))
        assert proc.returncode == 0
        root = ET.parse(tmp_path / "star.svg").getroot()
        stars = [e for e in root.iter(f"{SVG_NS}circle") if e.get("class") == "star"]
        labels = {e.text for e in root.iter(f"{SVG_NS}text") if e.get("class") == "star-label"}
        assert len(stars) == 3
        assert labels == {"age", "groupb", "groupc"}

    def test_star_with_interval_beyond_float_range(self, tmp_path):
        # g's responses are 3 or 4 whatever v is, and its SEs are about 1e3
        # on both sides: e^(b + z se) overflows, so g is left out by name
        rng = np.random.default_rng(3)
        n = 120
        v = rng.normal(size=n)
        g = (rng.random(n) < 0.3).astype(int)
        y = 1 + ((v + rng.logistic(size=n))[:, None] > [-1.0, 0.0, 1.0]).sum(axis=1)
        y[g == 1] = rng.integers(3, 5, size=g.sum())
        csv = tmp_path / "wide.csv"
        csv.write_text("y,v,g\n" + "".join(f"{a},{b!r},{c}\n" for a, b, c in zip(y, v.tolist(), g)))
        star = tmp_path / "star.svg"
        proc = run_cli("--data", str(csv), "--formula", "y ~ v + g | v + g",
                       "--structure", "locshift", "--star", str(star))
        assert proc.returncode == 0, proc.stderr
        assert "'g' has a confidence interval beyond the floating-point range" in proc.stderr
        root = ET.parse(star).getroot()
        assert [e.text for e in root.iter(f"{SVG_NS}text") if e.get("class") == "star-label"] == ["v"]
        text = star.read_text()
        assert "inf" not in text and "nan" not in text

    def test_environment_sets_no_iteration_cap(self, tmp_path, monkeypatch):
        # the iteration cap is fit's own: no environment variable lowers it
        monkeypatch.setenv("ORDSHIFT_MAX_ITER", "1")
        proc = run_cli(*ladder_args(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "report.txt").read_bytes() == (GOLDEN / "report.txt").read_bytes()
        assert (tmp_path / "star.svg").read_bytes() == (GOLDEN / "star.svg").read_bytes()

    def test_byte_stable_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        run_cli(*ladder_args(a))
        run_cli(*ladder_args(b))
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
        assert (a / "star.svg").read_bytes() == (b / "star.svg").read_bytes()
        # in-process runs write the goldens that `python -m ordshift` writes
        assert (a / "report.txt").read_bytes() == (GOLDEN / "report.txt").read_bytes()
        assert (a / "star.svg").read_bytes() == (GOLDEN / "star.svg").read_bytes()

    def test_report_to_stdout(self):
        proc = run_cli(
            "--data", str(DATA), "--formula", FORMULA,
            "--categorical", "group", "--structure", "locshift",
        )
        assert proc.returncode == 0
        assert "Location-shift model" in proc.stdout
        assert "Dispersion effects" in proc.stdout

    def test_markdown_format(self):
        proc = run_cli(
            "--data", str(DATA), "--formula", FORMULA,
            "--categorical", "group", "--structure", "locshift",
            "--format", "markdown",
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("## ")

    def test_acat_reverse_runs(self):
        proc = run_cli(
            "--data", str(DATA), "--formula", FORMULA,
            "--categorical", "group", "--structure", "locshift",
            "--family", "acat", "--reverse",
        )
        assert proc.returncode == 0
        assert "adjacent family" in proc.stdout
        assert "reverse representation" in proc.stdout

    def test_smooth_output(self, tmp_path):
        out = tmp_path / "smooth.svg"
        proc = run_cli(
            "--data", str(DATA),
            "--formula", "y ~ s(age, 4) + group | age",
            "--categorical", "group",
            "--structure", "locshift",
            "--smooth", f"age:{out}",
            "--out", str(tmp_path / "r.txt"),
        )
        assert proc.returncode == 0, proc.stderr
        root = ET.parse(out).getroot()
        curves = [e for e in root.iter(f"{SVG_NS}polyline") if e.get("class") == "curve"]
        assert len(curves) == 1

    def test_each_call_logs_its_load_to_its_own_stderr(self):
        root = logging.getLogger()
        handlers, level = list(root.handlers), logging.getLogger("ordshift").level
        for _ in range(2):
            proc = run_cli("--data", str(DATA), "--formula", FORMULA,
                           "--categorical", "group", "--structure", "global")
            assert proc.returncode == 0, proc.stderr
            loaded = [line for line in proc.stderr.splitlines() if line.startswith("loaded ")]
            assert loaded == [f"loaded {DATA}: n=500, k=5, category counts [98, 75, 68, 80, 179]"]
        assert root.handlers == handlers
        assert logging.getLogger("ordshift").level == level
        assert logging.getLogger("ordshift").handlers == []

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        common = ["--data", str(DATA), "--formula", "y ~ s(age) + group + s(score) | age + group",
                  "--categorical", "group", "--structure", "locshift"]
        proc = run_cli(*common, "--out", str(first / "report.txt"),
                       "--smooth", f"age:{first / 'age.svg'}",
                       "--smooth", f"score:{first / 'score.svg'}")
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in first.iterdir()) == ["age.svg", "report.txt", "score.svg"]
        score = (first / "score.svg").read_bytes()
        for path in first.iterdir():
            path.unlink()  # a request kept from the first call would write here again
        parser = cli.build_parser()
        proc = run_cli(*common, "--out", str(second / "report.txt"),
                       "--smooth", f"score:{second / 'score.svg'}")
        assert proc.returncode == 0, proc.stderr
        assert cli.build_parser() is parser
        assert parser.get_default("smooth") == []
        assert list(first.iterdir()) == []
        assert sorted(p.name for p in second.iterdir()) == ["report.txt", "score.svg"]
        assert (second / "score.svg").read_bytes() == score

    def test_smooth_term_basis_is_set_in_the_formula(self):
        proc = run_cli("--data", str(DATA), "--formula", "y ~ s(age, 5) + group | age",
                       "--categorical", "group", "--structure", "locshift")
        assert proc.returncode == 0, proc.stderr
        for j in range(1, 5):
            assert f"s(age).{j} " in proc.stdout
        assert "s(age).5" not in proc.stdout


class TestExitCodes:
    def test_usage_error_bad_formula(self):
        proc = run_cli("--data", str(DATA), "--formula", "y age + group")
        assert proc.returncode == 4
        line = proc.stderr.strip().splitlines()[-1]
        assert line.startswith("error[usage]:")
        assert "\n" not in line

    def test_usage_error_response_as_a_covariate(self):
        # y is in the CSV, as the response: the formula names the term
        proc = run_cli("--data", str(DATA), "--formula", "y ~ y | age", "--structure", "global")
        assert proc.returncode == 4
        line = proc.stderr.strip().splitlines()[-1]
        assert line == "error[usage]: term 'y' names the response 'y' (position 4)"

    def test_usage_error_smooth_column_zero_on_every_row(self, tmp_path):
        # 400 of 500 x are 0: both interior knots of s(x, 6) sit at 0, and
        # B-splines 1 and 2 are zero on every row
        rng = np.random.default_rng(4)
        x = np.where(np.arange(500) < 400, 0.0, rng.random(500))
        y = rng.integers(1, 4, 500)
        csv = tmp_path / "piled.csv"
        csv.write_text("y,x\n" + "".join(f"{a},{b!r}\n" for a, b in zip(y, x.tolist())))
        proc = run_cli("--data", str(csv), "--formula", "y ~ s(x, 6)", "--structure", "global")
        assert proc.returncode == 4
        line = proc.stderr.strip().splitlines()[-1]
        assert line.startswith("error[usage]: smooth term s(x, 6): B-spline columns [1, 2] "
                               "are zero on every training row"), line

    def test_usage_error_unknown_flag_value(self):
        proc = run_cli("--data", str(DATA), "--formula", FORMULA, "--structure", "wild")
        assert proc.returncode == 4
        assert "error[usage]:" in proc.stderr

    def test_data_error_missing_file(self):
        proc = run_cli("--data", "/nonexistent.csv", "--formula", FORMULA)
        assert proc.returncode == 2
        assert "error[data]:" in proc.stderr

    def test_data_error_bad_response(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,age,group,score\n0,1.0,a,0.1\n2,2.0,b,0.2\n")
        proc = run_cli("--data", str(bad), "--formula", FORMULA, "--categorical", "group")
        assert proc.returncode == 2
        assert "error[data]:" in proc.stderr

    def test_data_error_duplicate_header(self, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text(DATA.read_text().replace("score", "age", 1))
        proc = run_cli("--data", str(bad), "--formula", "y ~ age | age",
                       "--structure", "global")
        assert proc.returncode == 2
        message = proc.stderr.strip().splitlines()[-1]
        assert message.endswith("column 'age' appears twice in the header, "
                                "at positions 2 and 4"), message

    def test_byte_order_mark_accepted(self, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(DATA.read_bytes().decode("utf-8").encode("utf-8-sig"))
        out = tmp_path / "report.txt"
        proc = run_cli("--data", str(bom), "--formula", FORMULA, "--categorical", "group",
                       "--structure", "ladder", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == (GOLDEN / "report.txt").read_bytes()

    def test_usage_error_variable_twice_on_one_side(self):
        for formula in ("y ~ age + age | age", "y ~ age + s(age)"):
            proc = run_cli("--data", str(DATA), "--formula", formula, "--structure", "global")
            assert proc.returncode == 4, formula
            message = proc.stderr.strip().splitlines()[-1]
            assert message.startswith("error[usage]: variable 'age' appears twice among the "
                                      "location terms"), message

    def test_data_error_non_finite_cell(self, tmp_path):
        lines = DATA.read_text().splitlines()
        fields = lines[3].split(",")
        fields[1] = "nan"  # the age cell of CSV row 4
        lines[3] = ",".join(fields)
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(lines) + "\n")
        proc = run_cli("--data", str(bad), "--formula", FORMULA, "--categorical", "group")
        assert proc.returncode == 2
        message = proc.stderr.strip().splitlines()[-1]
        assert message.startswith("error[data]:")
        assert "'age' row 4" in message

    def test_fit_error_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(FIT_MODULE, "MAX_ITER", 1)
        proc = run_cli(
            "--data", str(DATA), "--formula", FORMULA,
            "--categorical", "group", "--structure", "locshift",
        )
        assert proc.returncode == 3
        assert proc.stderr.strip().splitlines()[-1] == (
            "error[fit]: locshift fit stopped at iteration 1: did not converge")

    def test_fit_error_names_where_and_why_the_fit_stopped(self, tmp_path):
        # the category-specific fit of this sample stops at the
        # threshold-order boundary long before the iteration cap
        data, _ = boundary_dataset()
        csv = tmp_path / "boundary.csv"
        rows = zip(data.y.tolist(), *(data.columns[c].tolist() for c in ("x1", "x2", "z")))
        csv.write_text("y,x1,x2,z\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
        proc = run_cli("--data", str(csv), "--formula", "y ~ x1 + x2 | x2 + z",
                       "--structure", "catspecific")
        assert proc.returncode == 3
        assert proc.stderr.strip().splitlines()[-1] == (
            "error[fit]: catspecific fit stopped at iteration 27: did not converge; "
            "stopped at the threshold-order boundary")

    def test_every_failed_rung_named_in_the_error(self, tmp_path, monkeypatch):
        # one iteration fits nothing: the one error line gives each row's reason
        monkeypatch.setattr(FIT_MODULE, "MAX_ITER", 1)
        proc = run_cli(*ladder_args(tmp_path))
        assert proc.returncode == 3
        line = proc.stderr.strip().splitlines()[-1]
        assert line == (
            "error[fit]: every model in the ladder failed: "
            "Model with category-specific effects: fit failed (did not converge); "
            "Location-shift model: fit failed (did not converge); "
            "Model with global effects: fit failed (did not converge)"
        )

    def test_ladder_spec_error_is_a_usage_error(self, tmp_path):
        # 80% of v at 0 leaves B-splines 1 and 2 of s(v, 6) zero on every
        # row: the global rung's spec error, an exit 4 as under locshift,
        # not a ladder of failed fits
        rng = np.random.default_rng(5)
        v = np.where(np.arange(500) < 400, 0.0, rng.random(500))
        g = rng.choice(["a", "b"], 500)
        y = rng.integers(1, 5, 500)
        csv = tmp_path / "piled.csv"
        csv.write_text("y,v,g\n" + "".join(f"{a},{b!r},{c}\n"
                                          for a, b, c in zip(y, v.tolist(), g)))
        for structure in ("locshift", "ladder"):
            proc = run_cli("--data", str(csv), "--formula", "y ~ s(v, 6) + g | g",
                           "--categorical", "g", "--structure", structure)
            assert proc.returncode == 4, structure
            line = proc.stderr.strip().splitlines()[-1]
            assert line.startswith("error[usage]: smooth term s(v, 6): B-spline columns "
                                   "[1, 2] are zero on every training row"), line

    @staticmethod
    def _level_per_row(tmp_path, formula="y ~ g + x | x"):
        """12 rows at k=3 and a factor g with one level per row: with x
        beside it, g's 11 dummies make a design [1 | g + x] of 13 columns
        on 12 rows."""
        x = np.random.default_rng(3).normal(size=12).round(3)
        csv = tmp_path / "per_row.csv"
        csv.write_text("y,g,x\n" + "".join(f"{1 + i % 3},{chr(97 + i)},{v}\n"
                                           for i, v in enumerate(x)))
        return "--data", str(csv), "--formula", formula, "--categorical", "g"

    BEYOND_ROWS = "has 13 columns, more than the n = 12 rows; factor 'g' has 12 levels"

    @pytest.mark.parametrize("formula, structure, design", [
        ("y ~ g + x | x", "global", "location design [1 | X]"),
        ("y ~ g + x | x", "locshift", "location design [1 | X]"),
        ("y ~ g + x | x", "ladder", "location design [1 | X]"),
        ("y ~ x | x + g", "locshift", "dispersion design [1 | Z]"),
    ])
    def test_usage_error_design_wider_than_rows(self, tmp_path, formula, structure, design):
        # 14 or 15 parameters on 2 * 12 = 24 response cells, but the design
        # has a null vector that moves the thresholds with the coefficients;
        # the ladder's global rung fails the ladder
        proc = run_cli(*self._level_per_row(tmp_path, formula), "--structure", structure)
        assert proc.returncode == 4
        assert proc.stderr.strip().splitlines()[-1] == (
            f"error[usage]: {design} {self.BEYOND_ROWS}")

    def test_usage_error_more_parameters_than_response_cells(self, tmp_path):
        # the category-specific model has 2 (1 + 11 + 1) = 26 parameters on
        # 24 response cells: its design is the one too wide
        proc = run_cli(*self._level_per_row(tmp_path), "--structure", "catspecific")
        assert proc.returncode == 4
        assert proc.stderr.strip().splitlines()[-1] == (
            f"error[usage]: location design [1 | X] {self.BEYOND_ROWS}")

    def test_ladder_row_with_more_parameters_than_response_cells_fails(self, tmp_path):
        # g and h, 7 levels each, fit the global and location-shift designs
        # on 12 rows; the category-specific one joins them, 1 + 6 + 1 + 6 =
        # 14 columns and 28 parameters on 24 response cells, and fails alone
        x = np.random.default_rng(3).normal(size=12).round(3)
        csv = tmp_path / "two_factors.csv"
        csv.write_text("y,g,h,x\n" + "".join(f"{1 + i % 3},{'abcdefgabcde'[i]},"
                                             f"{'pqrstuvtsrqp'[i]},{v}\n"
                                             for i, v in enumerate(x)))
        proc = run_cli("--data", str(csv), "--formula", "y ~ g + x | h",
                       "--categorical", "g,h")
        assert proc.returncode == 0, proc.stderr
        report = proc.stdout.splitlines()
        assert report[3].split()[-2:] == ["fit", "failed"]
        assert ("note: Model with category-specific effects: fit failed (location design "
                "[1 | X] has 14 columns, more than the n = 12 rows; factor 'g' has 7 "
                "levels)") in report

    def test_ladder_with_dispersion_at_k2_is_a_usage_error(self, tmp_path):
        two = recoded(tmp_path, (1, 1, 1, 2, 2))
        proc = run_cli("--data", str(two), "--formula", FORMULA, "--categorical", "group")
        assert proc.returncode == 4
        line = proc.stderr.strip().splitlines()[-1]
        assert line.startswith("error[usage]: dispersion terms are not identified for k=2"), line

    @pytest.mark.parametrize("family", ["cumulative", "acat"])
    def test_ladder_at_k3_with_every_variable_on_both_sides(self, tmp_path, family):
        # k=3: the location-shift rung reparametrizes the category-specific
        # one; both are reported, with one note line and no test between them
        three = recoded(tmp_path, (1, 1, 2, 3, 3))
        proc = run_cli("--data", str(three), "--formula", "y ~ age + group | age + group",
                       "--categorical", "group", "--family", family)
        assert proc.returncode == 0, proc.stderr
        report = proc.stdout.splitlines()
        catspec, locshift, glob = report[3:6]
        assert catspec.split()[-2:] == locshift.split()[-2:]  # deviance and df
        assert len(locshift.split()) == 4 and len(glob.split()) == 9
        notes = [line for line in report if line.startswith("note:")]
        assert notes == ["note: Location-shift model: the category-specific model "
                         "reparametrized (k=3, every variable on both sides); no test"]

    def test_data_error_response_beyond_int64(self, tmp_path):
        bad = tmp_path / "huge.csv"
        bad.write_text("y,age,group,score\n1,1.0,a,0.1\n99999999999999999999,2.0,b,0.2\n"
                       "2,3.0,a,0.3\n")
        proc = run_cli("--data", str(bad), "--formula", FORMULA, "--categorical", "group")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines()[-1] == (
            "error[data]: column 'y' row 3: response 99999999999999999999 is beyond the "
            "64-bit integer range")

    def test_data_error_more_categories_than_rows(self, tmp_path):
        # k=100000 in 4 rows leaves categories unobserved: one short line,
        # naming the largest response, and no k-sized count or log line
        bad = tmp_path / "wide.csv"
        bad.write_text("y,age,group,score\n1,1.0,a,0.1\n100000,2.0,b,0.2\n2,3.0,a,0.3\n"
                       "1,4.0,b,0.4\n")
        proc = run_cli("--data", str(bad), "--formula", FORMULA, "--categorical", "group")
        assert proc.returncode == 2
        assert len(proc.stderr) < 1024
        assert proc.stderr == (
            "error[data]: column 'y' row 3: largest response 100000; k=100000 categories "
            "cannot all be observed in 4 rows\n")

    @pytest.mark.parametrize("flag, value", [("--k", "5"), ("--nbs", "6")])
    def test_usage_error_k_and_basis_flags_are_unrecognized(self, tmp_path, flag, value):
        # k is the largest response and a smooth term's basis is the
        # formula's: neither has a flag
        proc = run_cli(*ladder_args(tmp_path), flag, value)
        assert proc.returncode == 4
        assert proc.stderr == f"error[usage]: unrecognized arguments: {flag} {value}\n"

    def test_many_categories_logged_briefly(self, tmp_path):
        # k=3000 in 3000 rows, 2997 categories unobserved: the load's log
        # line and the error list the first ten of each and their total
        csv = tmp_path / "wide.csv"
        csv.write_text("y,x\n" + "".join(f"{(1, 2, 3000)[i % 3]},{i}\n" for i in range(3000)))
        proc = run_cli("--data", str(csv), "--formula", "y ~ x", "--structure", "global")
        assert proc.returncode == 2
        assert len(proc.stderr) < 1024
        assert proc.stderr.splitlines() == [
            f"loaded {csv}: n=3000, k=3000, category counts "
            "[1000, 1000, 0, 0, 0, 0, 0, 0, 0, 0, ...] (3000 in all)",
            "error[data]: response categories [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, ...] "
            "(2997 in all) are unobserved; merge categories before fitting",
        ]

    def test_usage_error_smooth_on_linear_variable(self, tmp_path):
        proc = run_cli(
            "--data", str(DATA), "--formula", FORMULA,
            "--categorical", "group", "--structure", "locshift",
            "--smooth", f"age:{tmp_path / 's.svg'}",
            "--out", str(tmp_path / "r.txt"),
        )
        assert proc.returncode == 4
        assert "error[usage]:" in proc.stderr

    def test_usage_error_malformed_smooth_request(self):
        proc = run_cli(
            "--data", str(DATA), "--formula", FORMULA, "--smooth", "age",
        )
        assert proc.returncode == 4

    def test_usage_error_zero_basis_smooth(self):
        proc = run_cli(
            "--data", str(DATA), "--formula", "y ~ s(age, 0)", "--structure", "global",
        )
        assert proc.returncode == 4
        assert "n_basis=0" in proc.stderr

    def test_star_without_locshift_fit(self, tmp_path):
        proc = run_cli(
            "--data", str(DATA), "--formula", FORMULA,
            "--categorical", "group", "--structure", "global",
            "--star", str(tmp_path / "s.svg"),
            "--out", str(tmp_path / "r.txt"),
        )
        assert proc.returncode == 3
        assert "error[fit]:" in proc.stderr

    def _assert_unwritable(self, proc, path):
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        line = proc.stderr.strip().splitlines()[-1]
        assert line.startswith("error[usage]: cannot write")
        assert str(path) in line

    def test_usage_error_unwritable_out(self, tmp_path):
        path = tmp_path / "missing" / "report.txt"
        proc = run_cli(
            "--data", str(DATA), "--formula", FORMULA,
            "--categorical", "group", "--structure", "locshift",
            "--out", str(path),
        )
        self._assert_unwritable(proc, path)

    def test_usage_error_unwritable_star(self, tmp_path):
        path = tmp_path / "missing" / "star.svg"
        proc = run_cli(
            "--data", str(DATA), "--formula", FORMULA,
            "--categorical", "group", "--structure", "locshift",
            "--out", str(tmp_path / "r.txt"), "--star", str(path),
        )
        self._assert_unwritable(proc, path)
        assert (tmp_path / "r.txt").exists()  # the report before it was written

    def test_usage_error_unwritable_smooth(self, tmp_path):
        path = tmp_path / "missing" / "smooth.svg"
        proc = run_cli(
            "--data", str(DATA), "--formula", "y ~ s(age, 4) + group | age",
            "--categorical", "group", "--structure", "locshift",
            "--out", str(tmp_path / "r.txt"), "--smooth", f"age:{path}",
        )
        self._assert_unwritable(proc, path)
