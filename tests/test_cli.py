"""End-to-end CLI behavior: goldens, determinism, exit codes."""

import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

DATA = pathlib.Path(__file__).parent / "data" / "synthetic.csv"
GOLDEN = pathlib.Path(__file__).parent / "golden"
FORMULA = "y ~ age + group + score | age + group"
SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    env.pop("ORDSHIFT_MAX_ITER", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ordshift", *args],
        capture_output=True, text=True, env=env,
    )


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
        proc = run_cli(*ladder_args(tmp_path))
        assert proc.returncode == 0, proc.stderr
        report = (tmp_path / "report.txt").read_bytes()
        assert report == (GOLDEN / "report.txt").read_bytes()
        star = (tmp_path / "star.svg").read_bytes()
        assert star == (GOLDEN / "star.svg").read_bytes()

    def test_star_svg_valid_with_one_star_per_dual_variable(self, tmp_path):
        proc = run_cli(*ladder_args(tmp_path))
        assert proc.returncode == 0
        root = ET.parse(tmp_path / "star.svg").getroot()
        stars = [e for e in root.iter(f"{SVG_NS}circle") if e.get("class") == "star"]
        labels = {e.text for e in root.iter(f"{SVG_NS}text") if e.get("class") == "star-label"}
        assert len(stars) == 3
        assert labels == {"age", "groupb", "groupc"}

    def test_byte_stable_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        run_cli(*ladder_args(a))
        run_cli(*ladder_args(b))
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
        assert (a / "star.svg").read_bytes() == (b / "star.svg").read_bytes()

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


class TestExitCodes:
    def test_usage_error_bad_formula(self):
        proc = run_cli("--data", str(DATA), "--formula", "y age + group")
        assert proc.returncode == 4
        line = proc.stderr.strip().splitlines()[-1]
        assert line.startswith("error[usage]:")
        assert "\n" not in line

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

    def test_data_error_response_beyond_k(self, tmp_path):
        bad = tmp_path / "k.csv"
        bad.write_text("y,age,group,score\n1,1.0,a,0.1\n2,2.0,b,0.2\n5,3.0,a,0.3\n")
        proc = run_cli("--data", str(bad), "--formula", FORMULA, "--categorical", "group",
                       "--k", "3")
        assert proc.returncode == 2
        message = proc.stderr.strip().splitlines()[-1]
        assert message == "error[data]: column 'y' row 4: response 5; response categories must be 1..3"

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

    def test_fit_error_iteration_cap(self):
        proc = run_cli(
            "--data", str(DATA), "--formula", FORMULA,
            "--categorical", "group", "--structure", "locshift",
            env_extra={"ORDSHIFT_MAX_ITER": "1"},
        )
        assert proc.returncode == 3
        assert proc.stderr.strip().splitlines()[-1].startswith("error[fit]:")

    def test_env_var_validated(self):
        proc = run_cli(
            "--data", str(DATA), "--formula", FORMULA,
            env_extra={"ORDSHIFT_MAX_ITER": "soon"},
        )
        assert proc.returncode == 4
        assert "ORDSHIFT_MAX_ITER" in proc.stderr

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
