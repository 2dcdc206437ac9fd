"""Command-line interface: fit models from a CSV and render reports/plots.

Exit codes: 0 success, 2 data errors, 3 fit failure of the requested
structure, 4 usage errors. Every error prints a single line to stderr with
an ``error[data|fit|usage]:`` prefix. An output path given to --out, --star
or --smooth that cannot be written (missing directory, no permission) is a
usage error naming the flag and the path; outputs written before it stay.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .data import load_csv
from .design import ModelSpec
from .exceptions import (
    DataError,
    FormulaError,
    OrdshiftError,
    SpecError,
)
from .fit import MAX_ITER, fit
from .formula import parse_formula
from .inference import model_ladder, star_data
from .links import Family
from .report import render_report
from .svgplot import render_smooth_svg, render_star_svg

EXIT_OK = 0
EXIT_DATA = 2
EXIT_FIT = 3
EXIT_USAGE = 4

_STRUCTURES = {"global": "global", "locshift": "locshift", "catspecific": "catspec"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ordshift",
        description=(
            "Ordinal regression with location and dispersion effects: "
            "cumulative and adjacent-categories models, model ladders, "
            "star plots, and B-spline smooth terms."
        ),
    )
    parser.add_argument("--formula", required=True, help='e.g. "y ~ age + s(inc) | age"')
    parser.add_argument("--data", required=True, help="CSV file (header row, comma separated)")
    parser.add_argument("--family", choices=["cumulative", "acat"], default="cumulative")
    parser.add_argument("--reverse", action="store_true", help="reverse categories representation")
    parser.add_argument(
        "--structure",
        choices=["global", "locshift", "catspecific", "ladder"],
        default="ladder",
    )
    parser.add_argument("--nbs", type=int, default=6, help="default B-spline basis count")
    parser.add_argument("--conf", type=float, default=0.95, help="confidence level for stars")
    parser.add_argument("--k", type=int, default=None, help="number of response categories")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--format", choices=["text", "markdown"], default="text")
    parser.add_argument("--star", default=None, metavar="SVG", help="write a star plot")
    parser.add_argument(
        "--smooth",
        action="append",
        default=[],
        metavar="VAR:SVG",
        help="write smooth-function plots for VAR (repeatable)",
    )
    parser.add_argument(
        "--categorical", default="", metavar="COL,COL", help="columns to dummy-code"
    )
    return parser


def _fail(kind: str, message: str, code: int) -> int:
    message = " ".join(str(message).split())  # single machine-readable line
    print(f"error[{kind}]: {message}", file=sys.stderr)
    return code


def _write(flag: str, path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {flag} {path}: {exc.strerror or exc}") from None


def _max_iter_from_env() -> int:
    raw = os.environ.get("ORDSHIFT_MAX_ITER")
    if raw is None:
        return MAX_ITER
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise _UsageError(f"ORDSHIFT_MAX_ITER must be a positive integer, got {raw!r}") from None
    return value


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        max_iter = _max_iter_from_env()
        if not 0.0 < args.conf < 1.0:
            raise _UsageError(f"--conf must be in (0,1), got {args.conf}")
        if args.nbs < 4:
            raise _UsageError(f"--nbs must be at least 4 (cubic splines), got {args.nbs}")
        smooth_requests = []
        for item in args.smooth:
            var, sep, path = item.partition(":")
            if not sep or not var or not path:
                raise _UsageError(f"--smooth expects VAR:SVG, got {item!r}")
            smooth_requests.append((var, path))
    except _UsageError as exc:
        return _fail("usage", str(exc), EXIT_USAGE)

    try:
        formula = parse_formula(args.formula)
    except FormulaError as exc:
        return _fail("usage", str(exc), EXIT_USAGE)

    categorical = tuple(c.strip() for c in args.categorical.split(",") if c.strip())
    try:
        data = load_csv(args.data, formula, k=args.k, categorical=categorical)
    except OSError as exc:
        return _fail("data", str(exc), EXIT_DATA)
    except DataError as exc:
        return _fail("data", str(exc), EXIT_DATA)

    family = Family("cumulative" if args.family == "cumulative" else "adjacent", args.reverse)
    try:
        base_spec = ModelSpec(
            family=family,
            structure=_STRUCTURES.get(args.structure, "locshift"),
            location=formula.location,
            dispersion=formula.dispersion,
            n_basis_default=args.nbs,
        )
    except SpecError as exc:
        return _fail("usage", str(exc), EXIT_USAGE)

    ladder = None
    fits = []
    try:
        if args.structure == "ladder":
            ladder = model_ladder(data, base_spec, max_iter=max_iter)
            fits = [row.fit for row in ladder.rows if row.ok]
            if not fits:
                return _fail("fit", "every model in the ladder failed", EXIT_FIT)
        else:
            result = fit(base_spec, data, max_iter=max_iter)
            if not result.converged:
                return _fail(
                    "fit",
                    f"{args.structure} fit did not converge in {max_iter} iterations",
                    EXIT_FIT,
                )
            fits = [result]
    except SpecError as exc:
        return _fail("usage", str(exc), EXIT_USAGE)
    except DataError as exc:
        return _fail("data", str(exc), EXIT_DATA)
    except OrdshiftError as exc:
        return _fail("fit", str(exc), EXIT_FIT)

    report = render_report(ladder, fits, format=args.format)
    try:
        if args.out:
            _write("--out", args.out, report)
        else:
            sys.stdout.write(report)

        star_fit = next((f for f in fits if f.structure == "locshift"), None)
        if args.star is not None:
            if star_fit is None:
                return _fail(
                    "fit", "star plot needs a converged location-shift fit", EXIT_FIT
                )
            points = star_data(star_fit, level=args.conf)
            _write("--star", args.star, render_star_svg(points))

        smooth_fit = star_fit or (fits[0] if fits else None)
        for var, path in smooth_requests:
            try:
                svg = render_smooth_svg(smooth_fit, var)
            except SpecError as exc:
                return _fail("usage", str(exc), EXIT_USAGE)
            _write("--smooth", path, svg)
    except _UsageError as exc:
        return _fail("usage", str(exc), EXIT_USAGE)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
