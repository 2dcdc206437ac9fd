"""Command-line interface: fit models from a CSV and render reports/plots.

Exit codes: 0 success, 2 data errors, 3 fit failure of the requested
structure, 4 usage errors. Every error prints a single line to stderr with
an ``error[data|fit|usage]:`` prefix. An output path given to --out, --star
or --smooth that cannot be written (missing directory, no permission) is a
usage error naming the flag and the path; outputs written before it stay.
The package's INFO lines (the CSV load) go to the stderr of each call.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys

from .data import load_csv
from .design import ModelSpec
from .exceptions import (
    DataError,
    FormulaError,
    OrdshiftError,
    SpecError,
)
from .fit import fit
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


# error kind and exit code of each failure, first match wins
_EXITS = (
    ((_UsageError, FormulaError, SpecError), "usage", EXIT_USAGE),
    (DataError, "data", EXIT_DATA),
    (OrdshiftError, "fit", EXIT_FIT),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on first use and kept for the
    process: parsing keeps no state in it, each call returns a fresh
    namespace."""
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
    parser.add_argument("--conf", type=float, default=0.95, help="confidence level for stars")
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


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    if not 0.0 < args.conf < 1.0:
        raise _UsageError(f"--conf must be in (0,1), got {args.conf}")
    smooth_requests = []
    for item in args.smooth:
        var, sep, path = item.partition(":")
        if not sep or not var or not path:
            raise _UsageError(f"--smooth expects VAR:SVG, got {item!r}")
        smooth_requests.append((var, path))

    formula = parse_formula(args.formula)
    categorical = tuple(c.strip() for c in args.categorical.split(",") if c.strip())
    try:
        data = load_csv(args.data, formula, categorical=categorical)
    except OSError as exc:
        raise DataError(str(exc)) from exc

    family = Family("cumulative" if args.family == "cumulative" else "adjacent", args.reverse)
    base_spec = ModelSpec(
        family=family,
        structure=_STRUCTURES.get(args.structure, "locshift"),
        location=formula.location,
        dispersion=formula.dispersion,
    )

    ladder = None
    if args.structure == "ladder":
        ladder = model_ladder(data, base_spec)
        fits = [row.fit for row in ladder.rows if row.ok]
        if not fits:
            reasons = "; ".join(f"{row.label}: {row.error}" for row in ladder.rows)
            raise OrdshiftError(f"every model in the ladder failed: {reasons}")
    else:
        result = fit(base_spec, data)
        if not result.converged:
            raise OrdshiftError(f"{args.structure} fit stopped at iteration "
                                f"{result.iterations}: {'; '.join(result.warnings)}")
        fits = [result]

    report = render_report(ladder, fits, format=args.format)
    if args.out:
        _write("--out", args.out, report)
    else:
        sys.stdout.write(report)

    star_fit = next((f for f in fits if f.structure == "locshift"), None)
    if args.star is not None:
        if star_fit is None:
            raise OrdshiftError("star plot needs a converged location-shift fit")
        points = star_data(star_fit, level=args.conf)
        _write("--star", args.star, render_star_svg(points))

    smooth_fit = star_fit or fits[0]
    for var, path in smooth_requests:
        _write("--smooth", path, render_smooth_svg(smooth_fit, var))
    return EXIT_OK


def main(argv=None) -> int:
    # the package's log lines go to this call's stderr, and only for this call
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger = logging.getLogger("ordshift")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        return _run(argv)
    except (_UsageError, OrdshiftError) as exc:
        kind, code = next((kind, code) for types, kind, code in _EXITS if isinstance(exc, types))
        return _fail(kind, str(exc), code)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
