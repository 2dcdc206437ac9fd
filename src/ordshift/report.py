"""Deterministic text and markdown rendering of ladders and Wald tables."""

from __future__ import annotations

import math

from .exceptions import InvalidInputError
from .fit import FitResult
from .inference import LADDER_LABELS, ComparisonTable, wald_table

_BLOCK_TITLES = (
    ("threshold", "Thresholds"),
    ("location", "Location effects"),
    ("dispersion", "Dispersion effects"),
)


def _num(value, decimals, width=0):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        text = ""
    elif isinstance(value, float) and math.isinf(value):
        text = "inf" if value > 0 else "-inf"
    elif decimals == 0:
        text = f"{int(value)}"
    else:
        text = f"{value:.{decimals}f}"
    return text.rjust(width) if width else text


def _family_line(fit_or_table) -> str:
    if isinstance(fit_or_table, ComparisonTable):
        family, reverse = fit_or_table.family, fit_or_table.reverse
    else:
        family = fit_or_table.spec.family.kind
        reverse = fit_or_table.spec.family.reverse
    tag = ", reverse representation" if reverse else ""
    return f"({family} family, logit link{tag})"


def _ladder_cells(table: ComparisonTable):
    rows = []
    for row in table.rows:
        if row.ok:
            cells = [
                row.label,
                _num(row.fit.deviance, 2),
                _num(row.fit.df_residual, 0),
            ]
        else:
            cells = [row.label, "fit failed", ""]
        if row.test is not None:
            cells += [
                _num(row.test.statistic, 2),
                _num(row.test.df, 0),
                _num(row.test.p_value, 4),
            ]
        else:
            cells += ["", "", ""]
        rows.append(cells)
    return rows


def _ladder_notes(table: ComparisonTable):
    """One line per failed row: its reason and the notes of its fit, if it
    has one, that the reason does not already say; and one per converged row
    whose note says why it has no test."""
    lines = []
    for row in table.rows:
        if row.note is not None:
            lines.append(f"{row.label}: {row.note}")
        elif not row.ok:
            notes = [row.error] + [note for note in (row.fit.warnings if row.fit else ())
                                   if note not in row.error]
            lines.append(f"{row.label}: {'; '.join(notes)}")
    return lines


def _wald_cells(fit: FitResult):
    blocks = []
    table = wald_table(fit)
    for key, title in _BLOCK_TITLES:
        rows = table.block(key)
        if not rows:
            continue
        cells = [
            [r.name, _num(r.coef, 3), _num(r.se, 3), _num(r.z, 3), _num(r.p, 4)]
            for r in rows
        ]
        blocks.append((title, cells))
    return blocks


def _fit_header(fit: FitResult) -> str:
    state = "converged" if fit.converged else "did not converge"
    return (
        f"n = {fit.n}, k = {fit.k}, deviance = {fit.deviance:.2f}, "
        f"df = {fit.df_residual}, iterations = {fit.iterations}, {state}"
    )


_LADDER_HEADER = ["Model", "deviance", "df", "diff. dev.", "df", "p-value"]
_WALD_HEADER = ["", "coef", "se", "z", "p-value"]


def _text_table(header, rows, indent="  "):
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]

    def line(cells):
        return indent + "  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                                  for i, (c, w) in enumerate(zip(cells, widths))).rstrip()

    return ([line(header)] if any(header) else []) + [line(row) for row in rows]


def _md_escape(text: str) -> str:
    return text.replace("|", "\\|")


def _md_table(header, rows):
    lines = ["| " + " | ".join(_md_escape(h) for h in header) + " |"]
    lines.append("|" + "|".join([" --- "] + [" ---: "] * (len(header) - 1)) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_md_escape(c) for c in row) + " |")
    return lines


def render_report(ladder, fits, format: str = "text") -> str:
    """Ladder table plus per-model Wald tables, as plain text or markdown.

    Deviances carry 2 decimals, coefficients 3, p-values 4 ("0.0000" means
    below 5e-5); rows with unavailable standard errors render blank cells.
    Each failed ladder row's reason, with its fit's notes, follows the
    ladder table as a ``note:`` line, as does a converged row's reason for
    having no test.
    """
    if format not in ("text", "markdown"):
        raise InvalidInputError(f"unknown format {format!r}")
    md = format == "markdown"
    out = []

    if ladder is not None:
        title = f"Model comparison {_family_line(ladder)}"
        out.append(f"## {title}" if md else title)
        out.append("")
        cells = _ladder_cells(ladder)
        out.extend(_md_table(_LADDER_HEADER, cells) if md else _text_table(_LADDER_HEADER, cells))
        out.append("")
        for note in _ladder_notes(ladder):
            out.append(f"note: {note}")
            out.append("")

    for fit in fits:
        label = LADDER_LABELS.get(fit.structure, fit.structure)
        title = f"{label} {_family_line(fit)}"
        out.append(f"## {title}" if md else title)
        out.append(_fit_header(fit))
        out.append("")
        for block_title, cells in _wald_cells(fit):
            out.append(f"### {block_title}" if md else f"  {block_title}")
            if md:
                out.append("")
            out.extend(_md_table(_WALD_HEADER, cells) if md else _text_table(_WALD_HEADER, cells, indent="    "))
            out.append("")
        for note in fit.warnings:
            out.append(f"note: {note}")
            out.append("")
    return "\n".join(out).rstrip() + "\n"
