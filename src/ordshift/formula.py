"""Parsing of model formulas of the form ``y ~ x1 + s(x2) | z1 + s(z2, 8)``.

The part left of ``~`` names the response; location terms come before the
``|`` separator and dispersion terms after it. ``s(name)`` marks a smooth
term, optionally with its own basis count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .design import Term
from .exceptions import FormulaError

_NAME = re.compile(r"[A-Za-z_][\w.]*\Z")
_SMOOTH = re.compile(r"s\(\s*([^,()]+?)\s*(?:,\s*(\d+)\s*)?\)\Z")


@dataclass(frozen=True)
class FormulaSpec:
    """Response name plus location and dispersion term lists."""

    response: str
    location: tuple = ()
    dispersion: tuple = ()

    def __str__(self):
        left = " + ".join(str(t) for t in self.location)
        text = f"{self.response} ~ {left}".rstrip()
        if self.dispersion:
            text += " | " + " + ".join(str(t) for t in self.dispersion)
        return text


def _parse_term(text: str, offset: int, response: str) -> Term:
    token = text.strip()
    start = offset + (len(text) - len(text.lstrip()))
    if not token:
        raise FormulaError("empty term", start)
    if token.startswith("s(") or token.startswith("s ("):
        match = _SMOOTH.match(token)
        if not match:
            raise FormulaError(f"malformed smooth term {token!r}", start)
        name = match.group(1).strip()
        if not _NAME.match(name):
            raise FormulaError(f"invalid variable name {name!r}", start)
        n_basis = int(match.group(2)) if match.group(2) else None
        term = Term(name, smooth=True, n_basis=n_basis)
    elif not _NAME.match(token):
        raise FormulaError(f"invalid term {token!r}", start)
    else:
        term = Term(token)
    if term.name == response:
        raise FormulaError(f"term {token!r} names the response {response!r}", start)
    return term


def _parse_side(text: str, offset: int, response: str) -> tuple:
    if not text.strip():
        return ()
    terms = []
    pos = 0
    for piece in text.split("+"):
        terms.append(_parse_term(piece, offset + pos, response))
        pos += len(piece) + 1
    return tuple(terms)


def parse_formula(text: str) -> FormulaSpec:
    """Parse ``response ~ location-terms [| dispersion-terms]``; a term
    that names the response is an error at its position."""
    if text.count("~") == 0:
        raise FormulaError("formula needs a '~' between response and terms", 0)
    if text.count("~") > 1:
        raise FormulaError("formula has more than one '~'", text.index("~", text.index("~") + 1))
    if text.count("|") > 1:
        raise FormulaError("formula has more than one '|'", text.index("|", text.index("|") + 1))

    tilde = text.index("~")
    response = text[:tilde].strip()
    if not response:
        raise FormulaError("empty response", 0)
    if not _NAME.match(response):
        raise FormulaError(f"invalid response name {response!r}", 0)

    rhs = text[tilde + 1:]
    if "|" in rhs:
        bar = rhs.index("|")
        location = _parse_side(rhs[:bar], tilde + 1, response)
        dispersion = _parse_side(rhs[bar + 1:], tilde + 1 + bar + 1, response)
    else:
        location = _parse_side(rhs, tilde + 1, response)
        dispersion = ()
    return FormulaSpec(response=response, location=location, dispersion=dispersion)
