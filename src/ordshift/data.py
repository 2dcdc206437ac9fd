"""Ordinal datasets and CSV ingestion."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DataError

log = logging.getLogger("ordshift.data")
_INT64 = np.iinfo(np.int64)


def _brief_list(values: np.ndarray) -> str:
    """``values`` as a list of at most its first 10 items and then, when
    there are more, their total: ``[1, 2, ..., 10, ...] (3000 in all)``."""
    listed = str(values[:10].tolist())
    if values.size > 10:
        listed = f"{listed[:-1]}, ...] ({values.size} in all)"
    return listed


@dataclass
class OrdinalDataset:
    """Responses in 1..k plus raw covariate columns.

    ``columns`` maps names to float arrays (numeric, every value finite) or
    object arrays of strings (categorical); ``categorical_levels`` fixes the
    level order of each categorical column (first level = dummy reference)
    and is copied, not kept. A column without declared levels must be numeric.
    Columns are not modified after construction: the integer codes of the
    categorical columns are computed once and kept (see level_codes).
    """

    y: np.ndarray
    k: int
    columns: dict = field(default_factory=dict)
    categorical_levels: dict = field(default_factory=dict)
    _codes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.y = np.asarray(self.y)
        if self.y.size == 0:
            raise DataError("dataset has no rows")
        if not np.issubdtype(self.y.dtype, np.integer):
            if not np.all(self.y == np.floor(self.y)):
                raise DataError("response categories must be integers")
            self.y = self.y.astype(int)
        if self.k is None:
            self.k = int(self.y.max())
        if self.k < 2:
            raise DataError(f"need at least 2 response categories, got k={self.k}")
        outside = np.flatnonzero((self.y < 1) | (self.y > self.k))
        if outside.size:
            i = outside[0]
            raise DataError(
                f"response index {i}: value {self.y[i]}; "
                f"response categories must be 1..{self.k}"
            )
        for name, values in self.columns.items():
            if len(values) != self.n:
                raise DataError(f"column {name!r} has {len(values)} rows, expected {self.n}")
            if name not in self.categorical_levels:
                values = _numeric(name, values)
                bad = np.flatnonzero(~np.isfinite(values))
                if bad.size:
                    raise DataError(
                        f"column {name!r} index {bad[0]}: value {values[bad[0]]} is not finite"
                    )
        for name in self.categorical_levels:
            if name not in self.columns:
                raise DataError(f"categorical column {name!r} not present")
        self.categorical_levels = {
            name: tuple(levels) for name, levels in self.categorical_levels.items()
        }

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def category_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.k + 1)[1:]

    def level_codes(self, name: str) -> np.ndarray:
        """Codes of categorical column ``name`` (see the module's
        level_codes), computed on the first call and kept."""
        codes = self._codes.get(name)
        if codes is None:
            codes = self._codes[name] = level_codes(
                self.columns[name], self.categorical_levels[name]
            )
        return codes


def _numeric(name: str, values) -> np.ndarray:
    """``values`` as floats, or a DataError naming the first index that is
    not a number: a text column must have its levels declared."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        for i, value in enumerate(values):
            try:
                float(value)
            except (TypeError, ValueError):
                raise DataError(
                    f"column {name!r} index {i}: value {value!r} is not a number "
                    "(declare the levels of a categorical column)"
                ) from None
        raise


def level_codes(values, levels) -> np.ndarray:
    """Index of each value in ``levels``, -1 for a value not among them."""
    values = np.asarray(values, dtype=object)
    codes = np.full(values.shape[0], -1)
    for j, lev in enumerate(levels):
        codes[values == lev] = j
    return codes


def _numeric_column(cells, column: str):
    """The cells of a CSV column as floats, converted in one call, or None
    when none of them is a number (a categorical column). A column mixing
    numbers with text, or holding a non-finite number (nan, inf), is a
    DataError naming its first offending cell, stripped as it is read."""
    try:
        # float() of each cell, surrounding whitespace included
        array = np.array(cells, dtype=float)
    except ValueError:
        array = _parse_cells(cells, column)
        if array is None:
            return None
    nonfinite = np.flatnonzero(~np.isfinite(array))
    if nonfinite.size:
        i = nonfinite[0]
        raise DataError(
            f"column {column!r} row {i + 2}: {cells[i].strip()!r} is not a finite number"
        )
    return array


def _parse_cells(cells, column: str):
    """The error path of _numeric_column: each stripped cell through
    float(), to name the first cell that is not a number."""
    values = [c.strip() for c in cells]
    numbers, bad = [], None
    for i, value in enumerate(values):
        try:
            numbers.append(float(value))
        except ValueError:
            if bad is None:
                bad = i
    if bad is not None:
        if not numbers:
            return None
        raise DataError(
            f"column {column!r} row {bad + 2}: could not parse {values[bad]!r} as a number"
        )
    return np.array(numbers)


def _responses(cells, column: str) -> np.ndarray:
    """The response cells as integers, converted in one call; the error
    path takes each stripped cell through int(), to name the first cell that
    is not an integer or lies beyond the int64 range."""
    try:
        # int() of each cell, surrounding whitespace included
        return np.array(cells, dtype=int)
    except (ValueError, OverflowError):
        pass
    y = []
    for i, value in enumerate((c.strip() for c in cells), start=2):
        try:
            y.append(int(value))
        except ValueError:
            raise DataError(
                f"column {column!r} row {i}: response {value!r} is not an integer"
            ) from None
        if not _INT64.min <= y[-1] <= _INT64.max:
            raise DataError(f"column {column!r} row {i}: response {value} is beyond the "
                            "64-bit integer range")
    return np.array(y)


def load_csv(path, formula, categorical=()) -> OrdinalDataset:
    """Read a UTF-8, comma-delimited, headered CSV into an OrdinalDataset.

    A byte-order mark, as spreadsheets export one, is skipped; a header that
    names a column twice is an error naming both positions. Only the
    response and the columns named by ``formula`` are kept. Columns
    listed in ``categorical`` (or whose values are entirely non-numeric) are
    treated as categorical with levels in first-seen order; a numeric column
    containing stray text or a non-finite value (nan, inf) is an error naming
    the offending cell. The response's k is its largest value; a response
    below 1, or a k above the row count (some category would be
    unobserved), is an error naming the cell.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = list(filter(None, reader))  # blank lines skipped

    first = {}
    for position, name in enumerate(header, start=1):
        if name and first.setdefault(name, position) != position:
            raise DataError(f"{path}: column {name!r} appears twice in the header, "
                            f"at positions {first[name]} and {position}")

    if not rows:
        raise DataError(f"{path}: no data rows")

    needed = list(dict.fromkeys(
        [formula.response] + [t.name for t in formula.location + formula.dispersion]
    ))
    missing = [c for c in needed if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")

    if set(map(len, rows)) != {len(header)}:
        i, r = next((i, r) for i, r in enumerate(rows, start=2) if len(r) != len(header))
        raise DataError(f"{path}: row {i} has {len(r)} fields, expected {len(header)}")

    table = list(zip(*rows))  # the file's columns, as read
    cells = {c: table[header.index(c)] for c in needed}
    y = _responses(cells[formula.response], formula.response)
    k = int(y.max())
    outside = np.flatnonzero(y < 1)
    if outside.size:
        i = outside[0]
        raise DataError(
            f"column {formula.response!r} row {i + 2}: response {y[i]}; "
            f"response categories must be 1..{k}"
        )

    declared = set(categorical)
    unknown = declared - set(header)
    if unknown:
        raise DataError(f"{path}: declared categorical columns not present: {sorted(unknown)}")

    columns, levels = {}, {}
    for name in needed:
        if name == formula.response:
            continue
        numbers = None if name in declared else _numeric_column(cells[name], name)
        if numbers is None:
            values = [c.strip() for c in cells[name]]
            columns[name] = np.array(values, dtype=object)
            levels[name] = tuple(dict.fromkeys(values))
        else:
            columns[name] = numbers

    if k > y.size:
        # checked before the data's first k-sized count
        i = int(np.argmax(y))
        raise DataError(
            f"column {formula.response!r} row {i + 2}: largest response {y[i]}; "
            f"k={k} categories cannot all be observed in {y.size} rows"
        )
    data = OrdinalDataset(y=y, k=k, columns=columns, categorical_levels=levels)
    log.info("loaded %s: n=%d, k=%d, category counts %s", path, data.n, data.k,
             _brief_list(data.category_counts()))
    return data
