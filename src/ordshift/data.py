"""Ordinal datasets and CSV ingestion."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DataError

log = logging.getLogger("ordshift.data")


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

    def relabeled(self) -> "OrdinalDataset":
        """Dataset with categories flipped to k+1-y (reverse representation);
        it shares the columns and their kept level codes."""
        flipped = OrdinalDataset(
            y=self.k + 1 - self.y,
            k=self.k,
            columns=self.columns,
            categorical_levels=self.categorical_levels,
        )
        flipped._codes = self._codes
        return flipped


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


def _parse_float(value: str, column: str, row: int) -> float:
    try:
        number = float(value)
    except ValueError:
        raise DataError(
            f"column {column!r} row {row}: could not parse {value!r} as a number"
        ) from None
    if not math.isfinite(number):
        raise DataError(f"column {column!r} row {row}: {value!r} is not a finite number")
    return number


def load_csv(path, formula, k=None, categorical=()) -> OrdinalDataset:
    """Read a UTF-8, comma-delimited, headered CSV into an OrdinalDataset.

    Only the response and the columns named by ``formula`` are kept. Columns
    listed in ``categorical`` (or whose values are entirely non-numeric) are
    treated as categorical with levels in first-seen order; a numeric column
    containing stray text or a non-finite value (nan, inf) is an error naming
    the offending cell.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = [r for r in reader if r]

    if not rows:
        raise DataError(f"{path}: no data rows")

    needed = list(dict.fromkeys(
        [formula.response] + [t.name for t in formula.location + formula.dispersion]
    ))
    missing = [c for c in needed if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")

    index = {c: header.index(c) for c in needed}
    for i, r in enumerate(rows, start=2):
        if len(r) != len(header):
            raise DataError(f"{path}: row {i} has {len(r)} fields, expected {len(header)}")

    raw = {c: [r[index[c]].strip() for r in rows] for c in needed}

    y = []
    for i, value in enumerate(raw[formula.response], start=2):
        try:
            y.append(int(value))
        except ValueError:
            raise DataError(
                f"column {formula.response!r} row {i}: response {value!r} is not an integer"
            ) from None
    y = np.array(y)
    k_eff = int(y.max()) if k is None else int(k)
    outside = np.flatnonzero((y < 1) | (y > k_eff))
    if outside.size:
        i = outside[0]
        raise DataError(
            f"column {formula.response!r} row {i + 2}: response {y[i]}; "
            f"response categories must be 1..{k_eff}"
        )

    declared = set(categorical)
    unknown = declared - set(header)
    if unknown:
        raise DataError(f"{path}: declared categorical columns not present: {sorted(unknown)}")

    columns, levels = {}, {}
    for name in needed:
        if name == formula.response:
            continue
        values = raw[name]
        if name in declared:
            is_cat = True
        else:
            numeric_flags = []
            for v in values:
                try:
                    float(v)
                    numeric_flags.append(True)
                except ValueError:
                    numeric_flags.append(False)
            if all(numeric_flags):
                is_cat = False
            elif not any(numeric_flags):
                is_cat = True
            else:
                first_bad = numeric_flags.index(False) + 2
                raise DataError(
                    f"column {name!r} row {first_bad}: could not parse "
                    f"{values[first_bad - 2]!r} as a number"
                )
        if is_cat:
            columns[name] = np.array(values, dtype=object)
            ordered = []
            for v in values:
                if v not in ordered:
                    ordered.append(v)
            levels[name] = tuple(ordered)
        else:
            columns[name] = np.array(
                [_parse_float(v, name, i) for i, v in enumerate(values, start=2)]
            )

    data = OrdinalDataset(y=y, k=k_eff, columns=columns, categorical_levels=levels)
    counts = ", ".join(f"{c}" for c in data.category_counts())
    log.info("loaded %s: n=%d, k=%d, category counts [%s]", path, data.n, data.k, counts)
    return data
