"""Reading, resampling, and smoothing stratified 2x2 count tables.

The on-disk format is CSV with header ``category,exposure,outcome,count``
(UTF-8, LF or CRLF).  Each data row contributes ``count`` individuals
with binary exposure and outcome to one covariate category; repeated
(category, exposure, outcome) rows accumulate, and absent cells are zero.
Category order follows first appearance in the file.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from .errors import DegenerateTableError, ParameterError, TableParseError
from .model import CategoryCounts, StratifiedTable

__all__ = ["load_table", "loads_table", "resample_table", "smooth_table"]

_HEADER = ("category", "exposure", "outcome", "count")


def _parse_binary(text: str, column: str, line: int) -> int:
    value = text.strip()
    if value not in ("0", "1"):
        raise TableParseError(
            f"line {line}: {column} must be 0 or 1, got {value!r}"
        )
    return int(value)


def _parse_count(text: str, line: int) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise TableParseError(
            f"line {line}: count must be a number, got {text.strip()!r}"
        ) from None
    if not math.isfinite(value) or value < 0.0:
        raise TableParseError(f"line {line}: count must be finite and >= 0, got {value}")
    return value


def loads_table(text: str) -> StratifiedTable:
    """Parse CSV text into a table; see :func:`load_table`."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise TableParseError("line 1: empty input, expected header "
                              + ",".join(_HEADER)) from None
    if tuple(h.strip().lower() for h in header) != _HEADER:
        raise TableParseError(
            f"line 1: expected header {','.join(_HEADER)}, got {','.join(header)!r}"
        )
    # cells[label][e][d] accumulates counts; dict preserves insertion order
    cells: dict[str, list[list[float]]] = {}
    n_rows = 0
    for line, row in enumerate(reader, start=2):
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) != 4:
            raise TableParseError(f"line {line}: expected 4 fields, got {len(row)}")
        label = row[0].strip()
        if not label:
            raise TableParseError(f"line {line}: empty category label")
        e = _parse_binary(row[1], "exposure", line)
        d = _parse_binary(row[2], "outcome", line)
        count = _parse_count(row[3], line)
        cells.setdefault(label, [[0.0, 0.0], [0.0, 0.0]])[e][d] += count
        n_rows += 1
    if n_rows == 0:
        raise TableParseError("no data rows after the header")
    categories = tuple(
        CategoryCounts(
            label=label,
            n01=c[0][1],
            n11=c[1][1],
            n00=c[0][0],
            n10=c[1][0],
        )
        for label, c in cells.items()
    )
    return StratifiedTable(categories)


def load_table(path) -> StratifiedTable:
    """Load a stratified table from a CSV file.

    Raises TableParseError with a 1-based line number on malformed input
    and OSError on unreadable paths.
    """
    text = Path(path).read_text(encoding="utf-8-sig")
    return loads_table(text)


def resample_table(
    table: StratifiedTable, rng: np.random.Generator
) -> StratifiedTable:
    """One bootstrap replicate of a table.

    Draws N individuals (N = the table's total, rounded) with replacement
    from the empirical distribution over (category, exposure, outcome)
    cells, pooled across categories, and reassembles a table with the same
    labels in the same order.  Advances ``rng`` exactly one multinomial
    draw, so replicate sequences are reproducible.  Raises
    ParameterError when N exceeds the 64-bit integer range of the draw.
    """
    counts = table.counts_matrix().ravel()
    total = counts.sum()
    if total <= 0:
        raise DegenerateTableError("cannot resample an empty table")
    n, limit = int(round(total)), np.iinfo(np.int64).max
    if n > limit:
        raise ParameterError(
            f"cannot resample a table of {total:g} individuals: the total exceeds {limit}"
        )
    drawn = rng.multinomial(n, counts / total).reshape(-1, 4).astype(float)
    categories = tuple(
        CategoryCounts(c.label, *row)
        for c, row in zip(table.categories, drawn)
    )
    return StratifiedTable(categories)


def smooth_table(table: StratifiedTable, amount: float = 0.5) -> StratifiedTable:
    """Additive smoothing: add ``amount`` to every cell of every category.

    The default of one half is the classical continuity correction for
    tables with empty cells; it makes all closed-form quantities (odds
    ratio, conditional risks) finite at the cost of a small bias.
    """
    if amount < 0.0:
        raise ParameterError(f"smoothing amount must be >= 0, got {amount}")
    return StratifiedTable(
        tuple(
            CategoryCounts(
                c.label,
                c.n01 + amount,
                c.n11 + amount,
                c.n00 + amount,
                c.n10 + amount,
            )
            for c in table.categories
        )
    )
