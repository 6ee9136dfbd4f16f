"""The package's two text formats: comma-separated tables and key-value files.

A table is any number of ``# `` metadata lines, one header row naming the
columns, then one row per record, every line ending in ``\\n``.  Readers skip
``#`` and blank lines, also accept the CRLF row endings that earlier
releases wrote, and name file line numbers in their errors.  Every road,
trajectory, weight-series, model, sweep and report export goes through
:func:`write_table` and :func:`read_table`.

A reader of the package's own exports passes :func:`read_table` the
columns its writer writes: a header row that differs, or a data row with
another number of cells, is refused, naming its file line, and the cells
are then read by position.  Only the road reader, whose files may come
from outside the package, looks its columns up by name.

A key-value file holds one ``key = value`` pair per line; ``#`` starts a
comment.  A key is read in lower case with ``-`` as ``_``; an unknown key
and a repeated one are refused.  Vehicle parameters and CLI configuration
use it.
"""

from __future__ import annotations

import csv

import numpy as np


def num(x) -> str:
    """A number as every table writes it: 9 significant digits."""
    return f"{x:.9g}"


def write_table(path, columns, rows, header_lines=None) -> None:
    """Write ``# `` metadata lines, the header row and the rows to ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def read_table(path, columns=None) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header row and ``(file line number, cells)`` for every record.

    A file that is not UTF-8 text or has no header row, or, given
    ``columns``, another header row or a row of another width raises
    ``ValueError``.
    """
    lineno = 0

    def content(fh):
        nonlocal lineno
        for lineno, line in enumerate(fh, start=1):
            if line.strip() and not line.startswith("#"):
                yield line

    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            records = [(lineno, cells) for cells in csv.reader(content(fh))]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not records:
        raise ValueError(f"{path}: empty file")
    (lineno, header), rows = records[0], records[1:]
    if columns is None:
        return header, rows
    if header != list(columns):
        raise ValueError(f"{path}: row 1 (line {lineno}): header {','.join(header)!r} "
                         f"is not {','.join(columns)!r}")
    for i, (line, cells) in enumerate(rows):
        if len(cells) != len(columns):
            raise ValueError(f"{path}: {where(i, line)}: {len(cells)} cells, "
                             f"but the header has {len(columns)}")
    return header, rows


def parse_rows(path, rows, convert) -> list:
    """``convert(cells)`` for every row; a row it cannot parse (a bad number
    or a missing cell) raises ``ValueError`` naming it by :func:`where`."""
    out = []
    for i, (lineno, cells) in enumerate(rows):
        try:
            out.append(convert(cells))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{path}: {where(i, lineno)}: unparsable {cells!r}") from exc
    return out


def where(i: int, lineno: int) -> str:
    """Data row ``i`` as a spreadsheet row (the header row is row 1) and as
    a file line; the two differ when ``#`` or blank lines precede it."""
    return f"row {i + 2} (line {lineno})"


def float_columns(path, rows, columns) -> np.ndarray:
    """The given columns of ``rows`` as floats, one array per column."""
    values = parse_rows(path, rows, lambda cells: [float(cells[j]) for j in columns])
    return np.array(values, dtype=float).reshape(len(rows), len(columns)).T.copy()


def check_finite(path, rows, what, *columns) -> None:
    """Raise ``ValueError`` naming the first of ``rows`` where one of
    ``columns`` holds a non-finite number; a column may end before the
    last rows."""
    bad = [int(i[0]) for i in (np.flatnonzero(~np.isfinite(c)) for c in columns) if len(i)]
    if bad:
        lineno, cells = rows[min(bad)]
        raise ValueError(f"{path}: {where(min(bad), lineno)}: non-finite {what} in {cells!r}")


def read_key_values(path, keys) -> dict[str, tuple[int, str]]:
    """``{key: (line number, value)}`` for each ``key = value`` line, the key
    in lower case with ``-`` read as ``_``.  A line without ``=``, a file
    that is not UTF-8 text, and then a key not in ``keys`` or one given
    twice raise ``ValueError`` naming the file."""
    pairs = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, _, value = line.partition("=")
                pairs.append((lineno, key.strip().lower().replace("-", "_"), value.strip()))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    found: dict[str, tuple[int, str]] = {}
    for lineno, key, value in pairs:
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in found:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {found[key][0]}")
        found[key] = (lineno, value)
    return found
