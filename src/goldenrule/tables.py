"""The one CSV table format the package writes and reads.

A table is optional ``# key=value`` comment lines, one header row of
column names, then one comma-separated row per record. Numbers carry 17
significant digits, so a float read back is the float that was written.
"""

from __future__ import annotations

import csv
import numbers

from .errors import DomainError


def fmt(x):
    """17-significant-digit text form used in every artifact."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, numbers.Integral):
        return str(int(x))
    return f"{float(x):.17g}"


def format_table(columns, rows, meta=None):
    """Text of a table: comment lines from meta, the header, the rows.

    String cells are written as they are, every other cell through fmt.
    """
    lines = [f"# {key}={val}" for key, val in (meta or {}).items()]
    lines.append(",".join(columns))
    lines.extend(",".join(v if isinstance(v, str) else fmt(v) for v in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def read_table(path, header):
    """Rows of the table at path, parsed column by column.

    header maps each expected column name, in order, to the callable that
    parses its cells (float for numbers, str for labels). ``#`` lines and
    blank lines are skipped. Returns a list of tuples, at least one.

    Raises:
        DomainError: naming the path, when the file cannot be read, the
            header differs, a row has the wrong number of cells, a cell
            does not parse, or there is no data row.
    """
    names = list(header)
    try:
        with open(path, newline="") as fh:
            lines = [(k, row) for k, row in enumerate(csv.reader(fh), 1)
                     if row and not row[0].lstrip().startswith("#")]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DomainError(f"{path}: cannot read table: {exc}") from None
    if not lines or [c.strip() for c in lines[0][1]] != names:
        raise DomainError(f"{path}: expected header '{','.join(names)}'")
    rows = []
    for k, row in lines[1:]:
        if len(row) != len(names):
            raise DomainError(f"{path}:{k}: expected {len(names)} cells, "
                              f"got {len(row)}")
        try:
            rows.append(tuple(header[n](c.strip())
                              for n, c in zip(names, row)))
        except ValueError as exc:
            raise DomainError(f"{path}:{k}: {exc}") from None
    if not rows:
        raise DomainError(f"{path}: no data rows")
    return rows
