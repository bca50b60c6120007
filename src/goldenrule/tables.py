"""The one CSV table format the package writes.

A table is optional ``# key=value`` comment lines, one header row of
column names, then one comma-separated row per record. Numbers carry 17
significant digits, so a float read back is the float that was written.
"""

from __future__ import annotations

import numbers


def fmt(x):
    """17-significant-digit text form used in every artifact."""
    if isinstance(x, float):
        return "%.17g" % x
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, numbers.Integral):
        return str(int(x))
    return f"{float(x):.17g}"


def format_table(columns, rows, meta=None):
    """Text of a table: comment lines from meta, the header, the rows.

    String cells are written as they are, every other cell through fmt;
    a row of floats only is formatted in one operation, to the same text.
    """
    lines = [f"# {key}={val}" for key, val in (meta or {}).items()]
    lines.append(",".join(columns))
    for row in rows:
        if all(isinstance(v, float) for v in row):
            lines.append(",".join(["%.17g"] * len(row)) % tuple(row))
        else:
            lines.append(",".join(v if isinstance(v, str) else fmt(v)
                                  for v in row))
    return "\n".join(lines) + "\n"
