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
    a row of floats only is formatted in one operation, to the same text,
    by one format string per row width.
    """
    lines = [f"# {key}={val}" for key, val in (meta or {}).items()]
    lines.append(",".join(columns))
    formats = {}
    for row in rows:
        if all(map(float.__instancecheck__, row)):
            form = formats.get(len(row))
            if form is None:
                form = formats[len(row)] = ",".join(["%.17g"] * len(row))
            lines.append(form % tuple(row))
        else:
            lines.append(",".join(v if isinstance(v, str) else fmt(v)
                                  for v in row))
    return "\n".join(lines) + "\n"
