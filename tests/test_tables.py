import csv

import numpy as np

from goldenrule.tables import format_table


def test_table_round_trip_is_exact(tmp_path):
    x = [0.1, 2.0 / 3.0, -1e-300]
    text = format_table(["label", "x", "n"],
                        [("a", x[0], True), ("b", np.float64(x[1]), False),
                         ("c", x[2], 3)],
                        {"run": "unit"})
    assert text.splitlines()[:2] == ["# run=unit", "label,x,n"]
    path = tmp_path / "t.csv"
    path.write_text(text)
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[:2] == [["# run=unit"], ["label", "x", "n"]]
    rows = [(label, float(v), int(n)) for label, v, n in lines[2:]]
    assert rows == [("a", x[0], 1), ("b", x[1], 0), ("c", x[2], 3)]
