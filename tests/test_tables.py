import csv

import numpy as np
import pytest
from oracles import format_table_cellwise_oracle

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


MIXED_ROWS = [
    (0.1, np.float64(2.0 / 3.0), -0.0, 1e-300, 5e-324),
    (np.float32(0.1), np.float64(-1e300), float("nan"), float("inf"),
     -float("inf")),
    (2 ** 53 + 1, np.int64(-2 ** 62), True, np.bool_(False), "label"),
    (np.float64("nan"), np.float32("-inf"), np.int32(7), 0, 1.5),
    (0.25,),                                   # shorter than the header
    (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0),       # longer than the header
    (),
    ("a", 1.0, 2 ** 64, False, np.float64(-0.0)),
    np.array([0.1, -0.0, np.nan, np.inf, 1e-310]),
]


@pytest.mark.parametrize("row", MIXED_ROWS,
                         ids=[str(k) for k in range(len(MIXED_ROWS))])
def test_table_text_equals_the_cellwise_oracle(row):
    columns = ["c0", "c1", "c2", "c3", "c4"]
    meta = {"scenario": "unit", "n": 3}
    assert (format_table(columns, [row], meta)
            == format_table_cellwise_oracle(columns, [row], meta))


def test_table_of_all_rows_equals_the_cellwise_oracle():
    columns = ["c0", "c1", "c2", "c3", "c4"]
    assert (format_table(columns, MIXED_ROWS)
            == format_table_cellwise_oracle(columns, MIXED_ROWS))
    assert format_table(columns, []) == "c0,c1,c2,c3,c4\n"
