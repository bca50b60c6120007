import numpy as np
import pytest

from goldenrule import DomainError, TabulatedDOS
from goldenrule.tables import format_table, read_table

# reader, its header, two good data rows
READERS = {
    "dos": (TabulatedDOS.from_csv, "E,D", ["0,1", "1,2"]),
}


def _bad_text(kind, header, good):
    if kind == "header_only":
        return f"{header}\n"
    if kind == "one_column":
        return f"{header}\n0\n1\n"
    if kind == "ragged":
        return f"{header}\n{good[0]}\n{good[1]},9\n"
    if kind == "non_numeric":
        return f"{header}\n{good[0]}\n{good[1][:-1]}x\n"
    return "a,b\n0,1\n"


@pytest.mark.parametrize("kind", ["missing", "header_only", "one_column",
                                  "ragged", "non_numeric", "wrong_header"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_bad_table_files_raise_domain_error_naming_the_path(
        tmp_path, reader, kind):
    load, header, good = READERS[reader]
    ok = tmp_path / f"{reader}_ok.csv"
    ok.write_text("# comment\n" + header + "\n" + "\n".join(good) + "\n")
    load(ok)
    path = tmp_path / f"{reader}_{kind}.csv"
    if kind != "missing":
        path.write_text(_bad_text(kind, header, good))
    with pytest.raises(DomainError, match=str(path)):
        load(path)


def test_table_round_trip_is_exact(tmp_path):
    x = [0.1, 2.0 / 3.0, -1e-300]
    text = format_table(["label", "x", "n"],
                        [("a", x[0], True), ("b", np.float64(x[1]), False),
                         ("c", x[2], 3)],
                        {"run": "unit"})
    assert text.splitlines()[:2] == ["# run=unit", "label,x,n"]
    path = tmp_path / "t.csv"
    path.write_text(text)
    rows = read_table(path, {"label": str, "x": float, "n": int})
    assert rows == [("a", x[0], 1), ("b", x[1], 0), ("c", x[2], 3)]
