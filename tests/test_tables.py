import math
import sys

import numpy as np
import pytest

from zenosim import tables
from zenosim.tables import Table, _cell, read_csv, write_csv


def test_rejects_ragged_rows():
    with pytest.raises(ValueError, match="columns"):
        Table(("a", "b"), [(1.0,)])


def test_column_lookup():
    table = Table(("a", "b"), [(1.0, 2.0), (3.0, 4.0)])
    assert table.column("b") == [2.0, 4.0]


def test_empty_table_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(Table(("t", "value")), path)
    assert path.read_bytes() == b"t,value\n"


def test_roundtrip_is_bit_exact(tmp_path):
    awkward = [0.1, 1.0 / 3.0, 1e-300, 1e300, -0.0, 2.0 ** -52, math.pi,
               0.30000000000000004, 123456789.123456789]
    table = Table(("x", "y"), [(v, -v) for v in awkward])
    path = tmp_path / "roundtrip.csv"
    write_csv(table, path)
    parsed = read_csv(path)
    assert parsed.columns == table.columns
    for original, recovered in zip(table.rows, parsed.rows):
        for a, b in zip(original, recovered):
            assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_missing_cells_roundtrip_as_none(tmp_path):
    table = Table(("t", "N", "P_analytic", "P_mc", "P_mc_stderr"),
                  [(20.0, 1, 0.5, None, None)])
    path = tmp_path / "missing.csv"
    write_csv(table, path)
    text = path.read_text()
    assert text.splitlines()[1].endswith(",,")
    parsed = read_csv(path)
    assert parsed.rows[0][3] is None and parsed.rows[0][4] is None


def test_lf_line_endings(tmp_path):
    path = tmp_path / "lines.csv"
    write_csv(Table(("a",), [(1.0,), (2.0,)]), path)
    assert b"\r" not in path.read_bytes()


def test_integers_written_without_exponent(tmp_path):
    path = tmp_path / "ints.csv"
    write_csv(Table(("t", "N"), [(20.0, 17)]), path)
    assert path.read_text().splitlines()[1] == "20,17"


@pytest.mark.parametrize("value,text", [
    (0.1, "0.10000000000000001"), (17, "17"), (True, "1"), (False, "0"), (None, ""),
    (np.float64(1.0 / 3.0), "0.33333333333333331"), (np.int64(17), "17"), (-0.0, "-0"),
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (1e300, "1.0000000000000001e+300"),
], ids=["float", "int", "true", "false", "none", "np_float64", "np_int64", "negative_zero",
        "inf", "negative_inf", "nan", "exponent"])
def test_cell_text(tmp_path, value, text):
    # one rule for every cell and summary number: empty for None, else .17g
    assert _cell(value) == text
    path = tmp_path / "cell.csv"
    write_csv(Table(("a", "b"), [(value, 1.0)]), path)
    assert path.read_text() == f"a,b\n{text},1\n"


def test_mixed_roundtrip_without_csv_module(tmp_path, monkeypatch):
    assert "csv" not in vars(tables)
    monkeypatch.setitem(sys.modules, "csv", None)      # any import of csv now fails
    rows = [(0.0, 1, None, -0.0), (math.inf, 20, 0.25, math.nan), (2.5, True, -math.inf, 1e-300)]
    path = tmp_path / "mixed.csv"
    write_csv(Table(("t", "N", "P", "x"), rows), path)
    parsed = read_csv(path)
    assert parsed.columns == ("t", "N", "P", "x")
    # .17g text is equal exactly when the floats are bit-equal (or both nan)
    texts = [tuple(map(_cell, row)) for row in rows]
    assert [tuple(map(_cell, row)) for row in parsed.rows] == texts
