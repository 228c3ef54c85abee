import math
import sys

import numpy as np
import pytest

from zenosim import tables
from zenosim.tables import Table, _cell, write_csv

from csv_reader import read_csv


def test_rejects_ragged_columns_naming_the_odd_one():
    with pytest.raises(ValueError, match="column 'b' has 1 rows, not the 2 of column 'a'"):
        Table({"a": np.zeros(2), "b": [1.0], "c": [None, 2.0]})


def test_length_and_lookup_by_name():
    table = Table({"a": np.array([1.0, 3.0]), "b": [2.0, None]})
    assert len(table) == 2
    assert table["b"] == [2.0, None]
    assert table.rows == [(1.0, 2.0), (3.0, None)]


def test_empty_table_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(Table({"t": [], "value": np.array([])}), path)
    assert path.read_bytes() == b"t,value\n"


def test_roundtrip_is_bit_exact(tmp_path):
    awkward = np.array([0.1, 1.0 / 3.0, 1e-300, 1e300, -0.0, 2.0 ** -52, math.pi,
                        0.30000000000000004, 123456789.123456789])
    table = Table({"x": awkward, "y": -awkward})
    path = tmp_path / "roundtrip.csv"
    write_csv(table, path)
    parsed = read_csv(path)
    assert tuple(parsed.columns) == ("x", "y")
    for name in ("x", "y"):
        for a, b in zip(table[name].tolist(), parsed[name]):
            assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_missing_cells_roundtrip_as_none(tmp_path):
    table = Table({"t": [20.0], "N": [1], "P_analytic": [0.5], "P_mc": [None],
                   "P_mc_stderr": [None]})
    path = tmp_path / "missing.csv"
    write_csv(table, path)
    text = path.read_text()
    assert text.splitlines()[1].endswith(",,")
    parsed = read_csv(path)
    assert parsed["P_mc"] == [None] and parsed["P_mc_stderr"] == [None]


def test_lf_line_endings(tmp_path):
    path = tmp_path / "lines.csv"
    write_csv(Table({"a": [1.0, 2.0]}), path)
    assert b"\r" not in path.read_bytes()


def test_integers_written_without_exponent(tmp_path):
    path = tmp_path / "ints.csv"
    write_csv(Table({"t": [20.0], "N": [17]}), path)
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
    write_csv(Table({"a": [value], "b": [1.0]}), path)
    assert path.read_text() == f"a,b\n{text},1\n"


def test_mixed_roundtrip_without_csv_module(tmp_path, monkeypatch):
    assert "csv" not in vars(tables)
    monkeypatch.setitem(sys.modules, "csv", None)      # any import of csv now fails
    columns = {"t": np.array([0.0, math.inf, 2.5]), "N": [1, 20, True],
               "P": [None, 0.25, -math.inf], "x": [-0.0, math.nan, 1e-300]}
    path = tmp_path / "mixed.csv"
    write_csv(Table(columns), path)
    parsed = read_csv(path)
    assert tuple(parsed.columns) == ("t", "N", "P", "x")
    # .17g text is equal exactly when the floats are bit-equal (or both nan)
    texts = [[_cell(cells[i]) for i in range(3)] for cells in columns.values()]
    assert [list(map(_cell, cells)) for cells in parsed.columns.values()] == texts


def test_block_boundaries_write_the_row_by_row_bytes(tmp_path):
    # 2 blocks + 1 row: the last block holds a single row
    n = 2 * tables._BLOCK_ROWS + 1
    rng = np.random.default_rng(5)
    floats = rng.normal(size=n)
    edges = [0, tables._BLOCK_ROWS - 1, tables._BLOCK_ROWS, n - 1]
    floats[edges] = [-0.0, np.inf, np.nan, -np.inf]
    missing = [None if i % 3 == 0 else float(i) / 7.0 for i in range(n)]
    columns = {"x": floats, "N": list(range(n)), "P": missing,
               "k": np.arange(n, dtype=np.int64), "y": floats[::-1]}
    path = tmp_path / "blocks.csv"
    write_csv(Table(columns), path)
    expected = "x,N,P,k,y\n" + "".join(
        ",".join(_cell(cells[i]) for cells in columns.values()) + "\n" for i in range(n))
    assert path.read_bytes() == expected.encode()
    assert len(path.read_text().splitlines()) == n + 1
