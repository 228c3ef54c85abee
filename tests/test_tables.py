import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


_SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                   2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300]
_FLOATS = st.sampled_from(_SPECIAL_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
_NUMPY_SCALARS = (_FLOATS.map(np.float64) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
                  | st.floats(width=32).map(np.float32) | st.booleans().map(np.bool_))


@st.composite
def _column(draw, rows: int):
    kind = draw(st.sampled_from(["float64", "int64", "bool", "scalars", "missing"]))
    if kind == "float64":
        return np.array(draw(st.lists(_FLOATS, min_size=rows, max_size=rows)), dtype=np.float64)
    if kind == "int64":
        cells = st.integers(-2 ** 63, 2 ** 63 - 1)
        return np.array(draw(st.lists(cells, min_size=rows, max_size=rows)), dtype=np.int64)
    if kind == "bool":
        return draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    if kind == "scalars":
        return draw(st.lists(_NUMPY_SCALARS, min_size=rows, max_size=rows))
    # a list whose None cells land in some blocks and not in others
    cells = draw(st.lists(_FLOATS | st.integers(), min_size=rows, max_size=rows))
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows)):
        cells[i] = None
    return cells


# the fixtures are safe to share across examples: every example patches the same
# _BLOCK_ROWS and overwrites the same file
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_written_bytes_are_the_cell_join_of_each_row(tmp_path, monkeypatch, data):
    # blocks of 3 rows: a table of up to 20 rows crosses up to 6 block edges
    monkeypatch.setattr(tables, "_BLOCK_ROWS", 3)
    rows = data.draw(st.integers(0, 20), label="rows")
    n_columns = data.draw(st.integers(1, 5), label="columns")
    table = Table({f"c{j}": data.draw(_column(rows), label=f"c{j}") for j in range(n_columns)})
    path = tmp_path / "property.csv"
    write_csv(table, path)
    expected = ",".join(table.columns) + "\n" + "".join(
        ",".join(map(_cell, row)) + "\n" for row in table.rows)
    assert path.read_bytes() == expected.encode()
    # the %-spelling of the rule is format(v, ".17g")
    for row in table.rows:
        for value in row:
            if value is not None:
                assert _cell(value) == format(value, ".17g")


class _CountingFile:
    """A text file that counts the writes made to it; ``writelines`` counts each line."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, text):
        self.writes += 1
        return self.fh.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def test_one_write_per_block_plus_the_header(tmp_path, monkeypatch):
    # a per-row or per-cell write path would make 23 or more writes here, not 6
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(_CountingFile(open(*args, **kwargs)))
        return opened[-1]

    monkeypatch.setattr(tables, "_BLOCK_ROWS", 5)
    monkeypatch.setattr(tables, "open", counting_open, raising=False)
    n = 23
    columns = {"t": np.linspace(0.0, 1.0, n), "N": list(range(n)),
               "P": [None if i % 7 == 0 else i / 3.0 for i in range(n)]}
    path = tmp_path / "writes.csv"
    write_csv(Table(columns), path)
    assert len(opened) == 1 and opened[0].fh.closed
    assert opened[0].writes <= math.ceil(n / 5) + 1
    expected = "t,N,P\n" + "".join(
        ",".join(_cell(cells[i]) for cells in columns.values()) + "\n" for i in range(n))
    assert path.read_bytes() == expected.encode()


def test_array_and_list_columns_write_the_same_bytes(tmp_path):
    # a numeric array column is not scanned for None; an object array and a list
    # column are, whether or not they hold one
    n = 11
    values = [i / 7.0 for i in range(n)]
    holed = [None if i % 4 == 1 else v for i, v in enumerate(values)]
    expected = "x\n" + "".join(_cell(v) + "\n" for v in values)
    expected_holed = "x\n" + "".join(_cell(v) + "\n" for v in holed)
    for cells, text in [(np.array(values), expected), (values, expected),
                        (np.array(values, dtype=object), expected),
                        (holed, expected_holed), (np.array(holed, dtype=object), expected_holed)]:
        path = tmp_path / "column.csv"
        write_csv(Table({"x": cells}), path)
        assert path.read_bytes() == text.encode()
