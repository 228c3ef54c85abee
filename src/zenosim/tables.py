"""Named-column result tables and their CSV serialisation.

A ``Table`` maps each column name to its cells: a 1-D numpy array, or a list
whose missing cells (e.g. the Monte Carlo columns of an analytic-only sweep)
are None.  ``write_csv`` writes the rows a fixed block at a time, slicing
every column and turning array slices into Python numbers, so no full set of
row tuples is ever built.  ``_cell`` writes a number with 17 significant
digits, so a float round-trips bit-exactly, and a missing value as an empty
cell; the run summaries format their numbers through it too.  Line endings are
LF, the decimal separator is '.', the header row is mandatory, and no cell
ever needs quoting.
"""

from dataclasses import dataclass

_BLOCK_ROWS = 4096      # a block of a 7-column table is about 1 MB of Python numbers


def _values(cells) -> list:
    """Cells as Python values: a numpy array through ``tolist``, a list as is."""
    return cells.tolist() if hasattr(cells, "tolist") else cells


@dataclass(frozen=True, eq=False)
class Table:
    columns: dict       # name -> 1-D numpy array or list, every one the same length

    def __post_init__(self):
        rows = len(self)
        for name, cells in self.columns.items():
            if len(cells) != rows:
                raise ValueError(f"column {name!r} has {len(cells)} rows, not the {rows} "
                                 f"of column {next(iter(self.columns))!r}")

    # dunders, not public methods: bench/tracing.py wraps every public method,
    # which would put a traced span around each lookup
    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, name: str):
        return self.columns[name]

    @property
    def rows(self) -> list[tuple]:
        """The row tuples, built on each access (bench/tracing.py counts them)."""
        return list(zip(*map(_values, self.columns.values())))


# private because it runs once per cell: bench/tracing.py wraps every public
# function, which would put a traced span around each cell
def _cell(value) -> str:
    """The text of one number: empty for None, else 17 significant digits."""
    return "" if value is None else format(value, ".17g")


def write_csv(table: Table, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(table.columns) + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = [_values(cells[start:start + _BLOCK_ROWS])
                     for cells in table.columns.values()]
            fh.writelines(",".join(map(_cell, row)) + "\n" for row in zip(*block))
