"""Named-column result tables and their CSV serialisation.

A ``Table`` maps each column name to its cells: a 1-D numpy array, or a list
whose missing cells (e.g. the Monte Carlo columns of an analytic-only sweep)
are None.  ``write_csv`` writes the rows a fixed block at a time, slicing
every column and turning array slices into Python numbers, so no full set of
row tuples is ever built; each block is formatted by one ``%`` operation from
a per-block row template and written by one ``write``.  A number fills a
17-significant-digit ``_NUMBER`` slot, so a float round-trips bit-exactly; a
list or object-array column's slice that holds None goes through ``_cell``
(empty for None) into a ``%s`` slot; a numeric array column cannot hold None
and is not scanned for it.  The run summaries format their numbers through
``_cell`` too.  Line endings are LF, the decimal separator is '.', the header
row is mandatory, and no cell ever needs quoting.
"""

from dataclasses import dataclass
from itertools import chain

_BLOCK_ROWS = 4096      # a block of a 7-column table is about 1 MB of Python numbers
_NUMBER = "%.17g"       # the text of a number: '%.17g' % v == format(v, '.17g')


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
    return "" if value is None else _NUMBER % value


def write_csv(table: Table, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(table.columns) + "\n")
        # only a list or an object array can hold None: a numeric array is never scanned
        scan = [getattr(cells, "dtype", object) == object for cells in table.columns.values()]
        for start in range(0, len(table), _BLOCK_ROWS):
            block = [_values(cells[start:start + _BLOCK_ROWS])
                     for cells in table.columns.values()]
            missing = [scanned and None in cells for scanned, cells in zip(scan, block)]
            template = ",".join("%s" if m else _NUMBER for m in missing) + "\n"
            block = [list(map(_cell, c)) if m else c for c, m in zip(block, missing)]
            fh.write((template * len(block[0])) % tuple(chain.from_iterable(zip(*block))))
