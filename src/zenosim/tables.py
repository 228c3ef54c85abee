"""Column-labelled result tables and their CSV serialisation.

Every cell is a number or missing.  ``_cell`` writes a number with 17
significant digits, so a float round-trips bit-exactly, and a missing value
(e.g. the Monte Carlo columns of an analytic-only sweep) as an empty cell;
the run summaries format their numbers through it too.  Line endings are LF,
the decimal separator is '.', the header row is mandatory, and no cell ever
needs quoting.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: list = field(default_factory=list)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"row {row!r} does not match columns {self.columns}")

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


# private because it runs once per cell: bench/tracing.py wraps every public
# function, which would put a traced span around each cell
def _cell(value) -> str:
    """The text of one number: empty for None, else 17 significant digits."""
    return "" if value is None else format(value, ".17g")


def write_csv(table: Table, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(table.columns) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in table.rows)


def read_csv(path) -> Table:
    """Parse a CSV written by ``write_csv``: numbers become floats, empty cells None."""
    with open(path, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    rows = [tuple(None if c == "" else float(c) for c in line.split(",")) for line in lines]
    return Table(tuple(header.split(",")), rows)
