"""Read back a CSV written by ``zenosim.tables.write_csv``, for the tests."""

from zenosim.tables import Table


def read_csv(path) -> Table:
    """Parse a ``write_csv`` file: numbers become floats, empty cells None."""
    with open(path, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    rows = [[None if c == "" else float(c) for c in line.split(",")] for line in lines]
    return Table({name: [row[i] for row in rows] for i, name in enumerate(header.split(","))})
