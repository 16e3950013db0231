"""The per-record CSV format that vprkit's table files share, owned here alone.

A file is UTF-8, excel dialect: a fixed header row, then rows ended by
``\\r\\n``. Writers build each group of rows as one string from ``_CsvCells``,
so a file is byte for byte what ``csv.writer`` writes. Readers loop over the
``csv.reader`` that ``read_rows`` returns and name a bad row by the physical
line it ends on, since a quoted id may span lines. This is the only module
that imports ``csv``, and it loads no numpy.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager

from .errors import ValidationError


class _CsvCells(dict):
    """Each value's cell text exactly as ``csv.writer`` writes it amid other fields, asked of
    ``csv.writer`` once per value; a value that needs no quoting is its own text, not a copy."""

    def __missing__(self, value) -> str:
        out = io.StringIO()
        csv.writer(out).writerow((value, ""))
        text = out.getvalue()[:-3]  # drop the ",\r\n"
        return self.setdefault(value, value if text == value else text)


@contextmanager
def read_rows(path, header: list[str], kind: str):
    """Open ``path`` and give its ``csv.reader`` past a header row equal to ``header``;
    any other first row is an error naming the file as a ``kind`` CSV."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise ValidationError(f"{path}: unexpected {kind} CSV header {found}")
        yield reader


def line_error(path, reader, message: str) -> ValidationError:
    """``message`` about the row ``reader`` gave last, naming the physical line it ends on."""
    return ValidationError(f"{path}: line {reader.line_num}: {message}")


def width_error(path, reader, row: list[str], width: int) -> ValidationError:
    """The error for a row of other than ``width`` fields."""
    return line_error(path, reader, f"expected {width} fields, got {len(row)}")
