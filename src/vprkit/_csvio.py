"""The per-record CSV format that vprkit's table files share, owned here alone.

A file is UTF-8, excel dialect: a fixed header row, then rows ended by
``\\r\\n``. Writers build each group of rows as one string from ``_CsvCells``,
so a file is byte for byte what ``csv.writer`` writes. A reader raises
``_RowError`` with a bare message about a row; ``read_rows`` alone names a bad
row, by its file and the physical line it ends on (a quoted id may span lines).
This is the only module that imports ``csv``, and it loads no numpy.
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


class _RowError(Exception):
    """A reader's message about the row ``read_rows`` gave it last."""


def _of_width(reader, width: int):
    for row in reader:
        if len(row) != width:
            raise _RowError(f"expected {width} fields, got {len(row)}")
        yield row


@contextmanager
def read_rows(path, header: list[str], kind: str):
    """Open ``path`` and give its rows past a header equal to ``header``, each as wide as it.
    Another header, another width, a ``_RowError``, a parse or a UTF-8 error name ``path``."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            if found != header:
                raise ValidationError(f"{path}: unexpected {kind} CSV header {found}")
            yield _of_width(reader, len(header))
        except (_RowError, csv.Error) as exc:
            raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:  # met a chunk ahead of the rows read, so it has no line
            raise ValidationError(f"{path}: not a UTF-8 file") from None
