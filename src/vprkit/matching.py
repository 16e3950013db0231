"""Inlier counts for (query, candidate) pairs.

The matcher itself (keypoints + RANSAC) always runs outside this package.
Counts either come precomputed from a CSV table or from an external command
invoked per pair. Absent pairs are a distinct outcome (MissingPairError) and
never degrade to zero: zero inliers is itself a meaningful measurement.
``inlier_keys`` applies that rule, and it is the package's one caller of
``get_inliers``. The inlier CSV is read and written in the format that
``_csvio`` owns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ._csvio import _CsvCells, line_error, read_rows, width_error
from .errors import (
    MatcherError,
    MatcherExitError,
    MatcherOutputError,
    MatcherTimeout,
    MissingPairError,
    ValidationError,
    _check_int,
    _check_real,
)

if TYPE_CHECKING:
    import subprocess

INLIER_CSV_HEADER = ["query_id", "db_id", "inliers"]
_PLACEHOLDER = re.compile(r"\{query\}|\{db\}")


@dataclass
class InlierTable:
    """Immutable map from (query_id, db_id) to a non-negative inlier count, by query row."""

    rows: dict[str, dict[str, int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(map(len, self.rows.values()))

    @property
    def counts(self) -> dict[tuple[str, str], int]:
        """Flat (query_id, db_id) -> count copy, built on each access."""
        return {(qid, db_id): n for qid, row in self.rows.items() for db_id, n in row.items()}


def load_inlier_table(path) -> InlierTable:
    """Read an inlier CSV (query_id,db_id,inliers); duplicates are an error."""
    rows: dict[str, dict[str, int]] = {}
    db_names: dict[str, str] = {}  # one string object per distinct db id
    last_qid, query_row = None, {}
    with read_rows(path, INLIER_CSV_HEADER, "inlier") as reader:
        for row in reader:
            if len(row) != 3:
                raise width_error(path, reader, row, 3)
            qid, db_id, raw = row
            try:
                count = int(raw)
            except ValueError:
                raise line_error(path, reader, f"inlier count {raw!r} is not an integer") from None
            if count < 0:
                raise line_error(path, reader, f"negative inlier count {count}")
            if qid != last_qid:
                last_qid, query_row = qid, rows.setdefault(qid, {})
            if db_id in query_row:
                raise line_error(path, reader, f"duplicate pair ({qid}, {db_id})")
            query_row[db_names.setdefault(db_id, db_id)] = count
    return InlierTable(rows=rows)


def write_inlier_table(table: InlierTable, path) -> None:
    """Write queries in table order, each with its pairs in row order, one write per query."""
    cells = _CsvCells()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(INLIER_CSV_HEADER) + "\r\n")
        for qid, row in table.rows.items():
            q = cells[qid]
            fh.write("".join([f"{q},{cells[db_id]},{count}\r\n" for db_id, count in row.items()]))


class MatcherProvider:
    """Source of inlier counts for (query, db) pairs, asked by record id."""

    def get_inliers(self, query_id: str, db_id: str) -> int:
        raise NotImplementedError


MISSING_KEY = 1  # the sort key of a pair with no count; counts are >= 0, so it sorts last


def inlier_keys(query_id: str, db_ids: list[str], provider: MatcherProvider
                ) -> tuple[list[int], list[tuple[str, MissingPairError | MatcherError]]]:
    """Fetch each (query_id, db_id) pair once, in ``db_ids`` order.

    Returns the sort key of each pair, -count or ``MISSING_KEY`` where its
    fetch raised ``MissingPairError`` or ``MatcherError``, and the
    (db_id, error) of each failed fetch. A stable ascending sort of the keys
    is the re-ranking order. A provider's ``ValidationError`` propagates
    with the prefix ``query 'ID': ``, any other error as it was raised.
    Every count the package reads is asked for here: ``rerank``,
    ``adaptive_rerank``, ``u_inlier`` and ``evaluate_pipeline``.
    """
    keys: list[int] = []
    diagnostics: list[tuple[str, MissingPairError | MatcherError]] = []
    for db_id in db_ids:
        try:
            keys.append(-provider.get_inliers(query_id, db_id))
        except (MissingPairError, MatcherError) as exc:
            keys.append(MISSING_KEY)
            diagnostics.append((db_id, exc.with_traceback(None)))  # kept: drop its frames
        except ValidationError as exc:
            raise ValidationError(f"query {query_id!r}: {exc}") from exc
    return keys, diagnostics


class TableProvider(MatcherProvider):
    """File-backed provider: pure lookups into an InlierTable."""

    def __init__(self, table: InlierTable):
        self.table = table

    def get_inliers(self, query_id: str, db_id: str) -> int:
        try:
            return self.table.rows[query_id][db_id]
        except KeyError:
            pass
        # raised outside the handler, so an error that rerank keeps holds no KeyError
        raise MissingPairError(query_id, db_id)


class SubprocessProvider(MatcherProvider):
    """Provider that shells out to an external matcher per pair.

    Asked by record id like every provider: the command template must
    contain {query} and {db} placeholders, replaced by the pair's two ids;
    it is split into arguments once, here. An optional third ``get_inliers``
    argument, a (query, db) pair of paths, replaces the ids instead, for a
    caller that maps ids to paths itself. The process must exit 0; stdout is
    read as bytes and its last whitespace-delimited token is parsed as the
    non-negative inlier count, so wrapper scripts are free to log before it,
    in any encoding. At most ``max_concurrent`` invocations run at once.
    ``subprocess``, ``shlex``, ``shutil`` and ``threading`` are imported
    here, their only user, so start-up skips them.
    """

    def __init__(self, command_template: str, timeout: float = 60.0, max_concurrent: int = 1):
        if "{query}" not in command_template or "{db}" not in command_template:
            raise ValidationError("command template must contain {query} and {db} placeholders")
        _check_real(timeout, "timeout")
        if not 0 < timeout < float("inf"):
            raise ValidationError(f"timeout must be positive and finite, got {timeout}")
        max_concurrent = _check_int(max_concurrent, "max_concurrent", 1)
        import shlex
        import shutil
        import threading
        try:
            self._tokens = shlex.split(command_template)
        except ValueError as exc:
            raise ValidationError(f"command template {command_template!r}: {exc}") from None
        # the program is looked up on PATH once, here, not by every child; one that
        # is not found stays as written, so each call fails as it would have
        program = self._tokens[0]
        if not _PLACEHOLDER.search(program):
            self._tokens[0] = shutil.which(program) or program
        self.timeout = timeout
        self._slots = threading.BoundedSemaphore(max_concurrent)

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        # separated out so tests can observe/replace the actual invocation
        import subprocess
        return subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=self.timeout)

    def get_inliers(self, query_id: str, db_id: str,
                    image_paths: tuple[str, str] | None = None) -> int:
        import subprocess
        query_path, db_path = (query_id, db_id) if image_paths is None else image_paths
        # one pass per token, so an id or path that holds a placeholder is not substituted into
        paths = {"{query}": query_path, "{db}": db_path}
        argv = [_PLACEHOLDER.sub(lambda m: paths[m.group()], t) for t in self._tokens]
        with self._slots:
            try:
                proc = self._run(argv)
            except subprocess.TimeoutExpired:
                raise MatcherTimeout(query_id, db_id, f"timed out after {self.timeout}s") from None
            except ValueError as exc:  # an argument no process takes: a NUL, a lone surrogate
                raise MatcherError(query_id, db_id, f"cannot run: {exc}") from None
        if proc.returncode != 0:
            raise MatcherExitError(query_id, db_id, f"exit status {proc.returncode}")
        tokens = proc.stdout.split()  # bytes: a log line need not be valid UTF-8
        if not tokens:
            raise MatcherOutputError(query_id, db_id, "empty stdout")
        try:
            count = int(tokens[-1])
        except ValueError:
            token = tokens[-1].decode("utf-8", errors="replace")
            raise MatcherOutputError(
                query_id, db_id, f"last stdout token {token!r} is not an integer"
            ) from None
        if count < 0:
            raise MatcherOutputError(query_id, db_id, f"negative inlier count {count}")
        return count
