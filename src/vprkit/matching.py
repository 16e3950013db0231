"""Inlier counts for (query, candidate) pairs.

The matcher itself (keypoints + RANSAC) always runs outside this package.
Counts either come precomputed from a CSV table or from an external command
invoked per pair. Absent pairs are a distinct outcome (MissingPairError) and
never degrade to zero: zero inliers is itself a meaningful measurement.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import (
    MatcherExitError,
    MatcherOutputError,
    MatcherTimeout,
    MissingPairError,
    ValidationError,
    VprError,
)

if TYPE_CHECKING:
    import subprocess

INLIER_CSV_HEADER = ["query_id", "db_id", "inliers"]


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
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != INLIER_CSV_HEADER:
            raise ValidationError(f"{path}: unexpected inlier CSV header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ValidationError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
            qid, db_id, raw = row
            try:
                count = int(raw)
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno}: inlier count {raw!r} is not an integer"
                ) from None
            if count < 0:
                raise ValidationError(f"{path}: line {lineno}: negative inlier count {count}")
            if qid != last_qid:
                last_qid, query_row = qid, rows.setdefault(qid, {})
            if db_id in query_row:
                raise ValidationError(f"{path}: line {lineno}: duplicate pair ({qid}, {db_id})")
            query_row[db_names.setdefault(db_id, db_id)] = count
    return InlierTable(rows=rows)


def write_inlier_table(table: InlierTable, path) -> None:
    """Write queries in table order, each with its pairs in row order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(INLIER_CSV_HEADER)
        writer.writerows([qid, db_id, count]
                         for qid, row in table.rows.items() for db_id, count in row.items())


class MatcherProvider:
    """Source of inlier counts for (query, db) pairs, asked by record id."""

    def get_inliers(self, query_id: str, db_id: str) -> int:
        raise NotImplementedError


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


class _KnownCounts(MatcherProvider):
    """``provider``, except that the pairs in ``known`` are not fetched again.

    A known outcome is a count or the error its fetch raised, raised again.
    """

    def __init__(self, provider: MatcherProvider,
                 known: dict[tuple[str, str], int | VprError]):
        self.provider = provider
        self.known = known

    def get_inliers(self, query_id: str, db_id: str) -> int:
        count = self.known.get((query_id, db_id))
        if count is None:
            return self.provider.get_inliers(query_id, db_id)
        if isinstance(count, VprError):
            raise count
        return count


class SubprocessProvider(MatcherProvider):
    """Provider that shells out to an external matcher per pair.

    The only provider that takes image paths, as a third ``get_inliers``
    argument. The command template must contain {query} and {db}
    placeholders, replaced by the two paths; it is split into arguments
    once, here. The process must exit 0; stdout is read as bytes and its
    last whitespace-delimited token is parsed as the non-negative inlier
    count, so wrapper scripts are free to log before it, in any encoding. At
    most ``max_concurrent`` invocations run at once. ``subprocess``,
    ``shlex`` and ``threading`` are imported here, their only user, so
    start-up skips them.
    """

    def __init__(self, command_template: str, timeout: float = 60.0, max_concurrent: int = 1):
        if "{query}" not in command_template or "{db}" not in command_template:
            raise ValidationError("command template must contain {query} and {db} placeholders")
        if not timeout > 0:
            raise ValidationError(f"timeout must be positive, got {timeout}")
        if max_concurrent < 1:
            raise ValidationError(f"max_concurrent must be >= 1, got {max_concurrent}")
        import shlex
        import threading
        try:
            self._tokens = shlex.split(command_template)
        except ValueError as exc:
            raise ValidationError(f"command template {command_template!r}: {exc}") from None
        self.timeout = timeout
        self.max_concurrent = max_concurrent
        self._slots = threading.BoundedSemaphore(max_concurrent)

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        # separated out so tests can observe/replace the actual invocation
        import subprocess
        return subprocess.run(argv, capture_output=True, timeout=self.timeout)

    def get_inliers(self, query_id: str, db_id: str,
                    image_paths: tuple[str, str] | None = None) -> int:
        if image_paths is None:
            raise ValidationError(
                f"subprocess matcher needs image paths for ({query_id}, {db_id})"
            )
        import subprocess
        query_path, db_path = image_paths
        argv = [t.replace("{query}", query_path).replace("{db}", db_path) for t in self._tokens]
        with self._slots:
            try:
                proc = self._run(argv)
            except subprocess.TimeoutExpired:
                raise MatcherTimeout(query_id, db_id, f"timed out after {self.timeout}s") from None
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
