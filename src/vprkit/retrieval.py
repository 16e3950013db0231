"""Exact k-nearest-neighbor retrieval over descriptor splits.

Search is brute force (top-k selection over all database rows), so results
match a full sort of the true Euclidean distances. Ties are broken by
ascending database insertion index, which makes every shortlist
deterministic and reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dataset import Split
from .errors import ValidationError


@dataclass(frozen=True)
class ShortlistEntry:
    db_id: str
    distance: float


@dataclass
class Shortlist:
    """Ranked top-k candidates for one query, nearest first."""

    query_id: str
    entries: list[ShortlistEntry]

    def __len__(self) -> int:
        return len(self.entries)

    def ids(self) -> list[str]:
        return [e.db_id for e in self.entries]

    def distances(self) -> list[float]:
        return [e.distance for e in self.entries]


class Index:
    """Immutable brute-force index over a database split."""

    def __init__(self, split: Split):
        if len(split) == 0:
            raise ValidationError("cannot build an index over an empty database")
        self.split = split
        self.ids = [r.id for r in split.records]
        self.dim = split.blob.dim
        # float64 working copy: distances accumulate in double precision
        self._vectors = np.ascontiguousarray(split.blob.rows, dtype=np.float64)
        self._vectors.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)


def build_index(split: Split) -> Index:
    return Index(split)


def _top_k_order(sq_dists: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest distances, distance-then-index ascending."""
    n = sq_dists.shape[0]
    if k >= n:
        return np.lexsort((np.arange(n), sq_dists))
    part = np.argpartition(sq_dists, k - 1)[:k]
    bound = sq_dists[part].max()
    cand = np.flatnonzero(sq_dists <= bound)  # pull in every boundary tie
    order = cand[np.lexsort((cand, sq_dists[cand]))]
    return order[:k]


def _shortlist(index: Index, sq_dists: np.ndarray, k: int, query_id: str) -> Shortlist:
    """The top-k shortlist of one query from its squared distances to every row."""
    order = _top_k_order(sq_dists, min(k, len(index)))
    dists = np.sqrt(sq_dists[order])
    entries = [ShortlistEntry(index.ids[i], float(d)) for i, d in zip(order, dists)]
    return Shortlist(query_id=query_id, entries=entries)


def search(index: Index, query_descriptor: np.ndarray, k: int, query_id: str = "") -> Shortlist:
    """Exact top-k search; returns min(k, db size) entries."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    q = np.ascontiguousarray(query_descriptor, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != index.dim:
        raise ValidationError(
            f"query dimension mismatch: query shape {q.shape}, index dim {index.dim}"
        )
    return _shortlist(index, _kernels.sq_dists(index._vectors, q), k, query_id)


def search_all(index: Index, queries: Split, k: int) -> list[Shortlist]:
    """Shortlists for every record of a query split, in split order."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if queries.blob.dim != index.dim:
        raise ValidationError(
            f"query dimension mismatch: queries have {queries.blob.dim} dims, "
            f"index has {index.dim}"
        )
    qmat = np.ascontiguousarray(queries.blob.rows, dtype=np.float64)
    d2 = _kernels.sq_dists_batch(index._vectors, qmat)
    return [_shortlist(index, row, k, rec.id) for row, rec in zip(d2, queries.records)]


def write_shortlists_csv(shortlists: list[Shortlist], path) -> None:
    """CSV export: query_id,rank,db_id,distance with 1-based ranks."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "rank", "db_id", "distance"])
        for sl in shortlists:
            for rank, entry in enumerate(sl.entries, start=1):
                writer.writerow([sl.query_id, rank, entry.db_id, repr(entry.distance)])


def read_shortlists_csv(path) -> list[Shortlist]:
    """Read shortlists written by write_shortlists_csv, preserving order."""
    order: list[str] = []
    grouped: dict[str, list[tuple[int, ShortlistEntry]]] = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["query_id", "rank", "db_id", "distance"]:
            raise ValidationError(f"{path}: unexpected shortlist CSV header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ValidationError(f"{path}: line {lineno}: expected 4 fields")
            qid, rank_s, db_id, dist_s = row
            try:
                rank = int(rank_s)
                dist = float(dist_s)
            except ValueError:
                raise ValidationError(f"{path}: line {lineno}: bad rank or distance") from None
            if rank < 1 or dist < 0:
                raise ValidationError(f"{path}: line {lineno}: rank/distance out of range")
            if qid not in grouped:
                grouped[qid] = []
                order.append(qid)
            grouped[qid].append((rank, ShortlistEntry(db_id, dist)))
    shortlists = []
    for qid in order:
        ranked = sorted(grouped[qid], key=lambda t: t[0])
        if [r for r, _ in ranked] != list(range(1, len(ranked) + 1)):
            raise ValidationError(f"{path}: ranks for query {qid!r} are not 1..n")
        shortlists.append(Shortlist(query_id=qid, entries=[e for _, e in ranked]))
    return shortlists
