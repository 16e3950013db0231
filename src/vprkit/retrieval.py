"""Exact k-nearest-neighbor retrieval over descriptor splits.

Results equal a full sort of the sequential float64 squared distances, with
ties broken by ascending database insertion index, so every shortlist is
deterministic. Queries go through ``_kernels.top_k`` BLOCK_ROWS at a time: a
GEMM screen, then an exact re-score of every row within 2E of the k-th
screened distance, where E = 2γ_{d+2}(max‖x‖ + ‖q‖)² is a forward error bound
(Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1). Peak memory
grows with the block, not with the number of queries.

A shortlist is stored as columns: its candidate ids and their distances are
two parallel lists, nearest first, and every shortlist holds at least one
candidate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dataset import Split
from .errors import ValidationError

BLOCK_ROWS = 32  # query rows screened per GEMM


@dataclass
class Shortlist:
    """Ranked top-k candidates for one query, nearest first, as columns."""

    query_id: str
    db_ids: list[str]
    dists: list[float]

    def __post_init__(self):
        if not self.db_ids:
            raise ValidationError(f"query {self.query_id!r}: empty shortlist")
        if len(self.db_ids) != len(self.dists):
            raise ValidationError(
                f"query {self.query_id!r}: {len(self.db_ids)} ids but "
                f"{len(self.dists)} distances"
            )

    def __len__(self) -> int:
        return len(self.db_ids)

    def ids(self) -> list[str]:
        return list(self.db_ids)

    def distances(self) -> list[float]:
        return list(self.dists)


class Index:
    """Immutable brute-force index over a database split."""

    def __init__(self, split: Split):
        if len(split) == 0:
            raise ValidationError("cannot build an index over an empty database")
        self.ids = [r.id for r in split.records]
        self.dim = split.blob.dim
        # float64 working copy: distances accumulate in double precision
        self._vectors = np.ascontiguousarray(split.blob.rows, dtype=np.float64)
        self._vectors.flags.writeable = False
        self._sq_norms = np.einsum("ij,ij->i", self._vectors, self._vectors)

    def __len__(self) -> int:
        return len(self.ids)


def build_index(split: Split) -> Index:
    return Index(split)


def _check(index: Index, k: int, query_shape: tuple[int, ...]) -> None:
    """Reject k < 1 and a query shape other than (index.dim,)."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if query_shape != (index.dim,):
        raise ValidationError(f"query dimension mismatch: query shape {query_shape}, "
                              f"index dim {index.dim}")


def _search_rows(index: Index, queries: np.ndarray, query_ids: list[str],
                 k: int) -> list[Shortlist]:
    """Shortlists for the rows of ``queries``, screened BLOCK_ROWS at a time.

    A row with a NaN or an infinity is rejected, naming its query, before
    its block reaches the GEMM.
    """
    shortlists = []
    for lo in range(0, len(query_ids), BLOCK_ROWS):
        block = np.asarray(queries[lo:lo + BLOCK_ROWS], dtype=np.float64)
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            bad = query_ids[lo + int(np.argmin(finite))]
            raise ValidationError(f"query {bad!r}: descriptor has non-finite values")
        rows, sq = _kernels.top_k(index._vectors, index._sq_norms, block, k)
        for query_id, top, dists in zip(query_ids[lo:lo + BLOCK_ROWS], rows.tolist(),
                                        np.sqrt(sq).tolist()):
            shortlists.append(Shortlist(query_id, [index.ids[i] for i in top], dists))
    return shortlists


def search(index: Index, query_descriptor: np.ndarray, k: int, query_id: str = "") -> Shortlist:
    """Exact top-k search; returns min(k, db size) candidates."""
    q = np.asarray(query_descriptor, dtype=np.float64)
    _check(index, k, q.shape)
    return _search_rows(index, q[None, :], [query_id], k)[0]


def search_all(index: Index, queries: Split, k: int) -> list[Shortlist]:
    """Shortlists for every record of a query split, in split order."""
    _check(index, k, (queries.blob.dim,))
    return _search_rows(index, queries.blob.rows, [r.id for r in queries.records], k)


def write_shortlists_csv(shortlists: list[Shortlist], path) -> None:
    """CSV export: query_id,rank,db_id,distance with 1-based ranks."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "rank", "db_id", "distance"])
        for sl in shortlists:
            for rank, (db_id, dist) in enumerate(zip(sl.db_ids, sl.dists), start=1):
                writer.writerow([sl.query_id, rank, db_id, repr(dist)])


def read_shortlists_csv(path) -> list[Shortlist]:
    """Read shortlists written by write_shortlists_csv, preserving order."""
    order: list[str] = []
    grouped: dict[str, list[tuple[int, str, float]]] = {}
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
            if rank < 1 or not dist >= 0:  # NaN fails every comparison
                raise ValidationError(f"{path}: line {lineno}: rank/distance out of range")
            if qid not in grouped:
                grouped[qid] = []
                order.append(qid)
            grouped[qid].append((rank, db_id, dist))
    shortlists = []
    for qid in order:
        ranks, db_ids, dists = zip(*sorted(grouped[qid], key=lambda t: t[0]))
        if list(ranks) != list(range(1, len(ranks) + 1)):
            raise ValidationError(f"{path}: ranks for query {qid!r} are not 1..n")
        shortlists.append(Shortlist(qid, list(db_ids), list(dists)))
    return shortlists
