"""Exact k-nearest-neighbor retrieval over descriptor splits.

Results equal a full sort of the sequential float64 squared distances, with
ties broken by ascending database insertion index, so every shortlist is
deterministic. Queries go through ``_kernels.top_k`` BLOCK_ROWS at a time: a
float32 GEMM screen over the split's own float32 rows, then an exact float64
re-score of every row within 2E of the k-th screened distance, where
E ≈ (d + 4)·2⁻²⁴·(max‖x‖ + ‖q‖)² is the forward error bound ``top_k`` derives
(Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1). Peak memory
grows with the block, not with the number of queries.

A shortlist is stored as columns, nearest first: a list of str ids and one
float64 ``array('d')`` of distances, which keeps ``rerank``, ``uncertainty``
and ``gate`` numpy-free; ``ids()`` and ``distances()`` still return lists.
Every shortlist holds at least one candidate.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:
    import numpy as np
    from .dataset import Split

BLOCK_ROWS = 32  # query rows screened per GEMM


@dataclass(slots=True)
class Shortlist:
    """Ranked top-k candidates for one query, nearest first, as columns."""

    query_id: str
    db_ids: list[str]
    dists: array

    def __post_init__(self):
        if getattr(self.dists, "typecode", None) != "d":
            self.dists = array("d", self.dists)
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
        import numpy as np
        if len(split) == 0:
            raise ValidationError("cannot build an index over an empty database")
        self.ids = [r.id for r in split.records]
        self.dim = split.blob.dim
        # the split's own float32 rows; einsum casts them in small buffers
        self._vectors = np.ascontiguousarray(split.blob.rows, dtype=np.float32)
        self._sq_norms = np.einsum("ij,ij->i", self._vectors, self._vectors, dtype=np.float64)

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
    import numpy as np
    from . import _kernels
    shortlists = []
    # one screen buffer for every block, so that blocks do not churn the heap
    screen = np.empty((min(BLOCK_ROWS, len(query_ids)), len(index)), dtype=np.float32)
    for lo in range(0, len(query_ids), BLOCK_ROWS):
        block = np.asarray(queries[lo:lo + BLOCK_ROWS], dtype=np.float64)
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            bad = query_ids[lo + int(np.argmin(finite))]
            raise ValidationError(f"query {bad!r}: descriptor has non-finite values")
        rows, sq = _kernels.top_k(index._vectors, index._sq_norms, block, k, screen)
        for query_id, top, dists in zip(query_ids[lo:lo + BLOCK_ROWS], rows.tolist(), np.sqrt(sq)):
            shortlists.append(Shortlist(query_id, [index.ids[i] for i in top],
                                        array("d", dists.tobytes())))
    return shortlists


def search(index: Index, query_descriptor: np.ndarray, k: int, query_id: str = "") -> Shortlist:
    """Exact top-k search; returns min(k, db size) candidates."""
    import numpy as np
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
    """Read shortlists written by write_shortlists_csv, in first-appearance order;
    a query's rows may come in any order, but its ranks must be exactly 1..n."""
    columns: dict[str, tuple[list[int], list[str], array]] = {}
    db_names: dict[str, str] = {}  # one string object per distinct db id
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
            cols = columns.get(qid)
            if cols is None:
                cols = columns[qid] = ([], [], array("d"))
            cols[0].append(rank)
            cols[1].append(db_names.setdefault(db_id, db_id))
            cols[2].append(dist)
    shortlists = []
    for qid, (ranks, db_ids, dists) in columns.items():
        if ranks != list(range(1, len(ranks) + 1)):
            order = sorted(range(len(ranks)), key=ranks.__getitem__)
            ranks, db_ids, dists = ([col[i] for i in order] for col in (ranks, db_ids, dists))
            if ranks != list(range(1, len(ranks) + 1)):
                raise ValidationError(f"{path}: ranks for query {qid!r} are not 1..n")
        shortlists.append(Shortlist(qid, db_ids, dists))
    return shortlists
