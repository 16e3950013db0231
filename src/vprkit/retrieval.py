"""Exact k-nearest-neighbor retrieval over descriptor splits.

Results equal a full sort of the sequential float64 squared distances, with
ties broken by ascending database insertion index, so every shortlist is
deterministic. Queries go through ``_kernels.top_k`` BLOCK_ROWS at a time: a
float32 GEMM screen over the split's own float32 rows, then an exact float64
re-score of every row within 2E of the k-th screened distance, where
E ≈ (d + 4)·2⁻²⁴·(max‖x‖ + ‖q‖)² is the forward error bound ``top_k`` derives
(Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1). Peak memory
grows with the block, not with the number of queries. Every search goes
through the private ``_blocks``: it checks ``k``, the query width and every
row's finiteness, then yields each block's first position, ``top_k`` row
matrix and shortlists. ``search`` takes its one block, ``search_all``
concatenates them and ``evaluate_pipeline`` holds one at a time.

A shortlist is stored as columns, nearest first: a list of str ids and one
float64 ``array('d')`` of distances, which keeps ``rerank``, ``uncertainty``
and ``gate`` numpy-free; ``ids()`` and ``distances()`` still return lists.
Every shortlist holds at least one candidate. The shortlist CSV is read and
written in the format that ``_csvio`` owns.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._csvio import _CsvCells, _RowError, read_rows
from .errors import ValidationError, _check_int

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


def _blocks(index: Index, queries: np.ndarray, query_ids: list[str], k: int):
    """Search ``queries`` BLOCK_ROWS rows at a time, yielding each block's first position,
    ``top_k`` row matrix and shortlists. A bad ``k``, a row shape other than (index.dim,)
    and then a row with a NaN or an infinity, naming its query, are rejected in that
    order before the first block is searched."""
    import numpy as np
    from . import _kernels
    k = _check_int(k, "k", 1)
    if queries.shape[1:] != (index.dim,):
        raise ValidationError(f"query dimension mismatch: query shape {queries.shape[1:]}, "
                              f"index dim {index.dim}")
    starts = range(0, len(query_ids), BLOCK_ROWS)
    for lo in starts:
        finite = np.isfinite(queries[lo:lo + BLOCK_ROWS]).all(axis=1)
        if not finite.all():
            bad = query_ids[lo + int(np.argmin(finite))]
            raise ValidationError(f"query {bad!r}: descriptor has non-finite values")
    # one screen buffer for every block, so that blocks do not churn the heap
    screen = np.empty((min(BLOCK_ROWS, len(query_ids)), len(index)), dtype=np.float32)
    for lo in starts:
        block = np.asarray(queries[lo:lo + BLOCK_ROWS], dtype=np.float64)
        rows, sq = _kernels.top_k(index._vectors, index._sq_norms, block, k, screen)
        block_ids = query_ids[lo:lo + BLOCK_ROWS]
        yield lo, rows, [Shortlist(qid, [index.ids[i] for i in top], array("d", d.tobytes()))
                         for qid, top, d in zip(block_ids, rows.tolist(), np.sqrt(sq))]


def search(index: Index, query_descriptor: np.ndarray, k: int, query_id: str = "") -> Shortlist:
    """Exact top-k search; returns min(k, db size) candidates."""
    import numpy as np
    q = np.asarray(query_descriptor, dtype=np.float64)
    _, _, (shortlist,) = next(_blocks(index, q[None], [query_id], k))
    return shortlist


def search_all(index: Index, queries: Split, k: int) -> list[Shortlist]:
    """Shortlists for every record of a query split, in split order."""
    blocks = _blocks(index, queries.blob.rows, [r.id for r in queries.records], k)
    return [sl for _, _, shortlists in blocks for sl in shortlists]


def write_shortlists_csv(shortlists: list[Shortlist], path) -> None:
    """CSV export: query_id,rank,db_id,distance with 1-based ranks, one write per query."""
    cells = _CsvCells()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("query_id,rank,db_id,distance\r\n")
        for sl in shortlists:
            q = cells[sl.query_id]
            fh.write("".join([f"{q},{rank},{cells[db_id]},{dist!r}\r\n" for rank, (db_id, dist)
                              in enumerate(zip(sl.db_ids, sl.dists), start=1)]))


def read_shortlists_csv(path) -> list[Shortlist]:
    """Read shortlists written by write_shortlists_csv, in first-appearance order;
    a query's rows may come in any order, but its ranks must be exactly 1..n."""
    columns: dict[str, tuple[list[int], list[str], array]] = {}
    db_names: dict[str, str] = {}  # one string object per distinct db id
    with read_rows(path, ["query_id", "rank", "db_id", "distance"], "shortlist") as rows:
        for qid, rank_s, db_id, dist_s in rows:
            try:
                rank = int(rank_s)
                dist = float(dist_s)
            except ValueError:
                raise _RowError("bad rank or distance") from None
            if rank < 1 or not dist >= 0:  # NaN fails every comparison
                raise _RowError("rank/distance out of range")
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
