import csv
import io
import json
import struct

import numpy as np
import pytest

from vprkit.dataset import GeoRecord, DescriptorBlob, Split, haversine_many
from vprkit.errors import ValidationError
from vprkit.matching import InlierTable, MatcherProvider


def write_manifest_file(path, rows):
    """rows: iterable of (id, lat, lon) or raw dict/str lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            if isinstance(row, str):
                fh.write(row + "\n")
            elif isinstance(row, dict):
                fh.write(json.dumps(row) + "\n")
            else:
                rid, lat, lon = row
                fh.write(json.dumps({"id": rid, "lat": lat, "lon": lon}) + "\n")


# ids that csv.writer must quote, or that sit at its edges, for the writers'
# byte tests; none is empty, since a manifest id may not be
AWKWARD_IDS = ["plain", "a,b", 'say "hi"', '"', "cr\rx", "lf\nx", "crlf\r\nx", " lead",
               "trail ", " ", "héllo", "日本", "x\u2028y", "tab\tx", "x'y"]


def csv_bytes(rows) -> bytes:
    """What csv.writer writes for ``rows``, as UTF-8: the writers' reference."""
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue().encode("utf-8")


def write_blob_file(path, rows, count=None, dim=None):
    rows = np.asarray(rows, dtype="<f4")
    count = rows.shape[0] if count is None else count
    dim = rows.shape[1] if dim is None else dim
    with open(path, "wb") as fh:
        fh.write(b"VPRD")
        fh.write(struct.pack("<II", count, dim))
        fh.write(rows.tobytes(order="C"))


def make_split(descriptors, coords=None, prefix="r"):
    """In-memory split from a descriptor matrix and optional (lat, lon) list."""
    descriptors = np.ascontiguousarray(descriptors, dtype=np.float32)
    n = descriptors.shape[0]
    if coords is None:
        coords = [(0.0, 0.0)] * n
    records = [
        GeoRecord(id=f"{prefix}{i}", lat=coords[i][0], lon=coords[i][1])
        for i in range(n)
    ]
    blob = DescriptorBlob(rows=descriptors)
    return Split(records=records, blob=blob)


def by_id(split):
    """{record id: GeoRecord} of a split."""
    return {r.id: r for r in split.records}


def inlier_table(counts):
    """InlierTable from a flat {(query_id, db_id): count} dict, keeping its order."""
    rows = {}
    for (qid, db_id), n in counts.items():
        rows.setdefault(qid, {})[db_id] = n
    return InlierTable(rows=rows)


class InvalidPairProvider(MatcherProvider):
    """Raises ValidationError on one pair and delegates every other."""

    def __init__(self, inner: MatcherProvider, pair: tuple[str, str]):
        self.inner = inner
        self.pair = pair

    def get_inliers(self, query_id, db_id):
        if (query_id, db_id) == self.pair:
            raise ValidationError(f"cannot match ({query_id}, {db_id})")
        return self.inner.get_inliers(query_id, db_id)


def recall_at_k(results, query_records, db_records, k, threshold):
    """Per-query reference for the batch recalls of ``evaluate_pipeline``:
    percent of queries with a candidate within ``threshold`` in their top k."""
    if len(results) == 0:
        raise ValidationError("recall is undefined over zero queries")
    hits = 0
    for query_id, ranked in results.items():
        q = query_records[query_id]
        recs = [db_records[db_id] for db_id in ranked[:k]]
        dists = haversine_many(q.lat, q.lon, [r.lat for r in recs], [r.lon for r in recs])
        if (dists <= threshold.tau).any():
            hits += 1
    return 100.0 * hits / len(results)


def sq_dists(vectors, query):
    """Sequential reference: squared L2 distance from ``query`` to every row,
    accumulated in float64 one dimension at a time."""
    vectors = np.asarray(vectors, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    acc = np.zeros(vectors.shape[0], dtype=np.float64)
    for j in range(vectors.shape[1]):
        diff = vectors[:, j] - query[j]
        acc += diff * diff
    return acc


def full_sort_top_k(vectors, query, k):
    """Reference search: the first k of a stable (distance, row) sort of the
    sequential distances, as (row indices, squared distances)."""
    d2 = sq_dists(vectors, query)
    order = np.lexsort((np.arange(len(d2)), d2))[:k]
    return order, d2[order]


def unit_rows(rng, n, dim):
    mat = rng.standard_normal((n, dim))
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
