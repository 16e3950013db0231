"""Deterministic generators for desk-scale synthetic recognition instances.

Each instance has an unambiguous ground truth: every query lies within 5 m
of exactly one database record and every other record is hundreds of meters
away, so recall labels carry no GPS noise (an optional knob reintroduces
noisy labels on purpose). Retrieval difficulty is controlled by blending
each query's descriptor between its true match and a random distractor;
matcher behaviour is controlled by the probability that the true pair gets
the highest inlier count of its shortlist.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .dataset import EARTH_RADIUS_M, GeoRecord, DescriptorBlob, Split, write_blob, write_manifest
from .errors import ValidationError, _check_int, _check_real, _shown
from .matching import InlierTable, write_inlier_table
from .retrieval import build_index, search_all

BASE_LAT = 45.0
BASE_LON = 7.0
GRID_SPACING_M = 200.0  # distractors stay far beyond any tau in play
QUERY_OFFSET_MAX_M = 4.0
M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0
M_PER_DEG_LON = M_PER_DEG_LAT * math.cos(math.radians(BASE_LAT))

HIGH_COUNT_BASE = 50


@dataclass(frozen=True)
class SynthConfig:
    """Sizes, difficulty and seed of one synthetic instance.

    round(target_retrieval_r1 · n_queries) queries are meant to hit at rank 1
    and the rest to miss. A miss blends its query toward a distractor, a
    database row other than its true match, so any miss needs n_db ≥ 2.
    """

    n_db: int
    n_queries: int
    dim: int
    target_retrieval_r1: float = 1.0
    matcher_quality: float = 1.0
    inlier_noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # numpy's generators take no negative seed
        for name, minimum in (("n_db", None), ("n_queries", None), ("dim", 2), ("seed", 0)):
            _check_int(getattr(self, name), name, minimum)
        if self.n_db < 1 or self.n_queries < 1:
            raise ValidationError("n_db and n_queries must be positive")
        if self.n_db < self.n_queries:
            raise ValidationError(f"infeasible config: n_db ({_shown(self.n_db)}) < "
                                  f"n_queries ({_shown(self.n_queries)})")
        for name in ("target_retrieval_r1", "matcher_quality"):
            value = getattr(self, name)
            _check_real(value, name)
            if not (0.0 <= value <= 1.0):
                raise ValidationError(f"{name} must be in [0, 1], got {value}")
        _check_real(self.inlier_noise_scale, "inlier_noise_scale")
        if not self.inlier_noise_scale >= 0:  # NaN fails every comparison
            raise ValidationError(
                f"inlier_noise_scale must be non-negative, got {self.inlier_noise_scale}")
        if self.n_db < 2 and round(self.target_retrieval_r1 * self.n_queries) < self.n_queries:
            raise ValidationError(
                f"infeasible config: a query meant to miss needs a distractor row besides "
                f"its true match, so n_db must be >= 2, got {self.n_db}")


@dataclass
class SynthInstance:
    db: Split
    queries: Split
    inliers: InlierTable
    truth: dict[str, str]  # query_id -> its one true db_id


def _grid_coords(n: int) -> tuple[np.ndarray, np.ndarray]:
    row, col = np.divmod(np.arange(n), max(1, int(math.ceil(math.sqrt(n)))))
    return (BASE_LAT + row * (GRID_SPACING_M / M_PER_DEG_LAT),
            BASE_LON + col * (GRID_SPACING_M / M_PER_DEG_LON))


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def _split(ids: list[str], lat: np.ndarray, lon: np.ndarray, desc: np.ndarray) -> Split:
    """Records of ``ids`` at (lat, lon) with a read-only float32 copy of ``desc`` as blob."""
    rows32 = np.ascontiguousarray(desc, dtype=np.float32)
    rows32.flags.writeable = False
    records = [GeoRecord(id=i, lat=a, lon=o) for i, a, o in zip(ids, lat.tolist(), lon.tolist())]
    return Split(records=records, blob=DescriptorBlob(rows=rows32))


def generate(config: SynthConfig, k: int = 100, gps_noise_m: float = 0.0) -> SynthInstance:
    """Build a full synthetic instance: splits, inlier table, ground truth.

    Inlier counts are generated for each query's top-k retrieval shortlist,
    which is what the re-ranking pipeline consumes. ``gps_noise_m`` > 0
    perturbs the database coordinate labels (not the geometry of the
    instance), reproducing the noisy-GPS failure class.
    """
    _check_real(gps_noise_m, "gps_noise_m")
    if not gps_noise_m >= 0:  # a NaN would skip the noise without a word
        raise ValidationError(f"gps_noise_m must be non-negative, got {gps_noise_m}")
    if gps_noise_m == math.inf:  # it would place every db record at an infinite lat
        raise ValidationError(f"gps_noise_m must be finite, got {gps_noise_m}")
    n_db, n_q = config.n_db, config.n_queries
    rng = np.random.default_rng(config.seed)

    true_lat, true_lon = _grid_coords(n_db)
    # label noise perturbs only the db records' stored coordinates; query
    # placement uses the clean geometry so noise actually corrupts labels
    db_lat, db_lon = true_lat, true_lon
    if gps_noise_m > 0:
        db_lat = true_lat + rng.normal(0.0, gps_noise_m, n_db) / M_PER_DEG_LAT
        db_lon = true_lon + rng.normal(0.0, gps_noise_m, n_db) / M_PER_DEG_LON
    db_ids = [f"db_{i:05d}" for i in range(n_db)]
    db_desc = _unit_rows(rng.standard_normal((n_db, config.dim)))

    # each query sits a few meters from db record i; everything else is >= 196 m away
    angles = rng.uniform(0.0, 2.0 * math.pi, n_q)
    radii = rng.uniform(1.0, QUERY_OFFSET_MAX_M, n_q)
    q_lat = true_lat[:n_q] + radii * np.sin(angles) / M_PER_DEG_LAT
    q_lon = true_lon[:n_q] + radii * np.cos(angles) / M_PER_DEG_LON
    query_ids = [f"q_{i:05d}" for i in range(n_q)]

    n_hit = int(round(config.target_retrieval_r1 * n_q))
    intended_hit = np.zeros(n_q, dtype=bool)
    intended_hit[rng.permutation(n_q)[:n_hit]] = True

    noise = _unit_rows(rng.standard_normal((n_q, config.dim)))
    miss = np.flatnonzero(~intended_hit)
    distractor = np.empty(len(miss), dtype=np.intp)
    for m, i in enumerate(miss):  # any row but the query's own match, drawn in query order
        j = int(rng.integers(0, n_db))
        while j == i:
            j = int(rng.integers(0, n_db))
        distractor[m] = j
    q_desc = 0.95 * db_desc[:n_q] + 0.31 * noise
    # distractor dominates, true match stays near the top of the list
    q_desc[miss] = 0.80 * db_desc[distractor] + 0.55 * db_desc[miss] + 0.24 * noise[miss]
    q_desc = _unit_rows(q_desc)

    db_split = _split(db_ids, db_lat, db_lon, db_desc)
    query_split = _split(query_ids, q_lat, q_lon, q_desc)

    shortlists = search_all(build_index(db_split), query_split, k)

    truth = dict(zip(query_ids, db_ids))
    rows: dict[str, dict[str, int]] = {}
    wrong_span = 1 + int(round(20.0 * min(config.inlier_noise_scale, 2.0)))
    for sl in shortlists:
        matcher_right = rng.uniform() < config.matcher_quality
        true_id = truth[sl.query_id]
        low = rng.integers(0, wrong_span, size=len(sl.db_ids))
        row = rows[sl.query_id] = dict(zip(sl.db_ids, low.tolist()))
        if true_id in row:
            # the pair the matcher scores highest: the true one, or else the first other
            scored = true_id if matcher_right else next(
                (c for c in sl.db_ids if c != true_id), None)
            if scored is not None:
                row[scored] = HIGH_COUNT_BASE + int(rng.integers(0, 50))
    return SynthInstance(db=db_split, queries=query_split,
                         inliers=InlierTable(rows=rows), truth=truth)


def write_instance(instance: SynthInstance, out_dir) -> dict[str, str]:
    """Write the instance in the pipeline's on-disk formats; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "db_manifest": os.path.join(out_dir, "db.jsonl"),
        "db_blob": os.path.join(out_dir, "db.vprd"),
        "query_manifest": os.path.join(out_dir, "queries.jsonl"),
        "query_blob": os.path.join(out_dir, "queries.vprd"),
        "inliers": os.path.join(out_dir, "inliers.csv"),
    }
    write_manifest(instance.db.records, paths["db_manifest"])
    write_blob(instance.db.blob.rows, paths["db_blob"])
    write_manifest(instance.queries.records, paths["query_manifest"])
    write_blob(instance.queries.blob.rows, paths["query_blob"])
    write_inlier_table(instance.inliers, paths["inliers"])
    return paths
