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
from .errors import ValidationError, _check_int, _check_real
from .matching import InlierTable, write_inlier_table
from .retrieval import build_index, search_all

BASE_LAT = 45.0
BASE_LON = 7.0
GRID_SPACING_M = 200.0  # distractors stay far beyond any tau in play
QUERY_OFFSET_MAX_M = 4.0
M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0

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
            raise ValidationError(
                f"infeasible config: n_db ({self.n_db}) < n_queries ({self.n_queries})"
            )
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
    cols = max(1, int(math.ceil(math.sqrt(n))))
    idx = np.arange(n)
    row = idx // cols
    col = idx % cols
    lat = BASE_LAT + row * (GRID_SPACING_M / M_PER_DEG_LAT)
    lon = BASE_LON + col * (GRID_SPACING_M / (M_PER_DEG_LAT * math.cos(math.radians(BASE_LAT))))
    return lat, lon


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


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
    rng = np.random.default_rng(config.seed)

    true_lat, true_lon = _grid_coords(config.n_db)
    # label noise perturbs only the db records' stored coordinates; query
    # placement uses the clean geometry so noise actually corrupts labels
    db_lat, db_lon = true_lat, true_lon
    if gps_noise_m > 0:
        db_lat = true_lat + rng.normal(0.0, gps_noise_m, config.n_db) / M_PER_DEG_LAT
        db_lon = true_lon + rng.normal(0.0, gps_noise_m, config.n_db) / (
            M_PER_DEG_LAT * math.cos(math.radians(BASE_LAT)))
    db_ids = [f"db_{i:05d}" for i in range(config.n_db)]
    db_records = [
        GeoRecord(id=db_ids[i], lat=float(db_lat[i]), lon=float(db_lon[i]))
        for i in range(config.n_db)
    ]
    db_desc = _unit_rows(rng.standard_normal((config.n_db, config.dim)))

    # each query sits a few meters from db record i; everything else is >= 196 m away
    truth_idx = np.arange(config.n_queries)
    angles = rng.uniform(0.0, 2.0 * math.pi, config.n_queries)
    radii = rng.uniform(1.0, QUERY_OFFSET_MAX_M, config.n_queries)
    q_lat = true_lat[truth_idx] + radii * np.sin(angles) / M_PER_DEG_LAT
    q_lon = true_lon[truth_idx] + radii * np.cos(angles) / (
        M_PER_DEG_LAT * math.cos(math.radians(BASE_LAT)))
    query_ids = [f"q_{i:05d}" for i in range(config.n_queries)]
    query_records = [
        GeoRecord(id=query_ids[i], lat=float(q_lat[i]), lon=float(q_lon[i]))
        for i in range(config.n_queries)
    ]

    n_hit = int(round(config.target_retrieval_r1 * config.n_queries))
    order = rng.permutation(config.n_queries)
    intended_hit = np.zeros(config.n_queries, dtype=bool)
    intended_hit[order[:n_hit]] = True

    noise = _unit_rows(rng.standard_normal((config.n_queries, config.dim)))
    q_desc = np.empty((config.n_queries, config.dim), dtype=np.float64)
    for i in range(config.n_queries):
        true_vec = db_desc[truth_idx[i]]
        if intended_hit[i]:
            q_desc[i] = 0.95 * true_vec + 0.31 * noise[i]
        else:
            j = int(rng.integers(0, config.n_db))
            while j == truth_idx[i]:
                j = int(rng.integers(0, config.n_db))
            # distractor dominates, true match stays near the top of the list
            q_desc[i] = 0.80 * db_desc[j] + 0.55 * true_vec + 0.24 * noise[i]
    q_desc = _unit_rows(q_desc)

    db_split = Split(records=db_records, blob=_frozen_blob(db_desc.astype(np.float32)))
    query_split = Split(records=query_records, blob=_frozen_blob(q_desc.astype(np.float32)))

    shortlists = search_all(build_index(db_split), query_split, k)

    truth = {query_ids[i]: db_ids[truth_idx[i]] for i in range(config.n_queries)}
    rows: dict[str, dict[str, int]] = {}
    wrong_span = 1 + int(round(20.0 * min(config.inlier_noise_scale, 2.0)))
    for sl in shortlists:
        matcher_right = rng.uniform() < config.matcher_quality
        true_id = truth[sl.query_id]
        low = rng.integers(0, wrong_span, size=len(sl.db_ids))
        row = rows[sl.query_id] = dict(zip(sl.db_ids, low.tolist()))
        if true_id in row:
            if matcher_right:
                row[true_id] = HIGH_COUNT_BASE + int(rng.integers(0, 50))
            else:
                boosted = next((c for c in sl.db_ids if c != true_id), None)
                if boosted is not None:
                    row[boosted] = HIGH_COUNT_BASE + int(rng.integers(0, 50))
    return SynthInstance(db=db_split, queries=query_split,
                         inliers=InlierTable(rows=rows), truth=truth)


def _frozen_blob(rows32: np.ndarray) -> DescriptorBlob:
    rows32 = np.ascontiguousarray(rows32, dtype=np.float32)
    rows32.flags.writeable = False
    return DescriptorBlob(rows=rows32)


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
