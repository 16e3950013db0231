"""Geotagged splits: manifest/descriptor-blob ingestion and geographic math.

A split is a JSONL manifest (one ``{"id", "lat", "lon"}`` object per line)
plus a binary descriptor blob. Record order in the manifest defines each
record's row in the blob. Geographic distance is great-circle (haversine) on
a sphere of radius 6,371,000 m; a candidate is a correct localization when
its distance to the query is at most the configured threshold (inclusive),
the one rule that ``DistanceThreshold.within`` states.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable

import numpy as np

from .errors import ValidationError, _check_real

BLOB_MAGIC = b"VPRD"
NORM_TOLERANCE = 1e-4
BLOCK_VALUES = 1 << 14  # floats per ingest check block: 128 KiB as float64
EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True, slots=True)
class GeoRecord:
    """One image identity: unique id, WGS84 position; its list position is its blob row."""

    id: str
    lat: float
    lon: float

    def __post_init__(self):
        if not (-90.0 <= self.lat <= 90.0):
            raise ValidationError(f"record {self.id!r}: lat {self.lat} outside [-90, 90]")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValidationError(f"record {self.id!r}: lon {self.lon} outside [-180, 180]")


@dataclass
class DescriptorBlob:
    """Row-major float32 descriptor matrix, unit-norm rows after ingestion."""

    rows: np.ndarray
    renormalized: int = 0  # rows re-normalized on load

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class DistanceThreshold:
    """Correctness radius in meters: a candidate localizes its query when
    the great-circle distance between them is at most tau."""

    tau: float = 25.0

    def __post_init__(self):
        _check_real(self.tau, "tau")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValidationError(f"tau must be a positive real, got {self.tau}")

    def within(self, meters: np.ndarray) -> np.ndarray:
        """Whether each great-circle distance in ``meters`` is a correct localization,
        ``meters <= tau``: a distance of exactly tau is correct."""
        return meters <= self.tau


@dataclass
class Split:
    """Immutable pairing of GeoRecords with their descriptor blob."""

    records: list[GeoRecord]
    blob: DescriptorBlob

    def __len__(self) -> int:
        return len(self.records)

    def coords(self) -> np.ndarray:
        """(n, 2) array of lat/lon in record order, built with no list of n pairs."""
        return np.fromiter(((r.lat, r.lon) for r in self.records), (float, 2), len(self.records))


def read_manifest(path) -> list[GeoRecord]:
    """Parse a JSONL manifest; line order defines each record's blob row."""
    records: list[GeoRecord] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
                raise ValidationError(f"{path}: malformed JSON on line {lineno}: {exc}") from exc
            if not isinstance(obj, dict) or not {"id", "lat", "lon"} <= obj.keys():
                raise ValidationError(f"{path}: line {lineno} missing id/lat/lon fields")
            rid, lat, lon = obj["id"], obj["lat"], obj["lon"]
            if not isinstance(rid, str) or not rid:
                raise ValidationError(f"{path}: line {lineno}: id must be a non-empty string")
            if type(lat) not in (int, float) or type(lon) not in (int, float):  # not bool
                raise ValidationError(f"{path}: line {lineno}: lat/lon not numeric")
            try:
                lat, lon = float(lat), float(lon)
            except OverflowError:  # an int too large for a float
                raise ValidationError(f"{path}: line {lineno}: lat/lon out of range") from None
            if not (math.isfinite(lat) and math.isfinite(lon)):
                raise ValidationError(f"{path}: line {lineno}: non-finite coordinates")
            if rid in seen:
                raise ValidationError(f"{path}: line {lineno}: duplicate id {rid!r}")
            seen.add(rid)
            try:
                records.append(GeoRecord(id=rid, lat=lat, lon=lon))
            except ValidationError as exc:
                raise ValidationError(f"{path}: line {lineno}: {exc}") from None
    return records


def _json(value) -> str:
    """``json.dumps(value)``; a str or a finite float goes straight to json's encoder."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return float.__repr__(value) if isinstance(value, float) else json.dumps(value)


def write_manifest(records: Iterable[GeoRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f'{{"id": {_json(r.id)}, "lat": {_json(r.lat)}, "lon": {_json(r.lon)}}}\n'
                      for r in records)


def read_blob(path) -> DescriptorBlob:
    """Read a descriptor blob: b"VPRD", u32 count, u32 dim, count*dim float32 LE,
    straight into the returned rows, checked BLOCK_VALUES floats at a time."""
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) < 12 or header[:4] != BLOB_MAGIC:
            raise ValidationError(f"{path}: bad magic (expected {BLOB_MAGIC!r})")
        count, dim = struct.unpack("<II", header[4:12])
        if dim == 0:
            raise ValidationError(f"{path}: descriptor dim must be positive")
        expected = count * dim * 4
        size = os.fstat(fh.fileno()).st_size - 12
        if size == expected:
            rows = np.empty((count, dim), dtype="<f4")
            size = fh.readinto(rows)
    if size != expected:
        raise ValidationError(
            f"{path}: row count mismatch: header declares {count}x{dim} "
            f"({expected} bytes) but payload has {size} bytes"
        )
    step = max(1, BLOCK_VALUES // dim)
    blocks = [rows[lo:lo + step] for lo in range(0, count, step)]
    if not all(np.isfinite(block).all() for block in blocks):
        raise ValidationError(f"{path}: blob contains non-finite floats")
    # np.linalg.norm reduces each row on its own, so any block size gives the
    # bits of the whole-matrix norm
    renormalized = 0
    for block in blocks:
        norms = np.linalg.norm(block.astype(np.float64), axis=1)
        off = np.abs(norms - 1.0) > NORM_TOLERANCE
        if np.any(norms[off] == 0.0):
            raise ValidationError(f"{path}: zero-norm descriptor row cannot be normalized")
        block[off] = (block[off].astype(np.float64) / norms[off, None]).astype(np.float32)
        renormalized += int(np.count_nonzero(off))
    rows.flags.writeable = False
    return DescriptorBlob(rows=rows, renormalized=renormalized)


def write_blob(rows: np.ndarray, path) -> None:
    """Write descriptors in the binary blob format (bit-exact float32 LE)."""
    rows = np.ascontiguousarray(rows, dtype="<f4")
    if rows.ndim != 2:
        raise ValidationError("descriptor matrix must be 2-D")
    with open(path, "wb") as fh:
        fh.write(BLOB_MAGIC)
        fh.write(struct.pack("<II", rows.shape[0], rows.shape[1]))
        fh.write(rows.tobytes(order="C"))


def load_split(manifest_path, blob_path) -> Split:
    """Load a manifest + blob pair and cross-validate them."""
    records = read_manifest(manifest_path)
    blob = read_blob(blob_path)
    if len(records) != len(blob):
        raise ValidationError(
            f"row count mismatch: manifest {manifest_path} has {len(records)} records "
            f"but blob {blob_path} has {len(blob)} rows"
        )
    return Split(records=records, blob=blob)


def haversine_many(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Elementwise haversine over coordinate arrays (degrees in, meters out).

    Arguments broadcast against each other, so a scalar query coordinate can
    be paired with arrays of candidate coordinates.
    """
    lat1, lon1, lat2, lon2 = (np.asarray(a, dtype=np.float64) for a in (lat1, lon1, lat2, lon2))
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = np.radians(lat2 - lat1)
    dl = np.radians(lon2 - lon1)
    a = np.sin(dp / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    # clip guards rounding just above 1.0 for near-antipodal pairs
    return EARTH_RADIUS_M * 2.0 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
