import math
import re
import tracemalloc

import numpy as np
import pytest

from vprkit.dataset import (
    BLOCK_VALUES,
    NORM_TOLERANCE,
    DistanceThreshold,
    haversine_many,
    load_split,
    read_blob,
    write_blob,
)
from vprkit.errors import ValidationError

from conftest import write_blob_file, write_manifest_file

ONE_DEGREE_EQUATOR_M = math.pi * 6_371_000.0 / 180.0


def _oracle_haversine(lat1, lon1, lat2, lon2):
    """Independent implementation: atan2 form of the haversine formula."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2.0 * 6_371_000.0 * math.atan2(math.sqrt(a), math.sqrt(1.0 - a))


class TestLoadSplit:
    def test_counts_agree(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        blob = tmp_path / "d.vprd"
        write_manifest_file(manifest, [("a", 1.0, 2.0), ("b", 3.0, 4.0), ("c", 5.0, 6.0)])
        write_blob_file(blob, np.eye(4, dtype=np.float32)[:3])
        split = load_split(manifest, blob)
        assert len(split) == 3
        assert split.blob.dim == 4
        assert not split.blob.renormalized

    def test_renormalizes_off_norm_rows(self, tmp_path):
        blob = tmp_path / "d.vprd"
        write_blob_file(blob, [[2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        loaded = read_blob(blob)
        assert loaded.renormalized
        np.testing.assert_array_equal(loaded.rows[0], [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(loaded.rows[1], [0.0, 1.0, 0.0, 0.0])

    def test_row_count_mismatch_in_blob(self, tmp_path):
        blob = tmp_path / "d.vprd"
        write_blob_file(blob, np.eye(4, dtype=np.float32)[:2], count=3)
        with pytest.raises(ValidationError, match="row count mismatch"):
            read_blob(blob)

    def test_manifest_blob_count_mismatch(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        blob = tmp_path / "d.vprd"
        write_manifest_file(manifest, [("a", 0.0, 0.0), ("b", 0.0, 0.0), ("c", 0.0, 0.0)])
        write_blob_file(blob, np.eye(4, dtype=np.float32)[:2])
        with pytest.raises(ValidationError, match="mismatch"):
            load_split(manifest, blob)

    def test_malformed_line_reports_number(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        write_manifest_file(manifest, [("a", 0.0, 0.0), "{not json", ("c", 0.0, 0.0)])
        with pytest.raises(ValidationError, match="line 2"):
            load_split(manifest, tmp_path / "unused.vprd")

    def test_missing_field_reports_number(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        write_manifest_file(manifest, [("a", 0.0, 0.0), {"id": "b", "lat": 1.0}])
        with pytest.raises(ValidationError, match="line 2"):
            load_split(manifest, tmp_path / "unused.vprd")

    def test_bad_magic(self, tmp_path):
        blob = tmp_path / "d.vprd"
        blob.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(ValidationError, match="magic"):
            read_blob(blob)

    def test_non_finite_floats(self, tmp_path):
        blob = tmp_path / "d.vprd"
        write_blob_file(blob, [[1.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValidationError, match="non-finite"):
            read_blob(blob)

    def test_duplicate_id(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        write_manifest_file(manifest, [("a", 0.0, 0.0), ("a", 1.0, 1.0)])
        with pytest.raises(ValidationError, match="duplicate id"):
            load_split(manifest, tmp_path / "unused.vprd")

    def test_coordinates_out_of_bounds(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        write_manifest_file(manifest, [("a", 91.0, 0.0)])
        with pytest.raises(ValidationError, match="lat"):
            load_split(manifest, tmp_path / "unused.vprd")

    def test_blob_round_trip_bit_exact(self, tmp_path, rng):
        rows = rng.standard_normal((7, 5)).astype(np.float32)
        rows /= np.linalg.norm(rows.astype(np.float64), axis=1, keepdims=True).astype(np.float32)
        path = tmp_path / "d.vprd"
        write_blob(rows, path)
        loaded = read_blob(path)
        np.testing.assert_array_equal(loaded.rows, rows)

    def test_loaded_blob_is_immutable(self, tmp_path):
        blob = tmp_path / "d.vprd"
        write_blob_file(blob, [[1.0, 0.0]])
        loaded = read_blob(blob)
        with pytest.raises(ValueError):
            loaded.rows[0, 0] = 2.0


def whole_matrix_renormalize(rows):
    """The ingest formula on the whole matrix at once: float64 row norms, and
    rows off unit norm by more than NORM_TOLERANCE divided by theirs."""
    rows = np.array(rows, dtype=np.float32)
    norms = np.linalg.norm(rows.astype(np.float64), axis=1)
    off = np.abs(norms - 1.0) > NORM_TOLERANCE
    rows[off] = (rows[off].astype(np.float64) / norms[off, None]).astype(np.float32)
    return rows, int(off.sum())


class TestBlockedIngest:
    """read_blob checks and re-normalizes BLOCK_VALUES floats at a time."""

    def test_peak_memory_is_the_rows_plus_a_block(self, tmp_path, rng):
        rows = rng.standard_normal((20_000, 128)).astype(np.float32)
        path = tmp_path / "d.vprd"
        write_blob(rows, path)  # no row is unit norm, so every row is re-normalized
        tracemalloc.start()
        try:
            loaded = read_blob(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + 1e6
        assert loaded.renormalized == 20_000

    @pytest.mark.parametrize("dim", [1, 3, 128])
    def test_off_norm_rows_across_block_edges_match_the_whole_matrix(self, tmp_path, rng, dim):
        step = BLOCK_VALUES // dim
        rows = rng.standard_normal((3 * step + 5, dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        off = [0, step - 1, step, step + 1, 2 * step - 1, 2 * step, 3 * step + 4]
        off += list(rng.choice(len(rows), size=20, replace=False))
        rows[off] *= rng.uniform(0.5, 3.0, size=(len(off), 1))
        path = tmp_path / "d.vprd"
        write_blob(rows, path)
        want, count = whole_matrix_renormalize(rows)
        loaded = read_blob(path)
        assert loaded.rows.tobytes() == want.tobytes()
        assert loaded.renormalized == count == len(set(off))

    def test_each_error_names_its_file(self, tmp_path):
        path = tmp_path / "d.vprd"

        def fails(message):
            return pytest.raises(ValidationError, match=re.escape(f"{path}: {message}"))

        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with fails("bad magic (expected b'VPRD')"):
            read_blob(path)
        write_blob_file(path, np.zeros((2, 0)), dim=0)
        with fails("descriptor dim must be positive"):
            read_blob(path)
        for count in (4, 2):  # a short, then a long payload of three 4-d rows
            write_blob_file(path, np.eye(4)[:3], count=count)
            with fails(f"row count mismatch: header declares {count}x4 ({count * 16} bytes) "
                       "but payload has 48 bytes"):
                read_blob(path)
        rows = np.tile(np.eye(4, dtype=np.float32)[:1], (3 * BLOCK_VALUES // 4, 1))
        rows[-1, 2] = np.inf  # in the last block
        write_blob_file(path, rows)
        with fails("blob contains non-finite floats"):
            read_blob(path)
        rows[-1] = 0.0
        write_blob_file(path, rows)
        with fails("zero-norm descriptor row cannot be normalized"):
            read_blob(path)


class TestGeoDistance:
    def test_identity_is_zero(self):
        assert haversine_many(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_one_degree_on_equator(self):
        d = haversine_many(0.0, 0.0, 0.0, 1.0)
        assert d == pytest.approx(111194.93, abs=0.01)
        assert d == pytest.approx(ONE_DEGREE_EQUATOR_M, rel=1e-12)

    def test_matches_independent_oracle(self):
        d = haversine_many(10.5, 20.25, 10.5004, 20.2504)
        assert d == pytest.approx(_oracle_haversine(10.5, 20.25, 10.5004, 20.2504), rel=1e-6)

    def test_symmetry_over_random_pairs(self, rng):
        lats = rng.uniform(-90, 90, (1000, 2))
        lons = rng.uniform(-180, 180, (1000, 2))
        ab = haversine_many(lats[:, 0], lons[:, 0], lats[:, 1], lons[:, 1])
        ba = haversine_many(lats[:, 1], lons[:, 1], lats[:, 0], lons[:, 0])
        np.testing.assert_array_equal(ab, ba)

    def test_triangle_inequality(self, rng):
        lats = rng.uniform(-90, 90, (1000, 3))
        lons = rng.uniform(-180, 180, (1000, 3))
        d_ac = haversine_many(lats[:, 0], lons[:, 0], lats[:, 2], lons[:, 2])
        d_ab = haversine_many(lats[:, 0], lons[:, 0], lats[:, 1], lons[:, 1])
        d_bc = haversine_many(lats[:, 1], lons[:, 1], lats[:, 2], lons[:, 2])
        assert np.all(d_ac <= d_ab + d_bc + 1e-6 * np.maximum(d_ac, 1.0))

    def test_random_pairs_match_oracle(self, rng):
        lats = rng.uniform(-90, 90, (200, 2))
        lons = rng.uniform(-180, 180, (200, 2))
        got = haversine_many(lats[:, 0], lons[:, 0], lats[:, 1], lons[:, 1])
        for d, (la1, la2), (lo1, lo2) in zip(got, lats, lons):
            want = _oracle_haversine(la1, lo1, la2, lo2)
            assert d == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_many_broadcasts_a_scalar_query(self, rng):
        near_lat = 48.5 + rng.normal(size=500) * 1e-4
        near_lon = 2.25 + rng.normal(size=500) * 1e-4
        full = haversine_many(np.full(500, 48.5), np.full(500, 2.25), near_lat, near_lon)
        assert haversine_many(48.5, 2.25, near_lat, near_lon).tobytes() == full.tobytes()


class TestDistanceThreshold:
    def test_tau_must_be_positive(self):
        with pytest.raises(ValidationError):
            DistanceThreshold(0.0)
        with pytest.raises(ValidationError):
            DistanceThreshold(-5.0)
