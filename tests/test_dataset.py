import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from vprkit.dataset import (
    BLOCK_VALUES,
    NORM_TOLERANCE,
    DistanceThreshold,
    GeoRecord,
    haversine_many,
    load_split,
    read_blob,
    read_manifest,
    write_blob,
    write_manifest,
)
from vprkit.errors import ValidationError

from conftest import AWKWARD_IDS, write_blob_file, write_manifest_file

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

    def test_a_line_nested_past_the_recursion_limit_is_malformed_json(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        write_manifest_file(manifest, [("a", 0.0, 0.0), "[" * 100000])
        with pytest.raises(ValidationError,
                           match=re.escape(f"{manifest}: malformed JSON on line 2: ")):
            read_manifest(manifest)

    @pytest.mark.parametrize("lineno", [1, 2000], ids=["first-line", "past-the-first-chunk"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, lineno):
        manifest = tmp_path / "m.jsonl"
        lines = [json.dumps({"id": f"r{i}", "lat": 0.0, "lon": 0.0}).encode()
                 for i in range(2001)]
        lines[lineno - 1] = lines[lineno - 1].replace(b"r", b"r\xff", 1)
        lines[lineno] = json.dumps({"id": "h\u00e9llo", "lat": 0.0, "lon": 0.0},
                                   ensure_ascii=False).encode()  # UTF-8 is fine
        manifest.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ValidationError,
                           match=re.escape(f"{manifest}: line {lineno}: not UTF-8") + "$"):
            read_manifest(manifest)
        lines[lineno - 1] = lines[lineno - 1].replace(b"\xff", b"")
        manifest.write_bytes(b"\n".join(lines) + b"\n")
        assert read_manifest(manifest)[lineno].id == "h\u00e9llo"

    def test_missing_field_reports_number(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        write_manifest_file(manifest, [("a", 0.0, 0.0), {"id": "b", "lat": 1.0}])
        with pytest.raises(ValidationError, match="line 2"):
            load_split(manifest, tmp_path / "unused.vprd")

    @pytest.mark.parametrize("lat, lon", [(True, False), ("45.5", 7.0), (45.5, "7")])
    def test_a_coordinate_must_be_a_json_number(self, tmp_path, lat, lon):
        manifest = tmp_path / "m.jsonl"
        write_manifest_file(manifest, [("a", 0.0, 0.0), {"id": "b", "lat": lat, "lon": lon}])
        with pytest.raises(ValidationError, match="line 2: lat/lon not numeric"):
            load_split(manifest, tmp_path / "unused.vprd")

    def test_integer_coordinates_load_as_floats(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"id": "a", "lat": 45, "lon": -7}\n')
        assert [(r.lat, r.lon) for r in read_manifest(manifest)] == [(45.0, -7.0)]

    def test_manifest_bytes_are_json_dumps_per_line(self, tmp_path):
        lats = [45.0, -0.0, 5e-324, 1 / 3, 90, -90.0, np.float64(7.1), 12.000000000000002]
        lons = [7, -180, 180.0, -1e-300, 0.1, np.float64(-7.3)]
        records = [GeoRecord(rid, lats[i % len(lats)], lons[i % len(lons)])
                   for i, rid in enumerate(AWKWARD_IDS)]
        path = tmp_path / "m.jsonl"
        write_manifest(records, path)
        assert path.read_bytes() == "".join(
            json.dumps({"id": r.id, "lat": r.lat, "lon": r.lon}) + "\n" for r in records
        ).encode("utf-8")
        assert read_manifest(path) == records  # an int coordinate reads back as its float

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
        for lat, lon, message in ((91.0, 0.0, "lat 91.0 outside [-90, 90]"),
                                  (0.0, 181.0, "lon 181.0 outside [-180, 180]")):
            write_manifest_file(manifest, [("a", lat, lon)])
            with pytest.raises(ValidationError, match=re.escape(f"record 'a': {message}")):
                load_split(manifest, tmp_path / "unused.vprd")

    @pytest.mark.parametrize("line, message", [
        ('{"id": "", "lat": 0, "lon": 0}', "id must be a non-empty string"),
        ('{"id": "b", "lat": Infinity, "lon": 0}', "non-finite coordinates"),
        ('{"id": "b", "lat": 1' + "0" * 400 + ', "lon": 0}', "lat/lon out of range"),
        ('{"id": "b", "lat": 91, "lon": 0}', "record 'b': lat 91.0 outside [-90, 90]"),
        ('{"id": "b", "lat": 0, "lon": 181}', "record 'b': lon 181.0 outside [-180, 180]"),
    ], ids=["empty-id", "infinite-lat", "int-beyond-float", "lat-beyond-90", "lon-beyond-180"])
    def test_a_bad_record_names_its_file_and_line(self, tmp_path, line, message):
        manifest = tmp_path / "m.jsonl"
        write_manifest_file(manifest, [("a", 0.0, 0.0), line])
        with pytest.raises(ValidationError, match=re.escape(f"{manifest}: line 2: {message}")):
            read_manifest(manifest)

    def test_blank_lines_are_skipped_but_counted(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        write_manifest_file(manifest, [("a", 0.0, 0.0), "", "   ", ("b", 1.0, 2.0)])
        assert [r.id for r in read_manifest(manifest)] == ["a", "b"]
        with open(manifest, "a") as fh:
            fh.write("\n{not json\n")
        with pytest.raises(ValidationError,
                           match=re.escape(f"{manifest}: malformed JSON on line 6")):
            read_manifest(manifest)

    def test_blob_round_trip_bit_exact(self, tmp_path, rng):
        rows = rng.standard_normal((7, 5)).astype(np.float32)
        rows /= np.linalg.norm(rows.astype(np.float64), axis=1, keepdims=True).astype(np.float32)
        path = tmp_path / "d.vprd"
        write_blob(rows, path)
        loaded = read_blob(path)
        np.testing.assert_array_equal(loaded.rows, rows)

    def test_a_1d_descriptor_array_writes_no_blob(self, tmp_path):
        path = tmp_path / "d.vprd"
        with pytest.raises(ValidationError, match="descriptor matrix must be 2-D"):
            write_blob(np.ones(4, dtype=np.float32), path)
        assert not path.exists()

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

    def test_a_distance_of_exactly_tau_is_correct(self):
        within = DistanceThreshold(25.0).within(np.array([24.9, 25.0, 25.1]))
        assert within.tolist() == [True, True, False]
