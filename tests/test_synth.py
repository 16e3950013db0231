import math
import re

import numpy as np
import pytest

from vprkit.dataset import DistanceThreshold, haversine_many, load_split
from vprkit.errors import ValidationError
from vprkit.evaluation import evaluate_pipeline
from vprkit.matching import TableProvider, load_inlier_table
from vprkit.retrieval import build_index, search_all
from vprkit.synth import SynthConfig, generate, write_instance

from conftest import by_id


def small_config(**overrides):
    base = dict(n_db=150, n_queries=100, dim=16, target_retrieval_r1=0.9,
                matcher_quality=0.9, inlier_noise_scale=0.5, seed=42)
    base.update(overrides)
    return SynthConfig(**base)


class TestSynthConfig:
    def test_infeasible_when_fewer_db_than_queries(self):
        with pytest.raises(ValidationError, match="infeasible"):
            SynthConfig(n_db=10, n_queries=20, dim=8)

    def test_probability_bounds(self):
        with pytest.raises(ValidationError):
            SynthConfig(n_db=10, n_queries=5, dim=8, target_retrieval_r1=1.2)
        with pytest.raises(ValidationError):
            SynthConfig(n_db=10, n_queries=5, dim=8, matcher_quality=-0.1)

    def test_dim_floor(self):
        with pytest.raises(ValidationError):
            SynthConfig(n_db=10, n_queries=5, dim=1)

    @pytest.mark.parametrize("override, message", [
        (dict(n_db=0), "n_db and n_queries must be positive"),
        (dict(inlier_noise_scale=-0.5), "inlier_noise_scale must be non-negative"),
    ], ids=["no-db", "negative-noise"])
    def test_a_bad_size_or_noise_is_rejected(self, override, message):
        with pytest.raises(ValidationError, match=message):
            SynthConfig(**{"n_db": 10, "n_queries": 5, "dim": 8, **override})


    @pytest.mark.parametrize("override, message", [
        (dict(n_db=20.5), "n_db must be an integer, got 20.5"),
        (dict(n_queries=5.0), "n_queries must be an integer, got 5.0"),
        (dict(dim=8.5), "dim must be an integer, got 8.5"),
        (dict(seed="3"), "seed must be an integer, got '3'"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(inlier_noise_scale=math.nan), "inlier_noise_scale must be non-negative, got nan"),
    ], ids=["fractional-db", "float-queries", "fractional-dim", "string-seed",
            "fractional-seed", "negative-seed", "nan-noise"])
    def test_a_bad_integer_field_or_a_nan_noise_is_rejected_naming_it(self, override, message):
        # each once failed later, inside generate, with a bare TypeError or ValueError
        with pytest.raises(ValidationError, match=re.escape(message)):
            SynthConfig(**{"n_db": 10, "n_queries": 5, "dim": 8, **override})

    def test_a_miss_needs_a_second_db_row(self):
        # round(0.5) = 0 queries hit, so the one query must miss, and its
        # distractor draw could only ever find its own true match
        with pytest.raises(ValidationError, match="n_db must be >= 2, got 1"):
            SynthConfig(n_db=1, n_queries=1, dim=8, target_retrieval_r1=0.5)
        config = SynthConfig(n_db=1, n_queries=1, dim=8, target_retrieval_r1=0.6)  # one hit
        assert generate(config, k=1).truth == {"q_00000": "db_00000"}
        SynthConfig(n_db=2, n_queries=1, dim=8, target_retrieval_r1=0.0)


class TestGenerate:
    def test_noiseless_fixed_point(self):
        config = small_config(target_retrieval_r1=1.0, matcher_quality=1.0,
                              inlier_noise_scale=0.0)
        inst = generate(config, k=20)
        report = evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers),
                                   k=20, ks=(1,), taus=(25.0,), gate_estimator="oracle")
        assert report.recalls["25.0"]["retrieval"]["1"] == 100.0
        assert report.recalls["25.0"]["rerank"]["1"] == 100.0

    def test_ground_truth_unambiguous(self):
        inst = generate(small_config(), k=10)
        tau = DistanceThreshold(25.0)
        db = inst.db.coords()
        for i, q in enumerate(inst.queries.records):
            dists = haversine_many(q.lat, q.lon, db[:, 0], db[:, 1])
            within = np.flatnonzero(dists <= tau.tau)
            assert len(within) == 1
            assert inst.db.records[within[0]].id == inst.truth[q.id]
            assert dists[within[0]] <= 5.0
            # distractors stay far beyond 3 * tau
            if i < 10:
                assert np.delete(dists, within[0]).min() >= 75.0

    def test_descriptors_unit_norm(self):
        inst = generate(small_config(), k=5)
        for blob in (inst.db.blob, inst.queries.blob):
            norms = np.linalg.norm(blob.rows.astype(np.float64), axis=1)
            assert np.abs(norms - 1.0).max() < 1e-4

    def test_inlier_counts_non_negative_ints(self):
        inst = generate(small_config(), k=10)
        assert len(inst.inliers) > 0
        for value in inst.inliers.counts.values():
            assert isinstance(value, int)
            assert value >= 0

    def test_empirical_r1_tracks_target(self):
        config = SynthConfig(n_db=800, n_queries=500, dim=32, target_retrieval_r1=0.7,
                             matcher_quality=0.9, seed=11)
        inst = generate(config, k=10)
        report = evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers),
                                   k=10, ks=(1,), taus=(25.0,), gate_estimator="oracle")
        assert report.recalls["25.0"]["retrieval"]["1"] == pytest.approx(70.0, abs=5.0)

    def test_same_seed_is_reproducible(self):
        a = generate(small_config(), k=10)
        b = generate(small_config(), k=10)
        np.testing.assert_array_equal(a.db.blob.rows, b.db.blob.rows)
        np.testing.assert_array_equal(a.queries.blob.rows, b.queries.blob.rows)
        assert a.inliers.counts == b.inliers.counts
        assert a.truth == b.truth
        assert [(r.lat, r.lon) for r in a.db.records] == [(r.lat, r.lon) for r in b.db.records]

    def test_different_seed_differs(self):
        a = generate(small_config(seed=1), k=10)
        b = generate(small_config(seed=2), k=10)
        assert not np.array_equal(a.db.blob.rows, b.db.blob.rows)

    def test_negative_gps_noise_is_rejected(self):
        with pytest.raises(ValidationError, match="gps_noise_m must be non-negative"):
            generate(small_config(), k=10, gps_noise_m=-1)

    def test_nan_gps_noise_is_rejected(self):
        # NaN > 0 is false, so it once skipped the label noise without a word
        with pytest.raises(ValidationError, match="gps_noise_m must be non-negative, got nan"):
            generate(small_config(), k=10, gps_noise_m=math.nan)

    def test_gps_noise_breaks_clean_labels(self):
        noisy = generate(small_config(target_retrieval_r1=1.0), k=10, gps_noise_m=60.0)
        tau = DistanceThreshold(25.0)
        db = by_id(noisy.db)
        truth = [db[noisy.truth[q.id]] for q in noisy.queries.records]
        dists = haversine_many([q.lat for q in noisy.queries.records],
                               [q.lon for q in noisy.queries.records],
                               [d.lat for d in truth], [d.lon for d in truth])
        broken = int(np.count_nonzero(dists > tau.tau))
        assert broken > 0

    @pytest.mark.parametrize("config, gps_noise_m", [
        (small_config(target_retrieval_r1=1.0), 0.0),
        (small_config(target_retrieval_r1=0.0), 0.0),
        (small_config(), 0.0),
        (small_config(target_retrieval_r1=0.6, seed=21), 30.0),
    ], ids=["hit-only", "miss-only", "mixed", "gps-noise"])
    def test_query_blob_is_the_per_query_blend(self, config, gps_noise_m):
        # the same draws in the same order, each query blended in its own branch
        rng = np.random.default_rng(config.seed)
        n_db, n_q, dim = config.n_db, config.n_queries, config.dim
        if gps_noise_m > 0:
            rng.normal(0.0, gps_noise_m, n_db), rng.normal(0.0, gps_noise_m, n_db)
        db = rng.standard_normal((n_db, dim))
        db = db / np.linalg.norm(db, axis=1, keepdims=True)
        rng.uniform(0.0, 2.0 * math.pi, n_q), rng.uniform(1.0, 4.0, n_q)
        order = rng.permutation(n_q)
        hit = np.zeros(n_q, dtype=bool)
        hit[order[:int(round(config.target_retrieval_r1 * n_q))]] = True
        noise = rng.standard_normal((n_q, dim))
        noise = noise / np.linalg.norm(noise, axis=1, keepdims=True)
        want = np.empty((n_q, dim))
        for i in range(n_q):
            if hit[i]:
                want[i] = 0.95 * db[i] + 0.31 * noise[i]
            else:
                j = int(rng.integers(0, n_db))
                while j == i:
                    j = int(rng.integers(0, n_db))
                want[i] = 0.80 * db[j] + 0.55 * db[i] + 0.24 * noise[i]
        want = want / np.linalg.norm(want, axis=1, keepdims=True)
        inst = generate(config, k=10, gps_noise_m=gps_noise_m)
        assert inst.queries.blob.rows.tobytes() == want.astype(np.float32).tobytes()
        assert inst.db.blob.rows.tobytes() == db.astype(np.float32).tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_with_two_rows_each_miss_retrieves_the_other_row(self, seed):
        inst = generate(SynthConfig(n_db=2, n_queries=2, dim=64, target_retrieval_r1=0.0,
                                    seed=seed), k=2)
        shortlists = search_all(build_index(inst.db), inst.queries, 2)
        assert [sl.db_ids[0] for sl in shortlists] == ["db_00001", "db_00000"]


class TestWriteInstance:
    def test_files_round_trip_through_loaders(self, tmp_path):
        inst = generate(small_config(), k=10)
        paths = write_instance(inst, tmp_path / "inst")
        db = load_split(paths["db_manifest"], paths["db_blob"])
        queries = load_split(paths["query_manifest"], paths["query_blob"])
        table = load_inlier_table(paths["inliers"])
        assert len(db) == 150
        assert len(queries) == 100
        np.testing.assert_array_equal(db.blob.rows, inst.db.blob.rows)
        np.testing.assert_array_equal(queries.blob.rows, inst.queries.blob.rows)
        assert not db.blob.renormalized
        assert list(table.counts.items()) == list(inst.inliers.counts.items())

    def test_byte_identical_across_runs(self, tmp_path):
        paths_a = write_instance(generate(small_config(), k=10), tmp_path / "a")
        paths_b = write_instance(generate(small_config(), k=10), tmp_path / "b")
        for name in paths_a:
            with open(paths_a[name], "rb") as fa, open(paths_b[name], "rb") as fb:
                assert fa.read() == fb.read(), name
