import numpy as np
import pytest

from vprkit.dataset import DistanceThreshold, haversine_many, load_split
from vprkit.errors import ValidationError
from vprkit.evaluation import evaluate_pipeline
from vprkit.matching import TableProvider, load_inlier_table
from vprkit.synth import SynthConfig, generate, write_instance


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

    def test_gps_noise_breaks_clean_labels(self):
        noisy = generate(small_config(target_retrieval_r1=1.0), k=10, gps_noise_m=60.0)
        tau = DistanceThreshold(25.0)
        truth = [noisy.db.by_id[noisy.truth[q.id]] for q in noisy.queries.records]
        dists = haversine_many([q.lat for q in noisy.queries.records],
                               [q.lon for q in noisy.queries.records],
                               [d.lat for d in truth], [d.lon for d in truth])
        broken = int(np.count_nonzero(dists > tau.tau))
        assert broken > 0


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
        assert table.counts == inst.inliers.counts

    def test_byte_identical_across_runs(self, tmp_path):
        paths_a = write_instance(generate(small_config(), k=10), tmp_path / "a")
        paths_b = write_instance(generate(small_config(), k=10), tmp_path / "b")
        for name in paths_a:
            with open(paths_a[name], "rb") as fa, open(paths_b[name], "rb") as fb:
                assert fa.read() == fb.read(), name
