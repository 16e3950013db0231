import json
import math
from collections import Counter
import re
import shlex
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from vprkit import evaluation
from vprkit.dataset import DistanceThreshold, GeoRecord
from vprkit.errors import MatcherTimeout, MissingPairError, ValidationError
from vprkit.evaluation import (
    EvalReport,
    auprc,
    compute_uncertainties,
    evaluate_pipeline,
    pr_curve,
    write_pr_curves_csv,
)
from vprkit.matching import MatcherProvider, SubprocessProvider, TableProvider
from vprkit.rerank import GatePolicy, adaptive_rerank, rerank
from vprkit.retrieval import BLOCK_ROWS, build_index, search_all
from vprkit.synth import SynthConfig, generate
from vprkit.uncertainty import Estimator, LogisticModel, fit_logistic, u_inlier

from conftest import InvalidPairProvider, by_id, csv_bytes, inlier_table, make_split, recall_at_k

M_PER_DEG = 6_371_000.0 * math.pi / 180.0


def auprc_oracle(samples):
    """Threshold enumeration with explicit counting; no shared machinery."""
    n_pos = sum(1 for _, ok in samples if ok)
    thresholds = sorted({c for c, _ in samples}, reverse=True)
    area = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = fp = 0
        for c, ok in samples:
            if c >= t:
                if ok:
                    tp += 1
                else:
                    fp += 1
        recall = tp / n_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def grid_records(distances_m, base=(40.0, 9.0)):
    """db records placed given meters east of the base point."""
    out = {}
    for i, d in enumerate(distances_m):
        lon = base[1] + d / (M_PER_DEG * math.cos(math.radians(base[0])))
        out[f"d{i}"] = GeoRecord(f"d{i}", base[0], lon)
    return out


class TestRecallAtK:
    def test_direct_count(self):
        queries = {"q0": GeoRecord("q0", 40.0, 9.0),
                   "q1": GeoRecord("q1", 40.0, 9.0),
                   "q2": GeoRecord("q2", 40.0, 9.0)}
        db = grid_records([10.0, 30.0, 20.0])
        results = {"q0": ["d0"], "q1": ["d1"], "q2": ["d2"]}
        value = recall_at_k(results, queries, db, 1, DistanceThreshold(25))
        assert value == pytest.approx(100.0 * 2 / 3)

    def test_full_k_is_permutation_invariant(self, rng):
        queries = {"q": GeoRecord("q", 40.0, 9.0)}
        db = grid_records([500.0, 10.0, 900.0, 40.0])
        ids = list(db)
        baseline = recall_at_k({"q": ids}, queries, db, len(ids), DistanceThreshold(25))
        for _ in range(10):
            perm = list(rng.permutation(ids))
            assert recall_at_k({"q": perm}, queries, db, len(ids),
                               DistanceThreshold(25)) == baseline

    def test_self_match_is_hundred(self):
        q = GeoRecord("q", 12.0, -7.0)
        db = {"d0": GeoRecord("d0", 12.0, -7.0)}
        assert recall_at_k({"q": ["d0"]}, {"q": q}, db, 1, DistanceThreshold(25)) == 100.0

    def test_empty_ranking_counts_as_wrong(self):
        queries = {"q0": GeoRecord("q0", 40.0, 9.0), "q1": GeoRecord("q1", 40.0, 9.0)}
        db = grid_records([5.0])
        value = recall_at_k({"q0": ["d0"], "q1": []}, queries, db, 1, DistanceThreshold(25))
        assert value == 50.0

    def test_zero_queries_rejected(self):
        with pytest.raises(ValidationError):
            recall_at_k({}, {}, {}, 1, DistanceThreshold(25))

    def test_non_decreasing_in_k_and_tau(self, rng):
        queries = {}
        db = {}
        results = {}
        for qi in range(30):
            queries[f"q{qi}"] = GeoRecord(f"q{qi}", 40.0, 9.0)
            ids = []
            for ci in range(8):
                rid = f"d{qi}_{ci}"
                offset = float(rng.uniform(0, 200)) / (M_PER_DEG * math.cos(math.radians(40.0)))
                db[rid] = GeoRecord(rid, 40.0, 9.0 + offset)
                ids.append(rid)
            results[f"q{qi}"] = ids
        values = [recall_at_k(results, queries, db, k, DistanceThreshold(25))
                  for k in range(1, 9)]
        assert values == sorted(values)
        for k in (1, 4, 8):
            r25 = recall_at_k(results, queries, db, k, DistanceThreshold(25))
            r100 = recall_at_k(results, queries, db, k, DistanceThreshold(100))
            assert r100 >= r25


class TestPrCurve:
    def test_hand_enumerated_points(self):
        points = pr_curve([(3.0, True), (2.0, False), (1.0, True)])
        assert points == [(0.5, 1.0), (0.5, 0.5), (1.0, pytest.approx(2 / 3))]

    def test_perfectly_ordered_has_unit_precision_until_full_recall(self):
        samples = [(10.0 - i, True) for i in range(4)] + [(1.0 - i, False) for i in range(3)]
        points = pr_curve(samples)
        for recall, precision in points:
            if recall < 1.0:
                assert precision == 1.0
        assert points[3] == (1.0, 1.0)

    def test_single_tie_group_is_prevalence(self):
        points = pr_curve([(0.5, True), (0.5, False), (0.5, False), (0.5, True)])
        assert points == [(1.0, 0.5)]

    def test_input_order_does_not_matter(self, rng):
        samples = [(float(c), bool(ok)) for c, ok in
                   zip(rng.integers(0, 5, 30), rng.uniform(size=30) < 0.4)]
        if not any(ok for _, ok in samples):
            samples[0] = (samples[0][0], True)
        base = pr_curve(samples)
        for _ in range(5):
            perm = [samples[i] for i in rng.permutation(len(samples))]
            assert pr_curve(perm) == base

    def test_requires_a_positive(self):
        with pytest.raises(ValidationError, match="no correctly localized"):
            pr_curve([(1.0, False), (2.0, False)])

    def test_requires_samples(self):
        with pytest.raises(ValidationError):
            pr_curve([])

    @pytest.mark.parametrize("conf", [math.nan, math.inf])
    def test_rejects_a_non_finite_confidence(self, conf):
        with pytest.raises(ValidationError, match="non-finite confidence value"):
            pr_curve([(1.0, True), (conf, False)])


class TestAuprc:
    def test_perfect_separation_is_exactly_one(self):
        samples = [(float(100 - i), i < 37) for i in range(100)]
        assert auprc(pr_curve(samples)) == 1.0

    def test_single_tie_group_is_exactly_prevalence(self):
        samples = [(1.0, i < 3) for i in range(10)]
        assert auprc(pr_curve(samples)) == 3 / 10

    def test_random_confidences_score_prevalence(self):
        prevalence = 0.7
        areas = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            ok = rng.uniform(size=1000) < prevalence
            conf = rng.uniform(size=1000)
            areas.append(auprc(pr_curve(list(zip(conf.tolist(), ok.tolist())))))
        assert float(np.mean(areas)) == pytest.approx(prevalence, abs=0.02)

    def test_matches_threshold_enumeration_oracle(self, rng):
        for trial in range(200):
            n = int(rng.integers(1, 13))
            ok = rng.uniform(size=n) < 0.5
            if not ok.any():
                ok[int(rng.integers(0, n))] = True
            conf = rng.choice([0.1, 0.2, 0.3, 0.7], size=n)
            samples = list(zip(conf.tolist(), ok.tolist()))
            assert auprc(pr_curve(samples)) == pytest.approx(auprc_oracle(samples), abs=1e-12)

    def test_exhaustive_label_patterns_up_to_8(self, rng):
        for n in range(1, 9):
            conf = rng.choice([0.25, 0.5, 0.75], size=n).tolist()
            for bits in range(1, 2 ** n):
                labels = [(bits >> i) & 1 == 1 for i in range(n)]
                samples = list(zip(conf, labels))
                assert auprc(pr_curve(samples)) == pytest.approx(
                    auprc_oracle(samples), abs=1e-12)

    def test_monotone_transform_invariance(self, rng):
        samples = [(float(c), bool(ok)) for c, ok in
                   zip(rng.uniform(size=200), rng.uniform(size=200) < 0.6)]
        base = auprc(pr_curve(samples))
        warped = [(math.exp(3.0 * c) - 0.5, ok) for c, ok in samples]
        assert auprc(pr_curve(warped)) == pytest.approx(base, abs=1e-12)

    def test_empty_curve_rejected(self):
        with pytest.raises(ValidationError):
            auprc([])

    def test_decreasing_recall_rejected(self):
        with pytest.raises(ValidationError):
            auprc([(0.5, 1.0), (0.2, 1.0)])


class TestEvaluatePipeline:
    def test_saturated_instance_shows_harmful_reranking(self):
        config = SynthConfig(n_db=900, n_queries=600, dim=32, target_retrieval_r1=0.98,
                             matcher_quality=0.85, seed=555)
        inst = generate(config, k=50)
        report = evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers),
                                   k=50, ks=(1, 50), taus=(25.0,), gate_estimator="oracle")
        r = report.recalls["25.0"]
        assert r["rerank"]["1"] < r["retrieval"]["1"]
        assert r["adaptive"]["1"] >= r["rerank"]["1"]
        assert r["adaptive"]["1"] >= r["retrieval"]["1"]
        assert r["retrieval"]["50"] == r["rerank"]["50"] == r["adaptive"]["50"]

    def test_hard_instance_shows_beneficial_reranking(self):
        config = SynthConfig(n_db=900, n_queries=600, dim=32, target_retrieval_r1=0.5,
                             matcher_quality=0.98, seed=556)
        inst = generate(config, k=50)
        report = evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers),
                                   k=50, ks=(1,), taus=(25.0,), gate_estimator="oracle")
        r = report.recalls["25.0"]
        assert r["rerank"]["1"] > r["retrieval"]["1"]

    def test_recalls_non_decreasing_in_tau(self):
        config = SynthConfig(n_db=400, n_queries=300, dim=16, target_retrieval_r1=0.9,
                             matcher_quality=0.9, seed=557)
        inst = generate(config, k=20)
        report = evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers),
                                   k=20, ks=(1, 5, 20), taus=(25.0, 100.0),
                                   gate_estimator="oracle")
        for system in ("retrieval", "rerank", "adaptive"):
            for k in ("1", "5", "20"):
                assert report.recalls["100.0"][system][k] >= report.recalls["25.0"][system][k]

    def test_json_deterministic_across_runs_and_workers(self):
        config = SynthConfig(n_db=300, n_queries=200, dim=16, target_retrieval_r1=0.85,
                             matcher_quality=0.9, seed=558)
        inst = generate(config, k=20)
        provider = TableProvider(inst.inliers)
        reports = [
            evaluate_pipeline(inst.db, inst.queries, provider, k=20, ks=(1, 5),
                              taus=(25.0,), seed=9, workers=w).to_json()
            for w in (1, 4, 8, 1)
        ]
        assert len(set(reports)) == 1

    def test_eight_threads_fill_the_key_matrix_like_one(self):
        # every third pair is missing, so rows mix counts and sunk pairs; a
        # short switch interval makes the pool threads interleave often
        config = SynthConfig(n_db=300, n_queries=200, dim=16, target_retrieval_r1=0.7,
                             matcher_quality=0.9, seed=563)
        inst = generate(config, k=20)
        counts = {key: n for i, (key, n) in enumerate(inst.inliers.counts.items()) if i % 3}
        provider = TableProvider(inlier_table(counts))
        shortlists = search_all(build_index(inst.db), inst.queries, 20)
        reranked = {sl.query_id: rerank(sl, provider).db_ids for sl in shortlists}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = [evaluate_pipeline(inst.db, inst.queries, provider, k=20, ks=(1, 5),
                                         estimators=(), gate_estimator="oracle", workers=w)
                       for w in (1, 8)]
        finally:
            sys.setswitchinterval(interval)
        assert reports[0].to_json() == reports[1].to_json()
        for kk in (1, 5):
            assert reports[1].recalls["25.0"]["rerank"][str(kk)] == recall_at_k(
                reranked, by_id(inst.queries), by_id(inst.db), kk, DistanceThreshold(25.0))

    def test_fitted_gate_reports_metadata(self):
        config = SynthConfig(n_db=300, n_queries=200, dim=16, target_retrieval_r1=0.8,
                             matcher_quality=0.95, seed=559)
        inst = generate(config, k=20)
        report = evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers),
                                   k=20, ks=(1,), taus=(25.0,),
                                   gate_estimator="inlier", gate_threshold=0.5)
        assert report.gate == {"estimator": "inlier", "threshold": 0.5, "fitted_here": True}
        assert 0 <= report.gate_fired <= report.n_queries
        payload = json.loads(report.to_json())
        assert payload["auprc"]["25.0"].keys() == {"l2", "pa", "sue", "random", "inlier"}

    def test_json_equals_a_deep_copied_dump(self):
        config = SynthConfig(n_db=300, n_queries=200, dim=16, target_retrieval_r1=0.8,
                             matcher_quality=0.9, seed=562)
        inst = generate(config, k=20)
        report = evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers),
                                   k=20, ks=(1, 5), taus=(10.0, 25.0),
                                   gate_estimator="inlier", gate_threshold=0.5)
        assert report.to_json() == json.dumps(asdict(report), sort_keys=True,
                                              separators=(",", ":"))

    def test_text_report_mentions_all_systems(self):
        config = SynthConfig(n_db=120, n_queries=80, dim=16, seed=560)
        inst = generate(config, k=10)
        report = evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers),
                                   k=10, ks=(1, 10), taus=(25.0,), gate_estimator="oracle")
        text = report.to_text()
        for token in ("retrieval", "rerank", "adaptive", "AUPRC", "tau = 25"):
            assert token in text

    def test_pr_curves_csv(self, tmp_path):
        config = SynthConfig(n_db=120, n_queries=80, dim=16, target_retrieval_r1=0.8,
                             matcher_quality=0.9, seed=561)
        inst = generate(config, k=10)
        report = evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers),
                                   k=10, ks=(1,), taus=(25.0,), gate_estimator="oracle")
        path = tmp_path / "curves.csv"
        write_pr_curves_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "estimator,recall,precision"
        estimators = {line.split(",")[0] for line in lines[1:]}
        assert estimators == {"l2", "pa", "sue", "random", "inlier"}
        assert path.read_bytes() == csv_bytes(
            [["estimator", "recall", "precision"]]
            + [[est, repr(r), repr(p)] for est, points in report.pr_curves["25.0"].items()
               for r, p in points])

    def test_pr_curves_csv_writes_numpy_points_as_floats(self, tmp_path):
        points = [[np.float64(0.5), np.float64(1.0)], [np.float64(1.0), np.float64(0.5)]]
        report = EvalReport(n_queries=2, k=1, ks=(1,), taus=(25.0,), seed=0,
                            pr_curves={"25.0": {"l2": points}})
        path = tmp_path / "curves.csv"
        write_pr_curves_csv(report, path)
        assert path.read_bytes() == b"estimator,recall,precision\r\nl2,0.5,1.0\r\nl2,1.0,0.5\r\n"

    def test_pr_curves_csv_needs_curves_at_the_first_tau(self, tmp_path):
        report = EvalReport(n_queries=1, k=1, ks=(1,), taus=(25.0,), seed=0)
        path = tmp_path / "curves.csv"
        with pytest.raises(ValidationError, match="report has no PR curves at tau of 25.0"):
            write_pr_curves_csv(report, path)
        assert not path.exists()


def one_outcome_instance(target_r1):
    """200 x 50 x 16 at k = 10, seed 3: every top-1 result is correct at 25 m when
    ``target_r1`` is 1, and none is when it is 0 (where re-ranking lifts R@1 to 56)."""
    return generate(SynthConfig(n_db=200, n_queries=50, dim=16, matcher_quality=0.85,
                                target_retrieval_r1=target_r1, seed=3), k=10)


class TestTauWithNoCorrectTop1:
    """A tau where no top-1 result is correct has recalls but no PR curve: its
    curves and areas are {}, absent, not 0."""

    GATES = (dict(gate_estimator="oracle"),
             dict(gate_model=LogisticModel(w=1.0, b=0.0, mean=0.0, std=1.0)))

    @pytest.mark.parametrize("gate", GATES, ids=["oracle", "model"])
    def test_the_recalls_are_reported_and_the_curves_are_absent(self, gate, tmp_path):
        inst = one_outcome_instance(0.0)
        provider = TableProvider(inst.inliers)
        reports = [evaluate_pipeline(inst.db, inst.queries, provider, k=10, workers=w, **gate)
                   for w in (1, 2)]
        assert reports[0].to_json() == reports[1].to_json()
        report = reports[0]
        assert report.correct_top1 == {"25.0": 0}
        assert report.auprc == report.pr_curves == {"25.0": {}}
        bare = evaluate_pipeline(inst.db, inst.queries, provider, k=10, estimators=(), **gate)
        assert report.recalls == bare.recalls
        assert report.recalls["25.0"]["rerank"]["1"] == 56.0
        path = tmp_path / "curves.csv"
        write_pr_curves_csv(report, path)
        assert path.read_bytes() == b"estimator,recall,precision\r\n"

    @pytest.mark.parametrize("gate", (*GATES, dict()), ids=["oracle", "model", "fitted"])
    def test_a_later_tau_with_no_correct_top1_leaves_the_first_as_it_was(self, gate):
        # no top-1 result lies within 0.5 m; the gate, fitted too, reads the first tau
        inst = generate(SynthConfig(n_db=200, n_queries=50, dim=16, matcher_quality=0.85,
                                    target_retrieval_r1=0.8, seed=3), k=10)
        provider = TableProvider(inst.inliers)
        both = evaluate_pipeline(inst.db, inst.queries, provider, k=10, taus=(25.0, 0.5), **gate)
        alone = evaluate_pipeline(inst.db, inst.queries, provider, k=10, taus=(25.0,), **gate)
        for name in ("recalls", "auprc", "pr_curves", "correct_top1"):
            assert getattr(both, name)["25.0"] == getattr(alone, name)["25.0"], name
        assert (both.gate_fired, both.gate) == (alone.gate_fired, alone.gate)
        assert both.correct_top1["0.5"] == 0
        assert both.auprc["0.5"] == both.pr_curves["0.5"] == {}
        assert "AUPRC at tau = 0.5 m\n  queries: 50   correct top-1: 0 " in both.to_text()


class CountingProvider(MatcherProvider):
    """Counts every get_inliers call, and the calls per pair, before delegating it."""

    def __init__(self, inner: MatcherProvider):
        self.inner = inner
        self.calls = 0
        self.asked = Counter()

    def get_inliers(self, query_id, db_id):
        self.calls += 1
        self.asked[query_id, db_id] += 1
        return self.inner.get_inliers(query_id, db_id)


class TimeoutProvider(MatcherProvider):
    """Times out on one pair, counting how often it is asked, and delegates
    every other."""

    def __init__(self, inner: MatcherProvider, pair: tuple[str, str]):
        self.inner = inner
        self.pair = pair
        self.timeouts = 0

    def get_inliers(self, query_id, db_id):
        if (query_id, db_id) == self.pair:
            self.timeouts += 1
            raise MatcherTimeout(query_id, db_id, "timed out after 1.0s")
        return self.inner.get_inliers(query_id, db_id)


class RecordIdProvider(MatcherProvider):
    """A provider written to the signature the pipeline calls: record ids
    only, over a flat {(query_id, db_id): count} dict."""

    def __init__(self, counts):
        self.counts = counts

    def get_inliers(self, query_id, db_id):
        try:
            return self.counts[(query_id, db_id)]
        except KeyError:
            raise MissingPairError(query_id, db_id) from None


def gated_instance(k=10):
    """A hard-regime instance, its shortlists, and an inlier gate fitted on
    its own top-1 labels that fires for some queries but not all."""
    inst = generate(SynthConfig(n_db=300, n_queries=200, dim=16, target_retrieval_r1=0.7,
                                matcher_quality=0.9, seed=562), k=k)
    provider = TableProvider(inst.inliers)
    shortlists = search_all(build_index(inst.db), inst.queries, k)
    scores = compute_uncertainties(shortlists, Estimator.INLIER, provider=provider)
    wrong = [recall_at_k({sl.query_id: sl.ids()}, by_id(inst.queries), by_id(inst.db), 1,
                         DistanceThreshold(25.0)) == 0.0 for sl in shortlists]
    policy = GatePolicy(model=fit_logistic(list(zip([s.u for s in scores], wrong))),
                        threshold=0.5)
    return inst, shortlists, scores, policy


class TestEvaluateMatcherCost:
    def test_each_inlier_pair_is_fetched_once(self):
        k = 10
        inst, shortlists, scores, policy = gated_instance(k)
        n_q = len(shortlists)
        for gate in ({"gate_estimator": "oracle"},
                     {"gate_estimator": "inlier", "gate_model": policy.model,
                      "gate_threshold": policy.threshold}):
            provider = CountingProvider(TableProvider(inst.inliers))
            report = evaluate_pipeline(inst.db, inst.queries, provider, k=k, ks=(1, k),
                                       taus=(25.0,), **gate)
            assert 0 < report.gate_fired < n_q
            # full re-rank fetches n_q * k pairs; the inlier estimator reads
            # the top-1 counts among them and a fired query reuses its order
            assert provider.calls == n_q * k

        # report is the fitted-model run: its adaptive rows are re-rank rows
        # exactly where adaptive_rerank fires
        provider = TableProvider(inst.inliers)
        fired = 0
        for sl, u in zip(shortlists, scores):
            out = adaptive_rerank(sl, provider, policy, u)
            expected = rerank(sl, provider).db_ids if out.gate_fired else sl.ids()
            assert out.db_ids == expected
            fired += out.gate_fired
        assert fired == report.gate_fired


    def test_the_library_inlier_gate_asks_each_pair_once(self):
        # u_inlier asks each top-1 pair; a fired adaptive_rerank asks only positions 2..k
        k = 10
        inst, shortlists, _, policy = gated_instance(k)
        provider = CountingProvider(TableProvider(inst.inliers))
        scores = [u_inlier(sl.query_id, sl.db_ids[0], provider) for sl in shortlists]
        outs = [adaptive_rerank(sl, provider, policy, u) for sl, u in zip(shortlists, scores)]
        fired = sum(out.gate_fired for out in outs)
        assert 0 < fired < len(shortlists)
        assert provider.calls == len(provider.asked) == len(shortlists) + (k - 1) * fired
        table = TableProvider(inst.inliers)
        for sl, out in zip(shortlists, outs):
            assert out.db_ids == (rerank(sl, table).db_ids if out.gate_fired else sl.ids())

    def test_inlier_scores_are_u_inlier_bit_for_bit(self, monkeypatch):
        inst, shortlists, scores, _ = gated_instance()
        assert any(s.u == 0.0 for s in scores)  # a count of 0 scores -0.0
        fitted = []
        fit = evaluation.fit_logistic
        monkeypatch.setattr(evaluation, "fit_logistic",
                            lambda samples: fitted.append(samples) or fit(samples))
        for workers in (1, 2):
            evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers), k=10,
                              estimators=(), workers=workers)
            assert [u.hex() for u, _ in fitted.pop()] == [s.u.hex() for s in scores]

    def test_a_gate_estimator_not_scored_for_the_report_reads_the_fetched_top1(self):
        k = 10
        inst, shortlists, scores, policy = gated_instance(k)
        gate = {"gate_estimator": "inlier", "gate_model": policy.model}
        want = evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers), k=k,
                                 **gate)
        provider = CountingProvider(TableProvider(inst.inliers))
        report = evaluate_pipeline(inst.db, inst.queries, provider, k=k,
                                   estimators=(Estimator.L2,), **gate)
        assert 0 < report.gate_fired < len(shortlists)
        assert report.gate_fired == want.gate_fired
        assert report.recalls == want.recalls
        assert report.auprc["25.0"] == {"l2": want.auprc["25.0"]["l2"]}
        assert provider.calls == len(shortlists) * k  # the gate's scores fetch nothing


class TestEvaluateMemory:
    def test_peak_above_the_inputs_does_not_grow_with_k(self):
        # one block's shortlists, keys and labels at a time: what outlives the
        # blocks is a few numbers per query, whatever the shortlist length. The
        # larger k runs first, so the first call's one-time allocations are not
        # mistaken for growth with k
        peaks = []
        for k in (100, 25):
            inst = generate(SynthConfig(n_db=1000, n_queries=1000, dim=16, target_retrieval_r1=0.7,
                                        matcher_quality=0.9, seed=1), k=k)
            provider = TableProvider(inst.inliers)
            tracemalloc.start()
            try:
                evaluate_pipeline(inst.db, inst.queries, provider, k=k)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


class TestEvaluateMatchesPerQueryReference:
    def test_every_system_k_and_tau(self):
        k = 10
        ks = (1, 5, 10, 100)  # K > k reads the whole shortlist
        taus = (25.0, 100.0)
        inst, shortlists, scores, policy = gated_instance(k)
        provider = TableProvider(inst.inliers)
        report = evaluate_pipeline(inst.db, inst.queries, provider, k=k, ks=ks, taus=taus,
                                   gate_estimator="inlier", gate_model=policy.model,
                                   gate_threshold=policy.threshold)
        systems = {
            "retrieval": {sl.query_id: sl.ids() for sl in shortlists},
            "rerank": {sl.query_id: rerank(sl, provider).db_ids for sl in shortlists},
            "adaptive": {sl.query_id: adaptive_rerank(sl, provider, policy, u).db_ids
                         for sl, u in zip(shortlists, scores)},
        }
        for tau in taus:
            for system, results in systems.items():
                for kk in ks:
                    expected = recall_at_k(results, by_id(inst.queries), by_id(inst.db), kk,
                                           DistanceThreshold(tau))
                    assert report.recalls[repr(tau)][system][str(kk)] == expected


class TestRecordIdProvider:
    def test_every_step_asks_by_record_id_only(self):
        inst, shortlists, scores, policy = gated_instance()
        table = TableProvider(inst.inliers)
        provider = RecordIdProvider(inst.inliers.counts)
        for sl, u in zip(shortlists, scores):
            assert rerank(sl, provider) == rerank(sl, table)
            assert adaptive_rerank(sl, provider, policy, u) == adaptive_rerank(sl, table, policy, u)
        assert compute_uncertainties(shortlists, Estimator.INLIER, provider=provider) == scores
        gate = {"gate_estimator": "inlier", "gate_model": policy.model}
        want = evaluate_pipeline(inst.db, inst.queries, table, k=10, **gate).to_json()

        pair = (shortlists[3].query_id, shortlists[3].db_ids[0])
        without = {key: n for key, n in inst.inliers.counts.items() if key != pair}
        for workers in (1, 2):
            report = evaluate_pipeline(inst.db, inst.queries, provider, k=10, workers=workers,
                                       **gate)
            assert report.to_json() == want
            with pytest.raises(MissingPairError) as err:
                evaluate_pipeline(inst.db, inst.queries, RecordIdProvider(without), k=10,
                                  workers=workers, **gate)
            assert (err.value.query_id, err.value.db_id) == pair


class TestBareSubprocessProvider:
    def test_a_template_of_record_ids_serves_every_step(self, tmp_path):
        # one count file per pair, so ``cat DIR/{query}/{db}`` is the matcher
        inst = generate(SynthConfig(n_db=60, n_queries=30, dim=8, target_retrieval_r1=0.7,
                                    matcher_quality=0.9, seed=563), k=5)
        for (qid, db_id), count in inst.inliers.counts.items():
            (tmp_path / qid).mkdir(exist_ok=True)
            (tmp_path / qid / db_id).write_text(f"{count}\n")
        provider = SubprocessProvider(f"cat {shlex.quote(str(tmp_path))}/{{query}}/{{db}}",
                                      max_concurrent=2)
        table = TableProvider(inst.inliers)
        shortlists = search_all(build_index(inst.db), inst.queries, 5)
        moved = next(sl for sl in shortlists if rerank(sl, table).db_ids != sl.db_ids)
        assert rerank(moved, provider) == rerank(moved, table)
        scores = compute_uncertainties(shortlists, Estimator.INLIER, provider=provider)
        assert scores == compute_uncertainties(shortlists, Estimator.INLIER, provider=table)
        policy = GatePolicy(model=LogisticModel(w=1.0, b=0.0, mean=-5.0, std=1.0))
        outs = [adaptive_rerank(sl, provider, policy, u) for sl, u in zip(shortlists, scores)]
        assert outs == [adaptive_rerank(sl, table, policy, u) for sl, u in zip(shortlists, scores)]
        assert 0 < sum(out.gate_fired for out in outs) < len(outs)
        want = evaluate_pipeline(inst.db, inst.queries, table, k=5).to_json()
        for workers in (1, 2):
            report = evaluate_pipeline(inst.db, inst.queries, provider, k=5, workers=workers)
            assert report.to_json() == want


class TestEvaluateErrors:
    def test_zero_in_ks_rejected(self):
        inst = generate(SynthConfig(n_db=60, n_queries=20, dim=8, seed=570), k=5)
        with pytest.raises(ValidationError, match="k must be >= 1"):
            evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers),
                              k=5, ks=(1, 0), gate_estimator="oracle")

    @pytest.mark.parametrize("override, message", [
        (dict(workers=0), "workers must be >= 1, got 0"),
        (dict(workers=1.5), "workers must be an integer, got 1.5"),
        (dict(workers="2"), "workers must be an integer, got '2'"),
        (dict(taus=()), "need at least one tau and one K"),
        (dict(ks=()), "need at least one tau and one K"),
        (dict(queries=make_split(np.empty((0, 8)), prefix="q")),
         "recall is undefined over zero queries"),
        (dict(taus=(25.0, -1.0)), "tau must be a positive real, got -1.0"),
        (dict(taus=(math.nan,)), "tau must be a positive real, got nan"),
        (dict(gate_estimator="bogus"), "unknown gate estimator 'bogus'"),
        (dict(estimators=("bogus",)), "unknown estimator 'bogus'"),
        (dict(estimators=(Estimator.L2, "bogus")), "unknown estimator 'bogus'"),
        (dict(gate_threshold=1.5), "gate threshold must be strictly inside (0, 1), got 1.5"),
        (dict(gate_estimator="l2", gate_model=LogisticModel(w=1.0, b=0.0, mean=0.0, std=1.0),
              gate_threshold=0.0), "gate threshold must be strictly inside (0, 1), got 0.0"),
        (dict(gate_estimator="oracle", gate_threshold=7),
         "gate threshold must be strictly inside (0, 1), got 7"),
        (dict(gate_estimator="oracle", gate_model=LogisticModel(w=1.0, b=0.0, mean=0.0, std=1.0)),
         "the oracle gate reads no model, but a gate_model was given"),
        (dict(k=1), "PA score needs at least 2 candidates, but each shortlist holds "
                    "min(k, database size) = 1 (k = 1)"),
        (dict(k=1, estimators=("l2",), gate_estimator="pa"),
         "PA score needs at least 2 candidates"),
        (dict(taus=(25, 100.0, 25.0)), "each tau must be given once, got (25.0, 100.0, 25.0)"),
        (dict(ks=(1, 1, 5)), "each K must be given once, got (1, 1, 5)"),
        (dict(ks=(10**5000, 10**5000)), "each K must be given once, got ("),
        (dict(k=2.5), "k must be an integer, got 2.5"),
        (dict(k=5.0), "k must be an integer, got 5.0"),
        (dict(ks=(1, 1.7)), "k must be an integer, got 1.7"),
        (dict(ks=(1, "5")), "k must be an integer, got '5'"),
        (dict(taus=("x",)), "tau must be a real number, got 'x'"),
        (dict(taus=(25.0, "25")), "tau must be a real number, got '25'"),
        (dict(queries=make_split(np.zeros((4, 6)), prefix="q")),
         "query dimension mismatch: query shape (6,), index dim 8"),
        (dict(queries=make_split(np.zeros((4, 6)), prefix="q"), workers=2),
         "query dimension mismatch: query shape (6,), index dim 8"),
    ], ids=["no-workers", "fractional-workers", "string-workers", "no-taus", "no-ks", "no-queries", "negative-tau", "nan-tau",
            "unknown-gate", "unknown-estimator", "unknown-after-a-member", "threshold-above-1",
            "threshold-0-with-model", "oracle-threshold-7", "oracle-with-model", "k-1-with-pa",
            "k-1-with-a-pa-gate", "repeated-tau", "repeated-k", "repeated-long-k",
            "fractional-k", "float-k",
            "fractional-K", "string-K", "non-number-tau", "string-tau", "other-dim-queries",
            "other-dim-queries-2-workers"])
    def test_a_bad_argument_is_rejected_before_any_matcher_call(self, override, message):
        inst = generate(SynthConfig(n_db=60, n_queries=20, dim=8, seed=570), k=5)
        provider = CountingProvider(TableProvider(inst.inliers))
        args = {"db": inst.db, "queries": inst.queries, "provider": provider, "k": 5, **override}
        with pytest.raises(ValidationError, match=re.escape(message)):
            evaluate_pipeline(**args)
        assert provider.calls == 0

    def test_an_estimator_name_scores_like_its_member(self):
        inst = generate(SynthConfig(n_db=60, n_queries=20, dim=8, seed=570), k=5)
        provider = TableProvider(inst.inliers)
        by_name, by_member = (
            evaluate_pipeline(inst.db, inst.queries, provider, k=5, estimators=estimators,
                              gate_estimator="oracle").to_json()
            for estimators in (("l2", "inlier"), (Estimator.L2, Estimator.INLIER)))
        assert by_name == by_member
        assert '"l2"' in by_name

    def test_missing_top1_pair_names_the_pair(self):
        inst = generate(SynthConfig(n_db=60, n_queries=20, dim=8, seed=571), k=5)
        shortlists = search_all(build_index(inst.db), inst.queries, 5)
        pair = (shortlists[3].query_id, shortlists[3].ids()[0])
        later = (shortlists[7].query_id, shortlists[7].ids()[0])  # the first failure is raised
        counts = {key: n for key, n in inst.inliers.counts.items() if key not in (pair, later)}
        for workers in (1, 2):
            with pytest.raises(MissingPairError) as err:
                evaluate_pipeline(inst.db, inst.queries, TableProvider(inlier_table(counts)),
                                  k=5, ks=(1,), gate_estimator="oracle", workers=workers)
            assert (err.value.query_id, err.value.db_id) == pair
            assert f"({pair[0]}, {pair[1]})" in str(err.value)

    def test_top1_matcher_timeout_names_the_pair(self):
        inst = generate(SynthConfig(n_db=60, n_queries=20, dim=8, seed=571), k=5)
        sl = search_all(build_index(inst.db), inst.queries, 5)[3]
        pair = (sl.query_id, sl.ids()[0])
        for workers in (1, 2):
            provider = TimeoutProvider(TableProvider(inst.inliers), pair)
            with pytest.raises(MatcherTimeout) as err:
                evaluate_pipeline(inst.db, inst.queries, provider,
                                  k=5, ks=(1,), gate_estimator="oracle", workers=workers)
            assert (err.value.query_id, err.value.db_id) == pair
            assert f"({pair[0]}, {pair[1]})" in str(err.value)
            assert provider.timeouts == 1  # a pair that timed out is not asked again

    def test_provider_validation_error_names_the_query(self):
        inst = generate(SynthConfig(n_db=60, n_queries=20, dim=8, seed=571), k=5)
        sl = search_all(build_index(inst.db), inst.queries, 5)[3]
        pair = (sl.query_id, sl.db_ids[2])
        for workers in (1, 2):
            provider = InvalidPairProvider(TableProvider(inst.inliers), pair)
            with pytest.raises(ValidationError) as err:
                evaluate_pipeline(inst.db, inst.queries, provider,
                                  k=5, ks=(1,), gate_estimator="oracle", workers=workers)
            assert str(err.value) == f"query {pair[0]!r}: cannot match ({pair[0]}, {pair[1]})"

    def test_a_later_blocks_validation_error_wins_over_an_earlier_missing_top1(self):
        # query 3's top-1 pair is missing, and a pair of query 35, in the second
        # block, is invalid: a failed top-1 fetch is raised only once every
        # block has been fetched, so the provider's ValidationError comes first
        inst = generate(SynthConfig(n_db=60, n_queries=BLOCK_ROWS + 8, dim=8, seed=571), k=5)
        shortlists = search_all(build_index(inst.db), inst.queries, 5)
        missing = (shortlists[3].query_id, shortlists[3].db_ids[0])
        invalid = (shortlists[35].query_id, shortlists[35].db_ids[2])
        counts = {key: n for key, n in inst.inliers.counts.items() if key != missing}
        for workers in (1, 2):
            provider = InvalidPairProvider(TableProvider(inlier_table(counts)), invalid)
            with pytest.raises(ValidationError) as err:
                evaluate_pipeline(inst.db, inst.queries, provider, k=5, ks=(1,),
                                  gate_estimator="oracle", workers=workers)
            assert str(err.value) == (f"query {invalid[0]!r}: "
                                      f"cannot match ({invalid[0]}, {invalid[1]})")

    @pytest.mark.parametrize("target_r1, which", [(1.0, "every"), (0.0, "no")])
    def test_a_gate_fitted_on_one_outcome_says_what_is_needed(self, target_r1, which):
        # every top-1 result is correct (the saturated regime), or none is: no gate can
        # be fitted here, with every estimator scored, while the oracle gate and a given
        # model still report
        inst = one_outcome_instance(target_r1)
        provider = TableProvider(inst.inliers)
        with pytest.raises(ValidationError) as err:
            evaluate_pipeline(inst.db, inst.queries, provider, k=10)
        assert str(err.value) == (f"{which} top-1 result is correct at tau = 25 m, so no gate "
                                  "can be fitted here; a gate model or the oracle gate is needed")
        model = LogisticModel(w=1.0, b=0.0, mean=0.0, std=1.0)
        for gate in (dict(gate_estimator="oracle"), dict(gate_model=model)):
            report = evaluate_pipeline(inst.db, inst.queries, provider, k=10, **gate)
            assert report.correct_top1 == {"25.0": 50 if target_r1 else 0}
            assert not report.gate["fitted_here"]

    def test_missing_lower_ranked_pair_sinks_in_rerank(self):
        base = (40.0, 9.0)
        queries = make_split([[1.0, 0.0]], [base], prefix="q")
        # retrieval order r0, r1, r2; only r1 lies within 25 m of the query
        db = make_split([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]],
                        [(40.1, 9.0), base, (40.2, 9.0)])
        table = inlier_table({("q0", "r0"): 5, ("q0", "r2"): 3})  # ("q0", "r1") missing
        report = evaluate_pipeline(db, queries, TableProvider(table), k=3, ks=(1, 2, 3),
                                   estimators=(), gate_estimator="oracle")
        r = report.recalls["25.0"]
        assert r["retrieval"] == {"1": 0.0, "2": 100.0, "3": 100.0}
        assert r["rerank"] == {"1": 0.0, "2": 0.0, "3": 100.0}
        assert r["adaptive"] == r["rerank"]
