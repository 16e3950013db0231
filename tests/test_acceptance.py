"""Acceptance suite: one test per numbered criterion, at its stated tolerance.

Each test prints a single line on success (run with -s to watch them);
a pytest failure marks the criterion red.
"""

import json
import math
import time

import numpy as np
import pytest

from vprkit.dataset import DistanceThreshold, GeoRecord, haversine_many
from vprkit.evaluation import auprc, evaluate_pipeline, pr_curve
from vprkit.matching import TableProvider
from vprkit.rerank import GatePolicy, adaptive_rerank, rerank
from vprkit.retrieval import Shortlist, build_index, search
from vprkit.synth import SynthConfig, generate
from vprkit.uncertainty import Estimator, LogisticModel, UncertaintyScore, fit_logistic, predict_prob

from conftest import inlier_table, make_split, recall_at_k

M_PER_DEG = 6_371_000.0 * math.pi / 180.0


def ok(num, text):
    print(f"ACCEPTANCE {num:02d} PASS — {text}")


def test_01_retrieval_matches_full_sort_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20240901)
    for trial in range(100):
        n = int(rng.integers(5, 2001))
        dim = int(rng.integers(2, 65))
        rows = rng.standard_normal((n, dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        # inject duplicates so tie order is actually exercised
        if n >= 10:
            dup_from = rng.integers(0, n, size=3)
            dup_to = rng.integers(0, n, size=3)
            rows[dup_to] = rows[dup_from]
        split = make_split(rows.astype(np.float32))
        index = build_index(split)
        query = np.asarray(split.blob.rows[int(rng.integers(0, n))], dtype=np.float64)
        k = int(rng.integers(1, min(n, 150) + 1))
        got = search(index, query, k)

        # oracle: independent accumulation + full stable sort over all rows
        vectors = np.asarray(split.blob.rows, dtype=np.float64)
        d2 = np.zeros(n)
        for j in range(vectors.shape[1]):
            col = vectors[:, j] - query[j]
            d2 += col * col
        dists = np.sqrt(d2)
        order = sorted(range(n), key=lambda i: (dists[i], i))[:k]
        assert got.ids() == [f"r{i}" for i in order]
        assert got.distances() == [float(dists[i]) for i in order]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    ok(1, f"search equals brute-force full-sort oracle on 100 instances ({elapsed:.1f}s)")


def test_02_upper_bound_recall_is_invariant_under_rerank():
    rng = np.random.default_rng(7)
    for trial in range(1000):
        n = int(rng.integers(1, 21))
        query = GeoRecord("q", 40.0, 9.0)
        db = {}
        ids = []
        for i in range(n):
            rid = f"d{i}"
            east = float(rng.uniform(0, 120))
            db[rid] = GeoRecord(rid, 40.0,
                                9.0 + east / (M_PER_DEG * math.cos(math.radians(40.0))))
            ids.append(rid)
        sl = Shortlist("q", ids, [0.01 * (r + 1) for r in range(n)])
        counts = {("q", i): int(c) for i, c in zip(ids, rng.integers(0, 9, n))
                  if rng.uniform() < 0.9}  # some pairs go missing
        reranked = rerank(sl, TableProvider(inlier_table(counts)))
        tau = DistanceThreshold(float(rng.uniform(5, 100)))
        before = recall_at_k({"q": sl.ids()}, {"q": query}, db, n, tau)
        after = recall_at_k({"q": reranked.db_ids}, {"q": query}, db, n, tau)
        assert before == after  # bit-identical
    ok(2, "Recall@|shortlist| bit-identical before/after rerank over 1000 cases")


def test_03_seven_vs_twentysix_inlier_inversion():
    # correct top-1 with 7 inliers, wrong runner-up with 26: re-ranking flips them
    query = GeoRecord("q", 45.0, 7.0)
    correct = GeoRecord("good", 45.0, 7.0)
    wrong = GeoRecord("bad", 45.0, 7.0 + 500.0 / (M_PER_DEG * math.cos(math.radians(45.0))))
    db = {"good": correct, "bad": wrong}
    sl = Shortlist("q", ["good", "bad"], [0.2, 0.4])
    provider = TableProvider(inlier_table({("q", "good"): 7, ("q", "bad"): 26}))
    tau = DistanceThreshold(25.0)
    assert recall_at_k({"q": sl.ids()}, {"q": query}, db, 1, tau) == 100.0
    reranked = rerank(sl, provider)
    assert reranked.db_ids == ["bad", "good"]
    assert recall_at_k({"q": reranked.db_ids}, {"q": query}, db, 1, tau) == 0.0
    ok(3, "7-inlier positive loses rank 1 to 26-inlier negative; R@1 100% -> 0%")


HARMFUL = SynthConfig(n_db=1500, n_queries=1000, dim=32, target_retrieval_r1=0.98,
                      matcher_quality=0.85, seed=1234)
BENEFICIAL = SynthConfig(n_db=1500, n_queries=1000, dim=32, target_retrieval_r1=0.50,
                         matcher_quality=0.98, seed=77)


def test_04_harmful_reranking_regime_and_oracle_gate_dominance():
    started = time.perf_counter()
    inst = generate(HARMFUL, k=100)
    report = evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers),
                               k=100, ks=(1, 100), taus=(25.0,), gate_estimator="oracle")
    r = report.recalls["25.0"]
    assert r["rerank"]["1"] < r["retrieval"]["1"]
    assert r["adaptive"]["1"] >= r["retrieval"]["1"]
    assert r["adaptive"]["1"] >= r["rerank"]["1"]
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok(4, f"saturated regime: rerank {r['rerank']['1']:.1f} < retrieval "
          f"{r['retrieval']['1']:.1f} <= adaptive {r['adaptive']['1']:.1f} ({elapsed:.1f}s)")


def test_05_beneficial_reranking_regime():
    inst = generate(BENEFICIAL, k=100)
    report = evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers),
                               k=100, ks=(1,), taus=(25.0,), gate_estimator="oracle")
    r = report.recalls["25.0"]
    assert r["rerank"]["1"] >= r["retrieval"]["1"] + 20.0
    ok(5, f"hard regime: rerank {r['rerank']['1']:.1f} beats retrieval "
          f"{r['retrieval']['1']:.1f} by >= 20 points")


def test_06_auprc_calibration():
    separable = [(float(100 - i), i < 41) for i in range(100)]
    assert auprc(pr_curve(separable)) == 1.0

    tied = [(2.5, i < 13) for i in range(40)]
    assert auprc(pr_curve(tied)) == 13 / 40

    prevalence = 0.9
    areas = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        correct = rng.uniform(size=1000) < prevalence
        conf = rng.uniform(size=1000)
        areas.append(auprc(pr_curve(list(zip(conf.tolist(), correct.tolist())))))
    assert float(np.mean(areas)) == pytest.approx(prevalence, abs=0.02)
    ok(6, "AUPRC: 1.0 on separation, prevalence on one tie group, ~prevalence on noise")


def test_07_auprc_equals_threshold_enumeration_oracle():
    def oracle(samples):
        n_pos = sum(1 for _, good in samples if good)
        area, prev_recall = 0.0, 0.0
        for t in sorted({c for c, _ in samples}, reverse=True):
            tp = sum(1 for c, good in samples if c >= t and good)
            fp = sum(1 for c, good in samples if c >= t and not good)
            recall = tp / n_pos
            area += (recall - prev_recall) * (tp / (tp + fp))
            prev_recall = recall
        return area

    rng = np.random.default_rng(13)
    checked = 0
    for n in range(1, 13):
        conf = rng.choice([0.2, 0.4, 0.6, 0.8], size=n).tolist()
        for bits in range(1, 2 ** n):  # every label pattern with >= 1 positive
            labels = [(bits >> i) & 1 == 1 for i in range(n)]
            samples = list(zip(conf, labels))
            assert auprc(pr_curve(samples)) == pytest.approx(oracle(samples), abs=1e-12)
            checked += 1
    ok(7, f"pr_curve+auprc match threshold enumeration on {checked} inputs <= 12 samples")


def test_08_logistic_recovery_and_convergence():
    w_true, b_true = 1.5, -0.75
    rng = np.random.default_rng(0)
    u = rng.normal(0.0, 2.0, 10000)
    p = 1.0 / (1.0 + np.exp(-(w_true * u + b_true)))
    y = rng.uniform(size=10000) < p
    model = fit_logistic(list(zip(u.tolist(), y.tolist())))
    w_raw = model.w / model.std
    b_raw = model.b - model.w * model.mean / model.std
    assert w_raw == pytest.approx(w_true, rel=0.05)
    assert b_raw == pytest.approx(b_true, rel=0.05)
    losses = model.fit_losses
    assert all(losses[i + 1] <= losses[i] for i in range(len(losses) - 1))

    separable = fit_logistic([(float(i), i >= 30) for i in range(60)])
    assert math.isfinite(separable.w) and separable.w > 0  # ridge keeps it bounded
    probs = [predict_prob(separable, float(i)) for i in range(60)]
    assert all(probs[i] <= probs[i + 1] for i in range(59))
    ok(8, f"logistic recovers (w, b) to {abs(w_raw - w_true) / w_true:.1%} / "
          f"{abs(b_raw - b_true) / abs(b_true):.1%}; losses monotone; separable bounded")


def test_09_geodesic_reference_and_metric_properties():
    d = haversine_many(0.0, 0.0, 0.0, 1.0)
    assert d == pytest.approx(111194.93, abs=0.01)

    rng = np.random.default_rng(99)
    lat = rng.uniform(-90, 90, (10000, 3))
    lon = rng.uniform(-180, 180, (10000, 3))
    ab = haversine_many(lat[:, 0], lon[:, 0], lat[:, 1], lon[:, 1])
    ba = haversine_many(lat[:, 1], lon[:, 1], lat[:, 0], lon[:, 0])
    np.testing.assert_allclose(ab, ba, rtol=1e-6, atol=1e-9)
    bc = haversine_many(lat[:, 1], lon[:, 1], lat[:, 2], lon[:, 2])
    ac = haversine_many(lat[:, 0], lon[:, 0], lat[:, 2], lon[:, 2])
    slack = 1e-6 * np.maximum(ac, 1.0)
    assert np.all(ac <= ab + bc + slack)
    ok(9, "1 degree = 111194.93 m +- 0.01; symmetry and triangle hold on 10k samples")


def test_10_gate_endpoints_and_threshold_nesting():
    inst = generate(SynthConfig(n_db=400, n_queries=250, dim=16, target_retrieval_r1=0.8,
                                matcher_quality=0.9, seed=4242), k=20)
    provider = TableProvider(inst.inliers)
    index = build_index(inst.db)
    shortlists = [search(index, np.asarray(row, dtype=np.float64), 20, query_id=r.id)
                  for r, row in zip(inst.queries.records, inst.queries.blob.rows)]
    model = LogisticModel(w=10.0, b=-5.0, mean=0.0, std=1.0)
    scores = {sl.query_id: UncertaintyScore(
        sl.query_id, Estimator.INLIER,
        -float(provider.get_inliers(sl.query_id, sl.ids()[0]))) for sl in shortlists}

    never = GatePolicy(model=model, threshold=1.0 - 1e-12)
    always = GatePolicy(model=model, threshold=1e-13)
    for sl in shortlists:
        closed = adaptive_rerank(sl, provider, never, scores[sl.query_id])
        assert not closed.gate_fired
        assert closed.db_ids == sl.ids()
        opened = adaptive_rerank(sl, provider, always, scores[sl.query_id])
        assert opened.gate_fired
        assert opened.db_ids == rerank(sl, provider).db_ids

    previous = None
    for threshold in np.linspace(0.02, 0.98, 20):
        policy = GatePolicy(model=model, threshold=float(threshold))
        fired = {sl.query_id for sl in shortlists
                 if adaptive_rerank(sl, provider, policy, scores[sl.query_id]).gate_fired}
        if previous is not None:
            assert fired <= previous
        previous = fired
    ok(10, "threshold ~1 = pure retrieval, ~0 = full rerank, fired sets nest over 20 steps")


def test_11_recalls_monotone_when_tau_relaxed():
    for config, gps_noise in ((HARMFUL, 0.0),
                              (SynthConfig(n_db=500, n_queries=350, dim=16,
                                           target_retrieval_r1=0.7, matcher_quality=0.9,
                                           seed=31), 0.0),
                              (SynthConfig(n_db=400, n_queries=300, dim=16,
                                           target_retrieval_r1=0.9, matcher_quality=0.8,
                                           seed=32), 40.0)):
        inst = generate(config, k=50, gps_noise_m=gps_noise)
        report = evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers),
                                   k=50, ks=(1, 5, 10, 50), taus=(25.0, 100.0),
                                   gate_estimator="oracle")
        for system in ("retrieval", "rerank", "adaptive"):
            for kk in ("1", "5", "10", "50"):
                assert (report.recalls["100.0"][system][kk]
                        >= report.recalls["25.0"][system][kk])
    ok(11, "every Recall@K at tau=100 >= tau=25 on all generated instances")


def test_12_evaluate_is_byte_deterministic():
    config = SynthConfig(n_db=500, n_queries=300, dim=16, target_retrieval_r1=0.85,
                         matcher_quality=0.9, inlier_noise_scale=0.5, seed=2026)
    outputs = []
    for workers in (1, 4, 8, 1):
        inst = generate(config, k=30)
        report = evaluate_pipeline(inst.db, inst.queries, TableProvider(inst.inliers),
                                   k=30, ks=(1, 5, 30), taus=(25.0, 100.0),
                                   gate_estimator="inlier", gate_threshold=0.5,
                                   seed=5, workers=workers)
        outputs.append(report.to_json().encode())
    assert len(set(outputs)) == 1
    payload = json.loads(outputs[0])
    assert payload["n_queries"] == 300
    ok(12, "evaluate JSON byte-identical across repeated runs and workers 1/4/8")
