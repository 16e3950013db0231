import hashlib
import json
import math
import re
import statistics
from collections import Counter

import numpy as np
import pytest

from vprkit import uncertainty
from vprkit.dataset import GeoRecord
from vprkit.errors import (
    MatcherError,
    MatcherExitError,
    MatcherOutputError,
    MatcherTimeout,
    MissingPairError,
    ValidationError,
)
from vprkit.matching import MatcherProvider, TableProvider
from vprkit.retrieval import Shortlist
from vprkit.uncertainty import (
    Estimator,
    LogisticModel,
    UncertaintyScore,
    _inlier_count,
    _inlier_score,
    compute_uncertainties,
    fit_logistic,
    predict_prob,
    read_scores_csv,
    u_inlier,
    u_l2,
    u_pa,
    u_random,
    u_sue,
    write_scores_csv,
)
from vprkit.evaluation import auprc, pr_curve

from conftest import AWKWARD_IDS, InvalidPairProvider, csv_bytes

from conftest import inlier_table

EARTH_RADIUS_M = 6_371_000.0
M_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0


def shortlist(*pairs, query_id="q"):
    return Shortlist(query_id, [db_id for db_id, _ in pairs], [d for _, d in pairs])


class TestL2:
    def test_self_match(self):
        assert u_l2(shortlist(("a", 0.0), ("b", 0.3))).u == 0.0

    def test_definition(self):
        score = u_l2(shortlist(("a", 0.42), ("b", 0.9)))
        assert score.u == 0.42
        assert score.estimator is Estimator.L2

    def test_equals_first_entry_of_sorted_list(self, rng):
        for _ in range(50):
            dists = sorted(rng.uniform(0, 2, 10).tolist())
            entries = [(f"d{i}", d) for i, d in enumerate(dists)]
            assert u_l2(shortlist(*entries)).u == min(dists)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            u_l2(shortlist())


class TestPa:
    def test_ratio(self):
        assert u_pa(shortlist(("a", 0.2), ("b", 0.4))).u == 0.5

    def test_tie_is_maximal_aliasing(self):
        assert u_pa(shortlist(("a", 0.3), ("b", 0.3))).u == 1.0

    def test_exact_match_is_confident(self):
        assert u_pa(shortlist(("a", 0.0), ("b", 0.5))).u == 0.0

    def test_both_zero_returns_one(self):
        assert u_pa(shortlist(("a", 0.0), ("b", 0.0))).u == 1.0

    def test_both_infinite_returns_one(self):
        # search writes inf for every row of a query whose distances overflow
        assert u_pa(Shortlist("q", ["a", "b"], [math.inf, math.inf])).u == 1.0

    def test_needs_two_entries(self):
        with pytest.raises(ValidationError):
            u_pa(shortlist(("a", 0.1)))

    def test_range_on_sorted_lists(self, rng):
        for _ in range(100):
            d = sorted(rng.uniform(0, 2, 5).tolist())
            u = u_pa(shortlist(*[(f"d{i}", x) for i, x in enumerate(d)])).u
            assert 0.0 <= u <= 1.0


def sue_oracle(entries, records, sigma):
    """Straight-line re-implementation of the weighted spatial variance."""
    weights = [math.exp(-(d * d) / (sigma * sigma)) for _, d in entries]
    total = sum(weights)
    weights = [w / total for w in weights]
    lats = [records[i].lat for i, _ in entries]
    lons = [records[i].lon for i, _ in entries]
    xs = [EARTH_RADIUS_M * math.cos(math.radians(lats[0])) * math.radians(lo - lons[0])
          for lo in lons]
    ys = [EARTH_RADIUS_M * math.radians(la - lats[0]) for la in lats]
    xbar = sum(w * x for w, x in zip(weights, xs))
    ybar = sum(w * y for w, y in zip(weights, ys))
    return sum(w * ((x - xbar) ** 2 + (y - ybar) ** 2)
               for w, x, y in zip(weights, xs, ys))


class TestSue:
    def test_zero_spread(self):
        records = {f"d{i}": GeoRecord(f"d{i}", 42.0, 7.5) for i in range(5)}
        sl = shortlist(*[(f"d{i}", 0.1 * (i + 1)) for i in range(5)])
        assert u_sue(sl, records).u == 0.0

    def test_two_points_100m_apart_equal_weights(self):
        records = {
            "a": GeoRecord("a", 10.0, 20.0),
            "b": GeoRecord("b", 10.0 + 100.0 / M_PER_DEG, 20.0),
        }
        score = u_sue(shortlist(("a", 0.3), ("b", 0.3)), records)
        assert score.u == pytest.approx(2500.0, rel=1e-6)

    def test_matches_independent_oracle(self, rng):
        for trial in range(30):
            n = int(rng.integers(2, 10))
            records = {}
            entries = []
            dists = sorted(rng.uniform(0.05, 1.5, n).tolist())
            for i in range(n):
                rid = f"d{i}"
                records[rid] = GeoRecord(
                    rid, 45.0 + float(rng.uniform(-0.002, 0.002)),
                    7.0 + float(rng.uniform(-0.002, 0.002)))
                entries.append((rid, dists[i]))
            got = u_sue(shortlist(*entries), records).u
            want = sue_oracle(entries, records, dists[0] + 1e-9)
            assert got == pytest.approx(want, rel=1e-9)

    def test_top_limits_candidates(self):
        records = {f"d{i}": GeoRecord(f"d{i}", 10.0, 20.0) for i in range(10)}
        records["far"] = GeoRecord("far", 11.0, 21.0)
        sl = shortlist(*[(f"d{i}", 0.1 + 0.01 * i) for i in range(10)], ("far", 0.2))
        assert u_sue(sl, records).u == 0.0

    def test_unresolvable_id(self):
        with pytest.raises(ValidationError, match="not in database"):
            u_sue(shortlist(("ghost", 0.1)), {})


class TestRandom:
    def test_deterministic(self):
        assert u_random("query-1", 42).u == u_random("query-1", 42).u

    def test_mean_near_half(self):
        values = [u_random(f"q{i}", 7).u for i in range(10000)]
        assert statistics.mean(values) == pytest.approx(0.5, abs=0.02)

    def test_range(self):
        for i in range(1000):
            assert 0.0 <= u_random(f"q{i}", 3).u < 1.0

    def test_different_seeds_differ(self):
        a = [u_random(f"q{i}", 1).u for i in range(100)]
        b = [u_random(f"q{i}", 2).u for i in range(100)]
        assert a != b

    def test_order_independent(self):
        forward = {f"q{i}": u_random(f"q{i}", 9).u for i in range(50)}
        backward = {f"q{i}": u_random(f"q{i}", 9).u for i in reversed(range(50))}
        assert forward == backward

    @pytest.mark.parametrize("seed", [0, 7, -1, 2**64 + 3])
    @pytest.mark.parametrize("query_id", ["q_00042", "Zürich-東京"])
    def test_equals_hashlib_blake2b_keyed_by_the_seed(self, seed, query_id):
        key = (seed % 2**64).to_bytes(8, "little")
        digest = hashlib.blake2b(query_id.encode("utf-8"), digest_size=8, key=key).digest()
        assert u_random(query_id, seed).u == int.from_bytes(digest, "little") / 2.0**64


class TestInlierUncertainty:
    def test_negates_count(self):
        provider = TableProvider(inlier_table({("q", "top"): 26}))
        assert u_inlier("q", "top", provider).u == -26.0

    def test_zero_is_maximal(self):
        provider = TableProvider(inlier_table({("q", "top"): 0}))
        assert u_inlier("q", "top", provider).u == 0.0

    def test_large_count(self):
        provider = TableProvider(inlier_table({("q", "top"): 2366}))
        assert u_inlier("q", "top", provider).u == -2366.0

    def test_missing_propagates(self):
        provider = TableProvider(inlier_table({}))
        with pytest.raises(MissingPairError):
            u_inlier("q", "top", provider)

    def test_a_provider_validation_error_names_the_query(self):
        # the prefix matching.inlier_keys gives it, on both ways to score the top-1 pair
        provider = InvalidPairProvider(TableProvider(inlier_table({})), ("q7", "top"))
        for score in (lambda: u_inlier("q7", "top", provider),
                      lambda: compute_uncertainties([shortlist(("top", 0.5), query_id="q7")],
                                                    Estimator.INLIER, provider=provider)):
            with pytest.raises(ValidationError) as err:
                score()
            assert str(err.value) == "query 'q7': cannot match (q7, top)"

    @pytest.mark.parametrize("error", [MatcherTimeout, MatcherExitError, MatcherOutputError,
                                       MatcherError, RuntimeError])
    @pytest.mark.parametrize("scored", ["u_inlier", "compute_uncertainties"])
    def test_a_matcher_failure_on_the_top1_pair_propagates_as_raised(self, error, scored):
        class FailingProvider(MatcherProvider):
            """Raises ``error`` on query q2's top-1 pair, counting every call per pair."""

            def __init__(self):
                self.asked = Counter()
                self.raised = None

            def get_inliers(self, query_id, db_id):
                self.asked[query_id, db_id] += 1
                if (query_id, db_id) != ("q2", "top"):
                    return 5
                self.raised = (RuntimeError(f"matcher crashed on ({query_id}, {db_id})")
                               if error is RuntimeError else error(query_id, db_id, "a reason"))
                raise self.raised

        provider = FailingProvider()
        shortlists = [shortlist(("top", 0.5), ("next", 0.7), query_id=f"q{i}") for i in range(3)]
        with pytest.raises(error) as err:
            if scored == "u_inlier":
                u_inlier("q2", "top", provider)
            else:
                compute_uncertainties(shortlists, Estimator.INLIER, provider=provider)
        assert err.value is provider.raised and type(err.value) is error
        assert str(err.value) == ("matcher crashed on (q2, top)" if error is RuntimeError else
                                  "matcher failed for (q2, top): a reason")
        # one call per query scored, for its top-1 pair
        queries = ["q2"] if scored == "u_inlier" else ["q0", "q1", "q2"]
        assert provider.asked == Counter({(q, "top"): 1 for q in queries})

    @pytest.mark.parametrize("count, u", [(0, -0.0), (7, -7.0)])
    def test_a_count_round_trips_through_its_score(self, count, u):
        score = _inlier_score("q", count)
        assert score == UncertaintyScore("q", Estimator.INLIER, u)
        assert math.copysign(1.0, score.u) == -1.0  # a count of 0 scores -0.0
        back = _inlier_count(score)
        assert back == count and type(back) is int

    def test_rank_equivalence_with_counts(self, rng):
        counts = {(f"q{i}", "t"): int(c) for i, c in enumerate(rng.integers(0, 500, 40))}
        provider = TableProvider(inlier_table(counts))
        us = {q: u_inlier(q, "t", provider).u for (q, _) in counts}
        by_u = sorted(us, key=lambda q: us[q])
        by_count_desc = sorted(counts, key=lambda p: (-counts[p], us[p[0]]))
        assert by_u == [q for q, _ in by_count_desc]


class TestComputeUncertainties:
    SHORTLISTS = [shortlist(("d0", 0.2), ("d1", 0.4), query_id="q0"),
                  shortlist(("d1", 0.1), ("d0", 0.3), query_id="q1")]
    DB = {"d0": GeoRecord("d0", 40.0, 9.0), "d1": GeoRecord("d1", 40.001, 9.0)}

    @pytest.mark.parametrize("estimator, message", [
        (Estimator.SUE, "SUE needs database records for coordinates"),
        (Estimator.INLIER, "inlier estimator needs a matcher provider"),
    ], ids=["sue", "inlier"])
    def test_a_missing_input_raises_before_any_query_is_scored(self, estimator, message):
        for shortlists in ([], self.SHORTLISTS):
            with pytest.raises(ValidationError, match=message):
                compute_uncertainties(shortlists, estimator)

    @pytest.mark.parametrize("estimator", list(Estimator))
    def test_each_query_goes_through_the_module_scorer(self, estimator, monkeypatch):
        # a tracer wraps the module's u_* functions; every call must reach the wrapper
        name = f"u_{estimator.value}"
        original, seen = getattr(uncertainty, name), []

        def wrapper(*args, **kwargs):
            seen.append(args[0] if isinstance(args[0], str) else args[0].query_id)
            return original(*args, **kwargs)

        monkeypatch.setattr(uncertainty, name, wrapper)
        provider = TableProvider(inlier_table({("q0", "d0"): 4, ("q1", "d1"): 9}))
        scores = compute_uncertainties(self.SHORTLISTS, estimator, db_records=self.DB,
                                       provider=provider, seed=3)
        assert seen == ["q0", "q1"]
        assert [(s.query_id, s.estimator) for s in scores] == [("q0", estimator),
                                                                ("q1", estimator)]


class TestFitLogistic:
    def test_separable_is_monotone_and_perfectly_ranked(self):
        samples = [(float(i), i >= 50) for i in range(100)]
        model = fit_logistic(samples)
        assert model.w > 0
        probs = [predict_prob(model, float(i)) for i in range(100)]
        assert all(probs[i] <= probs[i + 1] for i in range(99))
        # strictly increasing wherever double precision has headroom
        for i in range(99):
            if 1e-9 < probs[i] and probs[i + 1] < 1.0 - 1e-9:
                assert probs[i] < probs[i + 1]
        # ranking queries by the fitted probability separates them perfectly
        conf = [(-float(i), not wrong) for i, (_, wrong) in enumerate(samples)]
        assert auprc(pr_curve(conf)) == 1.0
        assert all(p > 0.99 for (u, wrong), p in zip(samples, probs) if wrong)
        assert all(p < 0.01 for (u, wrong), p in zip(samples, probs) if not wrong)

    def test_recovers_known_parameters(self):
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

    def test_independent_features_give_flat_half(self):
        rng = np.random.default_rng(5)
        u = rng.normal(0.0, 1.0, 20000)
        y = rng.uniform(size=20000) < 0.5
        model = fit_logistic(list(zip(u.tolist(), y.tolist())))
        assert abs(model.w) < 0.05
        for value in (-2.0, 0.0, 2.0):
            assert predict_prob(model, value) == pytest.approx(0.5, abs=0.05)

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(3)
        u = rng.normal(0.0, 1.0, 500)
        y = u + rng.normal(0, 0.5, 500) > 0
        model = fit_logistic(list(zip(u.tolist(), y.tolist())))
        losses = model.fit_losses
        assert len(losses) >= 2
        assert all(losses[i + 1] <= losses[i] for i in range(len(losses) - 1))

    @staticmethod
    def _scripted_nll(monkeypatch, inflate):
        """Wrap ``_nll`` so that call n (0 = the starting loss) returns the
        true loss plus ``inflate(n)``; returns the (theta, loss) of each call."""
        true_nll, calls = uncertainty._nll, []

        def nll(theta, x, y):
            loss = true_nll(theta, x, y) + inflate(len(calls))
            calls.append((theta.copy(), loss))
            return loss

        monkeypatch.setattr(uncertainty, "_nll", nll)
        return calls

    SAMPLES = [(float(u), u >= 4) for u in range(10)] + [(1.5, True), (6.5, False)]

    def test_a_rejected_step_is_halved_then_taken(self, monkeypatch):
        calls = self._scripted_nll(monkeypatch, lambda n: math.inf if n == 1 else 0.0)
        model = fit_logistic(self.SAMPLES)
        (_, start), (full, rejected), (half, taken) = calls[:3]
        assert rejected == math.inf  # the full first step is refused
        np.testing.assert_array_equal(half, 0.5 * full)  # theta starts at 0
        losses = model.fit_losses
        assert losses[:2] == (start, taken)
        assert len(losses) > 2
        assert all(losses[i + 1] <= losses[i] for i in range(len(losses) - 1))

    def test_no_descent_left_stops_at_the_last_accepted_step(self, monkeypatch):
        # every trial after the first two Newton steps is refused at any scale
        calls = self._scripted_nll(monkeypatch, lambda n: math.inf if n > 2 else 0.0)
        model = fit_logistic(self.SAMPLES)
        assert len(model.fit_losses) == 3
        assert model.fit_losses == tuple(loss for _, loss in calls[:3])
        assert (model.w, model.b) == tuple(calls[2][0])
        assert all(loss == math.inf for _, loss in calls[3:])
        assert model.fit_losses[2] <= model.fit_losses[1] <= model.fit_losses[0]

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError, match="single class"):
            fit_logistic([(0.1, True), (0.2, True)])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            fit_logistic([(float("nan"), True), (0.2, False)])

    def test_constant_feature_rejected(self):
        with pytest.raises(ValidationError, match="constant"):
            fit_logistic([(1.0, True), (1.0, False)])

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            fit_logistic([(1.0, True)])

    def test_affine_rescaling_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(11)
        u = rng.normal(0.0, 1.0, 2000)
        y = u > 0.2
        base = fit_logistic(list(zip(u.tolist(), y.tolist())))
        scaled = fit_logistic(list(zip((3.5 * u + 11.0).tolist(), y.tolist())))
        for value in rng.normal(0.0, 1.0, 100):
            a = predict_prob(base, float(value))
            b = predict_prob(scaled, float(3.5 * value + 11.0))
            assert a == pytest.approx(b, abs=1e-8)


class TestPredictProb:
    def test_centered_point_is_half(self):
        model = LogisticModel(w=2.0, b=0.0, mean=5.0, std=1.5)
        assert predict_prob(model, 5.0) == 0.5

    def test_saturates_toward_one(self):
        model = LogisticModel(w=1.0, b=0.0, mean=0.0, std=1.0)
        assert predict_prob(model, 100.0) >= 0.999
        assert predict_prob(model, 100.0) < 1.0
        assert predict_prob(model, -100.0) > 0.0

    def test_matches_independent_sigmoid(self, rng):
        model = LogisticModel(w=1.7, b=-0.4, mean=2.0, std=3.0)
        for u in rng.normal(0, 5, 100):
            z = model.w * (float(u) - model.mean) / model.std + model.b
            want = 1.0 / (1.0 + math.exp(-z))
            assert predict_prob(model, float(u)) == pytest.approx(want, abs=1e-12)

    def test_preserves_order_when_w_positive(self, rng):
        model = LogisticModel(w=0.8, b=0.3, mean=0.0, std=2.0)
        us = sorted(rng.normal(0, 3, 200).tolist())
        ps = [predict_prob(model, u) for u in us]
        assert ps == sorted(ps)

    def test_rejects_non_finite(self):
        model = LogisticModel(w=1.0, b=0.0, mean=0.0, std=1.0)
        with pytest.raises(ValidationError):
            predict_prob(model, float("inf"))


class TestModelJson:
    def test_round_trip(self):
        model = LogisticModel(w=1.25, b=-0.5, mean=3.0, std=0.7)
        loaded = LogisticModel.from_json(model.to_json())
        assert (loaded.w, loaded.b, loaded.mean, loaded.std) == (1.25, -0.5, 3.0, 0.7)

    def test_keys(self):
        obj = json.loads(LogisticModel(w=1.0, b=2.0, mean=3.0, std=4.0).to_json())
        assert set(obj) == {"w", "b", "mean", "std"}

    def test_bad_json_rejected(self):
        with pytest.raises(ValidationError):
            LogisticModel.from_json("{broken")
        with pytest.raises(ValidationError):
            LogisticModel.from_json('{"w": 1.0}')
        with pytest.raises(ValidationError, match="expected an object with fields w, b, mean "
                                                  "and std"):
            LogisticModel.from_json("[1.0, 0.0, 0.0, 1.0]")
        with pytest.raises(ValidationError, match="maximum recursion depth exceeded"):
            LogisticModel.from_json("[" * 100_000)

    def test_std_must_be_positive(self):
        with pytest.raises(ValidationError):
            LogisticModel(w=1.0, b=0.0, mean=0.0, std=0.0)

    @pytest.mark.parametrize("value, problem", [
        ("NaN", "must be finite"), ("Infinity", "must be finite"), ("-Infinity", "must be finite"),
        ("true", "must be a JSON number, got bool"),
        ('"1.5"', "must be a JSON number, got str"),
        ("1" + "0" * 400, "must be finite, got inf"),
        ("-1" + "0" * 5000, "must be finite, got -inf"),
    ], ids=["NaN", "Infinity", "-Infinity", "true", "numeric-string", "400-digit-int",
            "5000-digit-int"])
    @pytest.mark.parametrize("name", ["w", "b", "mean", "std"])
    def test_a_non_finite_field_is_rejected_naming_it(self, name, value, problem):
        # json.loads reads NaN and ±Infinity; such a model would map every u
        # to nan or to a clipped constant, and so switch a gate off
        fields = {"w": "1.0", "b": "0.0", "mean": "0.0", "std": "1.0", name: value}
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        with pytest.raises(ValidationError, match=re.escape(f"model field '{name}' {problem}")):
            LogisticModel.from_json(text)


class TestScoresCsv:
    HEADER = "query_id,estimator,u,prob\n"

    def test_one_query_under_two_estimators_is_read(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(self.HEADER + "q0,l2,0.5,\nq0,pa,0.9,\nq1,l2,0.25,\n")
        assert [(s.query_id, s.estimator, s.u) for s in read_scores_csv(path)] == [
            ("q0", Estimator.L2, 0.5), ("q0", Estimator.PA, 0.9), ("q1", Estimator.L2, 0.25)]

    def test_a_score_the_model_cannot_map_leaves_no_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        model = LogisticModel(w=1.0, b=0.0, mean=0.0, std=1.0)
        scores = [UncertaintyScore("q0", Estimator.L2, 0.5),
                  UncertaintyScore("q1", Estimator.L2, math.inf)]
        with pytest.raises(ValidationError, match="query 'q1'"):
            write_scores_csv(scores, path, model)
        assert not path.exists()

    @pytest.mark.parametrize("text, message", [
        ("query_id,estimator,u\nq0,l2,0.5\n",
         "unexpected scores CSV header ['query_id', 'estimator', 'u']"),
        (HEADER + "q0,l2,0.5,\nq1,l2,0.5\n", "line 3: expected 4 fields"),
        (HEADER + "q0,l2,0.5,\nq1,l3,0.5,\n", "line 3: bad estimator or u value"),
        (HEADER + "q0,l2,0.5,\nq1,l2,half,\n", "line 3: bad estimator or u value"),
    ], ids=["header", "fields", "estimator", "u"])
    def test_a_malformed_file_is_rejected_naming_it(self, tmp_path, text, message):
        path = tmp_path / "scores.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
            read_scores_csv(path)

    def test_a_bad_row_after_a_quoted_line_break_names_its_physical_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv([UncertaintyScore("lf\nx", Estimator.L2, 0.5)], path)
        with open(path, "a", newline="") as fh:
            fh.write("q1,l2,nan,\r\n")
        with pytest.raises(ValidationError, match="line 4: non-finite u value 'nan'"):
            read_scores_csv(path)

    @pytest.mark.parametrize("first_query, row, message", [
        ("q0", "q1,l2,0.5", "line 3: expected 4 fields, got 3"),
        ("q0", "q1,l2,0.5,,", "line 3: expected 4 fields, got 5"),
        ("lf\nx", "q1,l2,0.5", "line 4: expected 4 fields, got 3"),
    ], ids=["short", "long", "after-a-quoted-line-break"])
    def test_a_row_of_the_wrong_width_names_its_physical_line(self, tmp_path, first_query,
                                                              row, message):
        path = tmp_path / "scores.csv"
        write_scores_csv([UncertaintyScore(first_query, Estimator.L2, 0.5)], path)
        with open(path, "a", newline="") as fh:
            fh.write(row + "\r\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}") + "$"):
            read_scores_csv(path)

    @pytest.mark.parametrize("model", [None, LogisticModel(w=1.5, b=-0.2, mean=0.1, std=2.0)],
                             ids=["uncalibrated", "calibrated"])
    def test_bytes_are_csv_writers_for_awkward_ids(self, tmp_path, model):
        us = [0.5, -0.0, 1e-300, 1 / 3, -7.0]
        scores = [UncertaintyScore(q, list(Estimator)[i % 5], us[i % 5])
                  for i, q in enumerate(AWKWARD_IDS + [""])]
        path = tmp_path / "scores.csv"
        write_scores_csv(scores, path, model)
        assert path.read_bytes() == csv_bytes(
            [["query_id", "estimator", "u", "prob"]]
            + [[s.query_id, s.estimator.value, repr(s.u),
                "" if model is None else repr(predict_prob(model, s.u))] for s in scores])
        assert read_scores_csv(path) == scores

    def test_a_numpy_scalar_u_writes_the_python_float_row(self, tmp_path):
        numpy_path, float_path = tmp_path / "numpy.csv", tmp_path / "float.csv"
        write_scores_csv([UncertaintyScore("q", Estimator.L2, np.float64(0.5))], numpy_path)
        write_scores_csv([UncertaintyScore("q", Estimator.L2, 0.5)], float_path)
        assert numpy_path.read_bytes() == float_path.read_bytes()
        assert read_scores_csv(numpy_path) == [UncertaintyScore("q", Estimator.L2, 0.5)]

    def test_repeated_score_is_rejected_naming_the_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(self.HEADER + "q0,l2,0.5,\nq1,l2,0.25,\nq0,l2,0.5,\n")
        with pytest.raises(ValidationError, match=r"line 4: duplicate score \(q0, l2\)"):
            read_scores_csv(path)
