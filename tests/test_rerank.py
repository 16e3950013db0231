import pytest

from vprkit.errors import ValidationError
from vprkit.matching import MatcherProvider, TableProvider
from vprkit.rerank import GatePolicy, adaptive_rerank, rerank, write_reranked_csv
from vprkit.retrieval import Shortlist
from vprkit.uncertainty import Estimator, LogisticModel, UncertaintyScore

from conftest import inlier_table


def shortlist(query_id, ids, distances=None):
    distances = distances or [0.1 * (i + 1) for i in range(len(ids))]
    return Shortlist(query_id, list(ids), distances)


def table_provider(query_id, counts):
    return TableProvider(inlier_table({(query_id, db): c for db, c in counts.items()}))


class CountingProvider(MatcherProvider):
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def get_inliers(self, query_id, db_id, image_paths=None):
        self.calls += 1
        return self.inner.get_inliers(query_id, db_id, image_paths)


# gate model mapping u=0 -> p ~ 0.007 and u=1 -> p ~ 0.993
ORACLE_LIKE_MODEL = LogisticModel(w=10.0, b=-5.0, mean=0.0, std=1.0)


def oracle_stable_sort(entries):
    """Independent reference: decorate-sort with explicit missing bucketing."""
    present = [e for e in entries if e[1] is not None]
    missing = [e for e in entries if e[1] is None]
    present.sort(key=lambda e: (-e[1], e[2]))
    missing.sort(key=lambda e: e[2])
    return present + missing


class TestRerank:
    def test_inversion_when_wrong_pair_has_more_inliers(self):
        sl = shortlist("q", ["correct", "wrong"])
        provider = table_provider("q", {"correct": 7, "wrong": 26})
        out = rerank(sl, provider)
        assert out.ids() == ["wrong", "correct"]
        assert out.inliers == [26, 7]
        assert out.original_ranks == [2, 1]

    def test_equal_counts_keep_retrieval_order(self):
        sl = shortlist("q", ["a", "b", "c"])
        out = rerank(sl, table_provider("q", {"a": 5, "b": 5, "c": 5}))
        assert out.ids() == ["a", "b", "c"]

    def test_matches_stable_sort_oracle(self, rng):
        for trial in range(100):
            n = int(rng.integers(1, 101))
            ids = [f"d{i}" for i in range(n)]
            counts = {i: int(c) for i, c in zip(ids, rng.integers(0, 12, n))}
            sl = shortlist("q", ids)
            out = rerank(sl, table_provider("q", counts))
            want = oracle_stable_sort([(i, counts[i], r + 1) for r, i in enumerate(ids)])
            assert out.ids() == [i for i, _, _ in want]

    def test_order_equals_the_tuple_key_with_ties_and_missing(self, rng):
        # the (missing, -count, position) key rerank sorted by before its
        # keys became one int per position
        for _ in range(200):
            n = int(rng.integers(1, 60))
            ids = [f"d{i}" for i in range(n)]
            drawn = rng.integers(0, 5, n)  # few values: many ties
            counts = [None if rng.uniform() < 0.25 else int(c) for c in drawn]
            present = {i: c for i, c in zip(ids, counts) if c is not None}
            out = rerank(shortlist("q", ids), table_provider("q", present))
            want = sorted(range(n), key=lambda i: (counts[i] is None, -(counts[i] or 0), i))
            assert out.original_ranks == [i + 1 for i in want]
            assert out.inliers == [counts[i] for i in want]

    def test_missing_pairs_sink_below_counted(self):
        sl = shortlist("q", ["a", "b", "c", "d"])
        out = rerank(sl, table_provider("q", {"b": 1, "d": 3}))
        assert out.ids() == ["d", "b", "a", "c"]
        assert out.inliers == [3, 1, None, None]
        assert {db for db, _ in out.diagnostics} == {"a", "c"}

    def test_zero_count_beats_missing(self):
        sl = shortlist("q", ["a", "b"])
        out = rerank(sl, table_provider("q", {"b": 0}))
        assert out.ids() == ["b", "a"]

    def test_permutation_of_source_ids(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 40))
            ids = [f"d{i}" for i in range(n)]
            keep = {i: int(c) for i, c in zip(ids, rng.integers(0, 6, n)) if rng.uniform() < 0.8}
            out = rerank(shortlist("q", ids), table_provider("q", keep))
            assert sorted(out.ids()) == sorted(ids)

    def test_empty_shortlist_rejected(self):
        with pytest.raises(ValidationError):
            rerank(Shortlist("q", [], []), table_provider("q", {}))


class TestAdaptiveRerank:
    def test_gate_fires_on_high_probability(self):
        sl = shortlist("q", ["correct", "wrong"])
        provider = table_provider("q", {"correct": 7, "wrong": 26})
        policy = GatePolicy(model=ORACLE_LIKE_MODEL, threshold=0.5)
        u = UncertaintyScore("q", Estimator.INLIER, 1.0)
        out = adaptive_rerank(sl, provider, policy, u)
        assert out.gate_fired
        assert out.ids() == rerank(sl, provider).ids()

    def test_gate_closed_preserves_retrieval_order(self):
        sl = shortlist("q", ["a", "b", "c"])
        provider = CountingProvider(table_provider("q", {"a": 1, "b": 9, "c": 4}))
        policy = GatePolicy(model=ORACLE_LIKE_MODEL, threshold=0.5)
        u = UncertaintyScore("q", Estimator.INLIER, -30.0)
        out = adaptive_rerank(sl, provider, policy, u)
        assert not out.gate_fired
        assert out.ids() == ["a", "b", "c"]
        assert provider.calls == 0  # gating must stay lazy
        assert out.inliers == [30, None, None]  # top-1 count already paid for by u

    def test_gate_closed_without_inlier_estimator_has_no_counts(self):
        sl = shortlist("q", ["a", "b"])
        policy = GatePolicy(model=ORACLE_LIKE_MODEL, threshold=0.5, estimator=Estimator.L2)
        u = UncertaintyScore("q", Estimator.L2, -100.0)
        out = adaptive_rerank(sl, table_provider("q", {}), policy, u)
        assert not out.gate_fired
        assert out.inliers == [None, None]

    def test_estimator_mismatch_rejected(self):
        sl = shortlist("q", ["a", "b"])
        policy = GatePolicy(model=ORACLE_LIKE_MODEL, threshold=0.5, estimator=Estimator.INLIER)
        u = UncertaintyScore("q", Estimator.L2, 0.2)
        with pytest.raises(ValidationError, match="gate expects"):
            adaptive_rerank(sl, table_provider("q", {}), policy, u)

    def test_query_mismatch_rejected(self):
        sl = shortlist("q", ["a", "b"])
        policy = GatePolicy(model=ORACLE_LIKE_MODEL, threshold=0.5)
        u = UncertaintyScore("other", Estimator.INLIER, 0.2)
        with pytest.raises(ValidationError, match="query"):
            adaptive_rerank(sl, table_provider("q", {}), policy, u)

    def test_threshold_near_one_never_fires(self, rng):
        provider = table_provider("q", {"a": 50, "b": 2})
        sl = shortlist("q", ["a", "b"])
        policy = GatePolicy(model=ORACLE_LIKE_MODEL, threshold=1.0 - 1e-12)
        for u_val in (-1000.0, 0.0, 1000.0):
            out = adaptive_rerank(sl, provider, policy,
                                  UncertaintyScore("q", Estimator.INLIER, u_val))
            assert not out.gate_fired
            assert out.ids() == sl.ids()

    def test_threshold_near_zero_always_fires(self):
        # probabilities are clipped to >= 1e-12, so anything below that floor
        # expresses "always re-rank" under the strict > comparison
        provider = table_provider("q", {"a": 2, "b": 50})
        sl = shortlist("q", ["a", "b"])
        policy = GatePolicy(model=ORACLE_LIKE_MODEL, threshold=1e-13)
        for u_val in (-1000.0, 0.0, 1000.0):
            out = adaptive_rerank(sl, provider, policy,
                                  UncertaintyScore("q", Estimator.INLIER, u_val))
            assert out.gate_fired
            assert out.ids() == rerank(sl, provider).ids()

    def test_fired_set_shrinks_as_threshold_grows(self, rng):
        provider = table_provider("q", {})
        us = rng.normal(0.5, 0.4, 200)
        thresholds = sorted(rng.uniform(0.001, 0.999, 20).tolist())
        previous = None
        for threshold in thresholds:
            policy = GatePolicy(model=ORACLE_LIKE_MODEL, threshold=threshold,
                                estimator=Estimator.L2)
            fired = set()
            for i, u_val in enumerate(us):
                sl = shortlist(f"q{i}", ["a", "b"])
                prov = table_provider(f"q{i}", {"a": 1, "b": 2})
                out = adaptive_rerank(sl, prov, policy,
                                      UncertaintyScore(f"q{i}", Estimator.L2, float(u_val)))
                if out.gate_fired:
                    fired.add(i)
            if previous is not None:
                assert fired <= previous
            previous = fired

    def test_threshold_bounds_validated(self):
        with pytest.raises(ValidationError):
            GatePolicy(model=ORACLE_LIKE_MODEL, threshold=0.0)
        with pytest.raises(ValidationError):
            GatePolicy(model=ORACLE_LIKE_MODEL, threshold=1.0)


class TestRerankedCsv:
    def test_format(self, tmp_path):
        sl = shortlist("q", ["a", "b", "c"])
        out = rerank(sl, table_provider("q", {"a": 1, "c": 9}))
        path = tmp_path / "rr.csv"
        write_reranked_csv([out], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id,new_rank,db_id,inliers,original_rank,gate_fired"
        assert lines[1] == "q,1,c,9,3,true"
        assert lines[2] == "q,2,a,1,1,true"
        assert lines[3] == "q,3,b,,2,true"  # missing count stays blank
