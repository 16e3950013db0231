import csv

import pytest

from vprkit.errors import MissingPairError, ValidationError
from vprkit.matching import MatcherProvider, TableProvider
from vprkit.rerank import (
    GatePolicy,
    RerankedShortlist,
    adaptive_rerank,
    rerank,
    write_reranked_csv,
)
from vprkit.retrieval import Shortlist
from vprkit.uncertainty import Estimator, LogisticModel, UncertaintyScore, u_inlier

from conftest import AWKWARD_IDS, InvalidPairProvider, csv_bytes, inlier_table


def shortlist(query_id, ids, distances=None):
    distances = distances or [0.1 * (i + 1) for i in range(len(ids))]
    return Shortlist(query_id, list(ids), distances)


def table_provider(query_id, counts):
    return TableProvider(inlier_table({(query_id, db): c for db, c in counts.items()}))


class CountingProvider(MatcherProvider):
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def get_inliers(self, query_id, db_id):
        self.calls += 1
        return self.inner.get_inliers(query_id, db_id)


# gate model mapping u=0 -> p ~ 0.007 and u=1 -> p ~ 0.993
ORACLE_LIKE_MODEL = LogisticModel(w=10.0, b=-5.0, mean=0.0, std=1.0)
# gate model for inlier scores u = -count: below 10 inliers p -> 1, above it p -> 0
FEW_INLIERS_WRONG = LogisticModel(w=10.0, b=0.0, mean=-10.0, std=1.0)
# gate model whose every p on u <= 0 is clipped to 1 - 1e-12
ALL_WRONG = LogisticModel(w=-10.0, b=50.0, mean=0.0, std=1.0)


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
        for db_id, err in out.diagnostics:
            assert isinstance(err, MissingPairError) and (err.query_id, err.db_id) == ("q", db_id)
            # a kept error holds no frames or KeyError
            assert err.__traceback__ is None and err.__context__ is None

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

    def test_a_provider_validation_error_names_the_query(self):
        inner = table_provider("q7", {"a": 3, "b": 9, "c": 4})
        with pytest.raises(ValidationError) as err:
            rerank(shortlist("q7", ["a", "b", "c"]), InvalidPairProvider(inner, ("q7", "b")))
        assert str(err.value) == "query 'q7': cannot match (q7, b)"


class TestAdaptiveRerank:
    def test_gate_fires_on_high_probability(self):
        sl = shortlist("q", ["correct", "wrong"])
        provider = table_provider("q", {"correct": 7, "wrong": 26})
        policy = GatePolicy(model=FEW_INLIERS_WRONG, threshold=0.5)
        u = u_inlier("q", "correct", provider)
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
        u = UncertaintyScore("q", Estimator.INLIER, -30)  # an int u reads the same
        assert adaptive_rerank(sl, provider, policy, u).inliers == [30, None, None]

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
        # probabilities are clipped to <= 1 - 1e-12, so a model that calls
        # every query wrong still never fires at that threshold
        sl = shortlist("q", ["a", "b"])
        policy = GatePolicy(model=ALL_WRONG, threshold=1.0 - 1e-12)
        for top1 in (1000, 0, 50):
            provider = table_provider("q", {"a": top1, "b": 2})
            out = adaptive_rerank(sl, provider, policy, u_inlier("q", "a", provider))
            assert not out.gate_fired
            assert out.ids() == sl.ids()

    def test_threshold_near_zero_always_fires(self):
        # probabilities are clipped to >= 1e-12, so anything below that floor
        # expresses "always re-rank" under the strict > comparison
        sl = shortlist("q", ["a", "b"])
        policy = GatePolicy(model=ORACLE_LIKE_MODEL, threshold=1e-13)
        for top1 in (1000, 0, 2):
            provider = table_provider("q", {"a": top1, "b": 50})
            out = adaptive_rerank(sl, provider, policy, u_inlier("q", "a", provider))
            assert out.gate_fired
            assert out.ids() == rerank(sl, provider).ids()

    @pytest.mark.parametrize("u_val", [1.0, 1000.0, -2.5])
    @pytest.mark.parametrize("threshold", [1e-13, 0.5, 1.0 - 1e-12])
    def test_an_inlier_u_that_is_not_a_negated_count_is_rejected(self, u_val, threshold):
        provider = CountingProvider(table_provider("q7", {"a": 2, "b": 50}))
        policy = GatePolicy(model=ORACLE_LIKE_MODEL, threshold=threshold)
        u = UncertaintyScore("q7", Estimator.INLIER, u_val)
        with pytest.raises(ValidationError, match=f"^query 'q7': .*got {u_val!r}$"):
            adaptive_rerank(shortlist("q7", ["a", "b"]), provider, policy, u)
        assert provider.calls == 0

    def test_a_fired_inlier_gate_asks_only_positions_2_to_k(self):
        sl = shortlist("q", ["a", "b", "c", "d"])
        provider = CountingProvider(table_provider("q", {"a": 3, "b": 9, "c": 1}))
        u = u_inlier("q", "a", provider)
        provider.calls = 0
        for estimator, calls in ((Estimator.INLIER, 3), (Estimator.L2, 4)):
            policy = GatePolicy(model=ORACLE_LIKE_MODEL, threshold=1e-13, estimator=estimator)
            score = u if estimator is Estimator.INLIER else UncertaintyScore("q", estimator, 0.5)
            out = adaptive_rerank(sl, provider, policy, score)
            assert provider.calls == calls
            provider.calls = 0
            assert out.ids() == ["b", "a", "c", "d"] and out.inliers == [9, 3, 1, None]
            assert [db_id for db_id, _ in out.diagnostics] == ["d"]

    def test_a_fired_gate_names_the_query_in_a_provider_validation_error(self):
        provider = InvalidPairProvider(table_provider("q7", {"a": 3, "b": 9, "c": 4}),
                                       ("q7", "c"))
        policy = GatePolicy(model=FEW_INLIERS_WRONG, threshold=0.5)  # 3 inliers: p ~ 1
        with pytest.raises(ValidationError) as err:
            adaptive_rerank(shortlist("q7", ["a", "b", "c"]), provider, policy,
                            u_inlier("q7", "a", provider))
        assert str(err.value) == "query 'q7': cannot match (q7, c)"

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


class TestRerankedShortlist:
    def test_rejects_unequal_columns_naming_the_query(self):
        for ids, counts, ranks in ((["a", "b", "c"], [4], [1, 2, 3]),
                                   (["a"], [4, None], [1]),
                                   (["a", "b"], [4, None], [2])):
            with pytest.raises(ValidationError, match="query 'q7': "):
                RerankedShortlist("q7", ids, counts, ranks, gate_fired=True)
        assert RerankedShortlist("q7", ["a"], [None], [1], gate_fired=False).ids() == ["a"]


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

    def test_bytes_are_csv_writers_for_awkward_ids(self, tmp_path):
        n = len(AWKWARD_IDS)
        reranked = [RerankedShortlist(q, AWKWARD_IDS[i:] + AWKWARD_IDS[:i],
                                      [None if (i + j) % 4 == 0 else j * 7 for j in range(n)],
                                      list(range(n, 0, -1)), gate_fired=i % 2 == 0)
                    for i, q in enumerate(AWKWARD_IDS + [""])]
        header = ["query_id", "new_rank", "db_id", "inliers", "original_rank", "gate_fired"]
        rows = [[rr.query_id, new_rank, db_id, "" if count is None else str(count), rank,
                 "true" if rr.gate_fired else "false"] for rr in reranked
                for new_rank, (db_id, count, rank)
                in enumerate(zip(rr.db_ids, rr.inliers, rr.original_ranks), start=1)]
        path = tmp_path / "rr.csv"
        blank = write_reranked_csv(iter(reranked), path)
        assert blank == sum(row[3] == "" for row in rows)
        assert path.read_bytes() == csv_bytes([header] + rows)
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [header] + [list(map(str, row)) for row in rows]
