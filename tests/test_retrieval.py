import math
import re
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest

from vprkit import _kernels
from vprkit.dataset import DescriptorBlob, GeoRecord, Split
from vprkit.errors import ValidationError
from vprkit.retrieval import (
    BLOCK_ROWS,
    Shortlist,
    build_index,
    read_shortlists_csv,
    search,
    search_all,
    write_shortlists_csv,
)

from conftest import AWKWARD_IDS, csv_bytes, full_sort_top_k, make_split, unit_rows


def oracle_full_sort(vectors, query):
    """Reference search: python floats, sequential accumulation, stable sort."""
    dim = len(query)
    dists = []
    for i in range(len(vectors)):
        acc = 0.0
        for j in range(dim):
            diff = float(vectors[i][j]) - float(query[j])
            acc += diff * diff
        dists.append(math.sqrt(acc))
    order = sorted(range(len(vectors)), key=lambda i: (dists[i], i))
    return order, dists


class TestShortlist:
    def test_rejects_empty_and_unequal_columns(self):
        with pytest.raises(ValidationError, match="'q7': empty shortlist"):
            Shortlist("q7", [], [])
        for ids, dists in ((["a", "b"], [0.1]), (["a"], [0.1, 0.2])):
            with pytest.raises(ValidationError, match="'q7'"):
                Shortlist("q7", ids, dists)

    def test_search_all_columns_are_plain_lists_equal_to_oracle(self, rng):
        db = make_split(unit_rows(rng, 40, 8))
        queries = make_split(unit_rows(rng, 5, 8), prefix="q")
        vectors = np.asarray(db.blob.rows, dtype=np.float64)
        for sl, row in zip(search_all(build_index(db), queries, 7), queries.blob.rows):
            ids, dists = sl.ids(), sl.distances()
            assert type(ids) is list and all(type(i) is str for i in ids)
            assert type(dists) is list and all(type(d) is float for d in dists)
            order, oracle = oracle_full_sort(vectors, row)
            assert ids == [f"r{i}" for i in order[:7]]
            assert dists == [oracle[i] for i in order[:7]]

    def test_search_all_distances_are_the_kernels_float64_rows(self, rng):
        db = make_split(unit_rows(rng, 60, 8))
        queries = make_split(unit_rows(rng, BLOCK_ROWS + 3, 8), prefix="q")
        index = build_index(db)
        shortlists = search_all(index, queries, 9)
        for lo in range(0, len(queries), BLOCK_ROWS):
            block = np.asarray(queries.blob.rows[lo:lo + BLOCK_ROWS], dtype=np.float64)
            screen = np.empty((len(block), len(db)), dtype=np.float32)
            _, sq = _kernels.top_k(index._vectors, index._sq_norms, block, 9, screen)
            for sl, want in zip(shortlists[lo:lo + BLOCK_ROWS], np.sqrt(sq)):
                assert type(sl.dists) is array and sl.dists.typecode == "d"
                assert sl.dists.tobytes() == want.tobytes()

    def test_any_float_sequence_becomes_a_float64_array(self):
        for dists in ([0.5], (0.5,), np.array([0.5], dtype=np.float32), array("f", [0.5])):
            sl = Shortlist("q", ["a"], dists)
            assert type(sl.dists) is array and sl.dists.typecode == "d"
            assert sl.dists.tolist() == [0.5]
        kept = array("d", [0.25])
        assert Shortlist("q", ["a"], kept).dists is kept

    def test_records_and_scores_have_no_instance_dict(self):
        from vprkit.uncertainty import Estimator, UncertaintyScore
        for obj in (GeoRecord("a", 1.0, 2.0), UncertaintyScore("q", Estimator.L2, 0.5),
                    Shortlist("q", ["a"], [0.5])):
            assert not hasattr(obj, "__dict__")


class TestBuildIndex:
    def test_size(self, rng):
        split = make_split(unit_rows(rng, 5, 8))
        assert len(build_index(split)) == 5

    def test_duplicates_allowed(self, rng):
        rows = unit_rows(rng, 5, 8)
        rows[3] = rows[1]
        assert len(build_index(make_split(rows))) == 5

    def test_empty_database_rejected(self):
        split = make_split(np.zeros((0, 4), dtype=np.float32))
        with pytest.raises(ValidationError, match="empty"):
            build_index(split)


class TestSearch:
    def test_self_match_has_zero_distance(self, rng):
        split = make_split(unit_rows(rng, 10, 6))
        index = build_index(split)
        sl = search(index, np.asarray(split.blob.rows[3], dtype=np.float64), 5)
        assert sl.ids()[0] == "r3"
        assert sl.distances()[0] == 0.0

    def test_k_clamped_to_database_size(self, rng):
        split = make_split(unit_rows(rng, 50, 8))
        sl = search(build_index(split), unit_rows(rng, 1, 8)[0], 200)
        assert len(sl) == 50

    def test_k_must_be_positive(self, rng):
        split = make_split(unit_rows(rng, 5, 8))
        with pytest.raises(ValidationError):
            search(build_index(split), unit_rows(rng, 1, 8)[0], 0)

    @pytest.mark.parametrize("k", [2.5, 3.0, "3", None, np.float64(3.0)])
    def test_k_must_be_an_integer(self, rng, k):
        split = make_split(unit_rows(rng, 5, 8))
        index = build_index(split)
        with pytest.raises(ValidationError, match=re.escape(f"k must be an integer, got {k!r}")):
            search(index, unit_rows(rng, 1, 8)[0], k)
        with pytest.raises(ValidationError, match=re.escape(f"k must be an integer, got {k!r}")):
            search_all(index, split, k)
        assert [len(sl) for sl in search_all(index, split, np.int64(3))] == [3] * 5

    def test_dimension_mismatch(self, rng):
        split = make_split(unit_rows(rng, 5, 8))
        with pytest.raises(ValidationError, match="dimension"):
            search(build_index(split), unit_rows(rng, 1, 9)[0], 3)

    @pytest.mark.parametrize("descriptor, shape", [
        (np.float64(0.5), "()"), (np.zeros((2, 8)), "(2, 8)"), (np.zeros(6), "(6,)")],
        ids=["0-d", "2-d", "other-dim"])
    def test_a_query_of_another_shape_is_rejected_naming_it(self, rng, descriptor, shape):
        index = build_index(make_split(unit_rows(rng, 5, 8)))
        with pytest.raises(ValidationError) as err:
            search(index, descriptor, 3)
        assert str(err.value) == f"query dimension mismatch: query shape {shape}, index dim 8"
        # k is checked first
        with pytest.raises(ValidationError, match=re.escape("k must be >= 1, got 0")):
            search(index, descriptor, 0)

    def test_search_all_rejects_a_split_of_another_dim(self, rng):
        index = build_index(make_split(unit_rows(rng, 5, 8)))
        queries = make_split(unit_rows(rng, 3, 6), prefix="q")
        with pytest.raises(ValidationError) as err:
            search_all(index, queries, 3)
        assert str(err.value) == "query dimension mismatch: query shape (6,), index dim 8"

    def test_matches_full_sort_oracle_exactly(self, rng):
        split = make_split(unit_rows(rng, 50, 8))
        index = build_index(split)
        vectors = np.asarray(split.blob.rows, dtype=np.float64)
        query = unit_rows(rng, 1, 8)[0]
        sl = search(index, query, 10)
        order, dists = oracle_full_sort(vectors, query)
        assert sl.ids() == [f"r{i}" for i in order[:10]]
        assert sl.distances() == [dists[i] for i in order[:10]]

    def test_tie_order_follows_insertion_index(self, rng):
        rows = unit_rows(rng, 20, 8)
        rows[7] = rows[2]
        rows[15] = rows[2]
        split = make_split(rows)
        index = build_index(split)
        sl = search(index, np.asarray(split.blob.rows[2], dtype=np.float64), 4)
        assert sl.ids()[:3] == ["r2", "r7", "r15"]
        assert sl.distances()[:3] == [0.0, 0.0, 0.0]

    def test_boundary_ties_resolved_like_full_sort(self, rng):
        # duplicate rows straddling the k boundary must come out in index order
        rows = unit_rows(rng, 12, 4)
        for i in range(1, 12):
            rows[i] = rows[0]
        split = make_split(rows)
        index = build_index(split)
        query = unit_rows(rng, 1, 4)[0]
        sl = search(index, query, 5)
        assert sl.ids() == ["r0", "r1", "r2", "r3", "r4"]

    def test_distances_non_decreasing(self, rng):
        for _ in range(50):
            split = make_split(unit_rows(rng, 30, 5))
            sl = search(build_index(split), unit_rows(rng, 1, 5)[0], 30)
            d = sl.distances()
            assert all(d[i] <= d[i + 1] for i in range(len(d) - 1))

    def test_unit_vector_distance_dot_identity(self, rng):
        split = make_split(unit_rows(rng, 40, 16))
        index = build_index(split)
        vectors = np.asarray(split.blob.rows, dtype=np.float64)
        for _ in range(20):
            query = unit_rows(rng, 1, 16)[0].astype(np.float32).astype(np.float64)
            sl = search(index, query, 40)
            by_id = {f"r{i}": i for i in range(40)}
            for db_id, distance in zip(sl.ids(), sl.distances()):
                dot = float(np.dot(vectors[by_id[db_id]], query))
                assert distance ** 2 == pytest.approx(2.0 - 2.0 * dot, abs=1e-5)

    def test_search_is_pure(self, rng):
        split = make_split(unit_rows(rng, 25, 8))
        index = build_index(split)
        query = unit_rows(rng, 1, 8)[0]
        first = search(index, query, 10)
        second = search(index, query, 10)
        assert first.ids() == second.ids()
        assert first.distances() == second.distances()

    def test_search_all_matches_single_searches(self, rng):
        db = make_split(unit_rows(rng, 40, 8))
        queries = make_split(unit_rows(rng, 6, 8), prefix="q")
        index = build_index(db)
        batched = search_all(index, queries, 7)
        for sl, rec, row in zip(batched, queries.records, queries.blob.rows):
            single = search(index, np.asarray(row, dtype=np.float64), 7)
            assert sl.query_id == rec.id
            assert sl.ids() == single.ids()
            assert sl.distances() == single.distances()


def float64_queries(rows):
    """A query split that keeps float64 descriptors, such as exact midpoints."""
    rows = np.asarray(rows, dtype=np.float64)
    records = [GeoRecord(f"q{i}", 0.0, 0.0) for i in range(len(rows))]
    return Split(records, DescriptorBlob(rows))


def sort_inputs(monkeypatch, run):
    """The matrices that np.argsort sorts while ``run()`` runs, copied."""
    seen, argsort = [], np.argsort

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return argsort(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "argsort", spy)
        run()
    return seen


def assert_matches_reference(db_rows, query_rows, k):
    """search and search_all both return the sequential full sort, bit for bit."""
    db = make_split(db_rows)
    index = build_index(db)
    shortlists = search_all(index, float64_queries(query_rows), k)
    for i, query in enumerate(np.asarray(query_rows, dtype=np.float64)):
        rows, sq = full_sort_top_k(db.blob.rows, query, k)
        want = ([f"r{j}" for j in rows], np.sqrt(sq).tolist())
        one = search(index, query, k, query_id=f"q{i}")
        assert (one.ids(), one.distances()) == want, f"search, query {i}, k={k}"
        assert (shortlists[i].ids(), shortlists[i].distances()) == want, \
            f"search_all, query {i}, k={k}"


class TestExactness:
    """The screen keeps every row the sequential loop could rank in the top
    k, on inputs built to make the screen and the loop disagree."""

    def test_exact_duplicate_rows(self, rng):
        rows = unit_rows(rng, 120, 16)
        for src in (3, 40, 77):
            rows[rng.choice(120, size=6, replace=False)] = rows[src]
        queries = np.vstack([rows[[3, 40, 77]], unit_rows(rng, 40, 16),
                             0.5 * (rows[3] + rows[40])])
        for k in (1, 3, 7, 10):
            assert_matches_reference(rows, queries, k)

    def test_all_identical_rows_are_all_candidates(self, rng):
        rows = np.repeat(unit_rows(rng, 1, 12), 50, axis=0)
        for k in (1, 7, 50, 80):
            assert_matches_reference(rows, unit_rows(rng, 35, 12), k)

    def test_midpoint_queries_are_exact_ties(self, rng):
        # q = (a + b) / 2 is exact in float64 for float32 rows a, b, so the
        # loop gives a and b the same distance while the screen's rounding
        # may put b first; b sits close to a so they are the top two
        for dim in (3, 16, 128):
            for _ in range(3):
                rows = unit_rows(rng, 200, dim) * rng.uniform(0.5, 2.0, size=(200, 1))
                rows = rows.astype(np.float32)
                a = rng.choice(200, size=40, replace=False)
                b = (a + 1 + rng.integers(0, 198, size=40)) % 200
                rows[b] = rows[a] + (1e-3 * rng.standard_normal((40, dim))).astype(np.float32)
                queries = 0.5 * (rows[a].astype(np.float64) + rows[b])
                for k in (1, 2, 3):
                    assert_matches_reference(rows, queries, k)

    def test_size_edges(self, rng):
        rows = unit_rows(rng, 30, 8)
        queries = unit_rows(rng, 5, 8)
        for k in (1, 29, 30, 31, 100):
            assert_matches_reference(rows, queries, k)
        for k in (1, 4):
            assert_matches_reference(rows[:1], queries, k)
        scalars = rng.integers(-4, 5, size=(40, 1)).astype(np.float32)
        for k in (1, 6, 40, 41):
            assert_matches_reference(scalars, np.array([[0.0], [0.5], [3.25], [-9.0]]), k)

    def test_non_finite_query_rejected_naming_it(self, rng):
        index = build_index(make_split(unit_rows(rng, 10, 4)))
        for bad in (np.nan, np.inf, -np.inf):
            query = unit_rows(rng, 1, 4)[0]
            query[2] = bad
            with pytest.raises(ValidationError, match="'q9'.*non-finite"):
                search(index, query, 3, query_id="q9")

    def test_search_all_rejects_non_finite_query_naming_it(self, rng):
        # row 35 lies in the second block of BLOCK_ROWS = 32
        index = build_index(make_split(unit_rows(rng, 10, 4)))
        for bad in (np.nan, np.inf):
            rows = unit_rows(rng, 40, 4)
            rows[35, 1] = bad
            with pytest.raises(ValidationError, match="'q35'.*non-finite"):
                search_all(index, make_split(rows, prefix="q"), 3)

    def test_overflowing_query_falls_back_to_every_row(self, rng):
        # (x - 1e200)^2 overflows, so the loop gives every row inf and the
        # full sort keeps insertion order; the screen's bound is inf too
        rows = unit_rows(rng, 10, 4)
        query = np.full(4, 1e200)
        with np.errstate(over="ignore"):
            sl = search(build_index(make_split(rows)), query, 5)
            assert_matches_reference(rows, np.vstack([query, -query, unit_rows(rng, 3, 4)]), 5)
        assert sl.ids() == ["r0", "r1", "r2", "r3", "r4"]
        assert sl.distances() == [math.inf] * 5

    def test_overflowing_query_among_normal_ones_warns_nothing(self, rng):
        rows = unit_rows(rng, 10, 4).astype(np.float32)
        queries = np.vstack([unit_rows(rng, 3, 4), np.full(4, 1e200), unit_rows(rng, 2, 4)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = search_all(build_index(make_split(rows)), float64_queries(queries), 5)
        with np.errstate(over="ignore"):  # the reference loop overflows as well
            want = [full_sort_top_k(rows, query, 5) for query in queries]
        assert [(sl.ids(), sl.distances()) for sl in got] == \
            [([f"r{j}" for j in top], np.sqrt(sq).tolist()) for top, sq in want]

    def test_queries_of_one_block_keep_different_numbers_of_rows(self, rng, monkeypatch):
        # query 0 sits on a row with 8 copies, a tie at the k-th distance for
        # it alone; query 4 is beyond the screen's reach and keeps every row
        rows = unit_rows(rng, 40, 8)
        rows[rng.choice(np.arange(1, 40), size=8, replace=False)] = rows[0]
        queries = np.vstack([rows[0], unit_rows(rng, 3, 8), unit_rows(rng, 1, 8) * 1e39,
                             unit_rows(rng, 2, 8)])
        for block in (queries[:4], queries):
            sorted_ = sort_inputs(monkeypatch, lambda: assert_matches_reference(rows, block, 3))
            # search_all's one block: one sort per query, of its own candidates only
            per_query = sorted_[:len(block)]
            assert all(a.ndim == 1 and np.isfinite(a).all() for a in per_query)
            kept = np.array([a.size for a in per_query])
            assert kept[0] == 9 and kept[0] > kept[1:4].max()
        assert kept[4] == len(rows)

    def test_queries_within_a_float32_ulp_of_rows(self, rng):
        # rows one float32 ulp apart, and float64 queries a fraction of an ulp
        # off them: q̃ = fl32(q) moves each component by up to half an ulp,
        # which may reorder rows that the loop tells apart
        base = unit_rows(rng, 30, 16).astype(np.float32)
        nudged = [np.nextafter(base, np.float32(side)) for side in (np.inf, -np.inf)]
        rows = np.vstack([base, *nudged])
        ulp = np.spacing(base).astype(np.float64)
        for frac in (0.5, 0.49, 0.51, 1.0):
            sign = rng.choice([-1.0, 1.0], size=base.shape)
            queries = base + sign * frac * ulp
            for k in (1, 3, 4):
                assert_matches_reference(rows, queries, k)

    def test_float32_subnormal_rows_and_queries(self, rng):
        # entries below 2⁻¹²⁶ (1e-40) and squares below it (1e-20): the
        # float32 screen underflows, gradually or to zero
        for scale in (1e-40, 1e-20, 3e-23):
            rows = unit_rows(rng, 60, 8) * scale * rng.uniform(0.5, 2.0, (60, 1))
            rows = rows.astype(np.float32)
            rows[5] = rows[9]
            queries = np.vstack([rows[[5, 17]].astype(np.float64),
                                 unit_rows(rng, 6, 8) * scale,
                                 (unit_rows(rng, 3, 8) * scale).astype(np.float32)])
            for k in (1, 2, 10):
                assert_matches_reference(rows, queries, k)
        mixed = np.vstack([unit_rows(rng, 20, 8), unit_rows(rng, 20, 8) * 1e-40])
        assert_matches_reference(mixed.astype(np.float32), unit_rows(rng, 5, 8) * 1e-40, 25)

    def test_beyond_float32_range_every_row_is_a_candidate(self, rng, monkeypatch):
        # a finite float64 query past float32's range (its q̃ would be inf),
        # and rows whose float32 ‖x‖² (about 4e38) would overflow
        cases = [(unit_rows(rng, 40, 4), unit_rows(rng, 3, 4) * 1e39),
                 (unit_rows(rng, 40, 4) * 2e19, unit_rows(rng, 3, 4))]
        for rows, queries in cases:
            rows = rows.astype(np.float32)
            index = build_index(make_split(rows))
            # top_k sorts exactly its re-scored pairs; one query per search: no padding
            sorted_ = sort_inputs(monkeypatch, lambda: [search(index, q, 3) for q in queries])
            rescored = [a.size for a in sorted_]
            assert rescored == [len(rows)] * len(queries)
            for k in (1, 3, 40):
                assert_matches_reference(rows, queries, k)
        # just inside the screen's reach, the screen runs and must not overflow
        rows = (unit_rows(rng, 40, 4) * 1.2e19).astype(np.float32)
        assert_matches_reference(rows, unit_rows(rng, 3, 4), 3)

    def test_index_keeps_the_float32_rows_without_a_float64_copy(self, rng):
        rows = unit_rows(rng, 20_000, 128).astype(np.float32)
        split = make_split(rows)
        tracemalloc.start()
        try:
            index = build_index(split)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes  # an n x d float64 array takes twice that
        assert index._vectors is split.blob.rows
        want = np.sum(np.square(rows, dtype=np.float64), axis=1)
        np.testing.assert_allclose(index._sq_norms, want, rtol=1e-13)

    def test_peak_memory_bounded_by_block_not_queries(self, rng):
        # an n_q x n_db float64 distance matrix here would take 80 MB
        db = make_split(unit_rows(rng, 20_000, 4))
        queries = make_split(unit_rows(rng, 500, 4), prefix="q")
        index = build_index(db)
        tracemalloc.start()
        try:
            search_all(index, queries, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_peak_memory_of_a_block_does_not_follow_its_widest_query(self, rng):
        # a query past the screen's reach keeps all 50 000 rows; sorting the
        # block's 31 other queries at that width would take another 2 × 12.8 MB
        index = build_index(make_split(unit_rows(rng, 50_000, 16)))
        screened = unit_rows(rng, BLOCK_ROWS, 16)
        mixed = screened.copy()
        mixed[0] *= 2.0 * _kernels.SCREEN_REACH
        peaks = []
        for rows in (screened, mixed):
            queries = float64_queries(rows)
            tracemalloc.start()
            try:
                search_all(index, queries, 10)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * 2**20


class TestShortlistCsv:
    def test_round_trip(self, tmp_path, rng):
        db = make_split(unit_rows(rng, 30, 8))
        queries = make_split(unit_rows(rng, 4, 8), prefix="q")
        shortlists = search_all(build_index(db), queries, 5)
        path = tmp_path / "shortlists.csv"
        write_shortlists_csv(shortlists, path)
        loaded = read_shortlists_csv(path)
        assert [sl.query_id for sl in loaded] == [sl.query_id for sl in shortlists]
        for a, b in zip(loaded, shortlists):
            assert a.ids() == b.ids()
            assert a.distances() == b.distances()
            assert a.dists.tobytes() == b.dists.tobytes()

    def test_random_round_trip_ragged_and_tied(self, tmp_path, rng):
        shortlists = []
        for q in range(40):
            n = int(rng.integers(1, 15))
            dists = np.sort(rng.uniform(0.0, 2.0, n))
            tied = rng.uniform(size=n) < 0.3
            for i in range(1, n):
                if tied[i]:
                    dists[i] = dists[i - 1]
            dists[0] = 0.0 if q % 5 == 0 else dists[0]
            ids = [f"d{int(j)}" for j in rng.permutation(1000)[:n]]
            if q % 7 == 0:
                ids[0] = 'd,"quoted"'
            shortlists.append(Shortlist(f"q{q}", ids, dists.tolist()))
        path = tmp_path / "shortlists.csv"
        write_shortlists_csv(shortlists, path)
        loaded = read_shortlists_csv(path)
        assert [sl.query_id for sl in loaded] == [sl.query_id for sl in shortlists]
        for a, b in zip(loaded, shortlists):
            assert a.ids() == b.ids()
            assert a.distances() == b.distances()

    def test_header_and_rank_format(self, tmp_path, rng):
        db = make_split(unit_rows(rng, 5, 4))
        queries = make_split(unit_rows(rng, 1, 4), prefix="q")
        path = tmp_path / "s.csv"
        write_shortlists_csv(search_all(build_index(db), queries, 3), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id,rank,db_id,distance"
        assert lines[1].startswith("q0,1,")
        assert lines[2].startswith("q0,2,")

    def test_rejects_nan_distance_naming_the_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("query_id,rank,db_id,distance\nq0,1,d0,0.5\nq0,2,d1,nan\n")
        with pytest.raises(ValidationError, match="line 3: rank/distance out of range"):
            read_shortlists_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("q0,2,d1", "expected 4 fields"),
        ("q0,2,d1,0.5,extra", "expected 4 fields"),
        ("q0,two,d1,0.5", "bad rank or distance"),
        ("q0,2,d1,far", "bad rank or distance"),
    ])
    def test_rejects_a_malformed_row_naming_the_line(self, tmp_path, row, message):
        path = tmp_path / "s.csv"
        path.write_text(f"query_id,rank,db_id,distance\nq0,1,d0,0.5\n{row}\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: line 3: {message}")):
            read_shortlists_csv(path)

    def test_a_bad_row_after_a_quoted_line_break_names_its_physical_line(self, tmp_path):
        path = tmp_path / "s.csv"
        write_shortlists_csv([Shortlist("lf\nx", ["d0"], [0.5])], path)
        with open(path, "a", newline="") as fh:
            fh.write("q1,1,d1,nan\r\n")
        with pytest.raises(ValidationError, match="line 4: rank/distance out of range"):
            read_shortlists_csv(path)

    @pytest.mark.parametrize("first_query, row, message", [
        ("q0", "q1,1,d1", "line 3: expected 4 fields, got 3"),
        ("q0", "q1,1,d1,0.5,extra", "line 3: expected 4 fields, got 5"),
        ("lf\nx", "q1,1,d1", "line 4: expected 4 fields, got 3"),
    ], ids=["short", "long", "after-a-quoted-line-break"])
    def test_a_row_of_the_wrong_width_names_its_physical_line(self, tmp_path, first_query,
                                                              row, message):
        path = tmp_path / "s.csv"
        write_shortlists_csv([Shortlist(first_query, ["d0"], [0.5])], path)
        with open(path, "a", newline="") as fh:
            fh.write(row + "\r\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}") + "$"):
            read_shortlists_csv(path)

    def test_infinite_distance_round_trips(self, tmp_path):
        # search writes inf for every row when a query's distances overflow
        path = tmp_path / "s.csv"
        write_shortlists_csv([Shortlist("q0", ["d0", "d1"], [math.inf, math.inf])], path)
        [loaded] = read_shortlists_csv(path)
        assert loaded.ids() == ["d0", "d1"]
        assert loaded.distances() == [math.inf, math.inf]

    def test_out_of_order_ranks_are_reordered(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("query_id,rank,db_id,distance\n"
                        "q0,3,d2,0.3\nq0,1,d0,0.1\nq0,2,d1,0.2\n")
        [loaded] = read_shortlists_csv(path)
        assert loaded.ids() == ["d0", "d1", "d2"]
        assert loaded.distances() == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize("ranks", [(1, 1, 2), (1, 3), (2, 3), (1, 2, 2)])
    def test_rejects_ranks_other_than_one_to_n(self, tmp_path, ranks):
        path = tmp_path / "s.csv"
        rows = "".join(f"q0,{r},d{i},0.{i + 1}\n" for i, r in enumerate(ranks))
        path.write_text("query_id,rank,db_id,distance\n" + rows)
        with pytest.raises(ValidationError, match=r"ranks for query 'q0' are not 1\.\.n"):
            read_shortlists_csv(path)

    def test_interleaved_queries_keep_first_appearance_order(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("query_id,rank,db_id,distance\n"
                        "qb,1,d0,0.1\nqa,1,d5,0.5\nqb,2,d1,0.2\nqa,2,d6,0.6\n")
        loaded = read_shortlists_csv(path)
        assert [sl.query_id for sl in loaded] == ["qb", "qa"]
        assert [sl.ids() for sl in loaded] == [["d0", "d1"], ["d5", "d6"]]

    def test_equal_db_ids_are_one_string(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("query_id,rank,db_id,distance\n"
                        "qa,1,d7,0.1\nqa,2,d8,0.2\nqb,1,d8,0.3\nqb,2,d7,0.4\n")
        qa, qb = read_shortlists_csv(path)
        assert qa.db_ids[0] is qb.db_ids[1]
        assert qa.db_ids[1] is qb.db_ids[0]

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,fields\n")
        with pytest.raises(ValidationError, match="header"):
            read_shortlists_csv(path)

    def test_bytes_are_csv_writers_for_awkward_ids(self, tmp_path):
        n = len(AWKWARD_IDS)
        dists = [0.0, 1 / 3, 0.1, 5e-324, 1e300, math.inf] * n
        shortlists = [Shortlist(q, AWKWARD_IDS[i:] + AWKWARD_IDS[:i], dists[i:i + n])
                      for i, q in enumerate(AWKWARD_IDS + [""])]
        path = tmp_path / "s.csv"
        write_shortlists_csv(shortlists, path)
        assert path.read_bytes() == csv_bytes(
            [["query_id", "rank", "db_id", "distance"]]
            + [[sl.query_id, rank, db_id, repr(dist)] for sl in shortlists
               for rank, (db_id, dist) in enumerate(zip(sl.db_ids, sl.dists), start=1)])
        loaded = read_shortlists_csv(path)
        assert [(sl.query_id, sl.ids(), sl.distances()) for sl in loaded] == \
            [(sl.query_id, sl.ids(), sl.distances()) for sl in shortlists]
