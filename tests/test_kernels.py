import numpy as np
import pytest

from vprkit import _kernels

from conftest import full_sort_top_k, sq_dists


@pytest.fixture
def arrays(rng):
    vectors = np.ascontiguousarray(rng.standard_normal((300, 24)), dtype=np.float32)
    queries = np.ascontiguousarray(rng.standard_normal((7, 24)))
    return vectors, queries


def top_k(vectors, queries, k):
    """top_k over float32 rows, as an Index holds them, with float64 ‖x‖²."""
    sq_norms = np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64)
    screen = np.empty((len(queries), len(vectors)), dtype=np.float32)
    return _kernels.top_k(vectors, sq_norms, queries, k, screen)


class TestSquaredDistances:
    def test_numpy_matches_direct_formula(self, arrays):
        vectors, queries = arrays
        rows, got = top_k(vectors, queries[:1], 300)
        want = np.sum((vectors - queries[0]) ** 2, axis=1)
        np.testing.assert_allclose(got[0], want[rows[0]], rtol=1e-12)
        np.testing.assert_array_equal(got[0], sq_dists(vectors, queries[0])[rows[0]])

    def test_batch_matches_per_query(self, arrays):
        vectors, queries = arrays
        rows, sq = top_k(vectors, queries, 10)
        for i, q in enumerate(queries):
            want_rows, want_sq = full_sort_top_k(vectors, q, 10)
            np.testing.assert_array_equal(rows[i], want_rows)
            np.testing.assert_array_equal(sq[i], want_sq)
            one_rows, one_sq = top_k(vectors, queries[i:i + 1], 10)
            np.testing.assert_array_equal(one_rows[0], rows[i])
            np.testing.assert_array_equal(one_sq[0], sq[i])

    def test_readonly_inputs_accepted(self, arrays):
        vectors, queries = arrays
        vectors = vectors.copy()
        vectors.flags.writeable = False
        queries = queries.copy()
        queries.flags.writeable = False
        top_k(vectors, queries, 5)


class TestHaversineKernels:
    def test_zero_distance(self):
        one = np.array([33.3])
        assert _kernels.haversine_m(one, one, one, one)[0] == 0.0
