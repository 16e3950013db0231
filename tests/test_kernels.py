import numpy as np
import pytest

from vprkit import _kernels


@pytest.fixture
def arrays(rng):
    vectors = np.ascontiguousarray(rng.standard_normal((300, 24)))
    queries = np.ascontiguousarray(rng.standard_normal((7, 24)))
    return vectors, queries


class TestSquaredDistances:
    def test_numpy_matches_direct_formula(self, arrays):
        vectors, queries = arrays
        got = _kernels.sq_dists(vectors, queries[0])
        want = np.sum((vectors - queries[0]) ** 2, axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_batch_matches_per_query(self, arrays):
        vectors, queries = arrays
        batch = _kernels.sq_dists_batch(vectors, queries)
        for i, q in enumerate(queries):
            np.testing.assert_array_equal(batch[i], _kernels.sq_dists(vectors, np.ascontiguousarray(q)))

    def test_readonly_inputs_accepted(self, arrays):
        vectors, queries = arrays
        vectors = vectors.copy()
        vectors.flags.writeable = False
        _kernels.sq_dists(vectors, np.ascontiguousarray(queries[0]))


class TestHaversineKernels:
    def test_zero_distance(self):
        one = np.array([33.3])
        assert _kernels.haversine_m(one, one, one, one)[0] == 0.0

