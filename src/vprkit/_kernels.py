"""Hot numeric kernels in numpy: squared L2 distances and haversine.

Squared-distance kernels accumulate in float64 one descriptor dimension at a
time, so every row sees the same sequence of IEEE operations whether it is
scored alone (``sq_dists``) or in a batch (``sq_dists_batch``). Single and
batch search therefore return identical shortlists.
"""

from __future__ import annotations

import numpy as np

EARTH_RADIUS_M = 6_371_000.0


def sq_dists(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared L2 distance from `query` to every row of `vectors`."""
    acc = np.zeros(vectors.shape[0], dtype=np.float64)
    for j in range(vectors.shape[1]):
        diff = vectors[:, j] - query[j]
        acc += diff * diff
    return acc


def sq_dists_batch(vectors: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Squared L2 distances for a batch of queries, shape (n_queries, n_rows)."""
    out = np.empty((queries.shape[0], vectors.shape[0]), dtype=np.float64)
    for i in range(queries.shape[0]):
        out[i] = sq_dists(vectors, queries[i])
    return out


def haversine_m(lat1: np.ndarray, lon1: np.ndarray,
                lat2: np.ndarray, lon2: np.ndarray) -> np.ndarray:
    """Great-circle distance in meters between coordinate arrays (degrees).

    Inputs broadcast against each other like any numpy ufunc arguments.
    """
    p1 = np.radians(lat1)
    p2 = np.radians(lat2)
    dp = np.radians(lat2 - lat1)
    dl = np.radians(lon2 - lon1)
    a = np.sin(dp / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    # clip guards rounding just above 1.0 for near-antipodal pairs
    return EARTH_RADIUS_M * 2.0 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
