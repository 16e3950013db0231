"""Hot numeric kernels in numpy: exact top-k squared L2 search and haversine.

``top_k`` screens a block of queries against every row with one float64 GEMM,
ŝ = ‖x‖² + ‖q‖² − 2x·q (Johnson, Douze & Jégou, arXiv:1702.08734), then
re-scores only the rows within 2E of each query's k-th smallest ŝ with the
sequential loop: Σ_j (x_j − q_j)², in float64 one dimension at a time.
E = 2γ_{d+2}(max‖x‖ + ‖q‖)² bounds |ŝ − loop| (Higham, *Accuracy and
Stability of Numerical Algorithms*, §3.1), so no row outside the margin can
reach the loop's top k. The result is a full stable sort of the loop's
distances, boundary ties included, for any block of queries.
"""

from __future__ import annotations

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
UNIT_ROUNDOFF = 2.0 ** -53


def top_k(vectors: np.ndarray, vector_sq_norms: np.ndarray, queries: np.ndarray,
          k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest rows of ``vectors`` for each row of ``queries``.

    Returns (rows, squared distances), both (n_queries, min(k, n)), ordered
    by (distance, row index). Peak memory is a few n_queries × n arrays.
    """
    n, d = vectors.shape
    kk = min(k, n)
    screen = queries @ vectors.T
    screen *= -2.0
    screen += vector_sq_norms
    query_sq_norms = np.einsum("ij,ij->i", queries, queries)
    screen += query_sq_norms[:, None]

    # Forward error (Higham §3.1), for exact s = ‖x − q‖²:
    # - the loop rounds each term (x_j − q_j)² at the subtraction, at the
    #   square and in at most d − 1 later additions, so
    #   |s_loop − s| ≤ γ_{d+2}·s ≤ γ_{d+2}(‖x‖ + ‖q‖)²;
    # - the screen's dot product and norms carry γ_d per term in any summation
    #   order (BLAS blocking, FMA and einsum's included), and adding the
    #   norms rounds twice more, so
    #   |ŝ − s| ≤ γ_{d+2}(2|x|·|q| + ‖x‖² + ‖q‖²) ≤ γ_{d+2}(‖x‖ + ‖q‖)².
    # Hence |ŝ − s_loop| ≤ E = 2γ_{d+2}(max‖x‖ + ‖q‖)² on every row. Let t be
    # the k-th smallest ŝ. A row with ŝ > t + 2E has s_loop ≥ ŝ − E > t + E,
    # and each of the k rows with ŝ ≤ t has s_loop ≤ t + E, so it is not in
    # the loop's top k, boundary ties included. ``bound`` is E computed with
    # γ_{d+3}: the extra 4u(max‖x‖ + ‖q‖)² in 2E covers the rounding of E and
    # of t + 2E themselves for d < 10⁷. Gradual underflow adds at most 2⁻¹⁰⁷⁵
    # to each rounded product; ŝ − s_loop rests on 4d of them, those of x·q
    # counted twice for the factor 2, and the term d·2⁻¹⁰⁷² covers that.
    # When 2(max‖x‖ + ‖q‖)² overflows, so may ŝ: every row is a candidate.
    reach = (np.sqrt(vector_sq_norms.max()) + np.sqrt(query_sq_norms)) ** 2
    gamma = (d + 3) * UNIT_ROUNDOFF / (1.0 - (d + 3) * UNIT_ROUNDOFF)
    bound = 2.0 * gamma * reach + d * 2.0 ** -1072
    kth = np.partition(screen, kk - 1, axis=1)[:, kk - 1]
    thresh = np.where(np.isfinite(reach + reach), kth + 2.0 * bound, np.inf)
    keep = (screen <= thresh[:, None]) | (thresh == np.inf)[:, None]
    del screen
    rows, cols = np.divmod(np.flatnonzero(keep), n)  # by query, then by row index

    # the sequential reference, candidate pairs only, one dimension at a time
    exact = np.zeros(len(rows))
    for j in range(d):
        diff = vectors[cols, j] - queries[rows, j]
        exact += diff * diff

    # lexsort is stable, so equal distances keep their row-index order
    order = np.lexsort((exact, rows))
    rows, cols, exact = rows[order], cols[order], exact[order]
    top = np.arange(len(rows)) - np.searchsorted(rows, rows) < kk  # rank in query
    return cols[top].reshape(-1, kk), exact[top].reshape(-1, kk)


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
