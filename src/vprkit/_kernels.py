"""The hot numeric kernel in numpy: exact top-k squared L2 search.

``top_k`` screens a block of queries against every float32 row with one
float32 GEMM, ŝ = ‖x‖² − 2x·q̃ with q̃ = fl32(q) (Johnson, Douze & Jégou,
arXiv:1702.08734), then re-scores only the rows within 2E of each query's
k-th smallest ŝ with the sequential loop: Σ_j (x_j − q_j)², in float64 one
dimension at a time. E = (γ_{d+4} + 2γ'_{d+2})R² + 2⁻¹²⁰d(1 + R), with
R = max‖x‖ + ‖q‖ and γ, γ' for float32 and float64, bounds |ŝ + ‖q‖² − loop|
(Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1), so no row
outside the margin can reach the loop's top k. A stable argsort of each
query's candidates alone, kept in row-index order, is a full stable sort of
the loop's distances, boundary ties included, for any block of queries.
"""

from __future__ import annotations

import numpy as np

SCREEN_REACH = (float(np.finfo(np.float32).max) / 2.0) ** 0.5  # largest R screened


def top_k(vectors: np.ndarray, vector_sq_norms: np.ndarray, queries: np.ndarray,
          k: int, screen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest rows of float32 ``vectors`` for each finite float64 row
    of ``queries``; ``vector_sq_norms`` holds the rows' float64 ‖x‖², and
    ``screen`` is float32 scratch space of at least n_queries × n, so that a
    caller's query blocks can share one buffer.

    Returns (rows, squared distances), both (n_queries, min(k, n)), ordered
    by (distance, row index). Peak memory is a few n_queries × n arrays.
    """
    n, d = vectors.shape
    kk = min(k, n)
    reach = np.sqrt(vector_sq_norms.max()) + np.sqrt(np.einsum("ij,ij->i", queries, queries))
    screened = reach <= SCREEN_REACH
    keep = np.ones((len(queries), n), dtype=bool)
    if screened.any():
        q32 = queries[screened].astype(np.float32)
        screen = np.matmul(q32, vectors.T, out=screen[:len(q32)])
        screen *= -2.0
        screen += vector_sq_norms.astype(np.float32)

        # Forward error (Higham §3.1). u = 2⁻²⁴ and γ_m = mu/(1 − mu) are
        # float32's, γ'_m float64's; for a row x, s = ‖x − q‖² exactly and
        # R = max‖x‖ + ‖q‖:
        # - the loop rounds (x_j − q_j)² at the subtraction, the square and at
        #   most d − 1 additions: |s_loop − s| ≤ γ'_{d+2}·s ≤ γ'_{d+2}R²;
        # - rounding q to q̃ moves 2x·q by at most 2u‖x‖·‖q‖;
        # - the GEMM's p̂ = x·q̃ carries γ_d per term in any summation order
        #   (BLAS blocking and FMA included): 2|p̂ − x·q̃| ≤ 2γ_d‖x‖·‖q̃‖;
        # - ‖x‖² is summed in float64 from exact products (γ'_d) and rounded
        #   to float32 (u‖x‖²), the factor −2 is exact, and the add rounds
        #   once, u(‖x‖² + 2|p̂|). To first order these four give
        #   γ_{d+2}(‖x‖² + 2‖x‖·‖q‖) + (γ'_{d+2} + γ'_d)R²;
        # - float32 underflow, gradual or flushed, of a result (FTZ) or an
        #   input (DAZ) moves an operation by under μ = 2⁻¹²⁶ and a product
        #   by μ times its other factor: μ(4d + 4 + 4√d·R) in all, under
        #   2⁻¹²⁰d(1 + R) with the loop's float64 underflow.
        # So |ŝ + ‖q‖² − s_loop| ≤ E = (γ_{d+4} + 2γ'_{d+2})R² + 2⁻¹²⁰d(1 + R)
        # on every row: γ_{d+4} − γ_{d+2} ≥ 2u covers the second-order terms
        # and the float64 rounding of R, E and t + 2E for d < 10⁶. Let t be
        # the k-th smallest ŝ. A row with ŝ > t + 2E has s_loop − ‖q‖² ≥
        # ŝ − E > t + E, and the k rows with ŝ ≤ t have s_loop − ‖q‖² ≤ t + E,
        # so it is not in the loop's top k, boundary ties included. No float32
        # value exceeds 2R², so nothing overflows while R ≤ SCREEN_REACH; a
        # query beyond it, whose q̃ or ŝ may not be finite, keeps every row.
        r = reach[screened]
        a, b = (d + 4) * 2.0 ** -24, (d + 2) * 2.0 ** -53
        gamma = a / (1.0 - a) + 2.0 * b / (1.0 - b)  # γ_{d+4} + 2γ'_{d+2}
        bound = gamma * r * r + 2.0 ** -120 * d * (1.0 + r)
        kth = np.partition(screen, kk - 1, axis=1)[:, kk - 1]
        keep[screened] = screen <= (kth + 2.0 * bound)[:, None]
    rows, cols = np.divmod(np.flatnonzero(keep), n)  # by query, then by row index

    # the sequential reference, candidate pairs only, one dimension at a time;
    # float32 row values widen to float64 exactly. A squared distance past
    # float64's range is +inf, the loop's own value, so its overflow is silent
    exact = np.zeros(len(rows))
    with np.errstate(over="ignore"):
        for j in range(d):
            diff = vectors[cols, j] - queries[rows, j]
            exact += diff * diff

    # each query's candidates sit together in row-index order, so a stable
    # sort of that run alone is its (distance, row) order, +inf included
    ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    del rows, keep  # read no more: freed before the sorts' arrays are made
    top = np.array([start + np.argsort(exact[start:end], kind="stable")[:kk]
                    for start, end in zip([0] + ends[:-1], ends)])
    return cols[top], exact[top]
