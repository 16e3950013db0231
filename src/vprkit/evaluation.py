"""Recall@K, precision-recall curves, AUPRC, and the end-to-end evaluator.

Recall@K is the percentage of queries with at least one geographically
correct candidate (within tau meters) among their top K. The PR framework
classifies queries as correctly vs incorrectly localized by their top-1
retrieval result, ranking them by confidence (negated uncertainty); AUPRC
uses average-precision-style step integration, which avoids the optimistic
bias of trapezoidal interpolation in PR space. The PR curves CSV is written
in the format that ``_csvio`` owns.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._csvio import _CsvCells
from .dataset import DistanceThreshold, Split, haversine_many
from .errors import ValidationError, VprError, _check_int, _shown
from .matching import MISSING_KEY, MatcherProvider, inlier_keys
from .rerank import GatePolicy, _check_threshold
from .retrieval import Shortlist, _blocks, build_index
from .uncertainty import (
    SUE_TOP,
    Estimator,
    LogisticModel,
    UncertaintyScore,
    _inlier_score,
    compute_uncertainties,
    fit_logistic,
)

DEFAULT_KS = (1, 5, 10, 100)
ORACLE_GATE = "oracle"


def _as_estimator(value, what: str) -> Estimator:
    try:
        return Estimator(value)
    except ValueError:
        raise ValidationError(f"unknown {what} {value!r}") from None


def pr_curve(samples: Sequence[tuple[float, bool]]) -> list[tuple[float, float]]:
    """One (recall, precision) point per confidence-tie group, best-first.

    Positive class = correctly localized query. Tied confidences collapse
    into one threshold group so the curve is independent of input order.
    """
    if len(samples) == 0:
        raise ValidationError("PR curve needs at least one sample")
    conf = np.array([s[0] for s in samples], dtype=np.float64)
    corr = np.array([1 if s[1] else 0 for s in samples], dtype=np.int64)
    if not np.all(np.isfinite(conf)):
        raise ValidationError("non-finite confidence value")
    n_pos = int(corr.sum())
    if n_pos == 0:
        raise ValidationError("PR curve undefined: no correctly localized samples")

    order = np.argsort(-conf, kind="stable")
    conf = conf[order]
    corr = corr[order]
    tp = np.cumsum(corr)
    # last index of every tie group
    group_end = np.flatnonzero(np.diff(conf) != 0.0)
    group_end = np.concatenate([group_end, [len(conf) - 1]])
    points = []
    for i in group_end:
        recall = tp[i] / n_pos
        precision = tp[i] / (i + 1)
        points.append((float(recall), float(precision)))
    return points


def auprc(curve: Sequence[tuple[float, float]]) -> float:
    """Step-integrated area: sum of (recall_i - recall_{i-1}) * precision_i."""
    if len(curve) == 0:
        raise ValidationError("cannot integrate an empty curve")
    area = 0.0
    prev_recall = 0.0
    for recall, precision in curve:
        if recall < prev_recall:
            raise ValidationError("curve recall values must be non-decreasing")
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


@dataclass
class EvalReport:
    """All quantitative outputs for one pipeline configuration."""

    n_queries: int
    k: int
    ks: tuple[int, ...]
    taus: tuple[float, ...]
    seed: int
    recalls: dict = field(default_factory=dict)       # tau -> system -> K -> percent
    auprc: dict = field(default_factory=dict)         # tau -> estimator -> area
    pr_curves: dict = field(default_factory=dict)     # tau -> estimator -> [[r, p], ...]
    correct_top1: dict = field(default_factory=dict)  # tau -> count
    gate_fired: int = 0
    gate: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = []
        for tau in self.taus:
            key = _tau_key(tau)
            lines.append(f"Recall@K at tau = {tau:g} m")
            header = "  {:<12}".format("system") + "".join(f"{'K=' + str(k):>9}" for k in self.ks)
            lines.append(header)
            for system, recall in self.recalls[key].items():
                row = "  {:<12}".format(system)
                for k in self.ks:
                    row += f"{recall[str(k)]:>9.1f}"
                lines.append(row)
            lines.append(f"AUPRC at tau = {tau:g} m")
            for est, area in self.auprc[key].items():
                lines.append(f"  {est:<12}{area:>9.3f}")
            lines.append(
                f"  queries: {self.n_queries}   correct top-1: "
                f"{self.correct_top1[key]}   gate fired: {self.gate_fired}"
            )
        return "\n".join(lines) + "\n"


def _tau_key(tau: float) -> str:
    return repr(float(tau))


def write_pr_curves_csv(report: EvalReport, path) -> None:
    """CSV export of the PR curves at the report's first tau: estimator,recall,precision."""
    key = _tau_key(report.taus[0])
    try:
        curves = report.pr_curves[key]
    except KeyError:
        raise ValidationError(f"report has no PR curves at tau of {key}") from None
    cells = _CsvCells()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("estimator,recall,precision\r\n")
        for est, points in curves.items():
            e = cells[est]
            fh.write("".join([f"{e},{float(r)!r},{float(p)!r}\r\n" for r, p in points]))


def evaluate_pipeline(db: Split, queries: Split, provider: MatcherProvider, *,
                      k: int = 100,
                      ks: Sequence[int] = DEFAULT_KS,
                      taus: Sequence[float] = (25.0,),
                      estimators: Sequence[Estimator] = tuple(Estimator),
                      gate_estimator: Estimator | str = Estimator.INLIER,
                      gate_threshold: float = 0.5,
                      gate_model: LogisticModel | None = None,
                      seed: int = 0,
                      workers: int = 1) -> EvalReport:
    """Run retrieval, full re-ranking, and adaptive gating; report all metrics.

    The adaptive row uses ``gate_estimator``; the string "oracle" gates on the
    ground-truth correctness of the top-1 result (an upper-bound diagnostic).
    When no model is supplied for a real estimator, one is fitted on this very
    instance's scores and labels (fine for synthetic studies; calibrate on a
    held-out split for anything else). Deterministic for fixed seed, at any
    ``workers`` degree; ``workers`` threads fetch the re-ranking inlier counts.

    One pass over blocks of BLOCK_ROWS queries: each is searched, labelled by
    database row, re-ranked by one stable argsort of a block-sized matrix of
    ``inlier_keys`` rows (one ``get_inliers`` per pair), scored, and dropped;
    inlier scores read the top-1 counts from its column 0, the others go
    through ``compute_uncertainties``. What outlives the blocks is O(n_q):
    per tau each query's first-hit rank under retrieval and re-ranking, and
    its scores. R@K counts first hits below K, a fired query's re-ranked.
    The first failed top-1 fetch in query order is raised, when the inlier
    estimator is scored, once every block is fetched, so a provider's
    ``ValidationError`` in any block comes first.
    """
    workers = _check_int(workers, "workers", 1)
    if len(taus) == 0 or len(ks) == 0:
        raise ValidationError("need at least one tau and one K")
    if len(queries) == 0:
        raise ValidationError("recall is undefined over zero queries")
    thresholds = tuple(DistanceThreshold(t) for t in taus)
    taus = tuple(float(threshold.tau) for threshold in thresholds)
    k, ks = _check_int(k, "k", 1), tuple(_check_int(kk, "k", 1) for kk in ks)
    for name, values in (("tau", taus), ("K", ks)):
        if len(set(values)) < len(values):
            raise ValidationError(
                f"each {name} must be given once, got ({', '.join(map(_shown, values))})")
    estimators = tuple(_as_estimator(e, "estimator") for e in estimators)
    if gate_estimator != ORACLE_GATE:
        gate_estimator = _as_estimator(gate_estimator, "gate estimator")
    elif gate_model is not None:
        raise ValidationError("the oracle gate reads no model, but a gate_model was given")
    _check_threshold(gate_threshold)
    # a real gate's estimator is scored too, once, also when the report omits it
    gate_scored = () if gate_estimator == ORACLE_GATE else (gate_estimator,)
    # a shortlist of one has no PA score
    if Estimator.PA in (*estimators, *gate_scored) and min(k, len(db)) == 1:
        raise ValidationError("PA score needs at least 2 candidates, but each shortlist holds "
                              f"min(k, database size) = 1 (k = {k})")

    index = build_index(db)
    n_q, width = len(queries), min(k, len(index))  # every shortlist holds width candidates
    records, db_coords, q_coords = db.records, db.coords(), queries.coords()
    query_ids = [r.id for r in queries.records]
    # u[est]: each query's score under each estimator scored
    u = {est: np.empty(n_q) for est in dict.fromkeys((*estimators, *gate_scored))}
    # first[tau]: each query's first-hit rank under retrieval and re-ranking; width: none
    first = {tau: (np.empty(n_q, dtype=np.intp), np.empty(n_q, dtype=np.intp)) for tau in taus}

    def _block(run, lo: int, rows: np.ndarray, shortlists: list[Shortlist]) -> VprError | None:
        """Fill the numbers of queries lo.. from one block, fetching through ``run``, a
        ``map``; returns its first failed top-1 fetch, or None, and drops all else it made."""
        fetched = list(run(lambda sl: inlier_keys(sl.query_id, sl.db_ids, provider), shortlists))
        # keys[i, j]: the sort key of candidate j of the block's query i (rerank's rule)
        keys = np.array([row for row, _ in fetched], dtype=np.int64)
        rerank_order = np.argsort(keys, axis=1, kind="stable")
        hi = lo + len(rows)
        cand, q = db_coords[rows], q_coords[lo:hi, None, :]
        dists = haversine_many(q[..., 0], q[..., 1], cand[..., 0], cand[..., 1])
        for tau, threshold in zip(taus, thresholds):
            hit = threshold.within(dists)  # a candidate within tau meters
            for ranks, h in zip(first[tau], (hit, np.take_along_axis(hit, rerank_order, axis=1))):
                ranks[lo:hi] = np.where(h.any(axis=1), h.argmax(axis=1), width)

        # SUE reads the records of the first SUE_TOP candidates only
        sue_records = ({records[i].id: records[i] for i in rows[:, :SUE_TOP].ravel().tolist()}
                       if Estimator.SUE in u else None)
        for est, est_u in u.items():
            scores = ([_inlier_score(sl.query_id, -key)
                       for sl, key in zip(shortlists, keys[:, 0].tolist())]
                      if est is Estimator.INLIER else
                      compute_uncertainties(shortlists, est, db_records=sue_records, seed=seed))
            est_u[lo:hi] = [s.u for s in scores]
        # a failed top-1 fetch is its query's first failure
        return next((failed[0][1] for row, failed in fetched if row[0] == MISSING_KEY), None)

    with ExitStack() as stack:
        run = map  # serial, so the default path starts no pool thread
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor
            run = stack.enter_context(ThreadPoolExecutor(max_workers=workers)).map
        top1_error = None
        for block in _blocks(index, queries.blob.rows, query_ids, k):
            error = _block(run, *block)
            top1_error = top1_error or error  # the first in query order; all blocks are fetched
    if Estimator.INLIER in u and top1_error is not None:
        raise top1_error

    report = EvalReport(n_queries=n_q, k=k, ks=ks, taus=taus, seed=seed)

    for tau in report.taus:
        key = _tau_key(tau)
        top1 = first[tau][0] == 0  # a correct top-1 is a first hit at rank 0
        report.correct_top1[key] = int(np.count_nonzero(top1))
        report.auprc[key] = {}
        report.pr_curves[key] = {}
        for est in estimators:
            curve = pr_curve(list(zip((-u[est]).tolist(), top1.tolist())))
            report.pr_curves[key][est.value] = [[r, p] for r, p in curve]
            report.auprc[key][est.value] = auprc(curve)

    # --- adaptive gating ------------------------------------------------
    primary_top1 = first[report.taus[0]][0] == 0
    fitted_here = False
    if gate_estimator == ORACLE_GATE:
        fired = ~primary_top1
    else:
        gate_u = u[gate_estimator].tolist()
        fitted_here = gate_model is None
        if fitted_here:
            if primary_top1.all() or not primary_top1.any():  # one class: nothing to fit
                raise ValidationError(
                    f"{'every' if primary_top1.all() else 'no'} top-1 result is correct at "
                    f"tau = {report.taus[0]:g} m, so no gate can be fitted here; "
                    "a gate model or the oracle gate is needed")
            gate_model = fit_logistic(list(zip(gate_u, (~primary_top1).tolist())))
        policy = GatePolicy(model=gate_model, threshold=gate_threshold, estimator=gate_estimator)
        fired = np.array([policy.fires(UncertaintyScore(query_id, gate_estimator, score))
                          for query_id, score in zip(query_ids, gate_u)])

    report.gate_fired = int(np.count_nonzero(fired))
    report.gate = {"estimator": str(gate_estimator), "threshold": gate_threshold,
                   "fitted_here": fitted_here}

    # R@K = #{first hit < K} / n_q; a K past the shortlist reads all of it
    for tau in report.taus:
        retrieval, reranked = first[tau]
        firsts = {"retrieval": retrieval, "rerank": reranked,
                  "adaptive": np.where(fired, reranked, retrieval)}
        report.recalls[_tau_key(tau)] = {
            system: {str(kk): 100.0 * int(np.count_nonzero(f < min(kk, width))) / n_q
                     for kk in report.ks}
            for system, f in firsts.items()}
    return report
