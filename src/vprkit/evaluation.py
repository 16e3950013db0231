"""Recall@K, precision-recall curves, AUPRC, and the end-to-end evaluator.

Recall@K is the percentage of queries with at least one geographically
correct candidate (within tau meters) among their top K. The PR framework
classifies queries as correctly vs incorrectly localized by their top-1
retrieval result, ranking them by confidence (negated uncertainty); AUPRC
uses average-precision-style step integration, which avoids the optimistic
bias of trapezoidal interpolation in PR space.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import DistanceThreshold, Split, haversine_many
from .errors import ValidationError, VprError
from .matching import MatcherProvider, _KnownCounts
from .rerank import MISSING_KEY, GatePolicy, _check_threshold, inlier_keys
from .retrieval import BLOCK_ROWS, build_index, search_all
from .uncertainty import (
    Estimator,
    LogisticModel,
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator", "recall", "precision"])
        for est, points in curves.items():
            for recall, precision in points:
                writer.writerow([est, repr(recall), repr(precision)])


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

    Every system is a permutation of the same shortlist positions: retrieval
    reads one boolean queries x positions correctness matrix per tau, re-ranking
    reads it permuted, and a fired query takes its re-ranked row of hits.
    Re-ranking writes each shortlist's ``inlier_keys`` row, which asks
    ``provider.get_inliers`` for every pair, into one queries x positions key
    matrix and orders all queries with one stable argsort. Every estimator
    goes through ``compute_uncertainties`` with ``provider`` wrapped in a
    ``_KnownCounts`` that holds each top-1 outcome where re-ranking fetched
    it, so each inlier pair is fetched once. A top-1 pair whose fetch failed
    is held as its error, which ``u_inlier`` raises, so the provider's own
    error names the pair.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if len(taus) == 0 or len(ks) == 0:
        raise ValidationError("need at least one tau and one K")
    if len(queries) == 0:
        raise ValidationError("recall is undefined over zero queries")
    taus = tuple(DistanceThreshold(float(t)).tau for t in taus)
    ks = tuple(int(x) for x in ks)
    if min(ks) < 1:
        raise ValidationError(f"k must be >= 1, got {min(ks)}")
    estimators = tuple(_as_estimator(e, "estimator") for e in estimators)
    if gate_estimator != ORACLE_GATE:
        gate_estimator = _as_estimator(gate_estimator, "gate estimator")
    _check_threshold(gate_threshold)

    shortlists = search_all(build_index(db), queries, k)
    db_records = {r.id: r for r in db.records}
    n_q = len(shortlists)

    # correct[tau][i, j]: candidate j of query i lies within tau meters,
    # labelled a block of query rows at a time to bound the temporaries
    row = {r.id: i for i, r in enumerate(db.records)}
    ids = (db_id for sl in shortlists for db_id in sl.db_ids)
    cand_rows = np.fromiter(map(row.__getitem__, ids), dtype=np.intp).reshape(n_q, -1)
    db_coords, q_coords = db.coords(), queries.coords()
    correct = {tau: np.empty(cand_rows.shape, dtype=bool) for tau in taus}
    for lo in range(0, n_q, BLOCK_ROWS):
        cand = db_coords[cand_rows[lo:lo + BLOCK_ROWS]]
        q = q_coords[lo:lo + BLOCK_ROWS, None, :]
        dists = haversine_many(q[..., 0], q[..., 1], cand[..., 0], cand[..., 1])
        for tau in taus:
            correct[tau][lo:lo + BLOCK_ROWS] = dists <= tau
    del row, cand_rows

    # keys[i, j]: the sort key of candidate j of query i (rerank's rule)
    keys = np.empty(correct[taus[0]].shape, dtype=np.int64)
    top1_outcomes: dict[tuple[str, str], int | VprError] = {}

    def _fetch(i: int) -> None:
        """Fill row i of keys and query i's top-1 outcome; a pool thread writes only its own."""
        sl = shortlists[i]
        try:
            key_row, diagnostics = inlier_keys(sl, provider)
        except ValidationError as exc:
            raise ValidationError(f"query {sl.query_id!r}: {exc}") from exc
        keys[i] = key_row
        top1_outcomes[sl.query_id, sl.db_ids[0]] = (  # a failed top-1 fetch is the first
            diagnostics[0][1] if key_row[0] == MISSING_KEY else -key_row[0])

    if workers == 1:  # serial, so the default path starts no pool thread
        for i in range(n_q):
            _fetch(i)
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_fetch, range(n_q)))
    rerank_order = np.argsort(keys, axis=1, kind="stable")
    del keys
    known = _KnownCounts(provider, top1_outcomes)
    # a real gate's estimator is scored here too, once, also when the report omits it
    gate_scored = () if gate_estimator == ORACLE_GATE else (gate_estimator,)
    scores_by_estimator = {est: compute_uncertainties(shortlists, est, db_records=db_records,
                                                      provider=known, seed=seed)
                           for est in dict.fromkeys((*estimators, *gate_scored))}
    del shortlists, db_records, known, top1_outcomes  # the report reads none of them

    report = EvalReport(n_queries=n_q, k=k, ks=ks, taus=taus, seed=seed)

    for tau in report.taus:
        key = _tau_key(tau)
        top1 = correct[tau][:, 0]
        report.correct_top1[key] = int(np.count_nonzero(top1))
        report.auprc[key] = {}
        report.pr_curves[key] = {}
        for est in estimators:
            curve = pr_curve([(-s.u, c) for s, c in zip(scores_by_estimator[est], top1)])
            report.pr_curves[key][est.value] = [[r, p] for r, p in curve]
            report.auprc[key][est.value] = auprc(curve)

    # --- adaptive gating ------------------------------------------------
    primary_top1 = correct[report.taus[0]][:, 0]
    fitted_here = False
    if gate_estimator == ORACLE_GATE:
        fired = ~primary_top1
    else:
        gate_scores = scores_by_estimator[gate_estimator]
        fitted_here = gate_model is None
        if fitted_here:
            gate_model = fit_logistic([(s.u, not c) for s, c in zip(gate_scores, primary_top1)])
        policy = GatePolicy(model=gate_model, threshold=gate_threshold, estimator=gate_estimator)
        fired = np.array([policy.fires(s) for s in gate_scores])

    report.gate_fired = int(np.count_nonzero(fired))
    report.gate = {"estimator": str(gate_estimator), "threshold": gate_threshold,
                   "fitted_here": fitted_here}

    for tau in report.taus:
        key = _tau_key(tau)
        report.recalls[key] = {}
        rerank_hit = np.take_along_axis(correct[tau], rerank_order, axis=1)
        hits = {"retrieval": correct[tau], "rerank": rerank_hit,
                "adaptive": np.where(fired[:, None], rerank_hit, correct[tau])}
        for system, hit in hits.items():
            report.recalls[key][system] = {
                str(kk): 100.0 * int(np.count_nonzero(hit[:, :kk].any(axis=1))) / n_q
                for kk in report.ks
            }
    return report
