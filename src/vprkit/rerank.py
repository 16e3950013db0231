"""Inlier-count re-ranking and the adaptive per-query gate.

Re-ranking permutes a shortlist (never adds or drops candidates), sorting by
inlier count descending. Ties keep retrieval order; pairs whose count is
unavailable sink below every counted pair, again in retrieval order, so
absence of evidence never promotes a candidate. The result is stored as
columns, like the shortlist it permutes.

The adaptive gate spends matching effort only when the calibrated
probability of wrong localization exceeds the policy threshold; otherwise
the retrieval order is returned untouched.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable

from .errors import MatcherError, MissingPairError, ValidationError
from .matching import MatcherProvider
from .retrieval import Shortlist
from .uncertainty import Estimator, LogisticModel, UncertaintyScore, score_prob


@dataclass
class RerankedShortlist:
    """A permuted shortlist as columns, in its new order.

    ``inliers[i]`` is None when the count of that pair is unavailable, and
    ``original_ranks[i]`` is the 1-based rank of that candidate in the source
    shortlist. ``diagnostics`` holds (db_id, error) for every failed fetch, in
    shortlist order; the error is the one the provider raised, and its
    ``str()`` is the message.
    """

    query_id: str
    db_ids: list[str]
    inliers: list[int | None]
    original_ranks: list[int]
    gate_fired: bool
    diagnostics: list[tuple[str, MissingPairError | MatcherError]] = field(default_factory=list)

    def ids(self) -> list[str]:
        return list(self.db_ids)


@dataclass(frozen=True)
class GatePolicy:
    """Decision rule: re-rank when P(wrong) exceeds the threshold (strict >)."""

    model: LogisticModel
    threshold: float = 0.5
    estimator: Estimator = Estimator.INLIER

    def __post_init__(self):
        if not (0.0 < self.threshold < 1.0):
            raise ValidationError(
                f"gate threshold must be strictly inside (0, 1), got {self.threshold}"
            )

    def fires(self, score: UncertaintyScore) -> bool:
        return score_prob(self.model, score) > self.threshold


MISSING_KEY = 1  # the sort key of a pair with no count; counts are >= 0, so it sorts last


def inlier_keys(shortlist: Shortlist, provider: MatcherProvider
                ) -> tuple[list[int], list[tuple[str, MissingPairError | MatcherError]]]:
    """Fetch every pair of ``shortlist`` once, in shortlist order.

    Returns the sort key of each pair, -count or ``MISSING_KEY`` where its
    fetch raised ``MissingPairError`` or ``MatcherError``, and the
    (db_id, error) of each failed fetch. A stable ascending sort of the keys
    is the re-ranking order. Any other error, such as a ``ValidationError``,
    propagates.
    """
    keys: list[int] = []
    diagnostics: list[tuple[str, MissingPairError | MatcherError]] = []
    for db_id in shortlist.db_ids:
        try:
            keys.append(-provider.get_inliers(shortlist.query_id, db_id))
        except (MissingPairError, MatcherError) as exc:
            keys.append(MISSING_KEY)
            diagnostics.append((db_id, exc.with_traceback(None)))  # kept: drop its frames
    return keys, diagnostics


def rerank(shortlist: Shortlist, provider: MatcherProvider) -> RerankedShortlist:
    """Sort shortlist candidates by inlier count, descending."""
    keys, diagnostics = inlier_keys(shortlist, provider)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return RerankedShortlist(query_id=shortlist.query_id,
                             db_ids=[shortlist.db_ids[i] for i in order],
                             inliers=[None if keys[i] == MISSING_KEY else -keys[i] for i in order],
                             original_ranks=[i + 1 for i in order],
                             gate_fired=True, diagnostics=diagnostics)


def adaptive_rerank(shortlist: Shortlist, provider: MatcherProvider, policy: GatePolicy,
                    u: UncertaintyScore) -> RerankedShortlist:
    """Re-rank only when the calibrated wrong-localization probability is high.

    When the gate stays closed no matcher call is made; the only inlier count
    carried over is the top-1 pair's, and only when the gating uncertainty
    was itself inlier-based (that count equals -u by definition).
    """
    if u.query_id != shortlist.query_id:
        raise ValidationError(
            f"uncertainty is for query {u.query_id!r}, shortlist for {shortlist.query_id!r}"
        )
    if u.estimator != policy.estimator:
        raise ValidationError(
            f"gate expects {policy.estimator.value!r} uncertainty, got {u.estimator.value!r}"
        )

    if policy.fires(u):
        return rerank(shortlist, provider)

    inliers: list[int | None] = [None] * len(shortlist)
    if policy.estimator is Estimator.INLIER:
        inliers[0] = int(round(-u.u))
    return RerankedShortlist(query_id=shortlist.query_id, db_ids=shortlist.ids(),
                             inliers=inliers, original_ranks=list(range(1, len(shortlist) + 1)),
                             gate_fired=False)


def write_reranked_csv(reranked: Iterable[RerankedShortlist], path) -> None:
    """CSV export: query_id,new_rank,db_id,inliers,original_rank,gate_fired.

    ``reranked`` may be any iterable, such as a generator, so that a caller
    need not hold every list at once."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "new_rank", "db_id", "inliers", "original_rank", "gate_fired"])
        for rr in reranked:
            fired = "true" if rr.gate_fired else "false"
            rows = zip(rr.db_ids, rr.inliers, rr.original_ranks)
            for new_rank, (db_id, count, original_rank) in enumerate(rows, start=1):
                inliers = "" if count is None else str(count)
                writer.writerow([rr.query_id, new_rank, db_id, inliers, original_rank, fired])
