"""Inlier-count re-ranking and the adaptive per-query gate.

Re-ranking permutes a shortlist (never adds or drops candidates), sorting by
inlier count descending. Ties keep retrieval order; pairs whose count is
unavailable sink below every counted pair, again in retrieval order, so
absence of evidence never promotes a candidate.

The adaptive gate spends matching effort only when the calibrated
probability of wrong localization exceeds the policy threshold; otherwise
the retrieval order is returned untouched.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Mapping

from .errors import MatcherError, MissingPairError, ValidationError
from .matching import MatcherProvider
from .retrieval import Shortlist
from .uncertainty import Estimator, LogisticModel, UncertaintyScore, predict_prob


@dataclass(frozen=True)
class RerankedEntry:
    db_id: str
    inliers: int | None  # None = count unavailable for this pair
    original_rank: int  # 1-based rank in the source shortlist


@dataclass
class RerankedShortlist:
    query_id: str
    entries: list[RerankedEntry]
    gate_fired: bool
    diagnostics: list[tuple[str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def ids(self) -> list[str]:
        return [e.db_id for e in self.entries]


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

    def fires(self, u: float) -> bool:
        return predict_prob(self.model, u) > self.threshold


def _pair_paths(query_id: str, db_id: str,
                image_paths: Mapping[str, str] | None) -> tuple[str, str] | None:
    if image_paths is None:
        return None
    try:
        return (image_paths[query_id], image_paths[db_id])
    except KeyError:
        return None


def rerank(shortlist: Shortlist, provider: MatcherProvider,
           image_paths: Mapping[str, str] | None = None) -> RerankedShortlist:
    """Sort shortlist candidates by inlier count, descending."""
    if len(shortlist) == 0:
        raise ValidationError(f"query {shortlist.query_id!r}: empty shortlist")
    staged: list[RerankedEntry] = []
    diagnostics: list[tuple[str, str]] = []
    for rank, entry in enumerate(shortlist.entries, start=1):
        try:
            count = provider.get_inliers(shortlist.query_id, entry.db_id,
                                         _pair_paths(shortlist.query_id, entry.db_id, image_paths))
        except (MissingPairError, MatcherError) as exc:
            count = None
            diagnostics.append((entry.db_id, str(exc)))
        staged.append(RerankedEntry(entry.db_id, count, rank))
    staged.sort(key=lambda e: (e.inliers is None, -(e.inliers or 0), e.original_rank))
    return RerankedShortlist(query_id=shortlist.query_id, entries=staged,
                             gate_fired=True, diagnostics=diagnostics)


def adaptive_rerank(shortlist: Shortlist, provider: MatcherProvider, policy: GatePolicy,
                    u: UncertaintyScore,
                    image_paths: Mapping[str, str] | None = None) -> RerankedShortlist:
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
    if len(shortlist) == 0:
        raise ValidationError(f"query {shortlist.query_id!r}: empty shortlist")

    if policy.fires(u.u):
        return rerank(shortlist, provider, image_paths)

    top1_inliers = None
    if policy.estimator is Estimator.INLIER:
        top1_inliers = int(round(-u.u))
    entries = [
        RerankedEntry(e.db_id, top1_inliers if rank == 1 else None, rank)
        for rank, e in enumerate(shortlist.entries, start=1)
    ]
    return RerankedShortlist(query_id=shortlist.query_id, entries=entries, gate_fired=False)


def write_reranked_csv(reranked: list[RerankedShortlist], path) -> None:
    """CSV export: query_id,new_rank,db_id,inliers,original_rank,gate_fired."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "new_rank", "db_id", "inliers", "original_rank", "gate_fired"])
        for rr in reranked:
            fired = "true" if rr.gate_fired else "false"
            for new_rank, entry in enumerate(rr.entries, start=1):
                inliers = "" if entry.inliers is None else str(entry.inliers)
                writer.writerow([rr.query_id, new_rank, entry.db_id, inliers,
                                 entry.original_rank, fired])
