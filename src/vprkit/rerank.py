"""Inlier-count re-ranking and the adaptive per-query gate.

Re-ranking permutes a shortlist (never adds or drops candidates), sorting by
inlier count descending. The counts are asked through ``matching.inlier_keys``
and sorted here. Ties keep retrieval order; pairs whose count is unavailable
sink below every counted pair, again in retrieval order, so absence of
evidence never promotes a candidate. The result is stored as columns, like
the shortlist it permutes, and written in the CSV format that ``_csvio`` owns.

The adaptive gate spends matching effort only when the calibrated
probability of wrong localization exceeds the policy threshold; otherwise
the retrieval order is returned untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ._csvio import _CsvCells
from .errors import MatcherError, MissingPairError, ValidationError, _check_real
from .matching import MISSING_KEY, MatcherProvider, inlier_keys
from .retrieval import Shortlist
from .uncertainty import Estimator, LogisticModel, UncertaintyScore, _inlier_count, score_prob


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

    def __post_init__(self):
        if not len(self.db_ids) == len(self.inliers) == len(self.original_ranks):
            raise ValidationError(
                f"query {self.query_id!r}: {len(self.db_ids)} ids but {len(self.inliers)} "
                f"inlier counts and {len(self.original_ranks)} original ranks"
            )

    def ids(self) -> list[str]:
        return list(self.db_ids)


def _check_threshold(threshold: float) -> None:
    """Raise unless ``threshold`` is a gate probability strictly inside (0, 1)."""
    _check_real(threshold, "gate threshold")
    if not (0.0 < threshold < 1.0):
        raise ValidationError(f"gate threshold must be strictly inside (0, 1), got {threshold}")


@dataclass(frozen=True)
class GatePolicy:
    """Decision rule: re-rank when P(wrong) exceeds the threshold (strict >)."""

    model: LogisticModel
    threshold: float = 0.5
    estimator: Estimator = Estimator.INLIER

    def __post_init__(self):
        _check_threshold(self.threshold)

    def fires(self, score: UncertaintyScore) -> bool:
        return score_prob(self.model, score) > self.threshold


def _sorted(shortlist: Shortlist, keys: list[int],
            diagnostics: list[tuple[str, MissingPairError | MatcherError]]) -> RerankedShortlist:
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return RerankedShortlist(query_id=shortlist.query_id,
                             db_ids=[shortlist.db_ids[i] for i in order],
                             inliers=[None if keys[i] == MISSING_KEY else -keys[i] for i in order],
                             original_ranks=[i + 1 for i in order],
                             gate_fired=True, diagnostics=diagnostics)


def rerank(shortlist: Shortlist, provider: MatcherProvider) -> RerankedShortlist:
    """Sort shortlist candidates by inlier count, descending."""
    return _sorted(shortlist, *inlier_keys(shortlist.query_id, shortlist.db_ids, provider))


def adaptive_rerank(shortlist: Shortlist, provider: MatcherProvider, policy: GatePolicy,
                    u: UncertaintyScore) -> RerankedShortlist:
    """Re-rank only when the calibrated wrong-localization probability is high.

    A closed gate makes no matcher call. An inlier u is the top-1 count,
    negated, so both paths read that count from u: a closed gate carries it
    over, and a fired one asks ``provider`` for positions 2..k only. An
    inlier u that is not a whole number <= 0 raises ``ValidationError``
    naming the query, before any matcher call.
    """
    if u.query_id != shortlist.query_id:
        raise ValidationError(
            f"uncertainty is for query {u.query_id!r}, shortlist for {shortlist.query_id!r}"
        )
    if u.estimator != policy.estimator:
        raise ValidationError(
            f"gate expects {policy.estimator.value!r} uncertainty, got {u.estimator.value!r}"
        )
    fired = policy.fires(u)  # a non-finite u is rejected here
    # [count] when u holds the top-1 count
    top1 = [_inlier_count(u)] if policy.estimator is Estimator.INLIER else []

    if fired:
        keys, diagnostics = inlier_keys(shortlist.query_id, shortlist.db_ids[len(top1):],
                                        provider)
        return _sorted(shortlist, [-n for n in top1] + keys, diagnostics)
    return RerankedShortlist(query_id=shortlist.query_id, db_ids=list(shortlist.db_ids),
                             inliers=top1 + [None] * (len(shortlist) - len(top1)),
                             original_ranks=list(range(1, len(shortlist) + 1)),
                             gate_fired=False)


def write_reranked_csv(reranked: Iterable[RerankedShortlist], path) -> int:
    """CSV export: query_id,new_rank,db_id,inliers,original_rank,gate_fired.

    ``reranked`` may be any iterable, such as a generator, so that a caller
    need not hold every list at once. Returns the number of rows written with
    a blank ``inliers`` cell."""
    blank = 0
    cells = _CsvCells()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("query_id,new_rank,db_id,inliers,original_rank,gate_fired\r\n")
        for rr in reranked:
            q, fired = cells[rr.query_id], "true" if rr.gate_fired else "false"
            blank += rr.inliers.count(None)
            rows = enumerate(zip(rr.db_ids, rr.inliers, rr.original_ranks), start=1)
            fh.write("".join([f"{q},{new_rank},{cells[db_id]},{'' if n is None else n},"
                              f"{rank},{fired}\r\n" for new_rank, (db_id, n, rank) in rows]))
    return blank
