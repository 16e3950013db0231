"""Per-query uncertainty estimators and logistic calibration.

Every estimator returns a scalar u where higher means more uncertain:

* l2      — descriptor distance to the nearest neighbor, d_(1).
* pa      — perceptual-aliasing score d_(1)/d_(2) (1 when d_(2) = 0).
* sue     — geographic spread of the shortlist: weighted spatial variance of
            the top-L candidate positions on a local tangent plane, with
            Gaussian weights exp(-d_(j)^2 / sigma^2). This follows the
            shortlist-spread idea; the exact weighting is our reconstruction.
* random  — uniform [0, 1) from a counter-based generator keyed on
            (seed, query_id), independent of evaluation order.
* inlier  — negated inlier count of the top-1 pair, -i_(1).

fit_logistic turns (u, wrongly-localized) samples into P(wrong | u) via a
damped Newton solver on the ridge-regularized log-likelihood. Features are
standardized with constants frozen at fit time, so affine rescalings of u do
not change predictions. The scores CSV is read and written in the format that
``_csvio`` owns.
"""

from __future__ import annotations

import enum
import json
import math
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ._csvio import _CsvCells, line_error, read_rows, width_error
from .errors import ValidationError, _check_real
from .matching import MatcherProvider, inlier_keys
from .retrieval import Shortlist

# the builtin that hashlib.blake2b always is; importing hashlib would load OpenSSL
from _blake2 import blake2b

if TYPE_CHECKING:
    import numpy as np
    from .dataset import GeoRecord

RIDGE_LAMBDA = 1e-6
GRAD_TOL = 1e-10
MAX_NEWTON_ITER = 100
SUE_TOP = 10  # candidates whose positions SUE spreads
PROB_CLIP = 1e-12  # keeps probabilities strictly inside (0, 1); lets
                   # threshold = 1 - 1e-12 mean "never fire" under strict >


class Estimator(str, enum.Enum):
    L2 = "l2"
    PA = "pa"
    SUE = "sue"
    RANDOM = "random"
    INLIER = "inlier"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class UncertaintyScore:
    query_id: str
    estimator: Estimator
    u: float


@dataclass
class LogisticModel:
    """P(wrong | u) = sigmoid(w * (u - mean) / std + b)."""

    w: float
    b: float
    mean: float
    std: float
    fit_losses: tuple[float, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        for name in ("w", "b", "mean", "std"):
            value = getattr(self, name)
            _check_real(value, f"model field {name!r}")
            if not math.isfinite(value):
                raise ValidationError(f"model field {name!r} must be finite, got {value}")
        if not self.std > 0:
            raise ValidationError(f"feature std must be positive, got {self.std}")

    def to_json(self) -> str:
        return json.dumps({"w": self.w, "b": self.b, "mean": self.mean, "std": self.std})

    @classmethod
    def from_json(cls, text: str) -> "LogisticModel":
        """The model in one JSON object whose four fields are JSON numbers."""
        try:
            # ints read as floats: no digit limit, and one too large for a float is inf
            obj = json.loads(text, parse_int=float)
        except (ValueError, RecursionError) as exc:  # the latter: nested too deep
            raise ValidationError(f"bad logistic model JSON: {exc}") from exc
        names = ("w", "b", "mean", "std")
        if not isinstance(obj, dict) or not obj.keys() >= set(names):
            raise ValidationError("bad logistic model JSON: expected an object with fields "
                                  "w, b, mean and std")
        for name in names:
            if type(obj[name]) is not float:  # not bool, not a numeric string
                raise ValidationError(f"model field {name!r} must be a JSON number, "
                                      f"got {type(obj[name]).__name__}")
        return cls(**{name: obj[name] for name in names})


def u_l2(shortlist: Shortlist) -> UncertaintyScore:
    """Distance to the nearest neighbor."""
    return UncertaintyScore(shortlist.query_id, Estimator.L2, shortlist.dists[0])


def u_pa(shortlist: Shortlist) -> UncertaintyScore:
    """Ratio of first to second nearest-neighbor distances."""
    if len(shortlist) < 2:
        raise ValidationError(
            f"query {shortlist.query_id!r}: PA score needs at least 2 candidates"
        )
    d1, d2 = shortlist.dists[0], shortlist.dists[1]
    u = 1.0 if d1 == d2 else d1 / d2  # a tie, even of zeros or infs: maximal aliasing
    return UncertaintyScore(shortlist.query_id, Estimator.PA, u)


def u_sue(shortlist: Shortlist, db_records: Mapping[str, GeoRecord]) -> UncertaintyScore:
    """Weighted spatial variance (m^2) of the first SUE_TOP candidates' positions."""
    import numpy as np
    from .dataset import EARTH_RADIUS_M
    try:
        recs = [db_records[db_id] for db_id in shortlist.db_ids[:SUE_TOP]]
    except KeyError as exc:
        raise ValidationError(
            f"query {shortlist.query_id!r}: shortlist id {exc.args[0]!r} not in database"
        ) from None

    d = np.array(shortlist.dists[:SUE_TOP], dtype=np.float64)
    sigma = d[0] + 1e-9  # the floor keeps sigma positive on exact matches
    d2 = d * d
    logits = -(d2 - d2.min()) / (sigma * sigma)  # shift-invariant, avoids underflow to all-zero
    w = np.exp(logits)
    w /= w.sum()

    lat = np.array([r.lat for r in recs], dtype=np.float64)
    lon = np.array([r.lon for r in recs], dtype=np.float64)
    # local tangent plane (meters) anchored at the nearest candidate; the
    # variance is taken around the weighted mean point in that plane, so
    # identical positions give exactly zero spread
    y = EARTH_RADIUS_M * np.radians(lat - lat[0])
    x = EARTH_RADIUS_M * math.cos(math.radians(lat[0])) * np.radians(lon - lon[0])
    xbar = np.dot(w, x)
    ybar = np.dot(w, y)
    u = float(np.dot(w, (x - xbar) ** 2 + (y - ybar) ** 2))
    return UncertaintyScore(shortlist.query_id, Estimator.SUE, u)


def u_random(query_id: str, seed: int) -> UncertaintyScore:
    """Uniform [0, 1), deterministic in (seed, query_id), order-independent."""
    key = struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF)
    digest = blake2b(query_id.encode("utf-8"), digest_size=8, key=key).digest()
    u = struct.unpack("<Q", digest)[0] / 2.0**64
    return UncertaintyScore(query_id, Estimator.RANDOM, u)


def _inlier_score(query_id: str, count: int) -> UncertaintyScore:
    """The inlier score of a top-1 count, u = -count: a count of 0 scores -0.0."""
    return UncertaintyScore(query_id, Estimator.INLIER, -float(count))


def _inlier_count(score: UncertaintyScore) -> int:
    """The top-1 count that an inlier score holds, ``_inlier_score`` undone; a u that is
    not a whole number <= 0 raises ValidationError naming the query."""
    count = -float(score.u)
    if not (count >= 0 and count.is_integer()):
        raise ValidationError(f"query {score.query_id!r}: an inlier uncertainty is a negated "
                              f"count, a whole number <= 0, got {score.u!r}")
    return int(count)


def u_inlier(query_id: str, top1_db_id: str, provider: MatcherProvider) -> UncertaintyScore:
    """Negated inlier count of the top-1 pair, asked through ``inlier_keys``: a failed fetch
    raises the provider's error, and a provider's ``ValidationError`` names the query."""
    (key,), failed = inlier_keys(query_id, [top1_db_id], provider)
    if failed:
        raise failed[0][1]
    return _inlier_score(query_id, -key)


def compute_uncertainties(shortlists: Sequence[Shortlist], estimator: Estimator,
                          db_records: Mapping[str, GeoRecord] | None = None,
                          provider: MatcherProvider | None = None,
                          seed: int = 0) -> list[UncertaintyScore]:
    """Uncertainty scores for every query under one estimator, picked once per
    call; the table is built here so that it sees a ``u_*`` replaced on this module."""
    if estimator == Estimator.SUE and db_records is None:
        raise ValidationError("SUE needs database records for coordinates")
    if estimator == Estimator.INLIER and provider is None:
        raise ValidationError("inlier estimator needs a matcher provider")
    score = {Estimator.L2: u_l2, Estimator.PA: u_pa,
             Estimator.SUE: lambda sl: u_sue(sl, db_records),
             Estimator.RANDOM: lambda sl: u_random(sl.query_id, seed),
             Estimator.INLIER: lambda sl: u_inlier(sl.query_id, sl.db_ids[0], provider),
             }[estimator]
    return [score(sl) for sl in shortlists]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    import numpy as np
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _nll(theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    import numpy as np
    z = theta[0] * x + theta[1]
    # log(1 + e^z) - y*z, computed stably
    ll = np.logaddexp(0.0, z) - y * z
    return float(ll.sum() + 0.5 * RIDGE_LAMBDA * (theta[0] ** 2 + theta[1] ** 2))


def fit_logistic(samples: Sequence[tuple[float, bool]]) -> LogisticModel:
    """Fit P(wrong | u) by damped Newton on the ridge-regularized likelihood.

    Deterministic: zero initialization, full Newton steps halved until the
    loss does not increase, stop at gradient norm <= 1e-10 or 100 iterations.
    """
    import numpy as np
    if len(samples) < 2:
        raise ValidationError("need at least 2 samples to fit")
    u = np.array([s[0] for s in samples], dtype=np.float64)
    y = np.array([1.0 if s[1] else 0.0 for s in samples], dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise ValidationError("non-finite uncertainty feature in training data")
    if y.min() == y.max():
        raise ValidationError("training data contains a single class")

    mean = float(u.mean())
    std = float(u.std())
    if std == 0.0:
        raise ValidationError("uncertainty feature is constant; cannot standardize")
    x = (u - mean) / std

    theta = np.zeros(2, dtype=np.float64)
    losses = [_nll(theta, x, y)]
    for _ in range(MAX_NEWTON_ITER):
        p = _sigmoid(theta[0] * x + theta[1])
        r = p - y
        grad = np.array([np.dot(r, x) + RIDGE_LAMBDA * theta[0],
                         r.sum() + RIDGE_LAMBDA * theta[1]])
        if np.linalg.norm(grad) <= GRAD_TOL:
            break
        s = p * (1.0 - p)
        h00 = np.dot(s, x * x) + RIDGE_LAMBDA
        h01 = np.dot(s, x)
        h11 = s.sum() + RIDGE_LAMBDA
        det = h00 * h11 - h01 * h01
        step = np.array([(h11 * grad[0] - h01 * grad[1]) / det,
                         (h00 * grad[1] - h01 * grad[0]) / det])
        scale = 1.0
        new_theta = theta - step
        new_loss = _nll(new_theta, x, y)
        while new_loss > losses[-1] and scale > 1e-16:
            scale *= 0.5
            new_theta = theta - scale * step
            new_loss = _nll(new_theta, x, y)
        if new_loss > losses[-1]:
            break  # no descent direction left at this precision
        theta = new_theta
        losses.append(new_loss)

    return LogisticModel(w=float(theta[0]), b=float(theta[1]), mean=mean, std=std,
                         fit_losses=tuple(losses))


def predict_prob(model: LogisticModel, u: float) -> float:
    """Calibrated P(wrong | u), clipped strictly inside (0, 1)."""
    if not math.isfinite(u):
        raise ValidationError(f"uncertainty value must be finite, got {u}")
    z = model.w * (u - model.mean) / model.std + model.b
    if z >= 0:
        p = 1.0 / (1.0 + math.exp(-z))
    else:
        ez = math.exp(z)
        p = ez / (1.0 + ez)
    return min(max(p, PROB_CLIP), 1.0 - PROB_CLIP)


def score_prob(model: LogisticModel, score: UncertaintyScore) -> float:
    """``predict_prob`` of one query's score; a non-finite u names the query."""
    try:
        return predict_prob(model, score.u)
    except ValidationError as exc:
        raise ValidationError(f"query {score.query_id!r}: {exc}") from None


def write_scores_csv(scores: Iterable[UncertaintyScore], path,
                     model: LogisticModel | None = None) -> None:
    """CSV export: query_id,estimator,u,prob (prob blank when uncalibrated).

    Every row is built before ``path`` is opened, so a score the model cannot
    map raises with no file written."""
    cells = _CsvCells()
    rows = "".join([f"{cells[s.query_id]},{s.estimator.value},{float(s.u)!r},"
                    f"{'' if model is None else repr(score_prob(model, s))}\r\n" for s in scores])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("query_id,estimator,u,prob\r\n" + rows)


def read_scores_csv(path) -> list[UncertaintyScore]:
    scores: dict[tuple[str, Estimator], UncertaintyScore] = {}
    with read_rows(path, ["query_id", "estimator", "u", "prob"], "scores") as reader:
        for row in reader:
            if len(row) != 4:
                raise width_error(path, reader, row, 4)
            qid, est, u_s, _prob = row
            try:
                score = UncertaintyScore(qid, Estimator(est), float(u_s))
            except ValueError:
                raise line_error(path, reader, "bad estimator or u value") from None
            if not math.isfinite(score.u):
                raise line_error(path, reader, f"non-finite u value {u_s!r}")
            if (qid, score.estimator) in scores:
                raise line_error(path, reader, f"duplicate score ({qid}, {est})")
            scores[qid, score.estimator] = score
    return list(scores.values())
