"""Verification-gated place-recognition retrieval toolkit.

Exact descriptor retrieval over geotagged splits, inlier-count re-ranking,
per-query uncertainty estimation with logistic calibration, adaptive
re-rank gating, and Recall@K / AUPRC evaluation.
"""

from .dataset import (
    DescriptorBlob,
    DistanceThreshold,
    GeoRecord,
    Split,
    load_split,
)
from .errors import (
    MatcherError,
    MatcherExitError,
    MatcherOutputError,
    MatcherTimeout,
    MissingPairError,
    ValidationError,
    VprError,
)
from .evaluation import EvalReport, auprc, evaluate_pipeline, pr_curve, recall_at_k
from .matching import InlierTable, MatcherProvider, SubprocessProvider, TableProvider, load_inlier_table
from .rerank import GatePolicy, RerankedShortlist, adaptive_rerank, rerank
from .retrieval import Index, Shortlist, build_index, search
from .synth import SynthConfig, SynthInstance, generate
from .uncertainty import (
    Estimator,
    LogisticModel,
    UncertaintyScore,
    fit_logistic,
    predict_prob,
    u_inlier,
    u_l2,
    u_pa,
    u_random,
    u_sue,
)

__version__ = "0.1.0"

__all__ = [
    "DescriptorBlob",
    "DistanceThreshold",
    "GeoRecord",
    "Split",
    "load_split",
    "MatcherError",
    "MatcherExitError",
    "MatcherOutputError",
    "MatcherTimeout",
    "MissingPairError",
    "ValidationError",
    "VprError",
    "EvalReport",
    "auprc",
    "evaluate_pipeline",
    "pr_curve",
    "recall_at_k",
    "InlierTable",
    "MatcherProvider",
    "SubprocessProvider",
    "TableProvider",
    "load_inlier_table",
    "GatePolicy",
    "RerankedShortlist",
    "adaptive_rerank",
    "rerank",
    "Index",
    "Shortlist",
    "build_index",
    "search",
    "SynthConfig",
    "SynthInstance",
    "generate",
    "Estimator",
    "LogisticModel",
    "UncertaintyScore",
    "fit_logistic",
    "predict_prob",
    "u_inlier",
    "u_l2",
    "u_pa",
    "u_random",
    "u_sue",
    "__version__",
]
