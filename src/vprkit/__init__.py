"""Verification-gated place-recognition retrieval toolkit.

Exact descriptor retrieval over geotagged splits, inlier-count re-ranking,
per-query uncertainty estimation with logistic calibration, adaptive
re-rank gating, and Recall@K / AUPRC evaluation.
"""

import importlib

from .errors import (
    MatcherError,
    MatcherExitError,
    MatcherOutputError,
    MatcherTimeout,
    MissingPairError,
    ValidationError,
    VprError,
)
from .matching import InlierTable, MatcherProvider, SubprocessProvider, TableProvider, load_inlier_table
from .rerank import GatePolicy, RerankedShortlist, adaptive_rerank, rerank
from .retrieval import Index, Shortlist, build_index, search
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

# Names from the modules that load numpy resolve on first access, so a process
# that never touches an array never imports numpy. ``rerank`` stays eager: a
# later import of its submodule would rebind ``vprkit.rerank`` to the module.
_LAZY = {name: module for module, names in (
    ("dataset", ("DescriptorBlob", "DistanceThreshold", "GeoRecord", "Split", "load_split")),
    ("evaluation", ("EvalReport", "auprc", "evaluate_pipeline", "pr_curve", "recall_at_k")),
    ("synth", ("SynthConfig", "SynthInstance", "generate"))) for name in names}


def __getattr__(name):
    if name not in _LAZY:  # so ``from vprkit import synth`` imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return globals()[name]


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
