"""``_check_real``, the one rule for a real-valued argument, at every site that asks it.

Each site keeps its own range check; a value that is no number at all, such
as a numeric string or None, is a ValidationError naming the argument, not a
bare TypeError from a comparison.
"""

import re

import numpy as np
import pytest

from vprkit.dataset import DistanceThreshold
from vprkit.errors import ValidationError, _check_real
from vprkit.matching import SubprocessProvider
from vprkit.rerank import GatePolicy
from vprkit.synth import SynthConfig, generate
from vprkit.uncertainty import LogisticModel

MODEL = dict(w=1.0, b=0.0, mean=0.0, std=1.0)
CONFIG = dict(n_db=10, n_queries=5, dim=8)


@pytest.mark.parametrize("value", [0, 25, 0.5, -1.5, True, np.float64(2.5), np.float32(1.0),
                                   np.int64(3)])
def test_a_real_number_passes(value):
    _check_real(value, "x")


@pytest.mark.parametrize("build, message", [
    (lambda: DistanceThreshold("25"), "tau must be a real number, got '25'"),
    (lambda: GatePolicy(model=LogisticModel(**MODEL), threshold="0.5"),
     "gate threshold must be a real number, got '0.5'"),
    (lambda: SubprocessProvider("matcher {query} {db}", timeout="5"),
     "timeout must be a real number, got '5'"),
    (lambda: SynthConfig(**CONFIG, target_retrieval_r1="0.5"),
     "target_retrieval_r1 must be a real number, got '0.5'"),
    (lambda: SynthConfig(**CONFIG, matcher_quality=None),
     "matcher_quality must be a real number, got None"),
    (lambda: SynthConfig(**CONFIG, inlier_noise_scale="x"),
     "inlier_noise_scale must be a real number, got 'x'"),
    (lambda: generate(SynthConfig(**CONFIG), k=2, gps_noise_m="1"),
     "gps_noise_m must be a real number, got '1'"),
    (lambda: LogisticModel(**{**MODEL, "w": "1"}),
     "model field 'w' must be a real number, got '1'"),
], ids=["tau", "gate-threshold", "timeout", "target-r1", "matcher-quality", "noise-scale",
        "gps-noise", "model-field"])
def test_a_non_number_is_rejected_naming_it(build, message):
    with pytest.raises(ValidationError, match=re.escape(message) + "$"):
        build()
