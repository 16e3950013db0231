"""``_check_real``, the one rule for a real-valued argument, at every site that asks it.

Each site keeps its own range check; a value that is no number at all, such
as a numeric string or None, is a ValidationError naming the argument, not a
bare TypeError from a comparison.
"""

import re
import sys

import numpy as np
import pytest

from vprkit.dataset import DistanceThreshold
from vprkit.errors import ValidationError, _check_real, _shown
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


REAL_SITES = {
    "tau": lambda v: DistanceThreshold(v),
    "gate threshold": lambda v: GatePolicy(model=LogisticModel(**MODEL), threshold=v),
    "timeout": lambda v: SubprocessProvider("matcher {query} {db}", timeout=v),
    "target_retrieval_r1": lambda v: SynthConfig(**CONFIG, target_retrieval_r1=v),
    "gps_noise_m": lambda v: generate(SynthConfig(**CONFIG), k=2, gps_noise_m=v),
    "model field 'w'": lambda v: LogisticModel(**{**MODEL, "w": v}),
}


@pytest.mark.parametrize("value", [10**400, 10**5000, -10**5000],
                         ids=["1e400", "1e5000", "-1e5000"])
@pytest.mark.parametrize("name", REAL_SITES)
def test_a_number_too_large_for_a_float_is_rejected_naming_it(name, value):
    # each once raised a bare OverflowError, or a ValueError from formatting the
    # value, or (the timeout) was accepted and failed on every call
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} must fit in a float, got "):
        REAL_SITES[name](value)


def test_an_integer_too_long_to_print_is_named_by_its_size():
    if getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0:
        pytest.skip("this Python prints an int of any length")
    assert _shown(-10**5000) == "a negative integer of 16610 bits"
    assert _shown(10**5000) == "an integer of 16610 bits"
    assert _shown(10**400) == str(10**400)


@pytest.mark.parametrize("build, message", [
    (lambda: SynthConfig(**{**CONFIG, "seed": -10**5000}), "seed must be >= 0, got "),
    (lambda: SubprocessProvider("matcher {query} {db}", max_concurrent=-10**5000),
     "max_concurrent must be >= 1, got "),
    (lambda: SynthConfig(n_db=10, n_queries=10**5000, dim=8),
     "infeasible config: n_db (10) < n_queries ("),
], ids=["seed", "max-concurrent", "n-queries"])
def test_an_integer_too_long_to_print_is_rejected_naming_it(build, message):
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        build()


def test_an_infinite_gps_noise_is_rejected_naming_it():
    # it once passed, and the first db record's latitude was blamed instead
    with pytest.raises(ValidationError, match="^gps_noise_m must be finite, got inf$"):
        generate(SynthConfig(**CONFIG), k=2, gps_noise_m=float("inf"))
