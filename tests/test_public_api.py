import pytest

import vprkit


def test_star_import_resolves_every_name_once():
    namespace = {}
    exec("from vprkit import *", namespace)
    assert len(vprkit.__all__) == len(set(vprkit.__all__))
    for name in vprkit.__all__:
        assert namespace[name] is getattr(vprkit, name)


def test_numpy_backed_names_resolve_on_access():
    from vprkit import dataset, evaluation, synth

    assert vprkit.Split is dataset.Split
    assert vprkit.evaluate_pipeline is evaluation.evaluate_pipeline
    assert vprkit.generate is synth.generate
    with pytest.raises(AttributeError, match="no_such_name"):
        vprkit.no_such_name
