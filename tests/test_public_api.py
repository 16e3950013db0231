import vprkit


def test_star_import_resolves_every_name_once():
    namespace = {}
    exec("from vprkit import *", namespace)
    assert len(vprkit.__all__) == len(set(vprkit.__all__))
    for name in vprkit.__all__:
        assert namespace[name] is getattr(vprkit, name)
