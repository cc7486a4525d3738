import irsopt


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from irsopt import *", namespace)
    missing = [name for name in irsopt.__all__ if name not in namespace]
    assert not missing
    assert len(set(irsopt.__all__)) == len(irsopt.__all__)
