"""The package's public names: each name in ``__all__`` resolves, and a star
import binds them all."""

import regopen


def test_every_exported_name_resolves():
    assert len(set(regopen.__all__)) == len(regopen.__all__)
    missing = [name for name in regopen.__all__ if not hasattr(regopen, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from regopen import *", namespace)
    assert set(regopen.__all__) <= namespace.keys()
