"""The package's public surface."""

import oam_antijam


def test_every_public_name_resolves():
    missing = [name for name in oam_antijam.__all__ if not hasattr(oam_antijam, name)]
    assert missing == []
    assert len(set(oam_antijam.__all__)) == len(oam_antijam.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from oam_antijam import *", namespace)
    assert set(oam_antijam.__all__) <= set(namespace)
