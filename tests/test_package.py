"""The package's list of public names."""

import icfcluster


def test_every_public_name_resolves_and_is_listed_once():
    names = icfcluster.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(icfcluster, name)] == []
