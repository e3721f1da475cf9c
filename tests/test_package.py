"""The package namespace: a short, resolvable public API."""

import edgeray


def test_all_names_resolve_once_and_stay_few():
    names = edgeray.__all__
    assert len(names) == len(set(names))
    assert len(names) <= 40
    for name in names:
        assert getattr(edgeray, name) is not None, name
