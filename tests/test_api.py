"""The public API: every name the package exports resolves, and the export
list stays sorted and free of duplicates."""

import fdrlab


def test_all_names_resolve_sorted_and_unique():
    names = fdrlab.__all__
    assert [name for name in names if not hasattr(fdrlab, name)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)
