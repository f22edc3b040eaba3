"""The package's public names: ``__all__`` lists exactly what ``__init__`` binds."""

import types

import contextuality


def bound_public_names():
    """Names that ``__init__`` binds, other than submodules and private ones."""
    return {
        name for name, value in vars(contextuality).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_all_is_sorted_and_unique():
    assert contextuality.__all__ == sorted(set(contextuality.__all__))


def test_all_lists_every_bound_public_name():
    assert set(contextuality.__all__) == bound_public_names()


def test_every_entry_resolves():
    for name in contextuality.__all__:
        assert getattr(contextuality, name) is not None
