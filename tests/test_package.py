"""The package namespace."""

import types

import hamq


def test_all_names_exactly_the_public_attributes():
    # the import list and __all__ in hamq/__init__.py name the same objects;
    # submodules are attributes too once imported, and are not exports
    public = {name for name, value in vars(hamq).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(hamq.__all__) == len(set(hamq.__all__))
    assert set(hamq.__all__) == public
