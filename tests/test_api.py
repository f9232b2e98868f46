"""The package namespace: ``__all__`` lists exactly what ``__init__`` binds."""

import inspect

import dctcsim


def test_all_matches_public_bindings():
    bound = {name for name, value in vars(dctcsim).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(dctcsim.__all__) == sorted(bound)
