"""The package's public names: ``__all__`` and what ``__init__`` binds agree."""

import types

import locallemma


def test_all_names_resolve_once():
    names = locallemma.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(locallemma, name)]
    assert missing == []


def test_every_public_binding_is_exported():
    bound = {name for name, value in vars(locallemma).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(locallemma.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from locallemma import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(locallemma.__all__)
    assert all(namespace[name] is getattr(locallemma, name) for name in namespace)
