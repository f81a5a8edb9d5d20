import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bhnum

MODULES = [m.name for m in pkgutil.iter_modules(bhnum.__path__, "bhnum.")]


def test_every_module_all_resolves():
    # A stale __all__ entry breaks `from bhnum.<module> import *`.
    assert "bhnum.numtheory" in MODULES
    for name in MODULES:
        exec(f"from {name} import *", {})  # AttributeError on a stale entry


def test_package_reexports_public_names():
    # Each name bhnum/__init__.py imports is the module's own object and
    # one of that module's public names; __all__ is those names plus the
    # lazily resolved ones.
    tree = ast.parse(Path(bhnum.__file__).read_text())
    imports = [
        node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert imports
    eager = set()
    for node in imports:
        module = importlib.import_module(f"bhnum.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(bhnum, alias.asname or alias.name) is getattr(
                module, alias.name
            )
            eager.add(alias.asname or alias.name)
    assert eager.isdisjoint(bhnum._LAZY)
    assert sorted(bhnum.__all__) == sorted(eager | set(bhnum._LAZY))


def test_lazy_exports_resolve_to_their_modules():
    # The verifier names load on first access (PEP 562); each is its module's
    # own public object, listed by dir() and bound by `from bhnum import *`.
    assert set(bhnum._LAZY.values()) == {"congruence", "numtheory"}
    star = {}
    exec("from bhnum import *", star)
    for name, module_name in bhnum._LAZY.items():
        module = importlib.import_module(f"bhnum.{module_name}")
        assert name in module.__all__, (module_name, name)
        assert getattr(bhnum, name) is getattr(module, name)
        assert star[name] is getattr(module, name)
        assert name in dir(bhnum)
    assert set(bhnum.__all__) <= set(star)
    # An unknown name is still an AttributeError, not a lookup in the table.
    assert not hasattr(bhnum, "TruncSeries")
    with pytest.raises(AttributeError, match="TruncSeries"):
        bhnum.TruncSeries
