import ast
import importlib
import pkgutil
from pathlib import Path

import bhnum

MODULES = [m.name for m in pkgutil.iter_modules(bhnum.__path__, "bhnum.")]


def test_every_module_all_resolves():
    # A stale __all__ entry breaks `from bhnum.<module> import *`.
    assert "bhnum.numtheory" in MODULES
    for name in MODULES:
        exec(f"from {name} import *", {})  # AttributeError on a stale entry


def test_package_reexports_public_names():
    # Each name bhnum/__init__.py imports is the module's own object and
    # one of that module's public names.
    tree = ast.parse(Path(bhnum.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"bhnum.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(bhnum, alias.asname or alias.name) is getattr(
                module, alias.name
            )
