"""Source checks over the library's modules: no module but the package's
`__init__` (which re-exports) imports a name it never uses."""

import ast
import pathlib

import pytest

import codequiv

SRC = pathlib.Path(codequiv.__file__).parent
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of `source`, anywhere in
    it, that no expression of it loads (`from __future__` aside).  An
    `import a.b` binds `a`; an annotation counts as a use."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - loaded)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import hashlib, os.path, time as clock\n"
              "from functools import cache, cached_property\n"
              "def f(x: cache) -> int:\n"
              "    import numbers\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["cached_property", "clock", "hashlib",
                                      "numbers"]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_only_what_it_uses(name):
    assert unused_imports((SRC / name).read_text()) == []
