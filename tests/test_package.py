"""Package hygiene, read from the source with ast: the export list, and no
module-level import that its module never uses."""
import ast
from pathlib import Path

import pytest

import freedrift

PACKAGE = Path(freedrift.__file__).parent


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree):
    """The names the module-level imports bind, with their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return names


def test_every_exported_name_resolves():
    assert [name for name in freedrift.__all__ if not hasattr(freedrift, name)] == []


def test_exports_are_the_public_names_imported():
    imported = _imported(_tree(PACKAGE / "__init__.py"))
    assert len(set(freedrift.__all__)) == len(freedrift.__all__)
    assert set(freedrift.__all__) == {name for name in imported
                                      if not name.startswith("_")}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    if path.name == "__init__.py":
        used |= set(freedrift.__all__)
    unused = [f"{name} (line {line})"
              for name, line in _imported(tree).items() if name not in used]
    assert unused == []
