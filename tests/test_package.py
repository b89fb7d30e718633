"""Package hygiene: the lazy export table, what importing the package and
running each command loads, and, read from the source with ast, no import
that its scope never uses and no definition that the package never names."""
import ast
import importlib
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import freedrift

PACKAGE = Path(freedrift.__file__).parent
TESTS = Path(__file__).parent
TABLE = [name for names in freedrift._EXPORTS.values() for name in names]


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(scope):
    """(name, line) for each name an import in scope binds, imports in
    nested functions included."""
    for node in ast.walk(scope):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _loaded_modules(code):
    """The freedrift submodules, by their names in the package, and numpy
    if loaded, after running code in a fresh interpreter."""
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps(sorted(m.removeprefix('freedrift.')\n"
             "    for m in sys.modules\n"
             "    if m.startswith('freedrift.') or m == 'numpy')))")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_every_exported_name_resolves():
    assert [name for name in freedrift.__all__ if not hasattr(freedrift, name)] == []


def test_exports_are_the_public_names_imported():
    assert len(set(freedrift.__all__)) == len(freedrift.__all__)
    assert len(set(TABLE)) == len(TABLE)
    assert set(freedrift.__all__) == {name for name in TABLE
                                      if not name.startswith("_")}


@pytest.mark.parametrize("module", sorted(freedrift._EXPORTS))
def test_each_name_is_the_object_in_its_home_module(module):
    home = importlib.import_module(f"freedrift.{module}")
    for name in freedrift._EXPORTS[module]:
        assert getattr(freedrift, name) is getattr(home, name), name


def test_dir_star_import_and_unknown_names():
    assert set(freedrift.__all__) <= set(dir(freedrift))
    namespace = {}
    exec("from freedrift import *", namespace)
    assert {name: namespace[name] for name in freedrift.__all__} == \
        {name: getattr(freedrift, name) for name in freedrift.__all__}
    with pytest.raises(AttributeError, match="no_such_name"):
        freedrift.no_such_name
    with pytest.raises(ImportError):
        exec("from freedrift import no_such_name", {})


def test_import_loads_no_submodule_and_no_numpy():
    assert _loaded_modules("import freedrift") == set()


@pytest.mark.parametrize("args, absent", [
    (["assign", "--window", "1"], {"falsifier", "cylinders"}),
    (["verify", "--window", "1"], {"falsifier", "cylinders", "numpy"}),
    (["evolve", "--window", "1", "--frames", "1"], {"falsifier", "cylinders"}),
    (["evolve", "--particles", "PAIR", "--frames", "1"],
     {"lattice", "falsifier", "cylinders"}),
    (["cylinders", "--window", "1"], {"falsifier"}),
    (["falsify", "--field", "constant"], {"lattice", "evolution", "cylinders"}),
], ids=["assign", "verify", "evolve", "evolve-particles", "cylinders", "falsify"])
def test_each_command_loads_only_its_modules(tmp_path, args, absent):
    pair = tmp_path / "pair.txt"
    pair.write_text("particles v1\n0,0,0,0\n0,3,0,0\n")
    args = [str(pair) if arg == "PAIR" else arg for arg in args]
    argv = ["--command", *args, "--out", str(tmp_path)]
    loaded = _loaded_modules("from freedrift import cli\n"
                             f"assert cli.main({argv!r}) == 0")
    assert "cli" in loaded
    assert loaded & absent == set()


@pytest.mark.parametrize(
    "path", [*sorted(PACKAGE.glob("*.py")), *sorted(TESTS.glob("*.py"))],
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_module_imports(path):
    tree = _tree(path)
    # Each import must be used in its scope: the module for module-level
    # imports, the function that holds it for function-local ones.
    scopes = [tree, *(node for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))]
    unused = set()
    for scope in scopes:
        used = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused |= {f"{name} (line {line})" for name, line in _imported(scope)
                   if name not in used}
    assert sorted(unused) == []


def _definitions(tree):
    """Names of the top-level functions, classes and assignments of a module
    and of the methods of its classes, dunders aside."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names = [node.name, *(item.name for item in node.body
                                  if isinstance(item, ast.FunctionDef))]
        elif isinstance(node, ast.FunctionDef):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            names = []
        yield from (name for name in names if not name.startswith("__"))


def test_every_definition_is_named_elsewhere_in_the_package():
    # Each definition must be named somewhere in the package besides its
    # own definition: code that nothing in the package reaches belongs in
    # the tests. The export table of __init__.py names nothing in this sense.
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    defined = Counter(name for source in sources
                      for name in _definitions(ast.parse(source)))
    text = "\n".join(sources)
    unnamed = [name for name, count in defined.items()
               if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= count]
    assert sorted(unnamed) == []
