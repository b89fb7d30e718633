"""Package hygiene: the lazy export table, what importing the package and
running each command loads, and, read from the source with ast, no import
that its scope never uses and no definition that the package never names."""
import ast
import importlib
import json
import math
import random
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


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    """The README's python block runs as written, in an empty directory."""
    readme = (TESTS.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


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
    (["assign", "--window", "1"],
     {"evolution", "falsifier", "cylinders", "numpy"}),
    (["verify", "--window", "1"], {"falsifier", "cylinders", "numpy"}),
    (["verify", "--window", "1", "--profile", "table:TABLE"],
     {"falsifier", "cylinders", "numpy"}),
    (["evolve", "--window", "1", "--frames", "1"], {"falsifier", "cylinders"}),
    (["evolve", "--particles", "PAIR", "--frames", "1"],
     {"lattice", "falsifier", "cylinders"}),
    (["cylinders", "--window", "1"], {"evolution", "falsifier", "numpy"}),
    (["cylinders", "--window=0:0,-3:3"], {"evolution", "falsifier", "numpy"}),
    (["falsify", "--field", "constant"],
     {"lattice", "configuration", "evolution", "cylinders", "numpy", "_pairscan"}),
    (["falsify", "--field", "radial", "--c", "1e-4"],
     {"lattice", "configuration", "evolution", "cylinders", "numpy", "_pairscan"}),
    # Broken in the probe stage.
    (["falsify", "--field", "grid:GRID", "--c", "0.1"],
     {"lattice", "configuration", "evolution", "cylinders", "numpy", "_pairscan"}),
], ids=["assign", "verify", "verify-table", "evolve", "evolve-particles",
        "cylinders", "cylinders-column", "falsify", "falsify-radial",
        "falsify-grid"])
def test_each_command_loads_only_its_modules(tmp_path, args, absent):
    pair = tmp_path / "pair.txt"
    pair.write_text("particles v1\n0,0,0,0\n0,3,0,0\n")
    table = tmp_path / "table.csv"
    table.write_text("-1,-0.5\n0,0\n1,0.5\n")
    grid = tmp_path / "grid.txt"
    grid.write_text("particles v1\n" + "".join(
        f"{x},{y},{0.5 if x > 0 else -0.5},0\n" for y in (-1, 0, 1) for x in (-1, 0, 1)))
    files = {"PAIR": str(pair), "table:TABLE": f"table:{table}",
             "grid:GRID": f"grid:{grid}"}
    args = [files.get(arg, arg) for arg in args]
    argv = ["--command", *args, "--out", str(tmp_path)]
    loaded = _loaded_modules("from freedrift import cli\n"
                             f"assert cli.main({argv!r}) == 0")
    assert "cli" in loaded
    assert loaded & absent == set()


def test_the_scaled_stage_loads_neither_numpy_nor_the_pair_engine(tmp_path):
    # A radial field at scale 1,000 sampled on 9 x 9 nodes 2,500 apart: at
    # c = 0.1 the probes do not break it, and the scaled stage breaks it at
    # its first pair, past the grid's last node.
    nodes = [-10000.0 + 2500.0 * k for k in range(9)]
    grid = tmp_path / "grid.txt"
    grid.write_text("particles v1\n" + "".join(
        f"{x!r},{y!r},{x / math.hypot(1e3, x, y)!r},{y / math.hypot(1e3, x, y)!r}\n"
        for y in nodes for x in nodes))
    out = tmp_path / "out"
    argv = ["--command", "falsify", "--field", f"grid:{grid}", "--c", "0.1",
            "--out", str(out)]
    loaded = _loaded_modules("from freedrift import cli\n"
                             f"assert cli.main({argv!r}) == 0")
    report = (out / "falsify_report.txt").read_text()
    assert "stage = scaled\n" in report
    assert "evaluations_used = 1346\n" in report
    assert "falsifier" in loaded
    assert loaded & {"numpy", "_pairscan", "lattice", "evolution",
                     "cylinders"} == set()


def test_an_exhausted_search_loads_no_numpy():
    # A radial field at scale 1e300 is linear at every pair the search can
    # separate, and at c = 1e-4 no scaled pair is more than 1 apart: the
    # search ends after the 672 probes with budget left.
    loaded = _loaded_modules(
        "from freedrift.falsifier import Exhausted, falsify, "
        "saturated_radial_field\n"
        "result = falsify(saturated_radial_field(scale=1e300), 1e-4, 20000)\n"
        "assert isinstance(result, Exhausted), result\n"
        "assert result.evaluations_used == 1344, result")
    assert loaded == {"falsifier", "formats", "geometry"}


@pytest.fixture(scope="module")
def window_40_files(tmp_path_factory):
    """The rows of assign --window 40 (6,561 rows, 21,520,080 pairs) in a
    seeded random order, and in file order with the first row's v1 (V0)
    one ulp higher."""
    from freedrift import cli
    work = tmp_path_factory.mktemp("window-40")
    assert cli.main(["--command", "assign", "--window", "40",
                     "--out", str(work)]) == 0
    header, *rows = (work / "particles.txt").read_text().splitlines()
    x1, x2, v1, v2 = rows[0].split(",")
    nudged = [",".join((x1, x2, repr(math.nextafter(float(v1), math.inf)), v2)),
              *rows[1:]]
    random.Random(40).shuffle(rows)
    files = {}
    for name, lines in (("shuffled", rows), ("nudged", nudged)):
        files[name] = work / f"{name}.txt"
        files[name].write_text("\n".join([header, *lines]) + "\n")
    return files


@pytest.mark.parametrize("command, report", [("verify", "report.txt"),
                                             ("cylinders", "cylinder_report.txt")])
def test_a_particles_file_is_decided_without_numpy(tmp_path, window_40_files,
                                                   command, report):
    """A flow's rows, shuffled, are decided by the certificate from their
    columns, with neither numpy nor the pair engine loaded; past the
    exhaustive limit, rows the certificate refuses are undecided before
    either is loaded: exit 1 and no report."""
    absent = {"numpy", "_pairscan", "lattice", "falsifier"}
    for name, code in (("shuffled", 0), ("nudged", 1)):
        out = tmp_path / name
        argv = ["--command", command, "--particles", str(window_40_files[name]),
                "--out", str(out)]
        loaded = _loaded_modules("from freedrift import cli\n"
                                 f"assert cli.main({argv!r}) == {code}")
        assert "configuration" in loaded and loaded & absent == set()
        assert ("evolution" in loaded) == (command == "verify")
        if code == 0:
            text = (out / report).read_text()
            assert "mode = exhaustive-structural\n" in text
            assert "pairs_checked = 21520080\n" in text
        else:
            assert not out.exists()


# What verify and cylinders write for the one-row file "0.5,-2,0.25,-0".
ONE_ROW_OUTPUT = {
    "verify": {"report.txt": (
        "report v1\ncommand = verify\nparticle_count = 1\nthreshold = 1\n"
        "min_alltime_distance = inf\nwitness_pair = none\nwitness_time = none\n"
        "margin = inf\npairs_total = 0\npairs_checked = 0\nmode = exhaustive\n"
        "seed = none\npassed = true\n")},
    "cylinders": {"cylinder_report.txt": (
        "report v1\ncommand = cylinders\nparticle_count = 1\n"
        "radius = 0.48507125007266594\nspeed_min = 0.25\nspeed_max = 0.25\n"
        "separation_floor = 0.97014250014533188\n"
        "required_distance = 0.97014250014533188\nmin_line_distance = inf\n"
        "witness_pair = none\ndistance_margin = inf\ndistances_ok = true\n"
        "nonparallel_ok = true\nduplicate_direction_pairs = 0\npairs_total = 0\n"
        "pairs_checked = 0\nmode = exhaustive\nseed = none\npassed = true\n"),
        "scene.txt": ("cylinder-scene v2\n"
                      "0.5,-2,0,0.25,-0,1,0.48507125007266594\n")},
}


@pytest.mark.parametrize("command", sorted(ONE_ROW_OUTPUT))
def test_a_one_row_file_is_decided_without_numpy(tmp_path, command):
    """One row has no pair: the zero-pair result, with neither numpy nor
    the pair engine loaded, and the scene row written from its columns."""
    rows = tmp_path / "one.txt"
    rows.write_text("particles v1\n0.5,-2,0.25,-0\n")
    out = tmp_path / "out"
    argv = ["--command", command, "--particles", str(rows), "--out", str(out)]
    loaded = _loaded_modules("from freedrift import cli\n"
                             f"assert cli.main({argv!r}) == 0")
    assert "configuration" in loaded
    assert ("evolution" in loaded) == (command == "verify")
    assert loaded & {"numpy", "_pairscan", "lattice", "falsifier"} == set()
    assert {path.name: path.read_text() for path in out.iterdir()} == \
        ONE_ROW_OUTPUT[command]


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
