"""Import layering of the zetalab package, read from the source with ast.

ffield imports artin (extension counts come from the zeta function), so
artin and the exact-arithmetic core below it must not import any layer
above them, or the package's imports would form a cycle.  The explicit
formulas need nothing from the lattice layer: the xi evaluations that
check the zero table are test oracles.

Reach: every top-level name in the package is reached from a command, a
benchmark job or the acceptance suite; code that only unit tests call
lives in the tests.

Start-up: the CLI imports every zetalab module but no numeric library;
numpy and mpmath are imported inside the functions that use them, and
scipy not at all.  The curve commands over F_q (artin, nazeta, census,
mass, allbundles, explicit-ff), the Euler products (euler), the
lattice stability command (lattice: exact minima and HN filtration) and
theta cohomology (theta) run without either, and the number-field
explicit formula (explicit-nf) loads numpy but not mpmath.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetalab

PACKAGE = Path(zetalab.__file__).parent
UPPER = {"ffield", "bundles", "nazeta", "lattice", "explicit", "cli"}


def zetalab_imports(module: str) -> set[str]:
    """The zetalab modules that `module` imports, at any depth in its code."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("zetalab."))
        elif isinstance(node, ast.ImportFrom):
            # a relative import inside the package is spelled absolutely
            base = node.module or ""
            if node.level:
                base = "zetalab." + base if base else "zetalab"
            if base == "zetalab":
                found.update(alias.name for alias in node.names)
            elif base.startswith("zetalab."):
                found.add(base.split(".")[1])
    return found


@pytest.mark.parametrize("module", ["artin", "exact"])
def test_lower_layers_import_no_upper_layer(module):
    assert zetalab_imports(module) & UPPER == set()


def test_import_reader_finds_known_edges():
    # `from zetalab.artin import ...` and `from zetalab import artin, ...`
    assert zetalab_imports("ffield") >= {"artin", "errors"}
    assert zetalab_imports("cli") >= {"artin", "bundles", "explicit", "ffield",
                                      "lattice", "nazeta"}


def test_lattice_imports_no_curve_layer():
    # the enumeration budget lives in errors, so the lattice layer needs
    # nothing from the curves over F_q
    assert zetalab_imports("lattice") & {"ffield", "artin"} == set()


def test_explicit_imports_no_lattice():
    assert "lattice" not in zetalab_imports("explicit")


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def imported_packages(module: str) -> set[str]:
    """Top-level names of everything `module` imports, at any depth."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add((node.module or "").split(".")[0])
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_scipy(module):
    assert "scipy" not in imported_packages(module)


def test_package_reader_finds_function_local_imports():
    assert "numpy" in imported_packages("explicit")
    assert "mpmath" in imported_packages("lattice")


def test_cli_startup_loads_no_numeric_library():
    code = ("import json, sys, zetalab.cli; zetalab.cli.build_parser(); "
            "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(json.loads(out))
    assert {name.split(".")[0] for name in loaded} & {"numpy", "scipy", "mpmath"} == set()
    # the benchmark's tracer finds every layer under sys.modules
    assert {f"zetalab.{m}" for m in MODULES if m != "__init__"} <= loaded


CURVE_JOBS = [
    ["artin", "--curve", "y2=x3+x+1", "--p", "5"],
    ["nazeta", "--curve", "y2=x3+2x+3", "--p", "7", "--rank", "3",
     "--convention", "descent"],
    ["census", "--curve", "y2=x3+x", "--p", "13", "--rank", "3",
     "--convention", "descent"],
    ["mass", "--curve", "y2=x3+4x", "--p", "5"],
    ["allbundles", "--curve", "y2=x3+x+1", "--p", "5", "--order", "6"],
    ["explicit-ff", "--curve", "y2=x3+x+1", "--p", "5", "--count", "5"],
    # pmax > MESTRE_BOUND, so a_p runs the Shanks-Mestre path
    ["euler", "--A", "1", "--B", "1", "--s", "2.5", "--pmax", "1000"],
    ["euler", "--A", "-1", "--B", "0", "--rank", "2", "--s", "3",
     "--pmax", "1000", "--convention", "descent"],
]

# HN filtrations of a rank-2 basis, a rank-3 Gram and the wide-box rank-3
# basis: the exact path, down to the rank-2 destabilizer and the reduction;
# theta sums over the same short-vector search
LATTICE_JOBS = [
    ["lattice", "--lattice", "2 1 / 1 1"],
    ["lattice", "--gram", "1 0 0 / 0 1 0 / 0 0 9"],
    ["lattice", "--lattice", "1 3 3 / -3 2 -2 / 3 1 4"],
    ["theta", "--gram", "2 1 0 0 / 1 2 1 0 / 0 1 2 1 / 0 0 1 2"],
]


def packages_loaded_by(argvs: list[list[str]]) -> set[str]:
    """Top-level packages in sys.modules after a fresh interpreter runs
    every argv through the CLI, each exiting 0."""
    code = ("import contextlib, io, json, sys, zetalab.cli\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert zetalab.cli.main(argv) == 0, argv\n"
            "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return {name.split(".")[0] for name in json.loads(out)}


def test_curve_commands_load_no_numeric_library():
    assert packages_loaded_by(CURVE_JOBS + LATTICE_JOBS) & {"numpy", "mpmath"} == set()


def test_explicit_nf_loads_no_mpmath():
    # the Stirling coefficients of the digamma come from exact.bernoulli_even
    zeros = str(REPO / "tests" / "data" / "zeros100.txt")
    loaded = packages_loaded_by([["explicit-nf", "--zeros", zeros, "--K", "10",
                                  "--pmax", "100"]])
    assert "numpy" in loaded and "mpmath" not in loaded


REPO = PACKAGE.parent.parent


def traced_names() -> tuple[tuple[str, str], ...]:
    """perfbench/tracing.py's TRACED table, read with ast."""
    tracing = ast.parse((REPO / "perfbench" / "tracing.py").read_text())
    return next(ast.literal_eval(node.value) for node in tracing.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets))


def test_every_traced_name_resolves():
    """Each TRACED (module, attr) names a function in vars() of
    zetalab.<module>, or of its class: what Tracer.install looks up.  The
    reach test below skips a name its module does not define, so a moved
    function would pass it while a traced benchmark run raised KeyError."""
    for module, attr in traced_names():
        owner = importlib.import_module(f"zetalab.{module}")
        *cls, leaf = attr.split(".")
        if cls:
            owner = vars(owner)[cls[0]]
        assert inspect.isfunction(vars(owner).get(leaf)), f"{module}.{attr}"


# what perfbench/run.py calls besides the CLI
BENCHMARK_CALLS = {("ffield", "count_points"), ("ffield", "WeierstrassCurve"),
                   ("ffield", "FieldSpec")}


def top_level_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Every name a module binds at top level by def, class or assignment."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
    return defs


def import_bindings(tree: ast.Module) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """(name -> (module, name)) for `from zetalab.m import name`, and
    (alias -> module) for `from zetalab import m`."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        for alias in node.names:
            if node.module == "zetalab":
                modules[alias.asname or alias.name] = alias.name
            elif node.module.startswith("zetalab."):
                names[alias.asname or alias.name] = (node.module.split(".")[1], alias.name)
    return names, modules


def test_every_library_name_is_reached():
    """Every top-level name in src/zetalab is reached from a command, a
    benchmark job or the acceptance suite.

    The walk starts from every top-level name of cli.py, the zetalab names
    tests/test_acceptance.py imports, the functions perfbench/tracing.py
    wraps by name (its TRACED table, read with ast), the ffield names
    perfbench/run.py calls, the errors classes and the package exports.
    It follows, inside each reached definition, every bare name that is a
    top-level name of the same module or a `from zetalab.m import` copy,
    and every `m.name` through a `from zetalab import m` alias.  A name walk
    cannot see getattr or any other reference built from a string, so a
    name reached only that way is reported as unreached.  Code that only
    unit tests call belongs in the tests, as an oracle or not at all.
    """
    trees = {m: ast.parse((PACKAGE / f"{m}.py").read_text()) for m in MODULES}
    defs = {m: top_level_definitions(tree) for m, tree in trees.items()}
    bindings = {m: import_bindings(tree) for m, tree in trees.items()}

    roots = {(m, name) for m in ("cli", "errors", "__init__") for name in defs[m]}
    roots |= set(import_bindings(ast.parse(
        (REPO / "tests" / "test_acceptance.py").read_text()))[0].values())
    traced = traced_names()
    assert len(traced) == 25
    roots |= {(module, attr.split(".")[0]) for module, attr in traced}
    roots |= BENCHMARK_CALLS

    reached, todo = set(), list(roots)
    while todo:
        module, name = todo.pop()
        if (module, name) in reached or name not in defs[module]:
            continue
        reached.add((module, name))
        names, modules = bindings[module]
        for node in ast.walk(defs[module][name]):
            if isinstance(node, ast.Name):
                if node.id in defs[module]:
                    todo.append((module, node.id))
                elif node.id in names:
                    todo.append(names[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                todo.append((modules[node.value.id], node.attr))

    unreached = sorted(f"{m}.{name}" for m in MODULES for name in defs[m]
                       if (m, name) not in reached)
    assert not unreached, "reached by nothing: " + ", ".join(unreached)
