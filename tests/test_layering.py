"""Import layering of the zetalab package, read from the source with ast.

ffield imports artin (extension counts come from the zeta function), so
artin and the exact-arithmetic core below it must not import any layer
above them, or the package's imports would form a cycle.
"""

import ast
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
