"""No module of the zetalab package calls mpmath's zeta, read with ast.

The benchmark checks xi against pi^(-s/2) Gamma(s/2) mpmath.zeta(s); a
library that computed xi through mpmath.zeta would pass that check by
construction.
"""

import ast
from pathlib import Path

import pytest

import zetalab

PACKAGE = Path(zetalab.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def mpmath_zeta_uses(source: str) -> list[int]:
    """Line numbers that reach mpmath's zeta: `zeta` imported from mpmath,
    or `.zeta` on the module or on a name imported from it (the contexts
    `mp`, `fp` and `iv` all have one)."""
    tree = ast.parse(source)
    aliases = {"mpmath"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "mpmath")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpmath"):
            aliases.update(alias.asname or alias.name for alias in node.names)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpmath"):
            lines += [node.lineno for alias in node.names if alias.name == "zeta"]
        elif (isinstance(node, ast.Attribute) and node.attr == "zeta"
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", MODULES)
def test_no_module_calls_mpmath_zeta(module):
    assert mpmath_zeta_uses((PACKAGE / f"{module}.py").read_text()) == []


def test_reader_finds_each_spelling():
    assert mpmath_zeta_uses("import mpmath\nmpmath.zeta(2)") == [2]
    assert mpmath_zeta_uses("import mpmath as mp\nf = mp.zeta") == [2]
    assert mpmath_zeta_uses("from mpmath import zeta") == [1]
    assert mpmath_zeta_uses("from mpmath import mp\nmp.zeta(3)") == [2]
    assert mpmath_zeta_uses("import mpmath\nmpmath.mp.dps = 30\nmpmath.gamma(2)") == []
