"""src/ stays stdlib-only: every import in src/projzero/*.py names a module
of the standard library or projzero itself (relative imports included)."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "projzero"
ALLOWED = sys.stdlib_module_names | {"projzero"}


def imported_roots(tree):
    """(line, top-level module) of every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = [(line, name) for line, name in imported_roots(tree)
               if name not in ALLOWED]
    assert outside == [], f"non-stdlib imports in {path.name}: {outside}"


def test_the_check_sees_third_party_imports():
    tree = ast.parse("import numpy\nfrom sympy.core import S\n"
                     "from . import linalg\nimport os.path\n")
    assert [name for _, name in imported_roots(tree)
            if name not in ALLOWED] == ["numpy", "sympy"]
