"""No module imports a name it never reads: every name an import binds in
src/projzero (but `__init__.py`, whose imports are its re-exports), tests/
and scripts/ is read somewhere in the same file."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "projzero").glob("*.py")
     if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "scripts").glob("*.py")))


def unused_imports(source):
    """(line, name) of every name an import binds that the module never
    reads; `import a.b` binds `a`."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(node.lineno, name) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in (a.asname or a.name.partition(".")[0]
                         for a in node.names)
            if name not in read]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    unused = unused_imports(path.read_text())
    assert unused == [], f"{path.name} imports names it never reads: {unused}"


def test_the_check_sees_unread_imports():
    source = ("import os.path\nimport random\nfrom a import b, c as d\n"
              "from . import e\nprint(os.path.join(d, random.random()))\n")
    assert unused_imports(source) == [(3, "b"), (4, "e")]
