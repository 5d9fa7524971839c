"""linalg is the only module that knows how the scalars of each field are
stored and reduced. Outside linalg (and fields, which defines them):

- no module imports or reads a `_`-prefixed name of linalg;
- no code reads a field's `.size`, except where it picks a sample range
  (`nzd_sweep`, `_draw_coefficients`), so nothing branches on the field
  for arithmetic;
- no code reduces modulo a prime `p` or `.p`.

A field is recognised by name: `f`, `fld`, `field`, or any `<x>.field`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "projzero"
OWNERS = {"linalg.py", "fields.py"}
SIZE_READERS = {"nzd_sweep", "_draw_coefficients"}
FIELD_NAMES = {"f", "fld", "field"}


def _is_field(node):
    return ((isinstance(node, ast.Name) and node.id in FIELD_NAMES)
            or (isinstance(node, ast.Attribute) and node.attr == "field"))


def _is_modulus(node):
    return ((isinstance(node, ast.Name) and node.id == "p")
            or (isinstance(node, ast.Attribute) and node.attr == "p"))


class Boundary(ast.NodeVisitor):
    """Collects (line, what) for every crossing of the boundary."""

    def __init__(self):
        self.crossings = []
        self.functions = []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ImportFrom(self, node):
        if node.module in ("linalg", "projzero.linalg"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    self.crossings.append((node.lineno,
                                           f"imports linalg.{alias.name}"))

    def visit_Attribute(self, node):
        if (isinstance(node.value, ast.Name) and node.value.id == "linalg"
                and node.attr.startswith("_")):
            self.crossings.append((node.lineno, f"reads linalg.{node.attr}"))
        if (node.attr == "size" and _is_field(node.value)
                and not SIZE_READERS.intersection(self.functions)):
            self.crossings.append((node.lineno, "reads a field's size"))
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.Mod) and _is_modulus(node.right):
            self.crossings.append((node.lineno, "reduces mod p"))
        self.generic_visit(node)


def crossings(source):
    visitor = Boundary()
    visitor.visit(ast.parse(source))
    return visitor.crossings


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name not in OWNERS),
    ids=lambda p: p.name)
def test_only_linalg_knows_the_scalars(path):
    found = crossings(path.read_text())
    assert found == [], f"{path.name} crosses into linalg: {found}"


def test_the_check_sees_each_crossing():
    source = """
from .linalg import Matrix, _cleared
from . import linalg

def evaluate(self, rep):
    if self.field.size is not None:
        return linalg._cleared(rep)
    return [x % p for x in rep] + [x % field.p for x in rep]

def nzd_sweep(P):
    f = P.field
    def inner():
        return f.size
    return f.size, P.size
"""
    assert crossings(source) == [
        (2, "imports linalg._cleared"), (6, "reads a field's size"),
        (7, "reads linalg._cleared"), (8, "reduces mod p"),
        (8, "reduces mod p")]
