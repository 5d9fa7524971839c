"""linalg is the only module that knows how the scalars of each field are
stored and reduced. Outside linalg (and fields, which defines them):

- no module imports or reads a `_`-prefixed name of linalg;
- no code reads a field's `.size`, except where it picks a sample range
  (`nzd_sweep`, `_draw_coefficients`), so nothing branches on the field
  for arithmetic;
- no code reduces modulo a prime `p` or `.p`.

A field is recognised by name: `f`, `fld`, `field`, or any `<x>.field`.

One triplet type serves the ideal side and the points side: src defines one
class whose name ends in `Triplet`, only `triplet.assemble` constructs it,
and the l-combination identity is checked at one site.

The ideal owns its monomial order and one options object holds every other
setting: `Triplet` is (E, l, A), src defines one class whose name ends in
`Options`, and in quotient, triplet and solver only the helpers that build
a piece or walk monomials in an order take a parameter named `order`.
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


class TripletSites(ast.NodeVisitor):
    """Classes named `...Triplet`, calls constructing one, and raises of the
    l-combination InvariantViolation; sites as (module, function, line)."""

    def __init__(self, module):
        self.module = module
        self.functions = []
        self.classes, self.constructions, self.identity_checks = [], [], []

    def _site(self, node):
        return (self.module, ".".join(self.functions), node.lineno)

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        if node.name.endswith("Triplet"):
            self.classes.append(node.name)
        self.generic_visit(node)

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name)
                and node.func.id.endswith("Triplet")):
            self.constructions.append(self._site(node))
        self.generic_visit(node)

    def visit_Raise(self, node):
        exc = node.exc
        if (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                and exc.func.id == "InvariantViolation"
                and any(isinstance(c, ast.Constant)
                        and "the l-combination" in str(c.value)
                        for arg in exc.args for c in ast.walk(arg))):
            self.identity_checks.append(self._site(node))
        self.generic_visit(node)


def triplet_sites(sources):
    """(classes, constructions, identity checks) over {module: source}."""
    classes, constructions, checks = [], [], []
    for module, source in sorted(sources.items()):
        visitor = TripletSites(module)
        visitor.visit(ast.parse(source))
        classes += visitor.classes
        constructions += visitor.constructions
        checks += visitor.identity_checks
    return classes, constructions, checks


def test_one_triplet_type_built_and_checked_in_one_place():
    classes, constructions, checks = triplet_sites(
        {p.stem: p.read_text() for p in SRC.glob("*.py")})
    assert classes == ["Triplet"]
    assert [(m, fn) for m, fn, _ in constructions] == [("triplet", "assemble")]
    assert [(m, fn) for m, fn, _ in checks] == [("triplet", "assemble")]


def test_the_triplet_check_sees_each_site():
    points = """
@dataclass
class PointTriplet:
    A: list

def bm_triplet(P):
    trip = PointTriplet(A=[])
    if l_combination(trip) != identity:
        raise InvariantViolation(
            "the l-combination sum_j coeff_j(l) A_j is not the identity")
    raise InvariantViolation("interpolation must stop by degree |P|")
"""
    triplet = """
class Triplet:
    pass

def _assemble(l):
    trip = Triplet(l=l)
    if l_combination(trip) != identity:
        raise InvariantViolation(f"the l-combination of {l} is not 1")
    return trip
"""
    classes, constructions, checks = triplet_sites(
        {"points": points, "triplet": triplet})
    assert classes == ["PointTriplet", "Triplet"]
    assert constructions == [("points", "bm_triplet", 7),
                             ("triplet", "_assemble", 6)]
    assert checks == [("points", "bm_triplet", 9),
                      ("triplet", "_assemble", 8)]


ORDER_TAKERS = ["_interpolate", "_split_monomial", "ideal_piece",
                "macaulay_rows"]


def order_sites(sources):
    """(classes named `...Options`, fields of `Triplet`, functions with a
    parameter named `order` as (module, name)) over {module: source}."""
    options, fields, takers = [], [], []
    for module, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                if node.name.endswith("Options"):
                    options.append(node.name)
                if node.name == "Triplet":
                    fields += [stmt.target.id for stmt in node.body
                               if isinstance(stmt, ast.AnnAssign)]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                if any(a.arg == "order" for a in
                       args.posonlyargs + args.args + args.kwonlyargs):
                    takers.append((module, node.name))
    return options, fields, sorted(takers)


def test_the_ideal_owns_its_order_and_one_options_class():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    options, fields, _ = order_sites(sources)
    assert options == ["Options"]
    assert fields == ["E_monomials", "l", "A"]
    _, _, takers = order_sites(
        {m: sources[m] for m in ("quotient", "triplet", "solver")})
    assert sorted(name for _, name in takers) == ORDER_TAKERS


def test_the_order_check_sees_each_site():
    triplet = """
@dataclass(frozen=True)
class TripletOptions:
    seed: int = 0

@dataclass
class Triplet:
    E_monomials: list
    l: Form
    A: list
    order: MonomialOrder

    @property
    def size(self):
        return len(self.E_monomials)

def build_triplet(I, order, options=TripletOptions()):
    return _split_monomial((1, 0), 1, order)
"""
    quotient = """
class IdealPresentation:
    def piece(self, d, order):
        return ideal_piece(self, d, order)

def hilbert_scan(I, *, order=None):
    pass
"""
    options, fields, takers = order_sites(
        {"triplet": triplet, "quotient": quotient})
    assert options == ["TripletOptions"]
    assert fields == ["E_monomials", "l", "A", "order"]
    assert takers == [("quotient", "hilbert_scan"), ("quotient", "piece"),
                      ("triplet", "build_triplet")]
