"""Every public name in src/projzero has a caller in src, so that src holds
what the commands, the library entry points and the benchmark run, and a
helper that only the tests reach lives with the tests.

- A public module-level function or class is referenced (read as a name or
  an attribute) in some module of src/projzero; its own module counts,
  `__init__.py`, whose imports are the re-exports, does not.
- A public method's name is read as an attribute somewhere in that src. A
  public `@classmethod` or `@staticmethod` counts only where src reads it
  as `<Class>.<name>` or `cls.<name>`, so that `field.zero` does not keep a
  `Matrix.zero` alive.

An instance method still goes by name, so it is kept alive by any attribute
of the same name; the allowlist names what is kept for a caller outside
src.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "projzero"

ALLOWED = {
    # library entry point: the perfbench `points` workload builds its
    # ideals with it
    "points.vanishing_ideal",
    # kept for the cyclic path of the eigenvector search (ROADMAP item 2)
    "linalg.poly_eval",
    # perfbench's ScalarCounter wraps every method in its SCALAR_METHODS by
    # name, on both field classes
    "fields.PrimeField.sub",
    "fields.RationalField.sub",
}


def uncalled(sources):
    """Sorted `module.name` and `module.Class.method` of the public defs in
    {module: source} with no reference in any module but `__init__`."""
    trees = {m: ast.parse(s) for m, s in sources.items() if m != "__init__"}
    names, attrs, qualified = set(), set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name):
                    qualified.add((node.value.id, node.attr))
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") and node.name not in names | attrs:
                out.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{module}.{node.name}.{item.name}"
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")
                        and not _read(item, node.name, attrs, qualified)]
    return sorted(out)


def _read(method, cls, attrs, qualified):
    """Whether src reads the method: by name, or for a class or static
    method as `<cls>.<name>` or `cls.<name>`."""
    if any(isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
           for d in method.decorator_list):
        return bool({(cls, method.name), ("cls", method.name)} & qualified)
    return method.name in attrs


def _src():
    return {p.stem: p.read_text() for p in SRC.glob("*.py")}


def test_every_public_def_has_a_caller_in_src():
    extra = sorted(set(uncalled(_src())) - ALLOWED)
    assert extra == [], f"public names with no caller in src: {extra}"


def test_every_allowed_name_is_defined_and_uncalled():
    assert ALLOWED <= set(uncalled(_src()))


def test_the_check_sees_uncalled_defs():
    sources = {
        "__init__": "from .a import helper, Box, used\n",
        "a": """
def used(x):
    return x.size

def helper():
    return used(1)

def lonely():
    pass

class Box:
    def size(self):
        return 0

    def extra(self):
        return self.size()

    def _private(self):
        pass
""",
        "b": "from .a import helper\nhelper()\nsize = 1\nextra = 2\n",
    }
    assert uncalled(sources) == ["a.Box", "a.Box.extra", "a.lonely"]


def test_the_check_sees_class_methods_read_only_elsewhere():
    """A class or static method is called only as `<Class>.<name>` or
    `cls.<name>`; an attribute of the same name on another object does not
    count."""
    sources = {
        "a": """
class Grid:
    @classmethod
    def zero(cls):
        return cls.blank()

    @staticmethod
    def blank():
        return Grid()

    @classmethod
    def unit(cls):
        return cls()

    @staticmethod
    def spare():
        return 0
""",
        "b": "from .a import Grid\nGrid.unit()\nfield = 1\nfield.zero\n"
             "field.spare\n",
    }
    assert uncalled(sources) == ["a.Grid.spare", "a.Grid.zero"]
