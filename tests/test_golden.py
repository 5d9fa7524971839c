"""Golden `--json` outputs of solve, nf, hilbert and bound for the ideal
fixtures under data/, and of vanish and separators for the point fixtures.

The expected documents in golden/solve.json were recorded from the code
before root finding stopped enumerating candidates; every later change must
reproduce them exactly. Two entries were re-recorded on purpose since:
`proj_dim_one`, when exit 2 began to print a JSON document under --json,
and `line_and_double_point`, when solve began to warn that its
multiplicities sum to more than m. The documents in golden/nf.json were
recorded from the code that still expanded sum c_i l^k e_i on every `nf`
call; none has been re-recorded. golden/hilbert.json, golden/bound.json
and the `certified_stable` and `cap 2` entries of golden/solve.json were
recorded from the code whose Hilbert scan still eliminated every degree up
to Gotzmann's d* + 1; the `cap` entries exit 2 with a cap between the
degree where hf becomes constant and d*. golden/vanish.json and
golden/separators.json were recorded from the code whose interpolation run
re-echelonised the accepted rows for every candidate monomial and every
matrix row; `gf2_three_points` exits 4 under `vanish`. The three
`three_quadrics_gf3` entries of golden/solve.json were recorded from the
code that reads each multiplicity off the eigenvector search's own
combination, not from the code before it, which printed multiplicities
2, 2, 1 there (and exited 1 under --linear-form) for three reduced points;
their values were checked by hand: the points (0:1:1), (1:0:1) and (1:1:0),
each of multiplicity 1, residual degree 0 and no warning. Four
`certified_stable` entries of golden/solve.json, `ci_3_4_p32003`,
`three_quadrics`, `three_quadrics_gf3` and `three_quadrics_p31`, were
re-recorded when that policy began to build at the Hilbert scan's
certificate degree and to return the scan's commuting triplet there: only
`triplet.degree` (12 -> 5, 3 -> 2) and `triplet.basis` moved, while l, the
matrices, the points, their multiplicities and the warnings stayed as they
were. golden/vanish.json was re-recorded when `vanish` stopped projecting
to an independent coordinate subset, so its documents no longer carry
`projected_to`: `gf3_three_points` and the three `six_points` entries lost
only that key, and `four_points_p7` also gained the initials x5, x6, x7
and x8, the coordinates that are linear combinations of x1..x4 on its four
points (they are the leads of the degree-1 generators of its vanishing
ideal); `gf2_three_points` still exits 4 with no document. A, B, l, hf
and stop_degree stayed as they were in every entry. To re-record after an
intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from projzero.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

IDEALS = ("artinian", "ci_3_4_p32003", "line_and_double_point",
          "monomial_false_point", "proj_dim_one", "single_linear",
          "single_point_embedded", "three_quadrics", "three_quadrics_p31")

# proj_dim_one has a small cap: at the default cap it takes about 5 s to
# reach exit 2.
CAPS = {"proj_dim_one": ["--max-degree", "6"]}

# Caps between the certificate degrees: hf is constant from degree 2 on
# the three quadrics (d* = 3) and from degree 5 on the (3,4) complete
# intersection (d* = 12), so each of these exits 2.
CAP_CASES = {
    "three_quadrics cap 2": ("three_quadrics", ["--max-degree", "2"]),
    "three_quadrics_p31 cap 2": ("three_quadrics_p31", ["--max-degree", "2"]),
    "ci_3_4_p32003 cap 8": ("ci_3_4_p32003", ["--max-degree", "8"]),
}

# case name -> (fixture, solve arguments)
SOLVE_CASES = {
    "artinian": ("artinian", []),
    "line_and_double_point": ("line_and_double_point", []),
    "monomial_false_point": ("monomial_false_point", []),
    "single_linear": ("single_linear", []),
    "single_point_embedded": ("single_point_embedded", []),
    "three_quadrics": ("three_quadrics", []),
    "proj_dim_one": ("proj_dim_one", CAPS["proj_dim_one"]),
    **{f"{name} certified_stable": (
        name, ["--degree-policy", "certified_stable", *CAPS.get(name, [])])
       for name in IDEALS},
    "three_quadrics cap 2": CAP_CASES["three_quadrics cap 2"],
    "three_quadrics_gf3": ("three_quadrics_gf3", []),
    "three_quadrics_gf3 certified_stable": (
        "three_quadrics_gf3", ["--degree-policy", "certified_stable"]),
    "three_quadrics_gf3 l=x+y+z": (
        "three_quadrics_gf3", ["--linear-form", "x+y+z"]),
}

# case name -> (fixture, hilbert or bound arguments)
SCAN_CASES = {**{name: (name, CAPS.get(name, [])) for name in IDEALS},
              **CAP_CASES}

POINT_SETS = ("four_points_p7", "gf2_three_points", "gf3_three_points",
              "six_points")

# case name -> (fixture, vanish arguments); four_points_p7 has more
# coordinates than points, so some coordinates are degree-1 initials
VANISH_CASES = {
    **{name: (name, []) for name in POINT_SETS},
    "six_points lex z,y,x": (
        "six_points", ["--order", "lex", "--vars-ranking", "z,y,x"]),
    "six_points l=x+y+z": ("six_points", ["--linear-form", "x + y + z"]),
}

# case name -> (fixture, separators arguments)
SEPARATORS_CASES = {
    **{name: (name, []) for name in POINT_SETS},
    **{f"{name} scaled": (name, ["--scaled"]) for name in POINT_SETS},
}

# case name -> (fixture, nf arguments); the last case exits 1 with
# DegreeTooLow and prints nothing on stdout
NF_CASES = {
    "three_quadrics x^17 l=y+z": (
        "three_quadrics", ["x^17", "--linear-form", "y + z"]),
    "three_quadrics x^4*y^2 l=y+z check": (
        "three_quadrics",
        ["x^4*y^2", "--linear-form", "y + z", "--check-oracle"]),
    "three_quadrics_p31 x^9 check": (
        "three_quadrics_p31", ["x^9", "--check-oracle"]),
    "monomial_false_point x^9 check": (
        "monomial_false_point", ["x^9", "--check-oracle"]),
    "single_point_embedded x^9 check": (
        "single_point_embedded", ["x^9", "--check-oracle"]),
    "line_and_double_point x1^9 check": (
        "line_and_double_point", ["x1^9", "--check-oracle"]),
    "line_and_double_point x1^3*x2^6": (
        "line_and_double_point", ["x1^3*x2^6"]),
    "three_quadrics 1 degree too low": ("three_quadrics", ["1"]),
}


def _run(command, fixture, args, suffix=".ideal"):
    """Exit code, parsed stdout (None when empty) and stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(DATA / f"{fixture}{suffix}"), *args,
                     "--json"])
    text = out.getvalue()
    return {"exit": code, "output": json.loads(text) if text else None,
            "stderr": err.getvalue().splitlines()}


def run_solve(name):
    """Exit code and parsed output of `solve --json` (exit 2 prints a JSON
    document too)."""
    res = _run("solve", *SOLVE_CASES[name])
    return {"exit": res["exit"], "output": res["output"]}


def run_nf(name):
    return _run("nf", *NF_CASES[name])


def run_hilbert(name):
    return _run("hilbert", *SCAN_CASES[name])


def run_bound(name):
    return _run("bound", *SCAN_CASES[name])


def run_vanish(name):
    return _run("vanish", *VANISH_CASES[name], suffix=".pts")


def run_separators(name):
    return _run("separators", *SEPARATORS_CASES[name], suffix=".pts")


GOLDEN_FILES = {
    "solve.json": (SOLVE_CASES, run_solve),
    "nf.json": (NF_CASES, run_nf),
    "hilbert.json": (SCAN_CASES, run_hilbert),
    "bound.json": (SCAN_CASES, run_bound),
    "vanish.json": (VANISH_CASES, run_vanish),
    "separators.json": (SEPARATORS_CASES, run_separators),
}


def _check(fname, name):
    expected = json.loads((GOLDEN / fname).read_text())[name]
    assert GOLDEN_FILES[fname][1](name) == expected


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_solve_matches_golden(name):
    _check("solve.json", name)


@pytest.mark.parametrize("name", sorted(NF_CASES))
def test_nf_matches_golden(name):
    _check("nf.json", name)


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_hilbert_matches_golden(name):
    _check("hilbert.json", name)


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_bound_matches_golden(name):
    _check("bound.json", name)


@pytest.mark.parametrize("name", sorted(VANISH_CASES))
def test_vanish_matches_golden(name):
    _check("vanish.json", name)


@pytest.mark.parametrize("name", sorted(SEPARATORS_CASES))
def test_separators_matches_golden(name):
    _check("separators.json", name)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fname, (cases, run) in GOLDEN_FILES.items():
        (GOLDEN / fname).write_text(
            json.dumps({n: run(n) for n in sorted(cases)},
                       indent=1, sort_keys=True) + "\n")
    sys.exit(0)
