"""Golden `solve --json` and `nf --json` outputs for the fixtures under data/.

The expected documents in golden/solve.json were recorded from the code
before root finding stopped enumerating candidates; every later change must
reproduce them exactly. Two entries were re-recorded on purpose since:
`proj_dim_one`, when exit 2 began to print a JSON document under --json,
and `line_and_double_point`, when solve began to warn that its
multiplicities sum to more than m. The documents in golden/nf.json were
recorded from the code that still expanded sum c_i l^k e_i on every `nf`
call; none has been re-recorded. To re-record after an intended change of
output:

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

# proj_dim_one has a small cap: at the default cap it takes about 5 s to
# reach exit 2.
SOLVE_CASES = {
    "artinian": [],
    "line_and_double_point": [],
    "monomial_false_point": [],
    "single_linear": [],
    "single_point_embedded": [],
    "three_quadrics": [],
    "proj_dim_one": ["--max-degree", "6"],
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


def _run(argv):
    """Exit code, parsed stdout (None when empty) and stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--json"])
    text = out.getvalue()
    return {"exit": code, "output": json.loads(text) if text else None,
            "stderr": err.getvalue().splitlines()}


def run_solve(name):
    """Exit code and parsed output of `solve --json` (exit 2 prints a JSON
    document too)."""
    res = _run(["solve", str(DATA / f"{name}.ideal"), *SOLVE_CASES[name]])
    return {"exit": res["exit"], "output": res["output"]}


def run_nf(name):
    fixture, args = NF_CASES[name]
    return _run(["nf", str(DATA / f"{fixture}.ideal"), *args])


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_solve_matches_golden(name):
    expected = json.loads((GOLDEN / "solve.json").read_text())[name]
    assert run_solve(name) == expected


@pytest.mark.parametrize("name", sorted(NF_CASES))
def test_nf_matches_golden(name):
    expected = json.loads((GOLDEN / "nf.json").read_text())[name]
    assert run_nf(name) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fname, cases, run in (("solve.json", SOLVE_CASES, run_solve),
                              ("nf.json", NF_CASES, run_nf)):
        (GOLDEN / fname).write_text(
            json.dumps({n: run(n) for n in sorted(cases)},
                       indent=1, sort_keys=True) + "\n")
    sys.exit(0)
