"""Golden `solve --json` outputs for the fixtures under data/.

The expected documents in golden/solve.json were recorded from the code
before root finding stopped enumerating candidates; every later change must
reproduce them exactly. Two entries were re-recorded on purpose since:
`proj_dim_one`, when exit 2 began to print a JSON document under --json,
and `line_and_double_point`, when solve began to warn that its
multiplicities sum to more than m. To re-record after an intended change of
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
GOLDEN = Path(__file__).resolve().parent / "golden" / "solve.json"

# proj_dim_one has a small cap: at the default cap it takes about 5 s to
# reach exit 2.
CASES = {
    "artinian": [],
    "line_and_double_point": [],
    "monomial_false_point": [],
    "single_linear": [],
    "single_point_embedded": [],
    "three_quadrics": [],
    "proj_dim_one": ["--max-degree", "6"],
}


def run_solve(name):
    """Exit code and parsed output of `solve --json` (exit 2 prints a JSON
    document too)."""
    argv = ["solve", str(DATA / f"{name}.ideal"), *CASES[name], "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "output": json.loads(out.getvalue())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_matches_golden(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert run_solve(name) == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({n: run_solve(n) for n in sorted(CASES)},
                                 indent=1, sort_keys=True) + "\n")
    sys.exit(0)
