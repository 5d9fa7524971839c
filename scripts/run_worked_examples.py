#!/usr/bin/env python3
"""Drive the CLI over every bundled example input and show the reports.

Usage: python3 scripts/run_worked_examples.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from projzero.cli import main  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

RUNS = [
    ("Hilbert scan, mixed two-variable ideal",
     ["hilbert", "line_and_double_point.ideal"]),
    ("Variety of the three-quadrics ideal",
     ["solve", "three_quadrics.ideal", "--linear-form", "y + z"]),
    ("The same three quadrics over GF(2^31 - 1)",
     ["solve", "three_quadrics_p31.ideal"]),
    ("The same three quadrics over GF(3): multiplicities in a tiny field",
     ["solve", "three_quadrics_gf3.ideal"]),
    ("False-point filtering",
     ["solve", "monomial_false_point.ideal", "--linear-form", "x + z"]),
    ("Single point with an embedded component",
     ["solve", "single_point_embedded.ideal"]),
    ("Multiplicities on the double-point instance",
     ["solve", "line_and_double_point.ideal",
      "--degree-policy", "certified_stable"]),
    ("Fast normal form of x^17",
     ["nf", "three_quadrics.ideal", "x^17", "--linear-form", "y + z"]),
    ("Normal form, degree-6 cross-check against the reduction oracle",
     ["nf", "three_quadrics.ideal", "x^4*y^2",
      "--linear-form", "y + z", "--check-oracle"]),
    ("Triplet of the vanishing ideal of six points",
     ["vanish", "six_points.pts", "--linear-form", "y"]),
    ("Non-zero-divisor sweep input over GF(3)",
     ["vanish", "gf3_three_points.pts"]),
    ("Separators for four points in P^7",
     ["separators", "four_points_p7.pts"]),
    ("Groebner degree bound, three-quadrics ideal",
     ["bound", "three_quadrics.ideal"]),
    ("Groebner degree bound, embedded-component ideal",
     ["bound", "single_point_embedded.ideal"]),
]


def run():
    failures = 0
    for title, argv in RUNS:
        print(f"\n=== {title}")
        print(f"$ projzero {' '.join(argv)}")
        argv = [str(DATA / a) if (DATA / a).exists() else a for a in argv]
        code = main(argv)
        if code != 0:
            failures += 1
            print(f"(exit code {code})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
