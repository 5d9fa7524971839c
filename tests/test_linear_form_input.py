"""An explicit --linear-form: a zero l is an input error for `solve` and
`nf`, and `vanish` accepts any l that vanishes at no point, also a
coordinate that is a linear combination of the others on the points."""

import json

import pytest

from projzero import bm_triplet, parse_form, vanishing_ideal
from projzero.cli import main, parse_points_file
from tests.polyring_oracle import form_sub


@pytest.mark.parametrize("command", [["solve"], ["nf", "x^5"]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("fixture,l", [
    ("three_quadrics", "0*x"), ("three_quadrics", "x-x"),
    ("three_quadrics_gf3", "3*x")])
def test_zero_linear_form_is_an_input_error(command, fixture, l, data_dir,
                                            capsys):
    argv = [command[0], str(data_dir / f"{fixture}.ideal"), *command[1:],
            f"--linear-form={l}"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: the linear form l is zero\n"


def test_vanish_accepts_a_projected_away_coordinate(data_dir, capsys):
    """x5 is a linear combination of x1..x4 on the points, hence a degree-1
    initial, and still a valid l."""
    assert main(["vanish", str(data_dir / "four_points_p7.pts"),
                 "--linear-form", "x5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["l"] == "x5" and "x5" in doc["initials"]


def test_projected_away_coordinate_gives_the_matrices_of_its_expression(
        data_dir):
    """x5 and its expression in x1..x4 agree on the points (their
    difference is the basis element of I(P) with lead x5), so they give
    the same matrices."""
    P, names = parse_points_file((data_dir / "four_points_p7.pts").read_text())
    x5 = parse_form("x5", names, P.field)
    expression = parse_form("-2/3*x1 + 1/3*x2 + 5/3*x3 + x4", names, P.field)
    assert form_sub(x5, expression) in vanishing_ideal(P).generators
    direct, via = bm_triplet(P, l=x5)[0], bm_triplet(P, l=expression)[0]
    assert direct.l == x5 and via.l == expression
    assert direct.A == via.A
