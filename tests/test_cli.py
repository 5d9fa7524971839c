import json
from fractions import Fraction

import pytest

from projzero import Matrix, eigenpoints_from_matrices, normalize
from projzero.cli import main, parse_ideal_file, parse_points_file
from projzero.fields import RationalField

Q = RationalField()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_hilbert_mixed(capsys, data_dir):
    code, out, _ = run(capsys, "hilbert", str(data_dir / "line_and_double_point.ideal"))
    assert code == 0
    assert out.splitlines()[0] == "hf: 1 2 3 4 4 3 3, m=3"


def test_hilbert_artinian(capsys, data_dir):
    code, out, _ = run(capsys, "hilbert", str(data_dir / "artinian.ideal"))
    assert code == 0
    assert "artinian; variety empty" in out


def test_hilbert_cap_exceeded_exit_2(capsys, data_dir):
    code, out, err = run(capsys, "hilbert", str(data_dir / "proj_dim_one.ideal"),
                         "--max-degree", "6")
    assert code == 2
    assert "partial hf: 1 3 3 4" in out


def test_solve_three_quadrics_json(capsys, data_dir):
    code, doc, _ = run_json(capsys, "solve", str(data_dir / "three_quadrics.ideal"),
                            "--linear-form", "y + z")
    assert code == 0
    pts = sorted(tuple(p["point"]) for p in doc["points"])
    assert pts == [("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0")]
    assert all(p["multiplicity"] == 1 for p in doc["points"])
    assert doc["rejected"] == [] and doc["residual_degree"] == 0
    A_x = doc["triplet"]["A"]["x"]
    assert A_x == [["1", "0", "0"], ["1/2", "1/2", "-1/2"], ["1/2", "-1/2", "1/2"]]
    assert doc["triplet"]["basis"] == ["x", "y", "z"]
    assert doc["triplet"]["l"] == "y + z"


def test_solve_three_quadrics_large_prime(capsys, data_dir):
    # GF(2^31 - 1): root finding and linear-form draws must not depend on p
    code, doc, _ = run_json(capsys, "solve",
                            str(data_dir / "three_quadrics_p31.ideal"))
    assert code == 0
    assert [(p["point"], p["multiplicity"]) for p in doc["points"]] == [
        (["0", "1", "1"], 1), (["1", "0", "1"], 1), (["1", "1", "0"], 1)]
    assert doc["rejected"] == [] and doc["residual_degree"] == 0


@pytest.mark.parametrize("command", ["hilbert", "solve", "bound"])
def test_max_degree_below_generators_exit_1(capsys, data_dir, command):
    code, out, err = run(capsys, command, str(data_dir / "three_quadrics.ideal"),
                         "--max-degree", "0")
    assert code == 1 and out == ""
    assert err == "error: max_degree 0 is below the generator degree 2\n"


def test_solve_false_point(capsys, data_dir):
    code, doc, _ = run_json(capsys, "solve",
                            str(data_dir / "monomial_false_point.ideal"),
                            "--linear-form", "x + z")
    assert code == 0
    assert [tuple(p["point"]) for p in doc["points"]] == [("1", "0", "0")]
    assert doc["rejected"] == [["0", "0", "1"]]


def test_solve_embedded_text(capsys, data_dir):
    code, out, _ = run(capsys, "solve", str(data_dir / "single_point_embedded.ideal"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "hf: 1 3 3 1 1"
    assert any(l.startswith("1 : 1 : 1  mult=") for l in lines)
    assert not any(l.startswith("rejected") for l in lines)


def test_solve_artinian(capsys, data_dir):
    code, doc, _ = run_json(capsys, "solve", str(data_dir / "artinian.ideal"))
    assert code == 0
    assert doc["artinian"] and doc["points"] == []


def test_solve_no_surjection_exit_3(capsys, tmp_path):
    f = tmp_path / "p1_line.ideal"
    f.write_text("field GF(2)\nvars x0 x1\nx0^2*x1 + x0*x1^2\n")
    code, out, err = run(capsys, "solve", str(f), "--max-trials", "10",
                         "--max-degree", "5")
    assert code == 3


def test_solve_deterministic_output(capsys, data_dir):
    _, out1, _ = run(capsys, "solve", str(data_dir / "three_quadrics.ideal"),
                     "--seed", "3")
    _, out2, _ = run(capsys, "solve", str(data_dir / "three_quadrics.ideal"),
                     "--seed", "3")
    assert out1 == out2


def test_nf_x17(capsys, data_dir):
    code, doc, _ = run_json(capsys, "nf", str(data_dir / "three_quadrics.ideal"),
                            "x^17", "--linear-form", "y + z")
    assert code == 0
    assert doc["coordinates"] == ["1", "0", "0"]
    assert doc["k"] == 16
    assert doc["nf"] == "1 * x * (y + z)^16"


def test_nf_generator_reduces_to_zero(capsys, data_dir):
    code, doc, _ = run_json(capsys, "nf", str(data_dir / "three_quadrics.ideal"),
                            "x*z + y*z - z^2", "--oracle")
    assert code == 0
    assert doc["reduced"] == "0"


def test_nf_check_oracle_agrees(capsys, data_dir):
    code, doc, _ = run_json(capsys, "nf", str(data_dir / "three_quadrics.ideal"),
                            "x^4*y^2", "--linear-form", "y + z", "--check-oracle")
    assert code == 0
    assert doc["oracle_agreement"] is True
    code2, doc2, _ = run_json(capsys, "nf", str(data_dir / "three_quadrics.ideal"),
                              "x^4*y^2", "--oracle")
    assert doc2["reduced"] == doc["reduced"]


def test_vanish_six_points(capsys, data_dir):
    code, doc, _ = run_json(capsys, "vanish", str(data_dir / "six_points.pts"),
                            "--linear-form", "y")
    assert code == 0
    assert doc["hf"] == [1, 3, 6] and doc["stop_degree"] == 2
    assert sorted(doc["B"][2]) == sorted(
        ["z^2", "y*z", "x*z", "y^2", "x*y", "x^2"])
    assert doc["l"] == "y"


def test_vanish_single_point(capsys, tmp_path):
    f = tmp_path / "one.pts"
    f.write_text("field Q\ncoords 3\n1 : 0 : 0\n")
    code, doc, _ = run_json(capsys, "vanish", str(f))
    assert code == 0
    assert doc["hf"] == [1]


def test_vanish_solve_round_trip(capsys, data_dir):
    # matrices serialized by vanish feed the eigen solver and recover the points
    code, doc, _ = run_json(capsys, "vanish", str(data_dir / "six_points.pts"))
    assert code == 0
    A = [Matrix(Q, [[Q.parse(v) for v in row] for row in doc["A"][name]])
         for name in ("x", "y", "z")]
    pts = eigenpoints_from_matrices(A)
    got = sorted(tuple(ep.point) for ep in pts)
    raw = [[0, 2, 5], [0, 1, 2], [1, 3, 1], [4, 3, 4], [2, 5, 4], [1, 4, 4]]
    P = normalize([[Q.from_int(c) for c in p] for p in raw], Q)
    assert got == sorted(tuple(r) for r in P.reps)


def test_separators_four_points(capsys, data_dir):
    code, out, _ = run(capsys, "separators", str(data_dir / "four_points_p7.pts"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Q_1 = 3*x1^2*x2 - x1*x2*x4"
    assert "comparisons:" in lines[-1]


def test_separators_two_points(capsys, tmp_path):
    f = tmp_path / "two.pts"
    f.write_text("field Q\ncoords 2\n1 : 0\n0 : 1\n")
    code, doc, _ = run_json(capsys, "separators", str(f))
    assert code == 0
    assert doc["separators"] == ["x0", "x1"]
    assert doc["comparisons"] <= doc["comparison_bound"]


def test_separators_comparison_bound(capsys, data_dir):
    code, doc, _ = run_json(capsys, "separators",
                            str(data_dir / "four_points_p7.pts"))
    assert doc["comparisons"] <= 7 * 4 + 16


def test_bound_three_quadrics(capsys, data_dir):
    code, out, _ = run(capsys, "bound", str(data_dir / "three_quadrics.ideal"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "GB degree bound = max(d*, m) = max(3, 3) = 3"
    assert lines[1] == "measured max initial-generator degree: 3"


def test_bound_embedded(capsys, data_dir):
    code, doc, _ = run_json(capsys, "bound",
                            str(data_dir / "single_point_embedded.ideal"))
    assert code == 0
    assert doc["bound"] == 3 and doc["measured_max_degree"] == 3


def test_bound_single_linear(capsys, data_dir):
    code, doc, _ = run_json(capsys, "bound", str(data_dir / "single_linear.ideal"))
    assert code == 0
    assert doc["bound"] == 1 and doc["measured_max_degree"] == 1


def test_input_errors_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.ideal"
    bad.write_text("vars x y\nx + y\n")           # missing field header
    assert run(capsys, "hilbert", str(bad))[0] == 1
    bad2 = tmp_path / "bad2.ideal"
    bad2.write_text("field Q\nvars x y\nx^2 + y\n")  # not homogeneous
    assert run(capsys, "hilbert", str(bad2))[0] == 1
    dup = tmp_path / "dup.pts"
    dup.write_text("field Q\ncoords 2\n1 : 2\n2 : 4\n")
    assert run(capsys, "separators", str(dup))[0] == 1
    assert run(capsys, "hilbert", str(tmp_path / "missing.ideal"))[0] == 1


def test_field_too_small_exit_4(capsys, tmp_path):
    f = tmp_path / "gf2.pts"
    f.write_text("field GF(2)\ncoords 2\n1 : 0\n1 : 1\n0 : 1\n")
    code, _, err = run(capsys, "vanish", str(f))
    assert code == 4


def test_order_flags(capsys, data_dir):
    code, doc, _ = run_json(capsys, "hilbert",
                            str(data_dir / "line_and_double_point.ideal"),
                            "--vars-ranking", "x2,x1")
    assert code == 0
    assert doc["hf"] == [1, 2, 3, 4, 4, 3, 3]


def test_parse_ideal_file_headers():
    I, order = parse_ideal_file(
        "# comment\nfield GF(7)\nvars a b\nranking b a\norder lex\na^2 + 3*b^2\n")
    assert I.field.p == 7 and I.vars == ("a", "b")
    assert order.kind == "lex" and order.ranking == (1, 0)


def test_parse_points_file_vars_and_colons():
    P, names = parse_points_file("field Q\nvars u v w\n1:2:3\n0 1 2\n")
    assert names == ("u", "v", "w") and P.size == 2
