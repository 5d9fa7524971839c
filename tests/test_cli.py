import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from projzero import (Form, IdealPresentation, InputError, Matrix,
                      MonomialOrder, Options, build_triplet, fast_normal_form,
                      linalg, normalize, parse_form)
from projzero.cli import (build_parser, main, parse_ideal_file,
                          parse_points_file)
from projzero.fields import RationalField
from tests.eigen_oracle import eigenpoints_from_matrices

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


@pytest.mark.parametrize("command", ["hilbert", "solve", "bound"])
def test_cap_exceeded_json_exit_2(capsys, data_dir, command):
    code, doc, err = run_json(capsys, command,
                              str(data_dir / "proj_dim_one.ideal"),
                              "--max-degree", "6")
    assert code == 2
    assert doc == {"schema": "projzero.v1", "command": command,
                   "error": err.strip()[len("error: "):],
                   "partial_hf": [1, 3, 3, 4, 5, 6, 7, 8], "cap": 6}


def test_invariant_violation_exit_1(capsys, data_dir, monkeypatch):
    monkeypatch.setattr(Matrix, "inverse", lambda self: self.scale(2))
    code, out, err = run(capsys, "solve", str(data_dir / "three_quadrics.ideal"))
    assert code == 1
    assert err.startswith("error: the l-combination")
    assert out == ""


def test_vanish_invariant_violation_exit_1(capsys, data_dir, monkeypatch):
    """bm_triplet checks the l-combination identity too."""
    monkeypatch.setattr(Matrix, "inverse", lambda self: self.scale(2))
    code, out, err = run(capsys, "vanish", str(data_dir / "six_points.pts"))
    assert code == 1
    assert err.startswith("error: the l-combination")
    assert out == ""


def test_solve_under_python_O_matches_golden(data_dir):
    """The invariant checks are not asserts, so -O keeps them and the
    answer."""
    root = data_dir.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "projzero.cli", "solve",
         str(data_dir / "three_quadrics.ideal"), "--json"],
        capture_output=True, text=True, env=env, timeout=120)
    golden = json.loads((root / "tests" / "golden" / "solve.json").read_text())
    assert {"exit": proc.returncode, "output": json.loads(proc.stdout)} \
        == golden["three_quadrics"]


def test_worked_examples_script_runs(data_dir):
    root = data_dir.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_worked_examples.py")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize("flags", [["--linear-form", "x"],
                                   ["--max-trials", "1", "--seed", "2"]])
def test_solve_stops_at_the_commutation_degree(capsys, data_dir, flags):
    """x, and the first draw of seed 2, vanish at a point of the three
    quadrics, so no degree has them bijective; hf is constant from the
    certificate degree 2, and the search stops there instead of climbing
    to the default cap."""
    code, out, err = run(capsys, "solve",
                         str(data_dir / "three_quadrics.ideal"), *flags)
    assert code == 3
    assert "(last degree tried: 2)" in err
    assert "commutation certificate degree 2" in err


def test_solve_deterministic_output(capsys, data_dir):
    _, out1, _ = run(capsys, "solve", str(data_dir / "three_quadrics.ideal"),
                     "--seed", "3")
    _, out2, _ = run(capsys, "solve", str(data_dir / "three_quadrics.ideal"),
                     "--seed", "3")
    assert out1 == out2


def test_max_trials_below_one_is_an_input_error(capsys, data_dir,
                                                 monkeypatch):
    """Rejected before any elimination: no degree piece is built."""
    def no_elimination(*args):
        raise AssertionError("a degree piece was built")

    monkeypatch.setattr(linalg, "_rref_rows", no_elimination)
    ideal = str(data_dir / "three_quadrics.ideal")
    for argv in (("solve", ideal), ("nf", ideal, "x^5"),
                 ("solve", ideal, "--degree-policy", "certified_stable")):
        for trials in ("0", "-3"):
            code, out, err = run(capsys, *argv, "--max-trials", trials)
            assert code == 1 and out == ""
            assert err == ("error: max_trials must be at least 1 for the "
                           f"random search of l, got {trials}\n")
    I = parse_ideal_file((data_dir / "three_quadrics.ideal").read_text())
    with pytest.raises(InputError):
        build_triplet(I, Options(max_trials=0))


@pytest.mark.parametrize("argv", [("hilbert",), ("solve",), ("nf", "x"),
                                  ("bound",)], ids=lambda a: a[0])
def test_negative_max_degree_is_an_input_error(capsys, data_dir, monkeypatch,
                                               argv):
    """Rejected before any elimination, by every ideal command alike; nf
    used to report it as a scan capped at degree -1 (exit 2)."""
    def no_elimination(*args):
        raise AssertionError("a degree piece was built")

    monkeypatch.setattr(linalg, "_rref_rows", no_elimination)
    ideal = str(data_dir / "three_quadrics.ideal")
    for cap in ("-1", "-5"):
        code, out, err = run(capsys, argv[0], ideal, *argv[1:],
                             "--max-degree", cap)
        assert code == 1 and out == ""
        assert err == f"error: max_degree must be at least 0, got {cap}\n"
    with pytest.raises(InputError, match="max_degree must be at least 0"):
        Options(max_degree=-5)


def test_nf_max_degree_one_builds_the_degree_one_triplet(capsys, data_dir):
    code, doc, _ = run_json(capsys, "nf", str(data_dir / "three_quadrics.ideal"),
                            "x", "--max-degree", "1")
    assert code == 0
    assert doc["triplet_degree"] == 1 and doc["coordinates"] == ["1", "0", "0"]


def test_unknown_degree_policy_is_an_input_error():
    """Rejected where the options are made, before any scan could start."""
    with pytest.raises(InputError, match="unknown degree policy 'bogus'"):
        Options(degree_policy="bogus")


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


def test_nf_print_path_expands_nothing(capsys, data_dir, monkeypatch):
    argv = ("nf", str(data_dir / "three_quadrics.ideal"), "x^600")
    code, expected, _ = run_json(capsys, *argv)
    assert code == 0

    def no_power(self, e):
        raise AssertionError("nf without --check-oracle expanded l^k")

    calls = []
    mul = Form.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Form, "power", no_power)
    monkeypatch.setattr(Form, "__mul__", counting_mul)
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    assert doc["coordinates"] == expected["coordinates"]
    assert len(calls) < 100


def test_nf_prints_rationals_of_any_length(capsys, data_dir):
    """Coordinates longer than CPython's int-to-str digit limit print in
    full, and the limit is the same after the call."""
    path = data_dir / "three_quadrics.ideal"
    poly = "x^10000*y^10000"
    limit = sys.get_int_max_str_digits()
    code, doc, _ = run_json(capsys, "nf", str(path), poly)
    assert code == 0
    code, out, _ = run(capsys, "nf", str(path), poly)
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    I = parse_ideal_file(path.read_text())
    res = fast_normal_form(parse_form(poly, I.vars, I.field), I,
                           build_triplet(I))
    sys.set_int_max_str_digits(0)
    try:
        want = [str(c) for c in res.coords]
    finally:
        sys.set_int_max_str_digits(limit)
    assert max(map(len, want)) > 4300  # CPython's default limit
    assert doc["coordinates"] == want
    assert out.splitlines()[0] == (f"coordinates: ({', '.join(want)}) "
                                   f"in basis {{e_i * l^{res.k}}}")


# 5001 digits, past CPython's 4300-digit int/str limit; nonzero mod every
# prime below 2^31, so it scales a generator without changing the ideal
LONG = "1" + "0" * 4999 + "7"


@pytest.mark.parametrize("name", ["three_quadrics", "three_quadrics_p31"])
def test_hilbert_reads_literals_of_any_length(capsys, data_dir, tmp_path,
                                              name):
    """A generator scaled by a 5001-digit coefficient reads over Q and over
    GF(p), and leaves the scan as it was."""
    text = (data_dir / f"{name}.ideal").read_text()
    scaled = text.replace("x*z + y*z - z^2",
                          f"{LONG}*x*z + {LONG}*y*z - {LONG}*z^2")
    assert scaled != text
    path = tmp_path / "scaled.ideal"
    path.write_text(scaled)
    limit = sys.get_int_max_str_digits()
    code, got, err = run_json(capsys, "hilbert", str(path))
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    assert got == run_json(capsys, "hilbert", str(data_dir / f"{name}.ideal"))[1]


def test_long_rationals_round_trip():
    """A rational printed past the int/str limit parses back to itself."""
    a = Fraction(-(10**6000 + 3), 7**5000)
    text = Q.format(a)
    assert len(text) > 4300
    assert Q.parse(text) == a and Q.parse(f" {text} ") == a
    assert Q.parse(LONG + "/2") == Fraction(10**5000 + 7, 2)
    for bad in (LONG + "/-2", LONG + " /2", LONG + "x", LONG + "/0"):
        with pytest.raises(InputError):
            Q.parse(bad)


def test_consecutive_calls_leak_no_state(capsys, data_dir):
    """One parser serves every call in a process; no call's arguments or
    outcome reach the next."""
    ideal = str(data_dir / "three_quadrics.ideal")
    text = run(capsys, "solve", ideal)
    assert text[0] == 0 and not text[1].startswith("{")
    assert run_json(capsys, "solve", ideal, "--seed", "3")[0] == 0
    assert run(capsys, "solve", ideal) == text
    assert run(capsys, "solve", ideal, "--max-trials", "0")[0] == 1
    assert run(capsys, "solve", ideal) == text
    assert build_parser() is build_parser()


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


def run_file(capsys, tmp_path, command, name, text, *flags):
    path = tmp_path / name
    path.write_text(text)
    return run(capsys, command, str(path), *flags)


def test_zero_denominator_in_an_ideal_file(capsys, tmp_path):
    code, out, err = run_file(capsys, tmp_path, "hilbert", "gf7.ideal",
                              "field GF(7)\nvars x y\n1/7*x\n")
    assert (code, out, err) == (1, "", "error: bad field literal '1/7'\n")


def test_zero_denominator_in_a_points_file(capsys, tmp_path):
    code, out, err = run_file(capsys, tmp_path, "vanish", "gf7.pts",
                              "field GF(7)\ncoords 2\n1/7 : 1\n")
    assert (code, out, err) == (1, "", "error: bad field literal '1/7'\n")


def test_zero_denominator_in_a_linear_form(capsys, data_dir):
    code, out, err = run(capsys, "solve",
                         str(data_dir / "three_quadrics_gf3.ideal"),
                         "--linear-form", "1/3*x")
    assert (code, out, err) == (1, "", "error: bad field literal '1/3'\n")


def test_zero_denominator_in_an_nf_form(capsys, data_dir):
    code, out, err = run(capsys, "nf",
                         str(data_dir / "three_quadrics_gf3.ideal"), "1/3*x^2")
    assert (code, out, err) == (1, "", "error: bad field literal '1/3'\n")


@pytest.mark.parametrize("command, name, text", [
    ("solve", "dup.ideal", "field GF(7)\nvars x x y\nx\ny\n"),
    ("vanish", "dup.pts", "field Q\nvars u u\n1 : 2\n"),
], ids=["ideal", "points"])
def test_duplicate_variable_names_exit_1(capsys, tmp_path, command, name,
                                         text):
    code, out, err = run_file(capsys, tmp_path, command, name, text)
    assert (code, out) == (1, "")
    assert err.startswith("error: vars repeats a name")


@pytest.mark.parametrize("count", ["0", "-1"])
def test_coords_count_below_one_exits_1(capsys, tmp_path, count):
    code, out, err = run_file(capsys, tmp_path, "vanish", "bad.pts",
                              f"field Q\ncoords {count}\n1 : 2\n")
    assert (code, out) == (1, "")
    assert err == f"error: coords count must be at least 1, got {count}\n"


@pytest.mark.parametrize("argv, message", [
    (["solve", "three_quadrics.ideal", "--linear-form", "-x"],
     "argument --linear-form: expected one argument"),
    (["nf", "three_quadrics.ideal", "-x^3"],
     "the following arguments are required: poly"),
    (["vanish", "six_points.pts", "--max-degree", "1"],
     "unrecognized arguments: --max-degree 1"),
    (["vanish", "six_points.pts", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
], ids=["solve_minus_linear_form", "nf_minus_poly", "vanish_max_degree",
        "vanish_seed"])
def test_usage_errors_exit_1(capsys, data_dir, argv, message):
    """A usage error is not a capped scan: argparse's exit 2 becomes 1."""
    command, name, *flags = argv
    code, out, err = run(capsys, command, str(data_dir / name), *flags)
    assert code == 1
    assert out == ""
    assert f"error: {message}" in err


IDEAL = "field Q\nvars x y\n"
POINTS = "field Q\ncoords 2\n"
MALFORMED = {
    "no_generators": ("hilbert", "bad.ideal", IDEAL),
    "gf_composite": ("hilbert", "bad.ideal", "field GF(6)\nvars x y\nx\n"),
    "gf_too_large": ("hilbert", "bad.ideal",
                     "field GF(2147483659)\nvars x y\nx\n"),
    "field_r": ("hilbert", "bad.ideal", "field R\nvars x y\nx\n"),
    "ranking_unknown": ("hilbert", "bad.ideal", IDEAL + "ranking x w\nx\n"),
    "ranking_repeated": ("hilbert", "bad.ideal", IDEAL + "ranking x x\nx\n"),
    "order_unknown": ("hilbert", "bad.ideal", IDEAL + "order grevlex\nx\n"),
    "dangling_slash": ("hilbert", "bad.ideal", IDEAL + "x + 3/\n"),
    "stray_character": ("hilbert", "bad.ideal", IDEAL + "x $ y\n"),
    "missing_operator": ("hilbert", "bad.ideal", IDEAL + "2 x\n"),
    "dangling_star": ("hilbert", "bad.ideal", IDEAL + "x*\n"),
    "coords_not_a_number": ("vanish", "bad.pts", "field Q\ncoords x\n1 : 2\n"),
    "point_before_field": ("vanish", "bad.pts", "1 : 2\nfield Q\n"),
    "field_without_points": ("vanish", "bad.pts", POINTS),
    "point_longer_than_coords": ("vanish", "bad.pts", POINTS + "1 : 2 : 3\n"),
    "points_of_differing_lengths": ("vanish", "bad.pts",
                                    "field Q\n1 : 2\n1 : 2 : 3\n"),
    "linear_form_of_degree_2": ("solve", "three_quadrics.ideal", None,
                                "--linear-form", "x^2"),
    "linear_form_vanishing_at_a_point": ("vanish", "six_points.pts", None,
                                         "--linear-form", "x"),
    "not_utf8": ("hilbert", "bad.ideal", b"field Q\nvars x y\nx\xff\n"),
    "empty_vars_hilbert": ("hilbert", "bad.ideal", "field Q\nvars\n1\n"),
    "empty_vars_solve": ("solve", "bad.ideal", "field Q\nvars\n1\n"),
    "empty_vars_nf": ("nf", "bad.ideal", "field Q\nvars\n1\n", "1"),
    "empty_vars_points": ("vanish", "bad.pts", "field Q\nvars\n1 : 2\n"),
}


@pytest.mark.parametrize("row", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_one_error_line(capsys, tmp_path, data_dir, row):
    """Each malformed file, form or flag exits 1 with nothing on stdout and
    one `error:` line on stderr, never a traceback. A row without text
    reads a fixture."""
    command, name, text, *flags = row
    path = data_dir / name
    if text is not None:
        path = tmp_path / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run(capsys, command, str(path), *flags)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_empty_vars_is_an_input_error_in_the_library():
    with pytest.raises(InputError, match="vars names no variable"):
        IdealPresentation(Q, (), [Form.monomial(Q, 0, ())])


@pytest.mark.parametrize("kind, ranking", [("grevlex", (0, 1)),
                                           ("lex", (0, 0))])
def test_a_bad_monomial_order_is_an_input_error(kind, ranking):
    with pytest.raises(InputError):
        MonomialOrder(kind=kind, ranking=ranking)


@pytest.mark.parametrize("argv", [["--help"], ["vanish", "--help"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: projzero") and err == ""


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
    I = parse_ideal_file(
        "# comment\nfield GF(7)\nvars a b\nranking b a\norder lex\na^2 + 3*b^2\n")
    assert I.field.p == 7 and I.vars == ("a", "b")
    assert I.order.kind == "lex" and I.order.ranking == (1, 0)


def test_parse_points_file_vars_and_colons():
    P, names = parse_points_file("field Q\nvars u v w\n1:2:3\n0 1 2\n")
    assert names == ("u", "v", "w") and P.size == 2


def test_order_flag_keeps_the_ranking_header(capsys, tmp_path, data_dir):
    """--order sets only the kind: the file's ranking stays."""
    text = (data_dir / "three_quadrics.ideal").read_text().replace(
        "vars x y z\n", "vars x y z\nranking z y x\n")
    plain = run_file(capsys, tmp_path, "bound", "ranked.ideal", text)
    flagged = run_file(capsys, tmp_path, "bound", "ranked.ideal", text,
                       "--order", "degrevlex")
    assert flagged == plain
    assert plain[1].splitlines()[-1] == (
        "initial ideal minimal generators: "
        "z^2(d=2) y*z(d=2) x*z(d=2) x*y^2(d=3)")
