"""The ideal keeps its degree pieces (`IdealPresentation.piece`), a failed
search for l is final at either certificate's degree, and `nf` and the form
parser end in an exit code on inputs that once reached a traceback."""

from dataclasses import replace

import pytest

from projzero import IdealPresentation, MonomialOrder
from projzero.cli import main, parse_ideal_file
from projzero.polyring import format_monomial, monomials_of_degree
from tests.test_certificate import piece_degrees  # noqa: F401 (fixture)

POLICIES = ["first_surjective", "certified_stable"]
FIXTURES = ["artinian", "ci_3_4_p32003", "line_and_double_point",
            "monomial_false_point", "single_linear", "single_point_embedded",
            "three_quadrics", "three_quadrics_gf3", "three_quadrics_p31"]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", FIXTURES)
def test_nf_sweep_ends_in_an_exit_code(capsys, data_dir, name, policy):
    """nf of every monomial of degree <= 4 on every fixture of projective
    dimension zero returns an exit code; an exception would escape main."""
    path = data_dir / f"{name}.ideal"
    I = parse_ideal_file(path.read_text())
    for d in range(5):
        for mono in monomials_of_degree(I.nvars, d, I.order):
            code, _, _ = run(capsys, "nf", path,
                             format_monomial(mono, I.vars),
                             "--degree-policy", policy)
            assert code in range(5), (mono, code)


def test_nf_below_stability_names_the_remedy(capsys, data_dir):
    """The default triplet of the false-point ideal sits at degree 1, where
    nf(z) leaves the span of E; certified_stable gives nf(z^3) = 0."""
    path = data_dir / "monomial_false_point.ideal"
    code, _, err = run(capsys, "nf", path, "z^3")
    assert code == 1
    assert err.startswith("error: ") and "triplet degree 1" in err
    assert "--degree-policy certified_stable" in err
    code, out, _ = run(capsys, "nf", path, "z^3",
                       "--degree-policy", "certified_stable")
    assert code == 0 and "nf = 0" in out


def test_nf_fallback_scan_reuses_the_search_pieces(capsys, data_dir,
                                                   piece_degrees):
    """x vanishes at a point of the three quadrics: the search fails at
    degrees 0..2, and the scan it then runs builds no piece again."""
    code, _, err = run(capsys, "nf", data_dir / "three_quadrics.ideal", "x^3",
                       "--linear-form", "x")
    assert code == 3 and "commutation certificate degree 2" in err
    assert piece_degrees == [0, 1, 2, 3]


def test_piece_is_kept_per_order_and_degree(data_dir):
    I = parse_ideal_file((data_dir / "three_quadrics.ideal").read_text())
    lex = replace(I, order=MonomialOrder.default(I.nvars, "lex"))
    assert I.piece(2) is I.piece(2)
    assert lex.piece(2) is not I.piece(2)
    assert lex.piece(2).monomials != I.piece(2).monomials
    # the kept pieces are neither compared nor shown
    fresh = IdealPresentation(I.field, I.vars, I.generators)
    assert I == fresh and repr(I) == repr(fresh)


@pytest.mark.parametrize("argv", [["solve"], ["nf", "x^9"]], ids=" ".join)
def test_failed_search_is_final_at_the_gotzmann_degree(capsys, data_dir,
                                                       piece_degrees, argv):
    """hf of the false-point ideal is 1 3 2 1 1, certified by Gotzmann at
    d* = 3, and y vanishes at its point, so no degree has y bijective."""
    code, _, err = run(capsys, argv[0],
                       data_dir / "monomial_false_point.ideal", *argv[1:],
                       "--linear-form", "y")
    assert code == 3
    assert "(last degree tried: 3)" in err
    assert "Gotzmann certificate degree 3" in err
    assert max(piece_degrees) <= 4


def test_superscript_exponent_is_an_input_error(capsys, data_dir, tmp_path):
    code, _, err = run(capsys, "nf", data_dir / "three_quadrics.ideal",
                       "x^²")
    assert (code, err) == (1, "error: bad exponent\n")
    f = tmp_path / "superscript.ideal"
    f.write_text("field Q\nvars x y\nx^² + y\n", encoding="utf-8")
    code, _, err = run(capsys, "hilbert", f)
    assert (code, err) == (1, "error: bad exponent\n")
    # a decimal digit of another script is still an exponent
    code, _, _ = run(capsys, "nf", data_dir / "three_quadrics.ideal",
                     "x^٣")
    assert code == 0
