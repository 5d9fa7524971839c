"""Fuzz test of the command line: generated ideal files, points files and
flags, over Q and small prime fields, including GF(2) and GF(3), where a
random l often vanishes at a point. Coefficients and coordinates include
fractions, whose denominators vanish in some of those fields. Every run must end in one of the
documented exit codes, 0 to 4, and never in an uncaught exception. Small
--max-degree and --max-trials values keep each run short.
"""

import contextlib
import io
import itertools

from hypothesis import given, settings, strategies as st

from projzero.cli import main

FIELDS = ("GF(2)", "GF(3)", "GF(7)", "GF(32003)", "Q")
NAMES = ("x", "y", "z")
FRACTIONS = ("1/2", "2/3", "3/7", "-1/2", "-5/3")


@st.composite
def forms(draw, nvars, degree):
    """Text of a form of the given degree; its terms may repeat, and cancel
    or vanish over a small field."""
    monos = [m for m in itertools.product(range(degree + 1), repeat=nvars)
             if sum(m) == degree]
    terms = draw(st.lists(st.tuples(st.sampled_from(monos),
                                    st.sampled_from([1, -1, 2, -2, 3,
                                                     *FRACTIONS])),
                          min_size=1, max_size=4))
    parts = []
    for mono, c in terms:
        factors = [str(c)] + [f"{NAMES[i]}^{e}" for i, e in enumerate(mono)
                              if e]
        parts.append("*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")


@st.composite
def ideal_files(draw):
    nvars = draw(st.integers(2, 3))
    gens = [draw(forms(nvars, draw(st.integers(1, 3))))
            for _ in range(draw(st.integers(1, 4)))]
    return "\n".join([f"field {draw(st.sampled_from(FIELDS))}",
                      "vars " + " ".join(NAMES[:nvars]), *gens]) + "\n", nvars


@st.composite
def points_files(draw):
    nvars = draw(st.integers(2, 3))
    entry = st.integers(-3, 3) | st.sampled_from(FRACTIONS)
    rows = draw(st.lists(st.lists(entry, min_size=nvars, max_size=nvars),
                         min_size=1, max_size=5))
    # without a vars or coords line the rows may differ in length
    header = draw(st.sampled_from(["vars " + " ".join(NAMES[:nvars]),
                                   f"coords {nvars}", ""]))
    if not header:
        rows.append(draw(st.lists(entry, min_size=1, max_size=3)))
    return "\n".join([f"field {draw(st.sampled_from(FIELDS))}", header,
                      *(" : ".join(map(str, r)) for r in rows)]) + "\n", nvars


def run(argv):
    """Exit code of the command; an uncaught exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5), (argv, code, err.getvalue())
    return code


def order_flags(draw):
    flags = []
    if draw(st.booleans()):
        flags.append("--json")
    if draw(st.booleans()):
        flags += ["--order", "lex"]
    return flags


def common_flags(draw):
    return ["--max-degree", str(draw(st.integers(3, 7))),
            "--seed", str(draw(st.integers(0, 3))), *order_flags(draw)]


@settings(max_examples=200)
@given(st.data(), ideal_files())
def test_ideal_commands_exit_cleanly(tmp_path_factory, data, ideal):
    text, nvars = ideal
    path = tmp_path_factory.mktemp("fuzz") / "in.ideal"
    path.write_text(text)
    draw = data.draw
    command = draw(st.sampled_from(["hilbert", "solve", "nf", "bound"]))
    argv = [command, str(path)]
    if command == "nf":
        # after "--", so that a leading minus sign is not read as a flag
        poly = draw(forms(nvars, draw(st.integers(0, 6))))
        if draw(st.booleans()):
            argv.append("--check-oracle")
    argv += common_flags(draw)
    if command in ("solve", "nf"):
        if draw(st.booleans()):
            argv += ["--degree-policy", "certified_stable"]
        if draw(st.booleans()):
            # a single variable vanishes on a whole hyperplane
            l = draw(st.sampled_from(NAMES[:nvars]) | forms(nvars, 1))
            argv.append(f"--linear-form={l}")
        argv += ["--max-trials", str(draw(st.integers(1, 3)))]
    if command == "nf":
        argv += ["--", poly]
    run(argv)


@settings(max_examples=80)
@given(st.data(), points_files())
def test_points_commands_exit_cleanly(tmp_path_factory, data, points):
    text, nvars = points
    path = tmp_path_factory.mktemp("fuzz") / "in.pts"
    path.write_text(text)
    draw = data.draw
    command = draw(st.sampled_from(["vanish", "separators"]))
    argv = [command, str(path)]
    if command == "vanish":
        argv += order_flags(draw)
        if draw(st.booleans()):
            argv.append(f"--linear-form={draw(forms(nvars, 1))}")
    elif draw(st.booleans()):
        argv.append("--scaled")
    run(argv)
