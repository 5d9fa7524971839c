"""The commutation certificate of the Hilbert scan: differential tests
against the full-elimination oracle in scan_oracle.py, its converse, its
Gotzmann fallback over a field without a bijective linear form, and the
degrees of the pieces that hilbert, solve and bound build.
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import assume, given, strategies as st

from projzero import (Form, IdealPresentation, Options, build_triplet,
                      hilbert_scan, ideal_piece, initial_ideal_min_generators,
                      normalize, vanishing_ideal)
from projzero import cli, quotient, solver, triplet
from projzero.cli import main, parse_ideal_file
from projzero.errors import CapExceeded, NoSurjectionFound, ProjzeroError
from projzero.fields import PrimeField, RationalField
from projzero.solver import solve
from projzero.triplet import commuting_triplet
from tests import scan_oracle, triplet_oracle
from tests.conftest import ideal_from
from tests.triplet_oracle import exhaustive_surjective_linear

GF32003 = PrimeField(32003)
Q = RationalField()
GF2 = PrimeField(2)
RECORD_FIELDS = {"certificate", "certificate_degree", "triplet", "pieces"}


def core(scan):
    """The scan's fields other than the certificate record and the pieces."""
    return {f.name: getattr(scan, f.name) for f in dataclasses.fields(scan)
            if f.name not in RECORD_FIELDS}


def commute(A):
    return all(A[i] @ A[j] == A[j] @ A[i]
               for i in range(len(A)) for j in range(i))


def check_against_oracle(I, scan=None):
    """The scan and the initial-ideal generators up to max(d*, m) + 1 equal
    the oracle's; the certificate record is consistent with the theorem."""
    if scan is None:
        scan = hilbert_scan(I)
    assert core(scan) == core(scan_oracle.hilbert_scan(I))
    if scan.certificate == "commutation":
        trip = scan.triplet
        assert trip.d == scan.certificate_degree and commute(trip.A)
        assert I.piece(trip.d).hf == trip.size == scan.hf_values[trip.d]
        # hf is constant from the certificate degree on
        assert scan.certificate_degree >= max(scan.t, scan.postulation)
    else:
        assert scan.certificate == "gotzmann" and scan.triplet is None
        assert scan.certificate_degree == scan.stabilization_degree
    if not scan.artinian:
        up_to = max(scan.stabilization_degree, scan.m) + 1
        assert (initial_ideal_min_generators(I, up_to, scan)
                == scan_oracle.initial_ideal_min_generators(I, up_to))
    return scan


def fixture(data_dir, name):
    return parse_ideal_file((data_dir / f"{name}.ideal").read_text())


@pytest.mark.parametrize("name,certificate,degree", [
    ("artinian", "gotzmann", 1),
    ("ci_3_4_p32003", "commutation", 5),
    ("line_and_double_point", "gotzmann", 5),
    ("monomial_false_point", "gotzmann", 3),
    ("single_linear", "gotzmann", 1),
    ("single_point_embedded", "gotzmann", 3),
    ("three_quadrics", "commutation", 2),
    ("three_quadrics_p31", "commutation", 2),
])
def test_fixtures_match_oracle(data_dir, name, certificate, degree):
    I = fixture(data_dir, name)
    scan = check_against_oracle(I)
    assert (scan.certificate, scan.certificate_degree) == (certificate, degree)


@pytest.mark.parametrize("name,cap", [
    ("proj_dim_one", 6), ("three_quadrics", 2), ("ci_3_4_p32003", 5),
    ("ci_3_4_p32003", 11)])
def test_cap_exceeded_matches_oracle(data_dir, name, cap):
    """Exit 2 carries the same partial hf, up to cap + 1, also when the
    commutation certificate holds below the cap but d* lies above it."""
    I = fixture(data_dir, name)
    with pytest.raises(CapExceeded) as got:
        hilbert_scan(I, Options(max_degree=cap))
    with pytest.raises(CapExceeded) as expected:
        scan_oracle.hilbert_scan(I, Options(max_degree=cap))
    assert got.value.partial_hf == expected.value.partial_hf
    assert len(got.value.partial_hf) == cap + 2
    assert str(got.value) == str(expected.value)


def test_random_point_ideals_match_oracle(scan_pool):
    """The 200 vanishing ideals of random points over Q and GF(7)."""
    certificates = set()
    for inst in scan_pool:
        check_against_oracle(inst.ideal, inst.scan)
        certificates.add(inst.scan.certificate)
    assert certificates == {"commutation", "gotzmann"}


def _linear(field, n, rng):
    while True:
        if field.size is None:
            coeffs = [field.from_int(rng.randint(-3, 3)) for _ in range(n)]
        else:
            coeffs = [field.from_int(rng.randrange(field.size))
                      for _ in range(n)]
        if any(coeffs):
            return Form(field, n, 1, {
                tuple(int(k == i) for k in range(n)): c
                for i, c in enumerate(coeffs) if c})


def product_ci(field, degrees, rng):
    """Products of random linear forms, one product per degree, in
    len(degrees) + 1 variables."""
    n = len(degrees) + 1
    gens = []
    for d in degrees:
        g = _linear(field, n, rng)
        for _ in range(d - 1):
            g = g * _linear(field, n, rng)
        gens.append(g)
    return IdealPresentation(field=field,
                             vars=tuple(f"x{i}" for i in range(n)),
                             generators=gens)


@pytest.mark.parametrize("field,degrees,seed", [
    (GF32003, (3, 3), 1), (GF32003, (3, 3), 2), (GF32003, (3, 4), 1),
    (GF32003, (3, 4), 2), (GF32003, (2, 2, 2), 1), (Q, (2, 2), 1),
    (Q, (2, 2), 2), (Q, (2, 2), 3)])
def test_complete_intersections_match_oracle(field, degrees, seed):
    """Complete intersections shaped like the benchmark's. Over GF(32003) a
    drawn l is bijective at the least degree >= t from which hf is constant,
    and the certificate holds there; over Q the draws have coefficients in
    [-3, 3] and may all vanish at a point, which costs a degree."""
    I = product_ci(field, degrees, random.Random(seed))
    scan = check_against_oracle(I)
    assert scan.certificate == "commutation"
    assert scan.certificate_degree < scan.stabilization_degree
    if field is GF32003:
        assert scan.certificate_degree == max(scan.t, scan.postulation)


def test_commutation_rejects_a_valley():
    """hf(3) = hf(4) = 7 here, with t = 3, but hf(5) = 6: the matrices at
    degree 3 commute for no bijective l, and at degree 5, where hf is
    constant, they commute."""
    I = ideal_from(["x*y*z + x*z^2", "x^3 - y*z^2", "x^2*z"], ("x", "y", "z"))
    pieces = [ideal_piece(I, d, I.order) for d in range(7)]
    hf = [p.hf for p in pieces]
    assert hf == [1, 3, 6, 7, 7, 6, 6] and I.max_gen_degree == 3
    assert commuting_triplet(I, pieces[3], pieces[4]) is None
    rng = random.Random(3)
    for _ in range(10):
        l = triplet._first_triplet(triplet._draws(I, rng.random(), 200),
                                   pieces[3], pieces[4]).l
        trip = build_triplet(I, Options(linear_form=l))
        assert trip.d == 3 and not commute(trip.A)
    assert commute(commuting_triplet(I, pieces[5], pieces[6]).A)
    scan = check_against_oracle(I)
    assert (scan.certificate, scan.certificate_degree, scan.m) == (
        "commutation", 5, 6)


def test_no_certificate_below_generator_degree(data_dir, monkeypatch):
    """On line_and_double_point (t = 5) hf(3) = hf(4) = 4 but hf(5) = 3.
    Below t the theorem does not apply, and the matrices at degree 3 do
    commute for the seeded l, so the scan must not test there."""
    I = fixture(data_dir, "line_and_double_point")
    p3, p4 = ideal_piece(I, 3, I.order), ideal_piece(I, 4, I.order)
    assert commute(commuting_triplet(I, p3, p4).A)
    tested = []
    real = triplet.commuting_triplet

    def recording(I, piece_d, piece_d1, seed):
        tested.append(piece_d.d)
        return real(I, piece_d, piece_d1, seed)
    monkeypatch.setattr(triplet, "commuting_triplet", recording)
    scan = check_against_oracle(I)
    assert scan.hf_values == [1, 2, 3, 4, 4, 3, 3] and scan.m == 3
    assert all(d >= I.max_gen_degree for d in tested)


def test_gotzmann_fallback_without_bijective_l():
    """All seven points of P^2 over GF(2): every linear form vanishes on
    three of them, so no l is bijective where hf = 7 and only Gotzmann can
    close the scan."""
    pts = normalize([list(v) for v in itertools.product((0, 1), repeat=3)
                     if any(v)], GF2)
    I = vanishing_ideal(pts)
    scan = check_against_oracle(I)
    assert scan.certificate == "gotzmann" and scan.m == 7
    for d in range(scan.t, scan.stabilization_degree + 1):
        piece_d, piece_d1 = (ideal_piece(I, d, I.order),
                             ideal_piece(I, d + 1, I.order))
        if piece_d.hf == piece_d1.hf:
            with pytest.raises(NoSurjectionFound):
                exhaustive_surjective_linear(I, piece_d, piece_d1)


@pytest.fixture
def piece_degrees(monkeypatch):
    """Degrees of every ideal_piece built, wherever it is called from."""
    built = []
    real = quotient.ideal_piece

    def counting(I, d, order):
        built.append(d)
        return real(I, d, order)
    for module in (quotient, triplet, solver, cli):
        monkeypatch.setattr(module, "ideal_piece", counting, raising=False)
    return built


@pytest.mark.parametrize("argv", [
    ["hilbert"], ["solve"], ["bound"],
    ["solve", "--degree-policy", "certified_stable"]])
def test_no_piece_above_certificate_degree(data_dir, piece_degrees, capsys,
                                           argv):
    """On the (3,4) complete intersection hf is constant from degree 5 and
    Gotzmann's d* is 12. Every command builds each piece up to degree 6
    exactly once: solve's triplet and bound's initial ideal rebuild none of
    the scan's, under either degree policy."""
    code = main([argv[0], str(data_dir / "ci_3_4_p32003.ideal"), "--json",
                 *argv[1:]])
    capsys.readouterr()
    assert code == 0
    assert sorted(piece_degrees) == list(range(7))


@pytest.fixture
def scans(monkeypatch):
    """The scans that build_triplet runs itself."""
    made = []
    real = triplet.hilbert_scan

    def recording(*args):
        made.append(real(*args))
        return made[-1]
    monkeypatch.setattr(triplet, "hilbert_scan", recording)
    return made


def test_certified_stable_returns_the_scans_triplet(data_dir, piece_degrees,
                                                     scans):
    """certified_stable returns the triplet of the commutation certificate
    at degree 5, not one rebuilt at d* = 12, and builds only the scan's
    pieces."""
    I = fixture(data_dir, "ci_3_4_p32003")
    trip = build_triplet(I, Options(degree_policy="certified_stable"))
    assert len(scans) == 1 and scans[0].certificate == "commutation"
    assert trip is scans[0].triplet and trip.d == 5
    assert sorted(piece_degrees) == [0, 1, 2, 3, 4, 5, 6]


def test_nf_scans_only_after_a_failed_search(data_dir, piece_degrees, scans,
                                             capsys):
    """nf runs no scan while its search succeeds. l = x vanishes at the
    point (0:1:1) of the three quadrics, so it is bijective at no degree:
    once it fails at degree 1, one scan certifies by commutation that hf
    is constant from degree 2, and nf stops there with exit 3 instead of
    climbing to its cap of 36."""
    path = str(data_dir / "three_quadrics.ideal")
    assert main(["nf", path, "x^3"]) == 0
    assert scans == []
    assert main(["nf", path, "x^3", "--linear-form", "x"]) == 3
    err = capsys.readouterr().err
    assert "last degree tried: 2" in err and "certificate degree 2" in err
    assert len(scans) == 1 and max(piece_degrees) == 3


@st.composite
def point_sets(draw):
    """Three to five distinct points of P^1 or P^2 over GF(7), GF(101) or
    Q: fewer points close most scans by Gotzmann, at the same degree."""
    field = draw(st.sampled_from([PrimeField(7), PrimeField(101), Q]))
    width = draw(st.integers(2, 3))
    coord = (st.integers(-3, 3) if field.size is None
             else st.integers(0, field.size - 1))
    rows = draw(st.lists(st.lists(coord, min_size=width, max_size=width),
                         min_size=3, max_size=5))
    try:
        return normalize([[field.from_int(c) for c in r] for r in rows], field)
    except ProjzeroError:  # a zero vector or a repeated point
        assume(False)


def solve_outcome(I, options):
    """What solve reports: points with multiplicities, rejected points,
    residual degree and warnings, or the error that ended it."""
    try:
        rep = solve(I, options)
    except ProjzeroError as exc:
        return type(exc).__name__, str(exc)

    def fmt(ep):
        return [I.field.format(x) for x in ep.point]
    return ([(fmt(ep), ep.multiplicity) for ep in rep.points],
            [fmt(ep) for ep in rep.rejected], rep.residual_degree,
            rep.warnings)


@given(point_sets(), st.integers(0, 3))
def test_certified_stable_matches_the_gotzmann_degree_oracle(P, seed):
    """certified_stable builds at the scan's certificate degree, d_c where
    commutation closed the scan; solve reports what the triplet at
    Gotzmann's d* gives."""
    I = vanishing_ideal(P)
    options = Options(degree_policy="certified_stable", seed=seed)
    got = solve_outcome(I, options)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "build_triplet",
                   triplet_oracle.triplet_at_gotzmann_degree)
        want = solve_outcome(I, options)
    assert got == want


def triplet_fields(trip):
    return trip.d, trip.l, trip.E_monomials, trip.A


def outcome(run):
    """The triplet's defining fields, or the error that ended the run."""
    try:
        return triplet_fields(run())
    except ProjzeroError as exc:
        return type(exc).__name__, str(exc)


def reuse_cases(data_dir):
    """Fixtures over GF(32003), GF(2^31 - 1) and Q, and the three quadrics
    over GF(3) and GF(7), where draws of l vanish at a point more often."""
    names = ["ci_3_4_p32003", "three_quadrics_p31", "three_quadrics",
             "line_and_double_point", "monomial_false_point",
             "single_point_embedded", "single_linear"]
    cases = [fixture(data_dir, name) for name in names]
    text = (data_dir / "three_quadrics.ideal").read_text()
    for p in (3, 7):
        cases.append(parse_ideal_file(text.replace("field Q", f"field GF({p})")))
    return cases


def test_solve_returns_the_triplet_a_fresh_build_gives(data_dir, monkeypatch):
    """The triplet solve builds, taken from its scan where the search would
    find the same l, equals build_triplet without a scan for every seed,
    trial budget, explicit l and degree policy. Where both fail, solve
    stops at the commutation certificate degree d_c and names it; the
    build without a scan runs its own scan once its search fails."""
    built, scans = [], []
    real = solver.build_triplet

    def recording(I, options, scan):
        scans.append(scan)
        trip = real(I, options, scan)
        built.append((trip, scan))
        return trip
    monkeypatch.setattr(solver, "build_triplet", recording)
    reused = rebuilt = stopped = 0
    for I in reuse_cases(data_dir):
        l = Form(I.field, I.nvars, 1, {
            tuple(int(k == j) for k in range(I.nvars)): I.field.one
            for j in range(I.nvars)})
        grid = [dict(seed=seed, max_trials=trials)
                for seed in range(6) for trials in (1, 2, 3, 4)]
        grid += [dict(seed=seed, degree_policy="certified_stable")
                 for seed in range(2)]
        grid += [dict(seed=seed, linear_form=l) for seed in range(2)]
        # a search that fails at every degree stops at d* instead of the
        # default cap, which costs a minute over Q
        cap = hilbert_scan(I).stabilization_degree
        for kw in grid:
            kw["max_degree"] = cap
            built.clear()
            scans.clear()
            # a later stage may fail over a tiny field; the triplet stands
            got = outcome(lambda: solve(I, Options(**kw)).triplet)
            if built:
                trip, scan = built[0]
                got = triplet_fields(trip)
                if scan.triplet is not None:
                    reused += trip is scan.triplet
                    rebuilt += trip is not scan.triplet
            want = outcome(lambda: build_triplet(I, Options(**kw)))
            if isinstance(got[0], str) and scans[0].certificate == "commutation":
                assert got[0] == want[0] == "NoSurjectionFound", (got, want)
                assert (f"certificate degree {scans[0].certificate_degree} "
                        in got[1]), got
                stopped += 1
            else:
                assert got == want, (I.field, kw)
    # every branch ran: the scan's triplet returned, a search that went its
    # own way (too few trials, an explicit l, certified_stable), and one
    # that failed
    assert reused and rebuilt and stopped


@pytest.mark.parametrize("name,flags", [
    ("artinian", []), ("ci_3_4_p32003", []), ("line_and_double_point", []),
    ("proj_dim_one", ["--max-degree", "6"]), ("three_quadrics", []),
    ("three_quadrics_p31", [])])
@pytest.mark.parametrize("command", ["hilbert", "bound"])
def test_output_does_not_depend_on_the_seed(data_dir, capsys, name, flags,
                                            command):
    """The certificate's l comes from --seed; hf, d*, m, the postulation
    and the initial ideal do not."""
    outputs = set()
    for seed in range(4):
        code = main([command, str(data_dir / f"{name}.ideal"), "--json",
                     "--seed", str(seed), *flags])
        captured = capsys.readouterr()
        outputs.add((code, captured.out, captured.err))
    assert len(outputs) == 1
