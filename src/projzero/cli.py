"""Command line interface and the ideal/points file formats.

Files are UTF-8 text with '#' comments. An ideal file declares the field and
the variables, then one generator per line:

    field Q
    vars x y z
    x*z + y*z - z^2
    x^2 - y^2 + 2*y*z - z^2

A points file declares the field and either a coordinate count or variable
names, then one point per line with ':' or whitespace separators:

    field GF(3)
    coords 3
    1 : 2 : 2

Exit codes: 0 success, 1 input or usage error (or a failed internal
invariant check), 2 degree cap exceeded, 3 no surjective linear form found,
4 field too small.
With --json, exit 2 still prints a JSON document, carrying the error, the
partial Hilbert function and the cap.
"""

import argparse
import functools
import json
import sys
from dataclasses import replace

from .errors import (CapExceeded, FieldTooSmall, InputError, NoSurjectionFound,
                     ProjzeroError)
from .fields import parse_field_spec
from .points import bm_triplet, c_matrix, normalize, separators
from .polyring import (MonomialOrder, format_form, format_monomial,
                       parse_form)
from .quotient import (IdealPresentation, Options, gb_degree_bound,
                       hilbert_scan, initial_ideal_min_generators,
                       normal_form_by_degree)
from .solver import solve
from .triplet import build_triplet, fast_normal_form

SCHEMA = "projzero.v1"


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _strip(line):
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def parse_ideal_file(text):
    field = None
    var_names = None
    order_kind = "degrevlex"
    ranking_names = None
    gens_src = []
    for raw in text.splitlines():
        line = _strip(raw)
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "field" and field is None:
            field = parse_field_spec(rest)
        elif head == "vars" and var_names is None:
            var_names = _var_names(rest)
        elif head == "order" and not gens_src:
            order_kind = rest.strip()
        elif head == "ranking" and not gens_src:
            ranking_names = tuple(rest.split())
        else:
            gens_src.append(line)
    if field is None or var_names is None:
        raise InputError("ideal file needs 'field' and 'vars' header lines")
    if not gens_src:
        raise InputError("ideal file has no generators")
    gens = [parse_form(src, var_names, field) for src in gens_src]
    order = _make_order(order_kind, ranking_names, var_names)
    return IdealPresentation(field, var_names, gens, order)


def parse_points_file(text):
    field = None
    var_names = None
    width = None
    rows = []
    for raw in text.splitlines():
        line = _strip(raw)
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "field" and field is None:
            field = parse_field_spec(rest)
            continue
        if head == "vars" and var_names is None:
            var_names = _var_names(rest)
            width = len(var_names)
            continue
        if head == "coords" and width is None:
            try:
                width = int(rest)
            except ValueError as exc:
                raise InputError("bad coords count") from exc
            if width < 1:
                raise InputError(f"coords count must be at least 1, got {width}")
            continue
        if field is None:
            raise InputError("points file needs a 'field' header first")
        parts = [p for p in line.replace(":", " ").split() if p]
        if width is not None and len(parts) != width:
            raise InputError(
                f"point {line!r} has {len(parts)} coordinates, expected {width}")
        rows.append([field.parse(p) for p in parts])
    if field is None or not rows:
        raise InputError("points file needs a 'field' header and points")
    if width is None:
        width = len(rows[0])
    if var_names is None:
        var_names = tuple(f"x{i}" for i in range(width))
    return normalize(rows, field), var_names


def _var_names(text):
    names = tuple(text.split())
    if not names:
        raise InputError("vars names no variable")
    if len(set(names)) != len(names):
        raise InputError(f"vars repeats a name: {' '.join(names)}")
    return names


def _make_order(kind, ranking_names, var_names):
    nv = len(var_names)
    if ranking_names is None:
        ranking = tuple(range(nv))
    else:
        index = {n: i for i, n in enumerate(var_names)}
        try:
            ranking = tuple(index[n] for n in ranking_names)
        except KeyError as exc:
            raise InputError(f"ranking uses unknown variable {exc}") from exc
        if sorted(ranking) != list(range(nv)):
            raise InputError("ranking must mention every variable once")
    return MonomialOrder(kind=kind, ranking=ranking)


def _fmt_point(field, point):
    return " : ".join(field.format(x) for x in point)


def _matrix_json(field, M):
    return [[field.format(v) for v in row] for row in M.rows]


def _emit(doc, args, text_lines):
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def _apply_order_flags(order, args, var_names):
    """The order with the kind `--order` names and the ranking
    `--vars-ranking` names; what no flag names stays as the file has it."""
    kind = args.order or order.kind
    if args.vars_ranking:
        names = tuple(n.strip() for n in args.vars_ranking.split(","))
        return _make_order(kind, names, var_names)
    return replace(order, kind=kind)


def _ideal(args):
    I = parse_ideal_file(_read(args.file))
    return replace(I, order=_apply_order_flags(I.order, args, I.vars))


def _linear_form(args, var_names, field):
    if not args.linear_form:
        return None
    l = parse_form(args.linear_form, var_names, field)
    if l.degree != 1:
        raise InputError("--linear-form must have degree 1")
    return l


def cmd_hilbert(args):
    I = _ideal(args)
    scan = hilbert_scan(I, Options(seed=args.seed, max_degree=args.max_degree))
    doc = {
        "schema": SCHEMA, "command": "hilbert",
        "hf": scan.hf_values, "t": scan.t,
        "stabilization_degree": scan.stabilization_degree,
        "m": scan.m, "postulation": scan.postulation,
        "gotzmann_certified": True,  # a scan returns only once certified
        "artinian": scan.artinian,
    }
    lines = [f"hf: {' '.join(str(v) for v in scan.hf_values)}, m={scan.m}"]
    if scan.artinian:
        lines.append("artinian; variety empty")
    else:
        lines.append(f"stabilization degree d*={scan.stabilization_degree} "
                     f"(Gotzmann certified), post={scan.postulation}")
    _emit(doc, args, lines)
    return 0


def _solve_options(args, I):
    return Options(seed=args.seed, max_degree=args.max_degree,
                   degree_policy=args.degree_policy,
                   linear_form=_linear_form(args, I.vars, I.field),
                   max_trials=args.max_trials)


def cmd_solve(args):
    I = _ideal(args)
    report = solve(I, _solve_options(args, I))
    field = I.field
    doc = {
        "schema": SCHEMA, "command": "solve",
        "hf_prefix": report.hf_prefix,
        "artinian": report.artinian,
        "points": [{"point": [field.format(x) for x in ep.point],
                    "multiplicity": ep.multiplicity} for ep in report.points],
        "rejected": [[field.format(x) for x in ep.point]
                     for ep in report.rejected],
        "residual_degree": report.residual_degree,
        "joint_blocks": report.blocks,
        "warnings": report.warnings,
    }
    lines = [f"hf: {' '.join(str(v) for v in report.hf_prefix)}"]
    if report.triplet is not None:
        t = report.triplet
        doc["triplet"] = {
            "degree": t.d,
            "l": format_form(t.l, I.vars, I.order),
            "basis": [format_monomial(m, I.vars) for m in t.E_monomials],
            "A": {name: _matrix_json(field, t.A[j])
                  for j, name in enumerate(I.vars)},
        }
        lines.append(f"triplet: degree {t.d}, l = {doc['triplet']['l']}, "
                     f"basis [{', '.join(doc['triplet']['basis'])}]")
    for ep in report.points:
        lines.append(f"{_fmt_point(field, ep.point)}  mult={ep.multiplicity}")
    if report.artinian:
        lines.append("artinian; variety empty")
    for ep in report.rejected:
        lines.append(f"rejected: {_fmt_point(field, ep.point)}")
    lines.append(f"residual degree: {report.residual_degree}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    _emit(doc, args, lines)
    return 0


def cmd_nf(args):
    I = _ideal(args)
    f = parse_form(args.poly, I.vars, I.field)
    field = I.field
    if args.oracle:
        reduced = normal_form_by_degree(f, I.piece(f.degree))
        doc = {"schema": SCHEMA, "command": "nf", "mode": "oracle",
               "degree": f.degree,
               "reduced": format_form(reduced, I.vars, I.order)}
        _emit(doc, args, [f"reduced: {doc['reduced']}"])
        return 0
    triplet = build_triplet(I, _solve_options(args, I))
    res = fast_normal_form(f, I, triplet)
    l_str = format_form(triplet.l, I.vars, I.order)
    basis = [format_monomial(m, I.vars) for m in triplet.E_monomials]
    parts = []
    for c, b in zip(res.coords, basis):
        if field.is_zero(c):
            continue
        frag = field.format(c)
        if b != "1":
            frag += f" * {b}"
        if res.k:
            frag += f" * ({l_str})^{res.k}"
        parts.append(frag)
    rendered = "  +  ".join(parts) if parts else "0"
    doc = {"schema": SCHEMA, "command": "nf", "mode": "triplet",
           "degree": f.degree, "triplet_degree": triplet.d, "k": res.k,
           "l": l_str, "basis": basis,
           "coordinates": [field.format(c) for c in res.coords],
           "nf": rendered}
    lines = [f"coordinates: ({', '.join(doc['coordinates'])}) "
             f"in basis {{e_i * l^{res.k}}}",
             f"nf = {rendered}"]
    if args.check_oracle:
        piece = I.piece(f.degree)
        direct = normal_form_by_degree(f, piece)
        via_triplet = normal_form_by_degree(res.form, piece)
        ok = direct == via_triplet
        doc["oracle_agreement"] = ok
        doc["reduced"] = format_form(direct, I.vars, I.order)
        lines.append(f"reduced: {doc['reduced']}")
        lines.append(f"oracle agreement: {'exact' if ok else 'MISMATCH'}")
        if not ok:
            _emit(doc, args, lines)
            return 1
    _emit(doc, args, lines)
    return 0


def cmd_vanish(args):
    P, var_names = parse_points_file(_read(args.file))
    order = _apply_order_flags(MonomialOrder.default(P.n + 1), args, var_names)
    trip, B, initials = bm_triplet(P, order,
                                   l=_linear_form(args, var_names, P.field))
    field = P.field
    doc = {
        "schema": SCHEMA, "command": "vanish",
        "hf": [len(bd) for bd in B], "stop_degree": trip.d,
        "l": format_form(trip.l, var_names, None),
        "B": [[format_monomial(m, var_names) for m in bd] for bd in B],
        "initials": [format_monomial(m, var_names) for m in initials],
        "A": {name: _matrix_json(field, trip.A[j])
              for j, name in enumerate(var_names)},
    }
    lines = [f"hf: {' '.join(str(v) for v in doc['hf'])}",
             f"stop degree: {trip.d}",
             f"l = {doc['l']}"]
    for d, bd in enumerate(doc["B"]):
        lines.append(f"B_{d}: {' '.join(bd)}")
    lines.append(f"initials: {' '.join(doc['initials']) or '(none)'}")
    for name in var_names:
        lines.append(f"A_{name}:")
        for row in doc["A"][name]:
            lines.append("  " + "  ".join(row))
    _emit(doc, args, lines)
    return 0


def cmd_separators(args):
    P, var_names = parse_points_file(_read(args.file))
    cm = c_matrix(P)
    seps = separators(P, scaled=args.scaled)
    bound = P.n * P.size + P.size * P.size
    doc = {
        "schema": SCHEMA, "command": "separators",
        "separators": [format_form(q, var_names, None) for q in seps],
        "comparisons": cm.comparisons,
        "comparison_bound": bound,
    }
    lines = [f"Q_{i + 1} = {s}" for i, s in enumerate(doc["separators"])]
    lines.append(f"comparisons: {cm.comparisons} (bound n*m + m^2 = {bound})")
    _emit(doc, args, lines)
    return 0


def cmd_bound(args):
    I = _ideal(args)
    scan = hilbert_scan(I, Options(seed=args.seed, max_degree=args.max_degree))
    if scan.artinian:
        raise InputError("artinian quotient; no projective variety to bound")
    bound = gb_degree_bound(scan)
    mins = initial_ideal_min_generators(I, bound + 1, scan)
    measured = max(d for _, d in mins)
    doc = {
        "schema": SCHEMA, "command": "bound",
        "stabilization_degree": scan.stabilization_degree, "m": scan.m,
        "bound": bound, "measured_max_degree": measured,
        "initial_generators": [
            {"monomial": format_monomial(mn, I.vars), "degree": d}
            for mn, d in mins],
    }
    lines = [f"GB degree bound = max(d*, m) = max({scan.stabilization_degree}, "
             f"{scan.m}) = {bound}",
             f"measured max initial-generator degree: {measured}",
             "initial ideal minimal generators: "
             + " ".join(f"{format_monomial(mn, I.vars)}(d={d})" for mn, d in mins)]
    _emit(doc, args, lines)
    return 0


def _add_order_flags(p):
    p.add_argument("--order", choices=["degrevlex", "lex"], default=None)
    p.add_argument("--vars-ranking", default=None,
                   help="comma-separated variable names, most significant first")
    p.add_argument("--json", action="store_true")


def _add_common(p):
    _add_order_flags(p)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)


def _add_triplet_flags(p):
    p.add_argument("--linear-form", default=None,
                   help="explicit linear form instead of the random search")
    p.add_argument("--degree-policy", default="first_surjective",
                   choices=["first_surjective", "certified_stable"])
    p.add_argument("--max-trials", type=int, default=200)


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves no state
    in it, and building it costs more than a small command."""
    ap = argparse.ArgumentParser(
        prog="projzero",
        description="Exact solver for ideals of projective dimension zero")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="Hilbert function scan with certificate")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("solve", help="compute the variety with multiplicities")
    p.add_argument("file")
    _add_common(p)
    _add_triplet_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("nf", help="normal form of a polynomial")
    p.add_argument("file")
    p.add_argument("poly")
    _add_common(p)
    _add_triplet_flags(p)
    p.add_argument("--oracle", action="store_true",
                   help="reduce directly against the degree piece instead")
    p.add_argument("--check-oracle", action="store_true",
                   help="also reduce both ways and compare")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("vanish", help="triplet of the vanishing ideal of points")
    p.add_argument("file")
    _add_order_flags(p)
    p.add_argument("--linear-form", default=None)
    p.set_defaults(func=cmd_vanish)

    p = sub.add_parser("separators", help="separator forms for a point set")
    p.add_argument("file")
    p.add_argument("--scaled", action="store_true",
                   help="scale each separator to 1 at its own point")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_separators)

    p = sub.add_parser("bound", help="Groebner basis degree bound")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means a capped scan
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        doc = {"schema": SCHEMA, "command": args.command, "error": str(exc),
               "partial_hf": exc.partial_hf, "cap": exc.cap}
        _emit(doc, args, [
            f"partial hf: {' '.join(str(v) for v in exc.partial_hf)}"])
        return 2
    except NoSurjectionFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FieldTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ProjzeroError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
