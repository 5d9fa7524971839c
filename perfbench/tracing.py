"""Per-layer spans and counts, recorded from outside projzero.

`Tracer.install` wraps the public functions of each layer module, and the
few methods the layer metrics name, at every place projzero binds them:
the defining module, every module that imported the name, and the package.
Nothing under src/ is edited. `ScalarCounter` separately wraps the field
classes' arithmetic methods; it runs in its own pass because a wrapper on
every scalar operation would distort the traced times.
"""

import functools
import importlib
import inspect
from time import perf_counter

import projzero
from projzero.fields import PrimeField, RationalField
from projzero.linalg import Matrix
from projzero.polyring import Form

LAYERS = ("cli", "fields", "linalg", "polyring", "quotient", "triplet",
          "solver", "points")

# Leaf helpers called per monomial, per term or per candidate root: a span
# costs more than their work, so wrapping them would swamp trace.overhead.
LEAVES = {
    "polyring.mono_degree", "polyring.mono_mul", "polyring.mono_divides",
    "polyring.mono_div", "polyring.mono_one", "polyring.format_monomial",
    "polyring.format_form", "linalg.poly_mul", "linalg.poly_eval",
    "linalg.poly_divide_linear", "linalg.vec_matmul", "linalg.mat_vec",
    "linalg.normalize_vector",
}

METHODS = {
    "polyring.form_mul": (Form, "__mul__"),
    "polyring.form_power": (Form, "power"),
    "linalg.mat_pow": (Matrix, "mat_pow"),
}

SCALAR_METHODS = ("add", "sub", "mul", "neg", "inv", "div", "is_zero",
                  "from_int")


def _piece_key(args, result):
    I, d, order = args[:3]
    return (I.field, I.vars, tuple(I.generators), order, d)


# What a span records beside its times, computed from arguments and result.
INFO = {
    "quotient.ideal_piece": _piece_key,
    "quotient.macaulay_rows": lambda a, r: len(r) * len(a[2]),
    "linalg.rref": lambda a, r: a[0].nrows * a[0].ncols,
    "linalg.roots_in_field": lambda a, r: len(a[0]) - 1,
    "points.vanishing_ideal": lambda a, r: len(r.generators),
    "points.c_matrix": lambda a, r: r.comparisons,
    "polyring.form_mul": lambda a, r: len(r.terms),
    "triplet.build_triplet": lambda a, r: r.d,
    "solver.filter_points": lambda a, r: (len(r[0]), len(a[0])),
}

NAME, START, END, PARENT, OP, INFO_FIELD = range(6)


class Tracer:
    """Spans [name, start, end, parent index, op id, info] kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._undo = []

    def wrap(self, name, fn):
        spans, stack, info = self.spans, self.stack, INFO.get(name)

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), None,
                   stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if info is not None:
                rec[INFO_FIELD] = info(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def span(self, name, fn, *args):
        """Run fn(*args) under a span; used for the benchmark's own ops."""
        return self.wrap(name, fn)(*args)

    def install(self):
        modules = {n: importlib.import_module(f"projzero.{n}") for n in LAYERS}
        sites = list(modules.values()) + [projzero]
        targets = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in LEAVES
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                targets[id(obj)] = self.wrap(name, obj)
        for site in sites:
            for attr, obj in list(vars(site).items()):
                if id(obj) in targets:
                    self._patch(site, attr, targets[id(obj)])
        for name, (cls, attr) in METHODS.items():
            self._patch(cls, attr, self.wrap(name, vars(cls)[attr]))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self):
        return [{"name": s[NAME], "start": s[START], "end": s[END],
                 "parent": s[PARENT], "op": s[OP], "info": _jsonable(s)}
                for s in self.spans]


def _jsonable(span):
    info = span[INFO_FIELD]
    if span[NAME] == "quotient.ideal_piece":
        return info[-1]  # the degree; the rest of the key is the ideal
    return list(info) if isinstance(info, tuple) else info


class ScalarCounter:
    """Counts calls of the field classes' arithmetic methods."""

    def __init__(self):
        self.count = 0
        self._undo = []

    def install(self):
        for cls in (PrimeField, RationalField):
            for attr in SCALAR_METHODS:
                fn = vars(cls)[attr]
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, self._counting(fn))

    def _counting(self, fn):
        def counted(*args):
            self.count += 1
            return fn(*args)
        return counted

    def uninstall(self):
        while self._undo:
            cls, attr, fn = self._undo.pop()
            setattr(cls, attr, fn)


def layer_stats(spans):
    """Per name: calls, inclusive seconds (outermost spans only, so a name
    nested in itself is not counted twice) and self seconds (duration minus
    the time its child spans cover)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    stats = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = s[END] - s[START]
        st["calls"] += 1
        st["self_s"] += dur - child_time[i]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            st["s"] += dur
    return stats


def layer_metrics(spans, n_ops):
    """The per-layer metrics, each summed over the traced pass and divided
    by its op count, except the ratios and triplet.degree (a mean)."""
    stats = layer_stats(spans)

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def info(name):
        return [s[INFO_FIELD] for s in spans if s[NAME] == name]

    pieces = {}
    for s in spans:
        if s[NAME] == "quotient.ideal_piece":
            pieces.setdefault(s[OP], set()).add(s[INFO_FIELD])
    piece_calls = get("quotient.ideal_piece", "calls")
    distinct = sum(len(keys) for keys in pieces.values())
    filtered = info("solver.filter_points")
    candidates = sum(total for _, total in filtered)
    degrees = info("triplet.build_triplet")

    out = {
        "quotient.ideal_piece.calls": piece_calls,
        "quotient.ideal_piece.distinct": distinct,
        "quotient.ideal_piece.s": get("quotient.ideal_piece", "s"),
        "quotient.macaulay.cells": sum(info("quotient.macaulay_rows")),
        "linalg.rref.cells": sum(info("linalg.rref")),
        "linalg.roots_in_field.degree": sum(info("linalg.roots_in_field")),
        "points.vanishing_ideal.generators": sum(info("points.vanishing_ideal")),
        "points.c_matrix.comparisons": sum(info("points.c_matrix")),
        "polyring.form_mul.terms_out": sum(info("polyring.form_mul")),
        "triplet.l_trials": get("triplet.l_map_matrix", "calls"),
        "cli.parse.s": (get("cli.parse_ideal_file", "s")
                        + get("cli.parse_points_file", "s")),
    }
    for name in ("linalg.rref", "linalg.roots_in_field", "linalg.char_poly",
                 "solver.multiplicity", "linalg.solve_in_rowspace",
                 "polyring.form_mul"):
        out[f"{name}.calls"] = get(name, "calls")
    for name in ("quotient.hilbert_scan", "quotient.initial_ideal_min_generators",
                 "linalg.roots_in_field", "linalg.char_poly",
                 "solver.multiplicity", "solver.residual_degree_of",
                 "points.vanishing_ideal", "linalg.solve_in_rowspace",
                 "points.bm_triplet", "points.separators", "points.nzd_sweep",
                 "polyring.form_mul", "polyring.form_power", "linalg.mat_pow",
                 "triplet.fast_normal_form", "triplet.build_triplet",
                 "solver.common_eigenvectors"):
        out[f"{name}.s"] = get(name, "s")
    out["linalg.rref.self_s"] = get("linalg.rref", "self_s")
    out = {name: value / n_ops for name, value in out.items()}
    out["quotient.piece_reuse"] = distinct / piece_calls if piece_calls else 0.0
    out["solver.filter_points.kept_ratio"] = (
        sum(kept for kept, _ in filtered) / candidates if candidates else 0.0)
    out["triplet.degree"] = sum(degrees) / len(degrees) if degrees else 0.0
    return out
