"""The benchmark's workloads: seeded instance lists and verified ops.

Each op runs projzero in-process through `cli.main([..., "--json"])`, or
through the public library function where no command exists, and checks the
answer against the ground truth that gen.py made with its own arithmetic.
A wrong answer raises WrongAnswer. Module attributes such as `cli.main` are
looked up at call time, so the tracer's wrappers apply to them.
"""

import contextlib
import io
import json
from pathlib import Path

import gen
from projzero import cli, points

# The ideals and point sets come from fixed pool seeds, and the run seed
# re-presents them: another generating set, another point order, another
# order of ops. Rational root enumeration stops at the last root found and
# tries every divisor quotient, so its cost varies 40x between random (2,2)
# instances of one shape (0.075 s to 3.05 s over 60 seeds); freshly drawn
# instances would make a run's numbers depend on the seed, not on the code.
POOL_SEED = 0

# Each op list puts two ops of the same work around its median (one ideal
# under two generating sets, or two GF(p) point sets of one size): one op's
# time varies by about 20% from run to run on a shared 2-CPU machine, and a
# median that cannot jump between ideals of different cost moves less.


def pool_rng(workload):
    return gen.rng_for(f"{workload}-pool", POOL_SEED)


class WrongAnswer(Exception):
    pass


class Op:
    def __init__(self, label, run):
        self.label = label
        self.run = run


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv + ["--json"])
    if rc != 0:
        raise WrongAnswer(f"{argv[0]} exited {rc}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def check(cond, msg):
    if not cond:
        raise WrongAnswer(msg)


def check_solve(inst, doc):
    F = inst.F
    got = sorted(gen.normalize(F, tuple(F(x) for x in p["point"]))
                 for p in doc["points"])
    check(got == inst.points, f"solve points {got} != {inst.points}")
    check(all(p["multiplicity"] == 1 for p in doc["points"]),
          "solve multiplicity != 1")
    check(doc["residual_degree"] == 0, "solve residual degree != 0")
    check(not doc["rejected"], "solve rejected points")


def check_bound(inst, doc):
    m = len(inst.points)
    check(doc["m"] == m, f"bound m {doc['m']} != {m}")
    check(doc["bound"] == max(doc["stabilization_degree"], m),
          "bound != max(d*, m)")
    check(doc["measured_max_degree"] <= doc["bound"],
          "measured_max_degree > bound")


def check_vanish(inst, doc):
    check(doc["hf"][-1] == len(inst.points), "vanish hf does not end at m")


def check_separators(inst, doc):
    F, pts = inst.F, inst.points
    m, n = len(pts), len(inst.names) - 1
    seps = [gen.parse_poly(F, s, inst.names) for s in doc["separators"]]
    check(len(seps) == m, "separator count != m")
    for i, q in enumerate(seps):
        for j, p in enumerate(pts):
            check((gen.evaluate(F, q, p) == 0) == (i != j),
                  f"separator {i} at point {j}")
    check(doc["comparisons"] <= n * m + m * m, "comparisons > n*m + m^2")


def check_vanishing_ideal(inst, ideal):
    F = inst.F
    check(ideal.generators, "vanishing_ideal returned no generators")
    for g in ideal.generators:
        for p in inst.points:
            check(gen.evaluate(F, g.terms, p) == 0,
                  "vanishing_ideal generator is nonzero at a point")


def check_nf(inst, mono, doc):
    F, names = inst.F, inst.names
    l = gen.parse_poly(F, doc["l"], names)
    basis = [gen.parse_poly(F, b, names) for b in doc["basis"]]
    coords = [F(c) for c in doc["coordinates"]]
    target = {mono: F(1)}
    for p in inst.points:
        lhs = sum(c * gen.evaluate(F, e, p) for c, e in zip(coords, basis))
        lhs = F.red(lhs * F.power(gen.evaluate(F, l, p), doc["k"]))
        check(lhs == gen.evaluate(F, target, p), f"nf wrong at {p}")


def _write(path, text):
    path.write_text(text)
    return str(path)


def _ideal_ops(instances, outdir, commands):
    ops = []
    for i, inst in enumerate(instances):
        path = _write(outdir / f"ideal{i}.ideal", inst.ideal_text())

        def run(inst=inst, path=path):
            for command in commands:
                doc = run_cli([command, path])
                (check_solve if command == "solve" else check_bound)(inst, doc)
        ops.append(Op(inst.label, run))
    return ops


def _represented(workload, seed, shapes, F):
    """Pooled complete intersections, one per (degrees, copies) entry, each
    under `copies` random generating sets, in a seeded order."""
    pool = pool_rng(workload)
    rng = gen.rng_for(workload, seed)
    instances = []
    for degrees, copies in shapes:
        inst = gen.complete_intersection(pool, F, degrees)
        instances += [gen.represent(rng, inst) for _ in range(copies)]
    rng.shuffle(instances)
    return instances


def ideal_gfp(seed, outdir):
    instances = _represented("ideal-gfp", seed,
                             [((3, 3), 1), ((3, 4), 2), ((2, 2, 2), 1)], gen.GF)
    return _ideal_ops(instances, outdir, ("solve", "bound"))


def solve_q(seed, outdir):
    instances = _represented("solve-q", seed, [((2, 2), 2)] * 5, gen.QQ)
    return _ideal_ops(instances, outdir, ("solve",))


def points_ops(seed, outdir):
    shapes = ([(gen.QQ, 6, 3), (gen.GF, 6, 4)] + [(gen.GF, 11, 3)] * 2
              + [(gen.GF, 12, 3), (gen.QQ, 8, 3)])
    pool = pool_rng("points")
    rng = gen.rng_for("points", seed)
    ops = []
    for i, (F, m, n) in enumerate(shapes):
        inst = gen.point_set(pool, F, m, n)
        rng.shuffle(inst.points)
        text = inst.points_text()
        path = _write(outdir / f"points{i}.pts", text)

        def run(inst=inst, path=path, text=text):
            check_vanish(inst, run_cli(["vanish", path]))
            check_separators(inst, run_cli(["separators", path]))
            P, _ = cli.parse_points_file(text)
            check_vanishing_ideal(inst, points.vanishing_ideal(P))
        ops.append(Op(inst.label, run))
    rng.shuffle(ops)
    return ops


def nf_highdeg(seed, outdir):
    rng = gen.rng_for("nf-highdeg", seed)
    ci = gen.complete_intersection(rng, gen.GF, (3, 3))
    targets = [(gen.THREE_QUADRICS, d) for d in range(200, 601, 100)]
    targets += [(ci, d) for d in (95, 100, 105)]
    paths = {id(inst): _write(outdir / f"ideal{i}.ideal", inst.ideal_text())
             for i, inst in enumerate((gen.THREE_QUADRICS, ci))}
    ops = []
    for inst, degree in targets:
        mono = gen.random_monomial(rng, len(inst.names), degree)
        text = gen.monomial_text(mono, inst.names)

        def run(inst=inst, mono=mono, text=text):
            check_nf(inst, mono, run_cli(["nf", paths[id(inst)], text]))
        ops.append(Op(f"nf {text} on {inst.label}", run))
    return ops


WORKLOADS = {
    "ideal-gfp": ideal_gfp,
    "solve-q": solve_q,
    "points": points_ops,
    "nf-highdeg": nf_highdeg,
}


def build(workload, seed, outdir):
    """Generate and write the workload's inputs; return its fixed op list."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, outdir)
