#!/usr/bin/env python3
"""projzero benchmark: seeded workloads run in-process through cli.main.

    python3 perfbench/run.py --workload ideal-gfp --seed 1 --seconds 20 --trace 0

One closed loop: a single client runs the workload's fixed op list in whole
passes, each op after the previous one returns, until about --seconds have
passed. Every answer is checked. --trace 0 prints the end-to-end metrics
that BENCHMARK.json lists; --trace 1 runs each op once untraced and once
traced, then one scalar-counting pass, and prints the per-layer metrics. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# A run must end within 180 s; ops still pending at this point count as
# timeouts instead of running.
DEADLINE_S = 150.0
OP_TIMEOUT_S = 60.0
SETUP_PROBES = 9


def import_projzero():
    src = (ROOT / "src").resolve()
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import projzero
    except ImportError as exc:
        sys.exit(f"error: cannot import projzero from {src}: {exc}")
    if not Path(projzero.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: projzero was imported from {projzero.__file__}, "
                 f"not from {src}")


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def run_op(fn, deadline):
    """Run one op; returns (status, seconds), status one of ok, wrong,
    error, timeout. A wrong answer, an exception and a timeout all fail."""
    from workloads import WrongAnswer
    budget = min(OP_TIMEOUT_S, deadline - time.monotonic())
    if budget <= 0:
        return "timeout", 0.0
    start = time.perf_counter()
    status = "ok"
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        status = "timeout"
    except WrongAnswer as exc:
        status = "wrong"
        print(f"wrong answer: {exc}", file=sys.stderr)
    except Exception:
        status = "error"
        traceback.print_exc()
    return status, time.perf_counter() - start


def run_passes(ops, deadline, seconds=None):
    """Whole passes over ops: one pass when seconds is None, else passes
    for as long as another one would end nearer to `seconds` than the run
    stands now. Returns the (status, seconds) records and the wall time."""
    records = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            records.append(run_op(op.run, deadline))
        now = time.perf_counter()
        if seconds is None or (now - start) + (now - pass_start) / 2 >= seconds:
            return records, now - start


def setup_seconds(workload, seed):
    """Median wall time of fresh processes that import projzero and
    generate and write the workload's inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    # subprocess.run(timeout=...) polls in sleeps of up to 50 ms, which
    # quantizes the time; the SIGALRM timer bounds the probes instead.
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            subprocess.run(cmd, check=True, cwd=ROOT)
            times.append(time.perf_counter() - start)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return statistics.median(times)


def p50(records):
    return statistics.median(t for _, t in records)


def untraced_metrics(ops, args, deadline):
    records, wall = run_passes(ops, deadline, seconds=args.seconds)
    ok = sum(s == "ok" for s, _ in records)
    print(f"{len(records)} ops in {len(records) // len(ops)} passes of "
          f"{len(ops)}, {wall:.2f} s")
    return records, {
        "op_p50_s": p50(records),
        "ops_per_s": ok / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(ops, args, deadline):
    import tracing
    # Each op runs untraced, then traced, so drift over the run does not
    # enter trace.overhead.
    tracer = tracing.Tracer()
    plain, traced = [], []
    for i, op in enumerate(ops):
        plain.append(run_op(op.run, deadline))
        tracer.op = i
        tracer.install()
        try:
            traced.append(run_op(lambda: tracer.span("bench.op", op.run),
                                 deadline))
        finally:
            tracer.uninstall()

    counter = tracing.ScalarCounter()
    counter.install()
    try:
        counted, _ = run_passes(ops, deadline)
    finally:
        counter.uninstall()

    trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
    trace_file.write_text(json.dumps(tracer.dump()))
    print(f"{len(tracer.spans)} spans written to {trace_file}")

    values = tracing.layer_metrics(tracer.spans, len(ops))
    values["fields.scalar_ops"] = counter.count / len(ops)
    values["trace.overhead"] = p50(traced) / p50(plain)
    values["src.lines"] = sum(len(p.read_text().splitlines())
                              for p in (ROOT / "src" / "projzero").glob("*.py"))
    return plain + traced + counted, values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only import projzero and write the inputs")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    import_projzero()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.build(args.workload, args.seed,
                        OUT / "setup-probe" / args.workload)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    signal.signal(signal.SIGALRM, _alarm)
    print(f"workload {args.workload}, seed {args.seed}; nproc {os.cpu_count()}, "
          f"Python {platform.python_version()}")
    ops = workloads.build(args.workload, args.seed,
                          OUT / f"{args.workload}-{args.seed}")

    if args.trace:
        records, values = traced_metrics(ops, args, deadline)
        listed = spec["per_layer"]
    else:
        records, values = untraced_metrics(ops, args, deadline)
        values["setup_s"] = setup_seconds(args.workload, args.seed)
        listed = spec["end_to_end"]

    failed = sum(s != "ok" for s, _ in records)
    wrong = sum(s in ("wrong", "error") for s, _ in records)
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"error_rate = {failed / len(records):.6g} "
          f"({failed} failed of {len(records)} attempted, n = {len(records)} ops)")
    print(json.dumps({"correct": wrong == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
