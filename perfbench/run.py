"""longeq benchmark: a closed loop with one client over the CLI and package API.

Usage (from the repository root):

    python3 perfbench/run.py --workload frt_build --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Every operation is an in-process call to ``longeq.cli.main(argv)`` on an
input file written during set-up, or a package API call where the CLI has
no command. Each output is checked against ``expected/<workload>.json``.
The last line of standard output is the result object; the lines before
it give each metric by name with its unit, and the environment.

``--trace 0`` reports the end-to-end metrics of a timed run. ``--trace 1``
runs a fixed list of operations once untraced and once with spans around
the public functions of every longeq module, and reports per-layer self
times, call counts and exact counts (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_SAMPLES = 3  # this process plus two fresh ones
HARD_STOP_S = 120.0  # a run ends here even below its minimum round count
CALIBRATION_REF_S = 0.0025  # reference speed: calibrate() takes 2.5 ms

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def pin_blas():
    """At most nproc, and at most two, BLAS threads; must run before numpy loads."""
    threads = str(max(1, min(2, nproc())))
    for var in BLAS_ENV:
        os.environ[var] = threads
    return int(threads)


def environment(blas_threads):
    import hashlib

    import numpy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older numpy has no dict mode
        pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "longeq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    commit = "unknown"  # a source checkout without git history still has src_sha256
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": blas_threads, "nproc": nproc(),
            "commit": commit, "src_sha256": src.hexdigest()}


def percentile_tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup(wl_cls, seed, workdir):
    """Build the workload, write the inputs of its prepared rounds, warm up."""
    wl = wl_cls(workdir)
    ids = wl.rounds(seed, wl_cls.prepared_rounds)
    ops = {}
    for i in (i for r in ids for i in r):
        if i not in ops:
            ops[i] = wl.make_op(i)
    wl.warm_up()
    return [[ops[i] for i in r] for r in ids]


def calibrate():
    """Seconds taken by a fixed pure-Python exact-arithmetic task.

    Shared hosts change speed by a quarter within seconds, and exact
    arithmetic like longeq's follows the same drift as this task, so times
    are reported at the reference speed at which it takes
    ``CALIBRATION_REF_S``.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 700):
        acc += Fraction(1, i)
    return time.perf_counter() - start


def reference_scale(calibrations):
    """Factor taking a time measured among these calibrations to reference speed.

    The median keeps one calibration caught by a pause from rescaling an
    operation.
    """
    return CALIBRATION_REF_S / statistics.median(calibrations)


class Meter:
    """Runs operations, checks their outputs, and times them at reference speed."""

    WINDOW = 4  # calibrations on each side of an operation that set its scale

    def __init__(self, expected, wl_mod):
        self.expected, self.wl = expected, wl_mod
        self.cals = [calibrate()]  # operation i ran between cals[i] and cals[i + 1]
        self.raw, self.records, self.failed = [], [], 0

    def run(self, op):
        try:
            elapsed, code, text = op.run()
            rec = self.wl.observe(op, code, text)
            ok = self.wl.matches(self.expected.get(op.id), rec)
        except Exception as exc:  # keep measuring; the failure is counted
            print(f"operation {op.id} raised {exc!r}", file=sys.stderr)
            elapsed, rec, ok = 0.0, None, False
        if not ok:
            self.failed += 1
            print(f"operation {op.id}: output differs from expected", file=sys.stderr)
        self.raw.append(elapsed)
        self.records.append(rec)
        self.cals.append(calibrate())

    def scaled(self):
        """Operation times at reference speed."""
        w = self.WINDOW
        return [t * reference_scale(self.cals[max(0, i + 1 - w):i + 1 + w])
                for i, t in enumerate(self.raw)]


def timed_run(seconds, wl_cls, rounds, meter):
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` have run."""
    started = time.perf_counter()
    r = 0
    while True:
        for op in rounds[r % len(rounds)]:
            meter.run(op)
        r += 1
        wall = time.perf_counter() - started
        if wall >= HARD_STOP_S or (wall >= seconds and r >= wl_cls.min_rounds):
            return r, wall


def traced_run(wl_cls, rounds, expected, wl_mod):
    """The first ``trace_rounds`` rounds: untraced, traced, untraced again.

    The first pass pays the first-call costs, so the overhead ratio
    compares the traced pass with the last one.
    """
    import tracing

    ops = [op for r in rounds[:wl_cls.trace_rounds] for op in r]
    first, traced, plain = (Meter(expected, wl_mod) for _ in range(3))
    for op in ops:
        first.run(op)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in ops:
            tracer.op_id = op.id
            traced.run(op)
    finally:
        left = tracer.remove()
    for op in ops:
        plain.run(op)
    for name in left:
        print(f"wrapper not removed: {name}", file=sys.stderr)
    differ = sum(len({json.dumps(r, sort_keys=True) for r in recs}) > 1
                 for recs in zip(first.records, traced.records, plain.records))
    if differ:
        print(f"{differ} outputs differ between traced and untraced passes", file=sys.stderr)
    oracle = max((rec.get("oracle_distance", 0.0) for rec in traced.records if rec),
                 default=0.0)
    metrics = layer_metrics(tracer, oracle)
    metrics["trace.overhead_ratio"] = (sum(traced.scaled()) / sum(plain.scaled()), "ratio")
    failed = max(m.failed for m in (first, traced, plain)) + differ
    return metrics, len(ops), failed, not left


def layer_metrics(tracer, oracle):
    import tracing

    totals = tracer.layer_totals()
    out = {}
    for short, names in tracing.TARGETS.items():
        for name in names:
            calls, self_s = totals.get(f"{short}.{name}", (0, 0.0))
            out[f"{short}.{name}.self_s"] = (self_s, "s")
            if f"{short}.{name}" in tracing.COUNTED:
                out[f"{short}.{name}.calls"] = (calls, "count")
    cap = tracer.captured
    hits = sum(result is not None for _, result in cap["tensor_ops.long_witness"])
    out["tensor_ops.long_witness.hit_ratio"] = (
        hits / len(cap["tensor_ops.long_witness"]) if cap["tensor_ops.long_witness"] else 0.0,
        "ratio")
    pres = [result for _, result in cap["frt.build_LR"]]
    out["frt.generators"] = (sum(p.num_generators for p in pres), "count")
    out["frt.relation_rows"] = (sum(len(p.quotient.rows) for p in pres), "count")
    out["frt.max_coeff_bits"] = (max(
        (max(x.numerator.bit_length(), x.denominator.bit_length())
         for p in pres for row in p.quotient.rows for x in row), default=0), "bits")
    steps = 0
    for (_, loop), _ in cap["kz.integrate_holonomy"]:
        steps += loop.segments * max(1, -(-loop.steps // loop.segments))
    out["kz.rk4_steps"] = (steps, "count")
    live = 0
    for args, _ in cap["kz.connection_matrix"]:
        loop, t = args[1], args[2]
        v = loop.velocities(t, args[3] if len(args) > 3 else None)
        moving = sum(1 for x in v if x != 0)
        live += loop.N * (loop.N - 1) - (loop.N - moving) * (loop.N - moving - 1)
    out["kz.live_pair_terms"] = (live, "count")
    out["kz.oracle_distance_max"] = (oracle, "1")
    return out


def probe_setup(args):
    """Set-up times of fresh processes, measured inside each."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--setup-probe"],
            capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("set-up probe failed")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_all(args):
    """Run every workload in its own process and print each metric."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": {f"{w}.{k}": v for w, res in results.items()
                    for k, v in res["metrics"].items()},
    }))
    return 0


def emit(metrics, attempted, failed, correct, info):
    """Print each metric with its unit, the run facts, then the result line."""
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="frt_build, long_screen, kz_holonomy, bialgebra_axioms or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "longeq", "__init__.py")):
        print(f"longeq sources not found under {SRC}", file=sys.stderr)
        return 2
    blas_threads = pin_blas()
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    cal_before = [calibrate() for _ in range(3)]
    setup_start = time.perf_counter()
    import workloads

    wl_cls = workloads.WORKLOADS.get(args.workload)
    if wl_cls is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        rounds = setup(wl_cls, args.seed, workdir)
        setup_raw = time.perf_counter() - setup_start
        cal_after = [calibrate() for _ in range(3)]
        timing = {"setup_s": setup_raw * reference_scale(cal_before + cal_after),
                  "setup_raw_s": setup_raw}
        if args.setup_probe:
            print(json.dumps(timing))
            return 0
        expected = workloads.load_expected(args.workload)
        info = {"workload": args.workload, "seed": args.seed,
                "env": environment(blas_threads)}
        if args.trace:
            metrics, attempted, failed, restored = traced_run(
                wl_cls, rounds, expected, workloads)
            info["trace_rounds"] = wl_cls.trace_rounds
            emit(metrics, attempted, failed, restored, info)
            return 0
        setups = [timing] + probe_setup(args)
        meter = Meter(expected, workloads)
        nrounds, wall = timed_run(args.seconds, wl_cls, rounds, meter)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def summary(latencies, setup_key):
        tail, tail_pct = percentile_tail(latencies)
        return {
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1e3 * tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(s[setup_key] for s in setups), "s"),
        }, tail_pct

    metrics, tail_pct = summary(meter.scaled(), "setup_s")
    raw, _ = summary(meter.raw, "setup_raw_s")
    attempted = len(meter.raw)
    info.update({
        "fail_ratio": meter.failed / attempted, "samples": attempted,
        "op_tail_percentile": tail_pct, "rounds": nrounds, "wall_s": wall,
        "busy_raw_s": sum(meter.raw), "setup_samples": setups,
        "unscaled": {k: v for k, (v, _) in raw.items() if k != "peak_rss_mb"},
    })
    print(f"fail_ratio = {meter.failed / attempted:.6g} 1")
    emit(metrics, attempted, meter.failed, True, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
