"""Benchmark for toricdual: seeded workloads, checked outputs, one JSON line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload selfdual-mixed --seed 1 --seconds 22 --trace 0

The program is imported from ``src/``; nothing is installed.  A run sets up
(package import plus input generation, timed in fresh interpreters), then
repeats whole rounds of the workload's operations until ``--seconds`` have
passed, checks every output with the benchmark's own exact arithmetic, and
prints the metrics as the last line of standard output.  ``--trace 1`` runs
the same rounds with every layer function wrapped and reports per-layer
figures instead; its spans are written to ``.perfbench_out/``.
"""

import argparse
import bisect
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import checks
import exact
import workloads
from tracer import Tracer, merge_summaries

SETUP_REPEATS = 5
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Timings are CPU seconds of the process doing the work (this one, or a
# child for the CLI and set-up), since on a shared VM wall time also counts
# the time the hypervisor runs other guests.  CPU speed itself drifts by
# 10-30% over seconds to minutes, so a fixed calibration kernel (exact
# integer elimination, written here) runs between operations, and every
# timing is scaled by CAL_REF_S over the median of the calibration samples
# nearest to it in time: figures read as CPU seconds at a calibration time of
# CAL_REF_S (about the kernel's median on a 2-vCPU VM with Python 3.11.7).
# The program cannot change the kernel's speed.
CAL_REF_S = 0.00125
CAL_EVERY_S = 0.1
CAL_NEAREST = 7
# every operation's median rests on at least this many samples
MIN_ROUNDS = 3


def cpu_now():
    """CPU seconds used so far by this process and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime

END_TO_END = {
    "setup_s": "s",
    "selfdual_s": "s",
    "selfdual_p50_ms": "ms",
    "cli_check_ms": "ms",
    "gale_s": "s",
    "bigint_selfdual_s": "s",
    "strong_s": "s",
    "facial_s": "s",
    "smooth_s": "s",
    "crosscheck_s": "s",
}
# group of operations whose summed time per round is each "_s" metric
ROUND_SUMS = {
    "selfdual_s": "selfdual",
    "gale_s": "gale",
    "bigint_selfdual_s": "bigint_selfdual",
    "strong_s": "strong",
    "facial_s": "facial",
    "smooth_s": "smooth",
    "crosscheck_s": "crosscheck",
}
PER_LAYER_CALLS = (
    "intlinalg.rational_rank",
    "intlinalg.in_row_span",
    "configuration.parse_configuration",
    "intlinalg.smith_normal_form",
    "intlinalg.hermite_normal_form",
    "intlinalg.row_hermite",
    "intlinalg.integer_kernel",
    "configuration.affine_relation_kernel",
    "gale.gale_dual",
    "ratlp.feasible_nonneg",
)
PER_LAYER_SELF = (
    "intlinalg.rational_rank",
    "configuration.parse_configuration",
    "intlinalg.smith_normal_form",
    "configuration.normalize_lattice",
    "configuration.dedup",
    "configuration.pyramid_decompose",
    "intlinalg.hermite_normal_form",
    "intlinalg.row_hermite",
    "intlinalg.integer_kernel",
    "ratlp.feasible_nonneg",
    "ratlp.solve_linear",
    "gale.line_partition",
    "gale.is_facial",
    "engine.is_self_dual",
    "engine.is_strongly_self_dual",
    "engine.smooth_certificate",
    "oracle.enumerate_flats",
    "oracle.enumerate_circuits",
    "oracle.self_dual_via_sigma",
    "cli.read_matrix",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_program():
    """Import toricdual from the checkout's ``src/``; exit 2 if it is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "toricdual", "__init__.py")):
        print(f"error: no toricdual package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(1, src)
    import toricdual

    return toricdual


def make_context(td, trace):
    workdir = os.path.join(OUT_DIR, "work")
    os.makedirs(workdir, exist_ok=True)
    return workloads.Context(td, ROOT, workdir, checks.Expected(), [] if trace else None)


class Calibration:
    """Calibration samples (time, duration) and the scaling they imply."""

    def __init__(self):
        rng = random.Random("calibration")
        self._matrix = [[rng.randint(-60, 60) for _ in range(12)] for _ in range(12)]
        self.at, self.took = [], []

    def sample(self):
        gc.disable()
        try:
            at = time.perf_counter()
            t0 = time.process_time()
            exact.det(self._matrix)
            exact.rank(self._matrix)
            t1 = time.process_time()
        finally:
            gc.enable()
        self.at.append(at)
        self.took.append(t1 - t0)

    def scale(self, t):
        """Factor for a timing taken at ``t``: CAL_REF_S over the median of
        the CAL_NEAREST calibration samples nearest in time."""
        i = bisect.bisect(self.at, t)
        lo = max(0, min(i - CAL_NEAREST // 2, len(self.at) - CAL_NEAREST))
        return CAL_REF_S / statistics.median(self.took[lo:lo + CAL_NEAREST])


def measure_setup(args, cal):
    """Median scaled CPU time of fresh interpreters that import and build inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    runs = []
    for _ in range(SETUP_REPEATS):
        for _ in range(CAL_NEAREST // 2 + 1):
            cal.sample()
        at, c0 = time.perf_counter(), cpu_now()
        subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        runs.append((at, cpu_now() - c0))
    for _ in range(CAL_NEAREST // 2 + 1):
        cal.sample()
    return statistics.median(dt * cal.scale(t0) for t0, dt in runs)


def import_time(env):
    """CPU time of a fresh interpreter that only imports toricdual.cli."""
    cmd = [sys.executable, "-c", "import toricdual.cli"]
    c0 = cpu_now()
    subprocess.run(cmd, check=True, env=env, timeout=120)
    return cpu_now() - c0


def run_rounds(ops, seconds, cal, tracer=None, between_rounds=None):
    """Repeat whole rounds until ``seconds`` have passed (and at least
    MIN_ROUNDS rounds have run).

    Returns ({op: [(start, CPU seconds)]}, rounds, attempted, failed, failed
    checks); a calibration sample runs before an operation whenever
    CAL_EVERY_S have passed since the last one.
    """
    from time import perf_counter

    samples = {op: [] for op in ops}
    rounds, attempted, failed, bad = 0, 0, 0, []
    start = perf_counter()
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        for k, op in enumerate(ops):
            if not cal.at or perf_counter() - cal.at[-1] >= CAL_EVERY_S:
                cal.sample()
            if tracer is not None:
                tracer.op_id = attempted
            attempted += 1
            at, c0 = perf_counter(), cpu_now()
            try:
                out = op.call()
            except Exception as exc:  # counted, reported, and the run goes on
                failed += 1
                if rounds == 0:
                    print(f"op {k} ({op.group}) failed: {type(exc).__name__}: {str(exc)[:120]}",
                          file=sys.stderr)
                continue
            samples[op].append((at, cpu_now() - c0))
            if tracer is not None:
                tracer.active = False
            ok = op.check(out)
            if tracer is not None:
                tracer.active = True
            if not ok:
                bad.append(f"round {rounds} op {k} ({op.group}): output failed its check")
        rounds += 1
        if between_rounds is not None:
            between_rounds()
    for _ in range(CAL_NEAREST // 2 + 1):
        cal.sample()
    return samples, rounds, attempted, failed, bad


def end_to_end(samples, setup_s, cal):
    """Each ``_s`` metric sums, over its operations, the median scaled
    duration of the operation, so a slow stretch of the machine moves one
    sample of an operation rather than the whole figure."""
    med = statistics.median
    scaled = {op: [dt * cal.scale(t0) for t0, dt in runs] for op, runs in samples.items()}
    per_op = {}
    for op, times in scaled.items():
        if op.group is not None and times:
            per_op.setdefault(op.group, []).append(med(times))
    metrics = {"setup_s": setup_s}
    for name, group in ROUND_SUMS.items():
        metrics[name] = sum(per_op[group])
    metrics["selfdual_p50_ms"] = 1000 * med(per_op["selfdual"])
    metrics["cli_check_ms"] = 1000 * med(t for op, times in scaled.items() if op.group == "cli" for t in times)
    return metrics


def per_layer(summary, maxima, rounds, attempted, import_times):
    n = rounds
    get = lambda name: summary.get(name, [0, 0.0, 0.0])  # noqa: E731
    metrics = {}
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = (get(name)[0] / n, "count")
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_s"] = (get(name)[2] / n, "s")
    metrics["gale.gale_dual.calls_per_op"] = (get("gale.gale_dual")[0] / attempted, "calls/op")
    metrics["gale.max_bits"] = (maxima.get("gale.max_bits", 0), "bits")
    metrics["configuration.reduced_max_bits"] = (maxima.get("configuration.reduced_max_bits", 0), "bits")
    metrics["cli.import_s"] = (statistics.median(import_times), "s")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    td = load_program()
    if args.setup_probe:
        workloads.build_round(make_context(td, False), args.workload, args.seed)
        return 0
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the run and its subprocesses, so calibration and
        # timed work see the same core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cal = Calibration()
    setup_s = measure_setup(args, cal)
    ctx = make_context(td, args.trace)
    ops = workloads.build_round(ctx, args.workload, args.seed)
    bad = [f"self-test: {msg}" for msg in checks.self_test(td)]
    tracer = None
    import_times = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    samples, rounds, attempted, failed, bad_ops = run_rounds(
        ops, args.seconds, cal, tracer, (lambda: import_times.append(import_time(ctx.env))) if args.trace else None)
    wall = time.perf_counter() - t0
    bad += bad_ops
    with open(os.path.join(OUT_DIR, f"samples-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "rounds": rounds, "calibration": [cal.at, cal.took],
                   "ops": [[op.group, runs] for op, runs in samples.items()]}, fh)
    for msg in bad[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"ops/round={len(ops)} round_s={wall / rounds:.4f} wall_s={wall:.2f}")

    if tracer is None:
        values = {k: (v, END_TO_END[k]) for k, v in end_to_end(samples, setup_s, cal).items()}
    else:
        tracer.uninstall()
        summary = tracer.summary()
        maxima = dict(tracer.maxima)
        for child in ctx.child_summaries:
            merge_summaries(summary, child["summary"])
            for k, v in child["maxima"].items():
                maxima[k] = max(maxima.get(k, 0), v)
        values = per_layer(summary, maxima, rounds, attempted, import_times)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                           "cli_summaries": ctx.child_summaries})
        print(f"# spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
