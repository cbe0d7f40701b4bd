"""freespec benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload certify|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports freespec from
``src/`` of that checkout and writes only below it (``.bench_work/`` while
running, ``.bench_out/`` for traced spans).  BLAS threads are pinned to one
before numpy loads.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes on the same inputs and
reports the per-layer metrics plus the tracing overhead.  Every time is
calibrated to a fixed machine speed (``Calibration``).  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it carries the environment and details.  See bench/README.md.
"""

import argparse
import collections
import dataclasses
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

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads, in this process and every child
os.environ.pop("FREESPEC_SEED", None)

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Context, run_op, slot_medians  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HELD_OUT_SEED = 7919  # never used while tuning; confirm claimed gains on it
SETUP_SAMPLES = 10

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("key_op_s", "s"))
CLI_COMMANDS = ("fixture", "membership", "extreme", "dilate", "choi", "dual", "ball", "drop",
                "hull", "chain", "verify-paper")
NAMED = ("classify_boundary_g3_n14_s", "classify_boundary_g4_n10_s", "classify_arveson_n14_s",
         "verify_paper_s")


def per_layer_specs():
    """(name, unit, better) of every metric a ``--trace 1`` run prints."""
    specs = spans.span_metric_specs()
    specs.append(("cli.import_s", "s", "lower"))
    specs += [(f"cli.{command}.s", "s", "lower") for command in CLI_COMMANDS]
    specs += [(name, "s", "lower") for name in NAMED]
    specs += [("failed_frac", "ratio", "lower"), ("trace.overhead_s", "s", "lower"),
              ("trace.spans", "count", "lower")]
    return specs


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


class Calibration:
    """A fixed numpy kernel timed before every untraced op, to measure the
    machine's speed during the run.

    The kernel is the two kinds of work freespec's ops are made of: one SVD
    of a 400 x 200 real matrix (the large LAPACK calls of ``classify``) and
    2000 ``eigvalsh`` of a 4 x 4 Hermitian one (the per-call overhead of the
    sphere scans and the CLI commands), on matrices drawn from seed 0:
    the same work in every run and checkout, and none of it freespec's.
    A factor ``REFERENCE_S / median kernel time`` scales times to a machine
    on which the kernel takes ``REFERENCE_S``: each pass's op times by the
    factor of the kernel runs between its ops, times measured outside the
    passes by the factor of the whole run.  A slow spell of the machine
    stretches the kernel as it stretches the ops and cancels out.
    """

    REFERENCE_S = 0.030

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.normal(size=(400, 200))
        H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        self.hermitian = H + H.conj().T
        self.passes = []  # kernel times, one list per calibrated pass
        for _ in range(3):  # warm-up: LAPACK workspaces, first-call costs
            self.kernel()

    def kernel(self):
        start = time.perf_counter()
        np.linalg.svd(self.matrix, full_matrices=False)
        for _ in range(2000):
            np.linalg.eigvalsh(self.hermitian)
        return time.perf_counter() - start

    def factor(self, samples=None):
        """The factor of ``samples``, by default of every kernel run so far."""
        if samples is None:
            samples = [t for ticks in self.passes for t in ticks]
        return self.REFERENCE_S / statistics.median(samples)

    def scaled(self, passes):
        """Copies of the calibrated ``passes``, each op's time scaled by its pass's factor."""
        return [[dataclasses.replace(r, seconds=r.seconds * self.factor(ticks)) for r in results]
                for results, ticks in zip(passes, self.passes, strict=True)]

    def detail(self):
        return {"reference_s": self.REFERENCE_S, "run_factor": self.factor(),
                "pass_factors": [self.factor(ticks) for ticks in self.passes],
                "kernel_runs": sum(len(ticks) for ticks in self.passes)}


def run_pass(ops, tracer=None, calibration=None):
    """Run the ops in order; with a calibration, time its kernel before each."""
    results, ticks = [], []
    for op_id, op in enumerate(ops):
        if calibration is not None:
            ticks.append(calibration.kernel())
        if tracer is not None:
            tracer.op = op_id
        results.append(run_op(op, tracer))
    if calibration is not None:
        calibration.passes.append(ticks)
    return results


def calibrated(values, specs, calibration):
    """Every time in ``values`` (unit ``s``) scaled by the whole run's factor."""
    factor = calibration.factor()
    return {name: values[name] * factor if unit == "s" else values[name] for name, unit in specs}


def op_seconds(results):
    return sum(r.seconds for r in results)


def typical_pass_seconds(passes):
    return sum(slot_medians(passes, lambda r: r.seconds))


def fresh_setup_seconds(workload):
    """Process start to ready of one fresh process running the set-up code."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", workload.setup_code], env=workload.ctx.env,
                          cwd=workload.ctx.workdir, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.split()[-1]) - start


class Deadline:
    """Start another pass only if a typical pass still fits in the budget."""

    def __init__(self, seconds):
        self.seconds, self.start, self.durations = seconds, time.perf_counter(), []

    def another(self, pass_started):
        now = time.perf_counter()
        self.durations.append(now - pass_started)
        return now - self.start + statistics.median(self.durations) <= self.seconds


def measure(workload, seconds):
    """End-to-end metrics, tracing off."""
    fresh_setup_seconds(workload)  # compiles the bytecode of a fresh checkout
    workload.prepare()
    calibration = Calibration()
    passes, setups, deadline = [], [], Deadline(seconds)
    while True:
        # Set-up samples are spread over the run, two before each pass, so
        # they meet the same machine states as the passes do.
        setups += [fresh_setup_seconds(workload) for _ in range(min(2, SETUP_SAMPLES - len(setups)))]
        ops = workload.ops(len(passes))
        started = time.perf_counter()
        passes.append(run_pass(ops, calibration=calibration))
        if not deadline.another(started):
            break
    setups += [fresh_setup_seconds(workload) for _ in range(SETUP_SAMPLES - len(setups))]
    scaled = calibration.scaled(passes)
    metrics = end_to_end(workload, scaled, [t * calibration.factor() for t in setups])
    times = [r.seconds for p in scaled for r in p]
    typical = slot_medians(scaled, lambda r: r.seconds)
    detail = {"passes": len(passes), "op_samples": len(times),
              "op_p90_s": statistics.quantiles(times, n=10)[8],
              "slot_seconds": {f"{k}:{r.kind}": t for k, (r, t) in enumerate(zip(passes[0], typical))},
              "named": workload.named(scaled), "calibration": calibration.detail(),
              "unscaled": end_to_end(workload, passes, setups), "setup_samples": setups,
              "op_seconds": [[r.seconds for r in p] for p in passes]}
    return metrics, [r for p in passes for r in p], detail


def end_to_end(workload, passes, setups):
    typical = slot_medians(passes, lambda r: r.seconds)
    return {"setup_s": statistics.median(setups), "wall_s": sum(typical),
            "op_p50_s": statistics.median(r.seconds for p in passes for r in p),
            "key_op_s": workload.key_op(passes)}


def measure_traced(workload, seconds, spans_path):
    """Per-layer metrics.  Each round runs the pass untraced as ``measure``
    does, for cli once more untraced in-process, then traced in-process on
    the same inputs; the traced passes give the layer numbers."""
    import_s = 0.0
    if workload.name == "cli":
        fresh_setup_seconds(workload)
        import_s = statistics.median(fresh_setup_seconds(workload) for _ in range(3))
    workload.prepare()
    calibration = Calibration()
    rows, plain_passes, traced_passes, counts = [], [], [], []
    inline_passes = [] if workload.name == "cli" else plain_passes
    deadline = Deadline(seconds)
    while True:
        index = len(plain_passes)
        started = time.perf_counter()
        plain_passes.append(run_pass(workload.ops(index), calibration=calibration))
        if inline_passes is not plain_passes:
            inline_passes.append(run_pass(workload.ops(index, inline=True)))
        ops = workload.ops(index, inline=True)
        tracer = spans.Tracer()
        with tracer.installed():
            traced_passes.append(run_pass(ops, tracer))
        rows.append(spans.layer_metrics(tracer))
        counts.append(len(tracer))
        if not deadline.another(started):
            break
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)

    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    metrics["cli.import_s"] = import_s
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.s"] = statistics.median(
            op_seconds([r for r in plain if r.kind == command]) for plain in plain_passes)
    named = workload.named(plain_passes)
    for name in NAMED:
        metrics[name] = named.get(name, 0.0)
    every = plain_passes + traced_passes
    if inline_passes is not plain_passes:
        every += inline_passes
    results = [r for p in every for r in p]
    metrics["failed_frac"] = sum(r.failed for r in results) / len(results)
    untraced, traced = typical_pass_seconds(inline_passes), typical_pass_seconds(traced_passes)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.spans"] = statistics.median(counts)
    detail = {"rounds": len(rows), "spans_file": os.path.relpath(spans_path, ROOT),
              "untraced_wall_s": untraced, "traced_wall_s": traced,
              "calibration": calibration.detail()}
    specs = [(name, unit) for name, unit, _ in per_layer_specs()]
    return calibrated(metrics, specs, calibration), results, detail


def git_commit(root):
    """HEAD of the checkout's git metadata, when it has any."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = "unavailable"
    return {"commit": git_commit(ROOT), "seed": seed, "held_out_seed": HELD_OUT_SEED,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "freespec", "__init__.py")):
        print(f"bench: no freespec sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        workload = WORKLOADS[args.workload](Context(ROOT, workdir, args.seed))
        if args.trace:
            spans_path = os.path.join(ROOT, ".bench_out",
                                      f"spans-{args.workload}-seed{args.seed}.json.gz")
            values, results, detail = measure_traced(workload, args.seconds, spans_path)
            specs = [(name, unit) for name, unit, _ in per_layer_specs()]
        else:
            values, results, detail = measure(workload, args.seconds)
            specs = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r.failed for r in results)
    failures = collections.Counter(f"{r.kind}: {r.reason}" for r in results if r.failed)
    detail.update(workload=args.workload, trace=args.trace, environment=environment(args.seed),
                  failed_frac=failed / len(results), failures=failures,
                  max_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps({"detail": detail}, default=float))
    print(json.dumps({"correct": all(r.correct for r in results), "attempted": len(results),
                      "failed": failed,
                      "metrics": {name: {"value": float(values[name]), "unit": unit}
                                  for name, unit in specs}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
