"""Desk benchmark for the uception engine.

    python3 perfbench/run.py --workload train_uception --seed 1 --seconds 15 --trace 0

Runs one workload in this process under a closed loop (one caller; the
next step or volume starts only when the previous one has finished) for
--seconds of measured time, checks every output, and prints the
end-to-end metrics (--trace 0) or the per-layer metrics from an
outside-in span trace (--trace 1). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 1 when any check failed and 2 when the engine's source is
missing. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3  # set-ups per untraced run; setup_s reports their median
SETUP_LAYER_METRICS = ("phantom.generate_s", "models.checkpoint_load_s")  # per set-up


def git_revision():
    """HEAD of the checkout, read from .git without starting a process."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_revision": git_revision(),
        "seed": seed,
    }


def run_ops(workload, seconds, tracer=None, install=None, reference=None):
    """Closed loop until ``seconds`` of operation time have passed; checks
    and the reference kernel run between operations, outside the timed
    window. With a tracer, every
    second operation is traced: ``install()`` wraps the layers before it and
    ``tracer.restore()`` unwraps them after, so traced and untraced
    operations interleave, and at least one is traced. Returns (untraced
    durations, traced durations, failures, problems)."""
    plain, traced, failures, problems = [], [], 0, []
    i = 0
    while sum(plain) + sum(traced) < seconds or (tracer is not None and not traced):
        on = tracer is not None and i % 2 == 1
        if on:
            install()
            tracer.op = i
            root = tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            out, error = workload.op(i), None
        except Exception as exc:  # an operation that raises counts as failed
            out, error = None, exc
            traceback.print_exc()
        (traced if on else plain).append(time.perf_counter() - t0)
        if on:
            tracer.close(root)
            tracer.restore()
        found = [f"operation {i} raised {error!r}"] if error else workload.check_op(i, out)
        if reference is not None:
            reference.sample()
        if found:
            failures += 1
            problems += found
        i += 1
    return plain, traced, failures, problems


def end_to_end_run(name, seed, seconds, import_s):
    from reference import REFERENCE_S, Reference
    from workloads import WORKLOADS

    reference = Reference()
    setup_times = []
    for _ in range(SETUPS):
        reference.sample()
        t0 = time.perf_counter()
        workload = WORKLOADS[name](seed)
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    durations, _, failed, problems = run_ops(workload, seconds, reference=reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = reference.scale()
    print(f"{name} reference kernel median {REFERENCE_S / scale:.6g} s; times below are "
          f"scaled by {scale:.6g} to a {REFERENCE_S} s reference. Unscaled: setup "
          f"{import_s + statistics.median(setup_times):.6g} s, operation p50 "
          f"{statistics.median(durations):.6g} s over {len(durations)} operations")
    end_to_end = {
        "setup_s": (scale * (import_s + statistics.median(setup_times)), "s"),
        "op_p50_s": (scale * statistics.median(durations), "s"),
        "voxels_per_s": (workload.voxels_per_op * len(durations) / sum(durations) / scale,
                         "voxel/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return workload, end_to_end, len(durations), failed, problems


def per_layer_run(name, seed, seconds):
    import spans
    from workloads import WORKLOADS

    tracer = spans.Tracer()
    spans.trace_modules(tracer)
    try:
        workload = WORKLOADS[name](seed)
        workload.setup()
    finally:
        tracer.restore()
    values = {k: v for k, v in spans.layer_values(tracer, 1).items()
              if k in SETUP_LAYER_METRICS}
    tracer.reset()

    def install():
        spans.trace_modules(tracer)
        for model in workload.models:
            spans.trace_model(tracer, model)

    plain, durations, failed, problems = run_ops(workload, seconds, tracer, install)
    values.update(spans.layer_values(tracer, len(durations)))
    values["trace.op_s"] = statistics.fmean(durations)
    values["trace_overhead_frac"] = statistics.median(durations) / statistics.median(plain) - 1
    print_shares(name, values)
    metrics = {k: (values.get(k, 0.0), unit) for k, unit in spans.layer_metric_units().items()}
    return workload, metrics, len(plain) + len(durations), failed, problems


def print_shares(name, values):
    """Largest self-time shares of one traced operation."""
    op_s = values["trace.op_s"]
    rows = sorted(((v / op_s, k) for k, v in values.items()
                   if (k.endswith(".s") or k.endswith("_s")) and not k.startswith("trace.")
                   and k not in SETUP_LAYER_METRICS),
                  reverse=True)
    print(f"{name}: self-time share of a traced operation ({op_s:.4f} s)")
    for share, key in rows[:12]:
        print(f"  {share:6.1%}  {key}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_uception", "segment_uception", "train_unet3d"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "uception", "__init__.py")):
        print(f"engine source not found under {src}", file=sys.stderr)
        return 2
    # BLAS threads must be pinned before numpy loads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import uception  # noqa: F401  (timed: import is part of set-up)
    import_s = time.perf_counter() - t0

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    if args.trace:
        workload, metrics, attempted, failed, problems = per_layer_run(
            args.workload, args.seed, args.seconds)
    else:
        workload, metrics, attempted, failed, problems = end_to_end_run(
            args.workload, args.seed, args.seconds, import_s)
    final = workload.final_checks()  # counted as one more operation
    attempted += 1
    failed += bool(final)
    problems += final
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} {value:.6g} {unit}")
    print(f"{args.workload} error_rate {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
