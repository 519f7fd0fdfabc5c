"""One benchmark child process: set up a workload, run it, print the result.

Started by ``run.py`` with BLAS pinned to one thread.  Prints ``ready``
once its inputs exist, then (unless ``--setup-only``) one JSON line with
the run's figures.  The child is a closed-loop client: one operation in
flight, the next one starting when the previous one returns.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import types
from pathlib import Path
from time import monotonic, perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("cli", "states", "info", "classicality", "frames", "channels",
           "sdp", "recovery", "broadcast")
RUN_CAP_S = 150.0  # stay inside the three minutes one run may take
CAL_LOOPS = 300_000
CAL_NOMINAL_S = 0.030  # the loop's time on a quiet 2-core 2.1 GHz VM
# Over ten runs, log throughput followed log loop speed with slope 0.77 and
# 0.70 (correlation 0.93, 0.95) on these two workloads, but only 0.25 (0.59)
# on recover, whose large dense solves the loop does not represent:
# rescaling there doubled the spread, so recover reports raw times.
CALIBRATED = ("broadcast", "fidelity-sdp")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_library():
    """The library's modules, for looking functions up at call time."""
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"qbroadcast.{m}") for m in MODULES}
    )


def threads() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no Threads line in /proc/self/status")


def environment(lib) -> dict:
    """Where the figures were measured: CPUs, BLAS, threads and versions."""
    import numpy
    import scipy

    def blas(module):
        dep = getattr(module.__config__, "CONFIG", {}).get("Build Dependencies", {})
        info = dep.get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "library": str(Path(lib.cli.__file__).parent),
    }


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's current speed."""
    start = perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i % 7
    return perf_counter() - start


def run_ops(ops, lib, capture, reference, record, wrap=None):
    """Run each op once; append (wall, cpu, calibration, failure reasons).

    The calibration loop runs just before the op, and the gate after the
    op's clock has stopped.
    """
    for op in ops:
        call = op.run if wrap is None else wrap(tracing.OP, op.run)
        capture.clear()
        cal = calibrate()
        wall0, cpu0 = perf_counter(), process_time()
        try:
            raw = call(lib)
        except Exception as exc:  # a raising op is a failed op, not a crash
            raw = exc
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
        reasons = workloads.check(
            op, raw, capture, reference, lambda *a: lib.sdp.audit(*a)
        )
        record.append((wall, cpu, cal, [f"{op.key}: {r}" for r in reasons]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lib = load_library()
    capture = workloads.Capture()
    tracing.install_capture(lib, capture)
    ops = workloads.build_pass(args.workload, args.seed, args.workdir, lib, args.ops)
    n_threads = threads()
    if n_threads > 1:
        print(f"refusing to run: {n_threads} threads after import, "
              "BLAS is not pinned to one thread", file=sys.stderr)
        return 3
    print(f"ready {monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    reference = workloads.load_reference(args.workload)
    run_ops(ops[:1], lib, capture, reference, [])  # warm-up, not counted
    record = []
    if args.trace:
        run_ops(ops, lib, capture, reference, record)
        untraced = sum(wall for wall, *_ in record)
        tracer = tracing.Tracer()
        patches = tracer.install(lib)
        try:
            run_ops(ops, lib, capture, reference, record, tracer.wrap)
        finally:
            patches.undo()
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / untraced - 1.0
        speed = 1.0
    else:
        # whole passes until the op time spent is within half a pass of --seconds
        passes = 0
        while True:
            run_ops(ops, lib, capture, reference, record)
            passes += 1
            spent = sum(wall for wall, *_ in record)
            per_pass = spent / passes
            if spent + per_pass / 2 >= args.seconds or spent + per_pass > RUN_CAP_S:
                break
        # The shared host slows this process by up to 40% for minutes at a
        # time.  Times are rescaled to the speed at which the calibration
        # loop takes CAL_NOMINAL_S, using the run's median calibration.
        speed = CAL_NOMINAL_S / statistics.median(cal for _, _, cal, _ in record)
        if args.workload not in CALIBRATED:
            speed = 1.0
        walls = [wall * speed for wall, *_ in record]
        metrics = {
            "ops_per_s": sum(not reasons for *_, reasons in record) / sum(walls),
            "op_s.p50": statistics.median(walls),
            "cpu_s_per_op": speed * sum(cpu for _, cpu, _, _ in record) / len(record),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "passes": passes,
        }
    failures = [reason for *_, reasons in record for reason in reasons]
    result = {
        "attempted": len(record),
        "failed": sum(bool(reasons) for *_, reasons in record),
        "failures": failures[:20],
        "threads": threads(),
        "env": environment(lib),
        "speed": speed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
