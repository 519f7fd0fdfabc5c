"""Benchmark entry point.

    python3 perfbench/run.py --workload broadcast --seed 1 --seconds 28 --trace 0

Runs from the root of a source checkout and measures the library under
``src/`` there.  Each workload runs in a child process (``worker.py``)
with BLAS pinned to one thread; the child is a closed-loop client with
one operation in flight.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced pass.  The environment record
and any gate failures go to standard error.

``--write-spec`` regenerates ``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

SETUP_PROBES = 2  # extra children that only set up, for a median setup_s
DEADLINE_S = 175.0  # a run must end within three minutes
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildError(Exception):
    pass


def child(args, workdir: Path, deadline: float, setup_only: bool):
    """Run worker.py once; return (setup seconds, its JSON result or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **PINNED, "PYTHONPATH": str(ROOT / "src")}
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildError("worker ran past the run deadline")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise ChildError(f"worker exited with code {proc.returncode}")
    setup = float(lines[0].split()[1]) - start
    return setup, None if setup_only else json.loads(lines[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run only the first N ops of a pass")
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)

    if args.write_spec:
        text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if not (ROOT / "src" / "qbroadcast").is_dir():
        print(f"error: no library source at {ROOT / 'src' / 'qbroadcast'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            setups = [
                child(args, Path(tmp), deadline, setup_only=True)[0]
                for _ in range(0 if args.trace else SETUP_PROBES)
            ]
            setup, result = child(args, Path(tmp), deadline, setup_only=False)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    record = {
        **result["env"],
        "git_commit": git_commit(),
        "threads_at_end": result["threads"],
        "passes": result["metrics"].pop("passes", None),
        "speed": result["speed"],
        "fail_frac": result["failed"] / result["attempted"],
        "failures": result["failures"],
    }
    print("run: " + json.dumps(record, sort_keys=True), file=sys.stderr)

    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups) * result["speed"]
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in spec.units(bool(args.trace)).items()
    }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
