"""Compute ``reference.json``: the value the library certifies for every pool state.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/freeze.py [WORKLOAD ...]

Run once, at the commit that defines the benchmark; later commits are
gated against these values.  Every op must pass the gate's own checks
(optimal solves, passing audits, the inequality chain) or nothing is
written.  Per-op wall times go to standard error.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import load_library  # noqa: E402


def main(names) -> int:
    lib = load_library()
    capture = workloads.Capture()
    tracing.install_capture(lib, capture)
    frozen, failures = {}, []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as tmp:
        for workload in names:
            table = frozen.setdefault(workload, {})
            for kind in workloads.WORKLOADS[workload]:
                for index in range(kind.pool):
                    dims, mat = kind.state(index)
                    path = Path(tmp) / f"{kind.name}-{index}.json"
                    workloads.write_state(path, dims, mat)
                    op = workloads.Op(workload, kind, index, path)
                    if workload == "fidelity-sdp":
                        op.rho = lib.cli.load_state_file(str(path))
                    capture.clear()
                    start = perf_counter()
                    raw = op.run(lib)
                    wall = perf_counter() - start
                    got = workloads.values(op, raw, capture)
                    reasons = workloads.check(
                        op, raw, capture, {op.key: got}, lib.sdp.audit
                    )
                    iters = sum(s.iterations for _, s, _ in capture.solves)
                    print(f"{workload} {op.key} {wall:.3f}s iterations={iters} "
                          f"{reasons or 'ok'}", file=sys.stderr, flush=True)
                    failures += [f"{workload} {op.key}: {r}" for r in reasons]
                    table[op.key] = got
    if failures:
        print("not written; failed ops:\n" + "\n".join(failures), file=sys.stderr)
        return 1
    merged = (
        json.loads(workloads.REFERENCE_FILE.read_text())
        if workloads.REFERENCE_FILE.exists()
        else {}
    )
    merged.update(frozen)
    workloads.REFERENCE_FILE.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(workloads.WORKLOADS)))
