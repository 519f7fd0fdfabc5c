"""What the benchmark reports: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this file by
``python3 perfbench/run.py --write-spec``; the smoke test checks the two
agree.
"""

from __future__ import annotations

from tracing import COUNTS, LAYERS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 28

# one line each; README.md says which layer metric should move which
# end-to-end metric on each workload
WORKLOADS = {
    "broadcast": "CLI broadcast on named and random states: discord search is most "
    "of the work, SDP the rest; broadcast.discord.* should move ops_per_s and op_s.p50 here",
    "fidelity-sdp": "direct f_max/f_eb calls on random 2x2..3x3 states: all SDP, no "
    "discord; sdp.solve.* and sdp.fidelity_sdp move ops_per_s, op_s.p50 and peak_rss_mb",
    "recover": "CLI recover on GHZ, Markov chains and random tripartite states: few large "
    "SDPs (m~650); sdp.solve.* and recovery.* move ops_per_s and op_s.p50",
}

# (name, unit, better, bound as a share of the parent's median)
# The shared host slows runs by up to 40% for minutes at a time; after the
# calibration in worker.py, ten seeds still spread (IQR over median) by up
# to 0.15 on 2-core 2.1 GHz VMs, so every bound is the largest allowed.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_s.p50", "s", "lower", 0.25),
    ("cpu_s_per_op", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)


def per_layer() -> list:
    """(name, unit, better) of every traced metric."""
    out = []
    for name, _, _ in LAYERS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_frac", "frac", "lower"))
    out += [(name, "count", "lower") for name in COUNTS]
    out += [
        ("sdp.solve.s_per_iter", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
        ("trace.unaccounted_frac", "frac", "lower"),
    ]
    return out


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in per_layer()
        ],
    }


def units(trace: bool) -> dict:
    if trace:
        return {n: u for n, u, _ in per_layer()}
    return {n: u for n, u, _, _ in END_TO_END}
