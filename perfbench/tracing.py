"""Instrumentation applied from outside the library.

The library's modules import each other's functions by name
(``from .sdp import solve``), so a function has one binding per consumer
module.  ``Patches`` rebinds every binding inside the package and puts the
originals back afterwards; the library's source is never touched.

Two layers of wrappers use it:

* capture wrappers, installed in every run, hand each SDP solve and each
  entanglement-breaking detail to the correctness gate;
* span wrappers, installed only for the traced pass, record
  ``[name, start, end, parent]`` per call in memory, plus counts.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "qbroadcast"
OP = "op"  # root span around one operation

# (metric prefix, module, attribute); "Class.method" patches the class
LAYERS = (
    ("cli.main", "cli", "main"),
    ("states.DensityMatrix", "states", "DensityMatrix.__post_init__"),
    ("info.entropy", "info", "entropy"),
    ("info.mutual_information", "info", "mutual_information"),
    ("info.conditional_mutual_information", "info", "conditional_mutual_information"),
    ("info.fidelity", "info", "fidelity"),
    ("classicality.classify", "classicality", "classify"),
    ("frames.build_ic_povm", "frames", "build_ic_povm"),
    ("channels.choi_subsystem_action", "channels", "choi_subsystem_action"),
    ("channels.project_to_nearest_channel", "channels", "project_to_nearest_channel"),
    ("channels.apply_on_subsystem", "channels", "apply_on_subsystem"),
    ("sdp.SdpBuilder.build", "sdp", "SdpBuilder.build"),
    ("sdp.fidelity_sdp", "sdp", "fidelity_sdp"),
    ("sdp.solve", "sdp", "solve"),
    ("recovery.petz_recovery_map", "recovery", "petz_recovery_map"),
    ("recovery.petz_recovery_fidelity", "recovery", "petz_recovery_fidelity"),
    ("recovery.optimal_recovery_fidelity", "recovery", "optimal_recovery_fidelity"),
    ("broadcast.discord", "broadcast", "discord"),
    ("broadcast.f_max_broadcast", "broadcast", "f_max_broadcast"),
    ("broadcast.f_eb_detailed", "broadcast", "f_eb_detailed"),
    ("broadcast.broadcast_report", "broadcast", "broadcast_report"),
)

# counts recorded at layer boundaries besides calls
COUNTS = (
    "sdp.solve.iterations",
    "sdp.solve.constraints",
    "sdp.solve.max_constraints",
    "sdp.solve.not_optimal",
    "sdp.audit.calls",
    "sdp.audit.failed",
    "broadcast.discord.restarts",
    "broadcast.discord.line_searches",
    "broadcast.discord.not_converged",
)


class Patches:
    """Rebind library functions everywhere they are bound; undo restores them."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make):
        original = getattr(module, name)
        wrapper = functools.wraps(original)(make(original))
        for mod in list(sys.modules.values()):
            if (
                getattr(mod, "__name__", "").split(".")[0] == PACKAGE
                and mod.__dict__.get(name) is original
            ):
                self._undo.append((mod, name, original))
                setattr(mod, name, wrapper)

    def method(self, owner, name, make):
        original = owner.__dict__[name]
        self._undo.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make(original)))

    def undo(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def install_capture(lib, capture) -> Patches:
    """Hand every solve and entanglement-breaking detail to ``capture``."""
    patches = Patches()

    def solve(original):
        def wrapper(problem, *args, **kwargs):
            solution = original(problem, *args, **kwargs)
            tol = kwargs.get("tol", args[0] if args else lib.sdp.DEFAULT_TOL)
            capture.solves.append((problem, solution, tol))
            return solution

        return wrapper

    def eb_detailed(original):
        def wrapper(*args, **kwargs):
            detail = original(*args, **kwargs)
            capture.eb_details.append(detail)
            return detail

        return wrapper

    patches.function(lib.sdp, "solve", solve)
    patches.function(lib.broadcast, "f_eb_detailed", eb_detailed)
    return patches


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(result, args)`` counts."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if after is not None:
                after(out, args)
            return out

        return wrapper

    def install(self, lib) -> Patches:
        patches = Patches()
        counts = self.counts

        def after_solve(solution, args):
            m = args[0].n_constraints
            counts["sdp.solve.iterations"] += solution.iterations
            counts["sdp.solve.constraints"] += m
            counts["sdp.solve.max_constraints"] = max(
                counts["sdp.solve.max_constraints"], m
            )
            counts["sdp.solve.not_optimal"] += solution.status != "optimal"

        def after_discord(result, args):
            counts["broadcast.discord.restarts"] += result.restarts
            counts["broadcast.discord.not_converged"] += not result.converged

        def after_audit(verdict, args):
            counts["sdp.audit.calls"] += 1
            counts["sdp.audit.failed"] += not verdict[0]

        def after_line_search(result, args):
            counts["broadcast.discord.line_searches"] += 1

        hooks = {"sdp.solve": after_solve, "broadcast.discord": after_discord}
        for name, module, attr in LAYERS:
            owner = getattr(lib, module)
            make = functools.partial(self.wrap, name, after=hooks.get(name))
            if "." in attr:
                cls, method = attr.split(".")
                patches.method(getattr(owner, cls), method, make)
            else:
                patches.function(owner, attr, make)
        # the gate's audits and discord's line searches are counted, not timed
        patches.function(lib.sdp, "audit", lambda f: _counted(f, after_audit))
        patches.function(
            lib.broadcast, "minimize_scalar", lambda f: _counted(f, after_line_search)
        )
        return patches

    def layer_metrics(self) -> dict:
        """Calls and self-time shares per layer, from the recorded spans.

        Self time is a span's duration minus the time its direct children
        cover; op time no layer span covers is the unaccounted remainder,
        so the shares plus ``trace.unaccounted_frac`` sum to one.
        """
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        calls, self_s = Counter(), Counter()
        wall = unaccounted = 0.0
        for (name, start, end, _), covered in zip(self.spans, children):
            if name == OP:
                wall += end - start
                unaccounted += end - start - covered
            else:
                calls[name] += 1
                self_s[name] += end - start - covered
        out = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_frac"] = self_s[name] / wall
        for name in COUNTS:
            out[name] = self.counts[name]
        iterations = self.counts["sdp.solve.iterations"]
        out["sdp.solve.s_per_iter"] = self_s["sdp.solve"] / max(iterations, 1)
        out["trace.wall_s"] = wall
        out["trace.unaccounted_frac"] = unaccounted / wall
        return out


def _counted(fn, after):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        after(out, args)
        return out

    return wrapper
