"""Command line front end: state files, measurements, optimizations, demos.

State files are JSON objects {"dims": [...], "matrix": [[[re, im], ...],
...], "label": "..."} with the matrix row-major over the full space and
every entry a [real, imaginary] pair.  Reports serialize numeric fields
with 12 significant digits, so a rerun with the same inputs and seed
reproduces the JSON output byte for byte; wall time therefore appears
only in the table rendering.

Exit codes: 0 success, 1 computation or demo-suite failure, 2 invalid
input (malformed files, non-states, unknown names, bad flags, a state of
the wrong shape for the command).  Only ``InputError`` and argparse errors
exit 2; the library raises ``linalg.InputError`` where each shape rule
lives, so no rule is restated here.  Any other ``ValueError`` raised inside
a computation is a failed computation and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
import time

import numpy as np

from .broadcast import DEFAULT_RESTARTS, broadcast_report, f_max_broadcast
from .channels import apply_on_subsystem
from .classicality import (
    basis_broadcaster,
    classify,
    verify_broadcast,
    verify_local_broadcast,
)
from .corpus import (
    classical_classical_state,
    classical_on_b_state,
    markov_chain_state,
    named_state,
    random_probabilities,
    random_state,
    random_unitary,
    werner_state,
)
from .info import (
    conditional_mutual_information,
    entropy,
    fidelity,
    mutual_information,
)
from .linalg import InputError, dag, hermitian_eig
from .recovery import recovery_report
from .sdp import (DEFAULT_MAX_ITERS, DEFAULT_TOL, fidelity_slack,
                  solution_diagnostics)
from .states import DensityMatrix

_PART_LETTERS = "ABCDEFGH"

# ---------------------------------------------------------------------------
# state files


def parse_state_json(obj, origin: str = "state") -> DensityMatrix:
    """Build a density matrix from a decoded state file, or explain why not.

    Every rejection names the violated requirement and, for the physical
    invariants, the offending magnitude.
    """
    if not isinstance(obj, dict):
        raise InputError(f"{origin}: top level must be a JSON object")
    if "dims" not in obj or "matrix" not in obj:
        missing = [k for k in ("dims", "matrix") if k not in obj]
        raise InputError(f"{origin}: missing required key(s) {missing}")
    dims = obj["dims"]
    if (
        not isinstance(dims, list)
        or not dims
        or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 1
            for d in dims
        )
    ):
        raise InputError(
            f"{origin}: dims must be a nonempty list of positive integers, "
            f"got {dims!r}"
        )
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError(f"{origin}: label must be a string")
    side = math.prod(dims)  # exact: np.prod would wrap past int64
    rows = obj["matrix"]
    if not isinstance(rows, list) or len(rows) != side:
        raise InputError(
            f"{origin}: matrix must have {side} rows for dims {dims}, "
            f"got {len(rows) if isinstance(rows, list) else type(rows).__name__}"
        )
    mat = np.zeros((side, side), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != side:
            raise InputError(f"{origin}: matrix row {i} must have {side} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in entry
                )
            ):
                raise InputError(
                    f"{origin}: entry ({i}, {j}) must be a [re, im] pair of "
                    f"numbers, got {entry!r}"
                )
            try:
                re, im = float(entry[0]), float(entry[1])
            except OverflowError:  # an integer too large for a float
                re = im = math.inf
            if not (np.isfinite(re) and np.isfinite(im)):
                raise InputError(f"{origin}: entry ({i}, {j}) is not finite")
            mat[i, j] = re + 1j * im
    try:
        return DensityMatrix(tuple(dims), mat, label=label or "")
    except ValueError as exc:
        raise InputError(f"{origin}: {exc}") from exc


def load_state_file(path: str) -> DensityMatrix:
    try:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})") from exc
    return parse_state_json(obj, origin=path)


def state_to_json(rho: DensityMatrix, label: str | None = None) -> dict:
    """Full-precision state-file dict; round-trips exactly through JSON."""
    out = {
        "dims": [int(d) for d in rho.dims],
        "matrix": [
            [[float(v.real), float(v.imag)] for v in row] for row in rho.matrix
        ],
    }
    name = label if label is not None else rho.label
    if name:
        out["label"] = name
    return out


def state_digest(rho: DensityMatrix) -> str:
    """SHA-256 of the canonical serialization (dims and matrix only)."""
    body = state_to_json(rho)
    body.pop("label", None)
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# reports


def round_floats(obj):
    """12-significant-digit copy of a report tree; non-finite become text."""
    if isinstance(obj, (int, str)) or obj is None:  # bool is an int
        return obj
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return str(x)
        return float(f"{x:.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), val, rows)
    elif isinstance(obj, list) and not all(
        isinstance(v, (dict, list)) for v in obj
    ):
        rows.append((prefix, "[" + ", ".join(str(v) for v in obj) + "]"))
    elif isinstance(obj, list):
        for idx, val in enumerate(obj):
            _flatten(f"{prefix}[{idx}]", val, rows)
    else:
        rows.append((prefix, str(obj)))


def render_table(report: dict, wall_seconds: float) -> str:
    rows: list = []
    _flatten("", report, rows)
    rows.append(("wall_time_seconds", f"{wall_seconds:.3f}"))
    width = max(len(key) for key, _ in rows)
    return "\n".join(f"{key.ljust(width)}  {val}" for key, val in rows)


def emit(report: dict, args, wall_seconds: float) -> None:
    if args.output == "json":
        print(json.dumps(round_floats(report), sort_keys=True, indent=2))
    else:
        print(render_table(round_floats(report), wall_seconds))


# ---------------------------------------------------------------------------
# inputs shared by the compute commands


def _resolve_state(args, second: bool = False):
    """State plus its report stanza from --input/--gen (or the 2-suffixed pair)."""
    path = getattr(args, "input2", None) if second else args.input
    spec = getattr(args, "gen2", None) if second else args.gen
    which = "second state" if second else "state"
    if path and spec:
        raise InputError(f"{which}: give a file or a generator name, not both")
    if path:
        rho = load_state_file(path)
        label = rho.label or path
    elif spec:
        rho = named_state(spec)
        label = spec
    else:
        flags = "--input2/--gen2" if second else "--input/-i or --gen"
        raise InputError(f"no {which} given: use {flags}")
    stanza = {
        "digest": state_digest(rho),
        "dims": [int(d) for d in rho.dims],
        "label": label,
    }
    return rho, stanza


def _parse_parts(text: str, n: int, expected: int):
    """Split "A|C|B"-style subsystem groups into index tuples.

    Letters A.. and digits both address subsystems; groups must be
    disjoint and in range.  ``expected`` fixes the number of groups.
    """
    groups = []
    seen: set = set()
    for chunk in text.split("|"):
        indices = []
        for ch in chunk.replace(",", " ").split():
            token = ch.strip().upper()
            for sym in token:
                if sym in _PART_LETTERS:
                    idx = _PART_LETTERS.index(sym)
                elif sym.isdigit():
                    idx = int(sym)
                else:
                    raise InputError(f"parts: cannot read subsystem {sym!r}")
                indices.append(idx)
        if not indices:
            raise InputError(f"parts: empty group in {text!r}")
        for idx in indices:
            if idx >= n:
                raise InputError(
                    f"parts: subsystem {idx} out of range for {n} subsystems"
                )
            if idx in seen:
                raise InputError(f"parts: subsystem {idx} listed twice")
            seen.add(idx)
        groups.append(tuple(indices))
    if len(groups) != expected:
        raise InputError(
            f"parts: expected {expected} groups separated by '|', "
            f"got {len(groups)} in {text!r}"
        )
    return groups


# ---------------------------------------------------------------------------
# commands


def cmd_measure(args):
    unread = ("parts",) if args.quantity == "fidelity" else ("input2", "gen2")
    for flag in unread:
        if getattr(args, flag) is not None:
            raise InputError(f"measure {args.quantity} does not read --{flag}")
    rho, stanza = _resolve_state(args)
    n = len(rho.dims)
    quantities: dict = {}
    report = {
        "command": "measure",
        "quantity": args.quantity,
        "input": stanza,
        "quantities": quantities,
    }
    if args.quantity == "entropy":
        if args.parts is not None:
            (group,) = _parse_parts(args.parts, n, expected=1)
            quantities["entropy"] = entropy(rho.marginal(group))
            report["parts"] = args.parts
        else:
            quantities["entropy"] = entropy(rho)
    elif args.quantity == "mutual-info":
        if args.parts is not None:
            side_a, side_b = _parse_parts(args.parts, n, expected=2)
            if sorted(side_a + side_b) != list(range(n)):
                raise InputError("parts: the two groups must cover all subsystems")
            report["parts"] = args.parts
        else:
            side_a = (0,)
        quantities["mutual_information"] = mutual_information(rho, side_a)
    elif args.quantity == "cmi":
        if args.parts is not None:
            side_a, side_c, side_b = _parse_parts(args.parts, n, expected=3)
            report["parts"] = args.parts
        elif n < 3:
            raise InputError(
                f"measure cmi needs 3 subsystems or --parts, got dims {rho.dims}"
            )
        else:
            side_a, side_c, side_b = (0,), (2,), None
        quantities["conditional_mutual_information"] = (
            conditional_mutual_information(rho, side_a, side_c, side_b)
        )
    elif args.quantity == "fidelity":
        sigma, stanza2 = _resolve_state(args, second=True)
        report["input2"] = stanza2
        quantities["fidelity"] = fidelity(rho, sigma)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown quantity {args.quantity!r}")
    return report, 0


def _recovery_quantities(rep) -> dict:
    return {
        "cmi": rep.cmi,
        "petz_fidelity": rep.petz_fidelity,
        "optimal_fidelity": rep.optimal_fidelity,
        "fidelity_bound": rep.bound,
        "sigma_recovery_residual": rep.sigma_recovery_residual,
    }


def cmd_broadcast(args):
    rho, stanza = _resolve_state(args)
    rep = broadcast_report(rho, seed=args.seed, restarts=args.restarts,
                           tol=args.tolerance, max_iters=args.sdp_max_iters)
    report = {
        "command": "broadcast",
        "input": stanza,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "quantities": {
            "f_max": rep.f_max,
            "f_eb": rep.f_eb,
            "f_eb_lower": rep.f_eb_lower,
            "eb_exact": rep.eb_exact,
            "discord": {
                "value": rep.discord.value,
                "classical_mi": rep.discord.classical_mi,
                "restarts": rep.discord.restarts,
                "converged": rep.discord.converged,
            },
            "discord_bound_eb": rep.discord_bound_eb,
            "discord_bound_max": rep.discord_bound_max,
            "classicality": {
                "classical_on_a": rep.exact.classical_on_a,
                "classical_on_b": rep.exact.classical_on_b,
                "witness_a": rep.exact.witness_a,
                "witness_b": rep.exact.witness_b,
            },
        },
        "diagnostics": {
            "f_max": solution_diagnostics(rep.f_max_solution),
            "f_eb": solution_diagnostics(rep.f_eb_solution),
        },
    }
    return report, 0


def cmd_recover(args):
    rho, stanza = _resolve_state(args)
    rep = recovery_report(rho, tol=args.tolerance, max_iters=args.sdp_max_iters)
    report = {
        "command": "recover",
        "input": stanza,
        "tolerance": args.tolerance,
        "quantities": _recovery_quantities(rep),
        "diagnostics": solution_diagnostics(rep.optimal_solution),
    }
    return report, 0


def cmd_gen(args):
    if not args.gen:
        raise InputError("gen needs --gen <name> (bell, ghz, cc, cq, "
                         "werner:p, random:seed)")
    rho = named_state(args.gen)
    print(json.dumps(state_to_json(rho, label=args.gen), sort_keys=True, indent=2))
    return None, 0


# ---------------------------------------------------------------------------
# demo suites


def _case(name: str, passed: bool, values: dict) -> dict:
    return {"name": name, "passed": bool(passed), "values": values}


@contextlib.contextmanager
def _naming_case(name: str):
    """Prefix the case name to a RuntimeError (a report's broken chain, a
    failed solve) raised inside the block."""
    try:
        yield
    except RuntimeError as exc:
        raise RuntimeError(f"case {name}: {exc}") from exc


def _eigenbasis(mat: np.ndarray) -> np.ndarray:
    return hermitian_eig(mat).vectors


def _suite_no_broadcast(args) -> list:
    """Pairs of single-system states: commuting pairs are broadcast exactly.

    A non-commuting case passes when the best of four hand-picked
    measure-and-reprepare channels (in either state's eigenbasis, the
    computational basis or the eigenbasis of their mean) misses; that
    shows those four fail, not that every channel does.
    """
    rng = np.random.default_rng(args.seed)
    cases = []
    for d in (2, 3):
        basis = random_unitary(d, rng)
        pair = [
            DensityMatrix(
                (d,), basis @ np.diag(random_probabilities(d, rng)) @ dag(basis)
            )
            for _ in range(2)
        ]
        ch = basis_broadcaster(basis)
        residual = max(max(verify_broadcast(rho, ch)) for rho in pair)
        cases.append(
            _case(
                f"commuting-pair-d{d}",
                residual < 1e-9,
                {"residual": residual, "threshold": 1e-9},
            )
        )
    plus = np.full((2, 2), 0.5, dtype=complex)
    zero = np.diag([1.0, 0.0]).astype(complex)
    noncommuting = [
        ("zero-vs-plus", [DensityMatrix((2,), zero), DensityMatrix((2,), plus)]),
        ("random-pair", [random_state(2, rng), random_state(2, rng)]),
    ]
    for name, pair in noncommuting:
        candidates = [
            basis_broadcaster(_eigenbasis(pair[0].matrix)),
            basis_broadcaster(_eigenbasis(pair[1].matrix)),
            basis_broadcaster(np.eye(2, dtype=complex)),
            basis_broadcaster(
                _eigenbasis((pair[0].matrix + pair[1].matrix) / 2)
            ),
        ]
        best = min(
            max(max(verify_broadcast(rho, ch)) for rho in pair)
            for ch in candidates
        )
        cases.append(
            _case(
                f"non-commuting-{name}",
                best > 1e-3,
                {"best_residual": best, "threshold": 1e-3},
            )
        )
    return cases


def _suite_no_local_broadcast(args) -> list:
    """Two-sided broadcasting: exact for CC states, lossy otherwise.

    A lossy case tests one strategy, copying each side in the eigenbasis
    of its marginal, and passes when that loses mutual information; it
    does not test every pair of local channels.
    """
    rng = np.random.default_rng(args.seed)
    cases = []
    cc = classical_classical_state(2, 2, rng)
    verdict = classify(cc)
    ch_a = basis_broadcaster(verdict.basis_a)
    ch_b = basis_broadcaster(verdict.basis_b)
    residual = max(verify_local_broadcast(cc, ch_a, ch_b))
    out = apply_on_subsystem(ch_a, cc, 0)
    out = apply_on_subsystem(ch_b, out, 2)
    mi = mutual_information(cc)
    mi_drift = max(
        abs(mutual_information(out.marginal([a, b]), (0,)) - mi)
        for a, b in ((0, 2), (1, 3))
    )
    cases.append(
        _case(
            "cc-exact",
            residual < 1e-9 and mi_drift < 1e-8,
            {"residual": residual, "mi_drift": mi_drift, "threshold": 1e-9},
        )
    )
    lossy = [
        ("bell", named_state("bell")),
        ("werner-0.7", werner_state(0.7)),
        ("cq", classical_on_b_state(2, 2, rng)),
    ]
    for name, rho in lossy:
        ch_a = basis_broadcaster(_eigenbasis(rho.marginal((0,)).matrix))
        ch_b = basis_broadcaster(_eigenbasis(rho.marginal((1,)).matrix))
        out = apply_on_subsystem(ch_a, rho, 0)
        out = apply_on_subsystem(ch_b, out, 2)
        mi = mutual_information(rho)
        deficit = mi - max(
            mutual_information(out.marginal([a, b]), (0,))
            for a, b in ((0, 2), (1, 3))
        )
        cases.append(
            _case(
                f"lossy-{name}",
                deficit > 1e-3,
                {"mi": mi, "mi_deficit": deficit, "threshold": 1e-3},
            )
        )
    return cases


def _suite_no_unilocal_broadcast(args) -> list:
    """One-sided broadcast fidelity: 1 iff classical on the broadcast side."""
    rng = np.random.default_rng(args.seed)
    cases = []
    classical = [
        ("cc", classical_classical_state(2, 2, rng)),
        ("cq", classical_on_b_state(2, 2, rng)),
    ]
    for name, rho in classical:
        value, _ = f_max_broadcast(rho, args.tolerance, args.sdp_max_iters)
        cases.append(
            _case(
                f"classical-{name}",
                abs(value - 1.0) <= fidelity_slack(args.tolerance),
                {"f_max": value, "gap_from_one": abs(value - 1.0)},
            )
        )
    quantum = [("bell", named_state("bell")), ("werner-0.7", werner_state(0.7))]
    for name, rho in quantum:
        value, _ = f_max_broadcast(rho, args.tolerance, args.sdp_max_iters)
        cases.append(
            _case(
                f"non-classical-{name}",
                value <= 1.0 - 1e-3,
                {"f_max": value, "threshold": 1.0 - 1e-3},
            )
        )
    return cases


def _suite_recoverability(args) -> list:
    """Petz and optimal recovery against the conditional-mutual-information bound."""
    rng = np.random.default_rng(args.seed)
    cases = []
    states = [
        ("markov-product", markov_chain_state("product-right", (2, 2, 2), rng)),
        ("markov-classical-b", markov_chain_state("classical-b", (2, 2, 2), rng)),
        ("ghz", named_state("ghz")),
        ("random", random_state((2, 2, 2), rng)),
    ]
    for name, rho in states:
        with _naming_case(name):
            rep = recovery_report(rho, tol=args.tolerance,
                                  max_iters=args.sdp_max_iters)
        ok = rep.sigma_recovery_residual < 1e-8
        if name.startswith("markov"):
            ok = ok and abs(rep.optimal_fidelity - 1) <= fidelity_slack(args.tolerance)
        cases.append(_case(name, ok, _recovery_quantities(rep)))
    return cases


def _suite_discord_bounds(args) -> list:
    """Discord against the fidelity bounds -2 log2 F on corpus states."""
    rng = np.random.default_rng(args.seed)
    cases = []
    states = [
        ("bell", named_state("bell")),
        ("cc", classical_classical_state(2, 2, rng)),
        ("werner-0.7", werner_state(0.7)),
        ("random", random_state((2, 2), rng)),
    ]
    for name, rho in states:
        with _naming_case(name):
            rep = broadcast_report(rho, seed=args.seed, restarts=args.restarts,
                                   tol=args.tolerance,
                                   max_iters=args.sdp_max_iters)
        values = {
            "discord": rep.discord.value,
            "f_eb": rep.f_eb,
            "f_max": rep.f_max,
            "discord_bound_eb": rep.discord_bound_eb,
        }
        cases.append(_case(name, True, values))
    return cases


SUITES = {
    "no-broadcast": _suite_no_broadcast,
    "no-local-broadcast": _suite_no_local_broadcast,
    "no-unilocal-broadcast": _suite_no_unilocal_broadcast,
    "recoverability": _suite_recoverability,
    "discord-bounds": _suite_discord_bounds,
}


def cmd_demo(args):
    if args.suite not in SUITES:
        raise InputError(
            f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}"
        )
    cases = SUITES[args.suite](args)
    passed = all(case["passed"] for case in cases)
    report = {
        "command": "demo",
        "suite": args.suite,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "cases": cases,
        "passed": passed,
    }
    return report, 0 if passed else 1


def render_demo_table(report: dict, wall_seconds: float) -> str:
    lines = [f"suite {report['suite']}  (seed {report['seed']})"]
    for case in report["cases"]:
        status = "PASS" if case["passed"] else "FAIL"
        detail = "  ".join(f"{k}={v}" for k, v in case["values"].items())
        lines.append(f"{status}  {case['name']:<28} {detail}")
    n_fail = sum(not case["passed"] for case in report["cases"])
    lines.append(
        f"{len(report['cases']) - n_fail} passed, {n_fail} failed "
        f"in {wall_seconds:.3f}s"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parser and entry point


def _positive(kind):
    """argparse type: a finite ``kind`` above zero (so an int is >= 1)."""

    def parse(text):
        value = kind(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"must be finite and positive, got {text!r}"
            )
        return value

    parse.__name__ = kind.__name__
    return parse


def _seed(text):
    """argparse type: a non-negative int, as numpy's generators require."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Each command declares exactly the flags its handler reads."""
    parser = argparse.ArgumentParser(
        prog="qbroadcast",
        description="Broadcastability, discord and recoverability of "
        "finite-dimensional quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gen_help = "built-in state: bell, ghz, cc, cq, werner:p, random:seed"

    def command(name, handler, help, output=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if output:
            p.add_argument("--output", choices=("table", "json"),
                           default="table",
                           help="report format (default %(default)s)")
        return p

    def state_flags(p):
        p.add_argument("-i", "--input", help="state file (JSON)")
        p.add_argument("--gen", help=gen_help + " (instead of a file)")

    def solver_flags(p, search: bool):
        p.add_argument("--tolerance", type=_positive(float), default=DEFAULT_TOL,
                       help="solver tolerance; the inequality chains and "
                       "demo checks allow 10x it (default %(default)g)")
        p.add_argument("--sdp-max-iters", type=_positive(int),
                       default=DEFAULT_MAX_ITERS,
                       help="SDP iteration cap (default %(default)s)")
        if search:
            p.add_argument("--seed", type=_seed, default=0,
                           help="seed for every randomized step (default 0)")
            p.add_argument("--restarts", type=_positive(int),
                           default=DEFAULT_RESTARTS,
                           help="discord search restarts (default %(default)s)")

    p = command("measure", cmd_measure, "entropic quantities and fidelity")
    p.add_argument(
        "quantity", choices=("entropy", "mutual-info", "cmi", "fidelity")
    )
    p.add_argument(
        "--parts",
        help="subsystem groups, e.g. 'A|B' for mutual-info or 'A|C|B' for "
        "I(A:C|B); letters or indices",
    )
    state_flags(p)
    p.add_argument("--input2", help="second state file")
    p.add_argument("--gen2", help="built-in second state")

    p = command("broadcast", cmd_broadcast,
                "broadcast fidelities, discord and bounds")
    state_flags(p)
    solver_flags(p, search=True)

    p = command("recover", cmd_recover,
                "Petz and optimal recovery of a tripartite state")
    state_flags(p)
    solver_flags(p, search=False)

    p = command("demo", cmd_demo, "self-checking demonstration suites")
    p.add_argument("suite", help="one of: " + ", ".join(sorted(SUITES)))
    solver_flags(p, search=True)

    p = command("gen", cmd_gen, "write a built-in state file to stdout",
                output=False)
    p.add_argument("--gen", help=gen_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        report, code = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: computation failed: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - start
    if report is not None:
        if args.command == "demo" and args.output == "table":
            print(render_demo_table(round_floats(report), wall))
        else:
            emit(report, args, wall)
    return code


if __name__ == "__main__":
    sys.exit(main())
