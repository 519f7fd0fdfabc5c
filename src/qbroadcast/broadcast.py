"""Approximate broadcasting: optimal fidelities, discord, and MI loss.

Three quantifiers of how well one side of a bipartite state can be
copied:

* ``f_max_broadcast`` — best fidelity between the state and either output
  of a symmetric one-to-two channel on B, computed as an SDP over the
  channel's Choi matrix.
* ``f_eb`` — the same question restricted to entanglement-breaking
  channels, imposed as positivity of the partially transposed Choi
  (exact for a qubit B side, a relaxation above that).
  ``f_eb_detailed`` brackets it from below with the fidelity of an
  explicit entanglement-breaking channel.  For a qubit B that is the PPT
  optimum itself, made a channel with a positive definite partial
  transpose: on 2 (x) 2, PPT implies separable, and a separable Choi
  matrix is an entanglement-breaking channel, so no further SDP runs.
  Above that it is the one that alternating measure-and-prepare SDPs
  end at.
* ``discord`` — mutual information lost by the best measurement on one
  side, found by multi-start conjugate-gradient ascent of the measured
  mutual information over rank-one POVMs.

The three obey f_max >= f_eb and discord >= -2 log2 f_eb, which
``broadcast_report`` assembles into one record that checks them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .channels import (
    Channel,
    ChoiTerm,
    apply_on_subsystem,
    entanglement_breaking,
    project_to_nearest_channel,
)
from .classicality import ClassicalityVerdict, classify
from .frames import build_ic_povm, conditional_states, renormalized_povm
from .info import (_clamp_dust, entropy, entropy_of_spectrum, fidelity,
                   mutual_information)
from .linalg import (
    InputError,
    dag,
    hermitian_eig,
    kron,
    matrix_function_on_support,
    nearest_psd,
    require_subsystems,
    support_isometry,
    support_mask,
    support_projector,
)
from .sdp import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    SdpBuilder,
    SdpSolution,
    _basis_tiles,
    add_channel,
    certified_fidelity,
    check_chain,
    hermitian_basis,
    recording,
)
from .states import DensityMatrix, Povm, PureState

MAX_BROADCAST_DIM = 4
DEFAULT_RESTARTS = 32
CONVERGENCE_WINDOW = 1e-6
SWEEP_GAIN_FLOOR = 1e-10
STATIONARY_GRAD = 1e-6
MAX_STEPS = 200
MEASURE_PREPARE_ROUNDS = 2


@dataclass(frozen=True)
class DiscordResult:
    """Outcome of the measured-mutual-information maximization."""

    value: float
    best_povm: Povm
    classical_mi: float
    restarts: int
    converged: bool
    grad_norm: float
    verdict: ClassicalityVerdict  # of the state with the measured side second


@dataclass(frozen=True)
class EbDetail:
    """Entanglement-breaking fidelity with its certification status.

    ``value`` is the PPT optimum, ``lower_bound`` the fidelity of an
    explicit entanglement-breaking channel (for every B dimension), and
    ``eb_exact`` says that ``value`` is the EB optimum itself (a qubit B
    side, where the channel behind ``lower_bound`` is the PPT optimum's
    own).
    """

    value: float
    lower_bound: float
    eb_exact: bool


@dataclass(frozen=True, eq=False)
class BroadcastReport:
    """All broadcastability quantifiers of one state, side B.

    The discord bounds are -2 log2 of the ``f_eb`` and ``f_max`` solves'
    dual objectives.  Those sit on the high side of each optimum, where
    the primal values sit low, so the bounds stay on the low side of the
    discord.  ``f_max_solution`` and ``f_eb_solution`` are those solves,
    run at ``tol``.  Building a report checks f_max >= f_eb >= f_eb_lower
    and f_eb >= 2^(-D/2) within ``fidelity_slack(tol)`` and raises
    RuntimeError naming the first broken link.
    """

    f_max: float
    f_eb: float
    f_eb_lower: float
    discord_bound_eb: float
    discord_bound_max: float
    discord: DiscordResult
    exact: ClassicalityVerdict
    eb_exact: bool
    f_max_solution: SdpSolution
    f_eb_solution: SdpSolution
    tol: float

    def __post_init__(self):
        check_chain("broadcast", (
            ("f_max >= f_eb", self.f_max, self.f_eb),
            ("f_eb >= f_eb_lower", self.f_eb, self.f_eb_lower),
            ("f_eb >= 2^(-D/2)", self.f_eb, 2.0 ** (-self.discord.value / 2.0)),
        ), self.tol)


def _require_dimension_two(rho: DensityMatrix, what: str, factors=(0, 1)):
    """InputError naming ``what`` unless each of ``factors`` of the
    bipartite ``rho`` has dimension at least 2 (a frame or a measurement
    needs that much room)."""
    require_subsystems(rho.dims, 2, what)
    if min(rho.dims[k] for k in factors) < 2:
        names = " and ".join("AB"[k] for k in factors)
        raise InputError(
            f"{what} needs dimension at least 2 on {names}, got dims {rho.dims}"
        )


def _require_broadcast_dim(rho: DensityMatrix):
    """InputError unless B is small enough for the broadcast SDP."""
    if rho.dims[1] > MAX_BROADCAST_DIM:
        raise InputError(
            f"B dimension {rho.dims[1]} too large for the broadcast SDP "
            f"(limit {MAX_BROADCAST_DIM})"
        )


def _swap_sides(rho: DensityMatrix) -> DensityMatrix:
    d0, d1 = rho.dims
    mat = (
        rho.matrix.reshape(d0, d1, d0, d1)
        .transpose(1, 0, 3, 2)
        .reshape(rho.dim, rho.dim)
    )
    return DensityMatrix((d1, d0), mat, rho.label)


# ---------------------------------------------------------------------------
# discord via rank-one POVM ascent


def _classical_mi_stack(rho4, s_keep: float, v_stack: np.ndarray) -> np.ndarray:
    """I(A:B') after measuring side B with rank-one POVMs.

    ``v_stack`` has shape (r, k, d_B): r candidate POVMs, each with k
    outcomes given by rows w (element = outer(conj(w), w)).  Uses
    I = S(A) + H(p) - sum_i S_raw(A_i) with A_i the unnormalized
    conditional states on A, which is smooth through zero-weight outcomes.
    Both entropies are ``entropy_of_spectrum``: each A_i and each candidate's
    outcome weights are cut to their own ``support_mask``.
    """
    r, k, _ = v_stack.shape
    d_a = rho4.shape[0]
    elements = v_stack.conj()[..., :, None] * v_stack[..., None, :]
    pairs = rho4.transpose(0, 2, 3, 1).reshape(d_a * d_a, -1)  # [ac, db]
    cond = (elements.reshape(r * k, -1) @ pairs.T).reshape(r, k, d_a, d_a)
    weights = np.einsum("riaa->ri", cond).real
    spectra = np.linalg.eigvalsh(cond)
    return (s_keep + entropy_of_spectrum(weights)
            - entropy_of_spectrum(spectra).sum(axis=1))


def _ascent_generator(rho4, v: np.ndarray) -> np.ndarray:
    """Anti-Hermitian k x k X along which exp(tX) v raises I(A:B') fastest.

    With conditional states A_i of the rows w_i of ``v`` and p_i = Tr A_i,
    dI = sum_i Tr(dA_i L_i) for L_i = log2(A_i / p_i) on supp(A_i): the
    1/ln 2 terms of the entropy and Shannon parts cancel.  The rows
    G_i = w_i N_i, N_i = sum_ac rho4[a, :, c, :] L_i[c, a], give
    X = (G v^dag - v G^dag) / 2 and d/dt I(exp(tY) v) = 2 Re Tr(Y^dag X)
    at t = 0 for every anti-Hermitian Y.  Each A_i is cut to its own
    ``support_mask``, as the score ``_classical_mi_stack`` cuts it.
    ``v`` may carry leading axes, (r, k, d) for r restarts; each gets
    the X of its own POVM.
    """
    cond = np.einsum("abcd,...id,...ib->...iac", rho4, v.conj(), v)
    vals, vecs = np.linalg.eigh(cond)
    support = support_mask(vals)
    weights = vals.sum(axis=-1, where=support, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(support, np.log2(vals / weights), 0.0)
    cond_logs = np.einsum("...iak,...ik,...ick->...iac", vecs, logs, vecs.conj())
    g = np.einsum("...ib,abcd,...ica->...id", v, rho4, cond_logs)
    gv = g @ dag(v)
    return (gv - dag(gv)) / 2


def _projective_rows(basis: np.ndarray, k: int) -> np.ndarray:
    """Isometry rows for a projective measurement, zero-padded to k."""
    d = basis.shape[0]
    rows = np.zeros((k, d), dtype=complex)
    rows[:d] = basis.T.conj()
    return rows


def _rotate(gvals, gvecs, ts, v):
    """exp(i t G_r) v_r for each lane r at its times ts[r], or at the one
    row of ``ts`` that all lanes share: (r, t, k, d)."""
    phases = np.exp(1j * (ts[:, :, None] * gvals[:, None, :]))
    u = np.einsum("rab,rtb,rcb->rtac", gvecs, phases, gvecs.conj())
    return u @ v[:, None]


@functools.cache
def _coordinate_scan(k: int) -> np.ndarray:
    """exp(i t G) at 17 points t on [-pi, pi] for each off-diagonal
    generator G of ``hermitian_basis(k)``, stacked (17 k (k - 1), k, k).

    The k diagonal units E_jj are left out: exp(i t E_jj) only rephases
    row j of v, which leaves every POVM element as it is.  Built once per
    k and read-only, since every discord call with that k shares it.
    """
    gvals, gvecs = np.linalg.eigh(hermitian_basis(k)[k:])
    ts = np.linspace(-np.pi, np.pi, 17)[None]
    scan = _rotate(gvals, gvecs, ts, np.eye(k)[None]).reshape(-1, k, k)
    scan.flags.writeable = False
    return scan


def minimize_scalar(fun, bounds, method, options):
    """``method(fun, (), bounds=bounds, **options)``: the call that
    ``scipy.optimize.minimize_scalar`` makes of a custom method, so either
    function serves as ``discord``'s line search, looked up by this name."""
    return method(fun, (), bounds=bounds, **options)


def _parabolic_lanes(fun, args, bounds, x0, fvals, xatol, maxiter=500, **_):
    """Successive parabolic minimization of many scalar functions in lockstep.

    A ``minimize_scalar`` method: ``bounds`` is a pair of arrays, one
    bracket (a, b) per lane, with a middle point a < x0 < b, and row i of
    ``fvals`` holds f(a), f(x0), f(b) of lane i.  ``fun(t, lanes, *args)``
    scores the points ``t`` of the lanes at indices ``lanes`` in one call.
    Each iteration scores every running lane at the vertex of the parabola
    through its three points and keeps the best point and its neighbours
    as the next bracket.  A lane whose bracket has not halved in two steps
    takes a golden-section step into its larger side instead, so a far end
    that the parabola never moves cannot stall it.  A lane stops when its
    middle is not its lowest point, when its parabola is flat, or when the
    vertex lies within ``xatol`` of the middle; it ends at its best point.
    """
    t = np.column_stack([bounds[0], x0, bounds[1]])
    f = np.array(fvals, dtype=float)
    halved = [np.inf, np.inf]  # half the bracket width one and two steps ago
    running = f[:, 1] == f.min(axis=1)
    for _ in range(maxiter):
        (a, x, b), (fa, fx, fb) = t.T, f.T
        p, q = (x - a) * (fx - fb), (x - b) * (fx - fa)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = x - ((x - a) * p - (x - b) * q) / (2 * (p - q))
        running &= (p < q) & (np.abs(u - x) >= xatol)
        far = np.where(b - x > x - a, b, a)
        u = np.where(b - a > halved[1], x + (3 - 5 ** 0.5) / 2 * (far - x), u)
        halved = [(b - a) / 2, halved[0]]
        lanes = np.flatnonzero(running)
        if not lanes.size:
            break
        t4 = np.column_stack([t[lanes], u[lanes]])
        f4 = np.column_stack([f[lanes], fun(u[lanes], lanes, *args)])
        order = np.argsort(t4, axis=1)
        t4, f4 = (np.take_along_axis(m, order, axis=1) for m in (t4, f4))
        keep = np.clip(f4.argmin(axis=1), 1, 2)[:, None] + [-1, 0, 1]
        t[lanes], f[lanes] = (np.take_along_axis(m, keep, axis=1) for m in (t4, f4))
    return SimpleNamespace(x=t[:, 1], fun=f[:, 1])


def discord(
    rho: DensityMatrix,
    side: str = "B",
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> DiscordResult:
    """Quantum discord with measurement on the given side ("A" or "B").

    Maximizes I(A:B') over rank-one POVMs with d^2 outcomes, the rows of
    an isometry v, by multi-start Polak-Ribiere ascent of the unitary on v
    along ``_ascent_generator``, one line search per step.  A step that
    gains nothing, or gains less than ``SWEEP_GAIN_FLOOR`` and lands where
    the gradient norm is at most ``STATIONARY_GRAD``, triggers one coarse
    scan along every coordinate generator, which escapes a saddle or ends
    the restart.  The restarts step in lockstep, their points, values,
    gradients and directions held as stacked arrays beside one mask of
    the restarts still live: each step takes one stacked ``eigh`` and one
    stacked score of the coarse line-search grid of every live restart,
    and one stacked gradient of those that moved; scans and Polak-Ribiere
    updates run per restart.  The best coarse point and its two neighbours
    bracket a successive parabolic refinement (``_parabolic_lanes``) to
    1e-7 in t, each iteration of which scores all restarts still refining
    in one call.  A restart's arithmetic does not depend on the others',
    so each ends where it would alone.  Any measurement only bounds
    discord from above, so ``converged`` says the best restart ended in a
    failed scan with ``grad_norm <= STATIONARY_GRAD`` and agrees with the
    runner-up (if any) within ``CONVERGENCE_WINDOW``.  A value below 0 by
    at most ``NEGATIVE_DUST`` is roundoff and reads 0; a lower one raises.
    """
    _require_dimension_two(rho, "discord")
    side = side.upper()
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    work = rho if side == "B" else _swap_sides(rho)
    d_keep, d_meas = work.dims
    k = d_meas * d_meas

    rho4 = work.matrix.reshape(d_keep, d_meas, d_keep, d_meas)
    s_keep = entropy(work.marginal((0,)))
    quantum_mi = mutual_information(work, (0,))

    score = functools.partial(_classical_mi_stack, rho4, s_keep)

    rng = np.random.default_rng(seed)
    starts = []
    marg_basis = hermitian_eig(work.marginal((1,)).matrix).vectors
    starts.append(_projective_rows(marg_basis, k))
    starts.append(_projective_rows(np.eye(d_meas, dtype=complex), k))
    verdict = classify(work)
    if verdict.basis_b is not None:
        starts.append(_projective_rows(verdict.basis_b, k))
    # one row r^dag per rank-one element |r><r| of the d^2-outcome IC POVM
    ic_eigs = map(hermitian_eig, build_ic_povm(d_meas).elements)
    starts.append(np.array([np.sqrt(w[0]) * u[:, 0].conj() for w, u in ic_eigs]))
    while len(starts) < restarts:
        g = rng.normal(size=(k, d_meas)) + 1j * rng.normal(size=(k, d_meas))
        q, _ = np.linalg.qr(g)
        starts.append(q[:, :d_meas])
    starts = starts[:restarts]

    scan = _coordinate_scan(k)
    # the 17 coarse line-search points on [-pi, pi] and one beyond each
    # end, so that the best coarse point has both neighbours scored
    h = np.pi / 8
    grid = np.linspace(-np.pi - h, np.pi + h, 19)

    def line_search(direction, v):
        """Best value and point along each lane's direction from its v."""
        gvals, gvecs = np.linalg.eigh(-1j * direction)
        gvals = gvals / np.abs(gvals).max(axis=1, keepdims=True)
        vals = score(_rotate(gvals, gvecs, grid[None], v).reshape(-1, k, d_meas))
        vals = vals.reshape(len(v), -1)
        pick = 1 + vals[:, 1:-1].argmax(axis=1)
        fvals = -np.take_along_axis(vals, pick[:, None] + [-1, 0, 1], axis=1)

        def refine(t, lanes):
            at = _rotate(gvals[lanes], gvecs[lanes], t[:, None], v[lanes])
            return -score(at[:, 0])

        res = minimize_scalar(
            refine,
            bounds=(grid[pick - 1], grid[pick + 1]),
            method=_parabolic_lanes,
            options={"xatol": 1e-7, "x0": grid[pick], "fvals": fvals},
        )
        return -res.fun, _rotate(gvals, gvecs, res.x[:, None], v)[:, 0]

    # the restarts' state, one lane each, stepped together; a restart
    # leaves ``live`` when its scan fails
    v = np.array(starts)
    best = score(v)
    grad = _ascent_generator(rho4, v)
    direction = grad.copy()
    live = np.ones(len(v), dtype=bool)
    for _ in range(MAX_STEPS):
        if not live.any():
            break
        old, gain = grad.copy(), np.zeros(len(v))
        lanes = np.flatnonzero(live & direction.any(axis=(1, 2)))
        if lanes.size:
            vals, moved = line_search(direction[lanes], v[lanes])
            up = vals > best[lanes] + 1e-13
            at = lanes[up]
            gain[at], best[at], v[at] = vals[up] - best[at], vals[up], moved[up]
            grad[at] = _ascent_generator(rho4, v[at])
        # a small gain far from stationarity is slow progress, not a stall
        scanned = live & (gain < SWEEP_GAIN_FLOOR) & (
            (gain == 0.0) | (np.linalg.norm(grad, axis=(1, 2)) <= STATIONARY_GRAD)
        )
        for i in np.flatnonzero(scanned):
            vals = score(scan @ v[i])
            pick = vals.argmax()
            if vals[pick] < best[i] + SWEEP_GAIN_FLOOR:
                live[i] = False
            else:
                best[i], v[i] = vals[pick], scan[pick] @ v[i]
        at = np.flatnonzero(scanned & live)
        grad[at] = _ascent_generator(rho4, v[at])
        for i in np.flatnonzero(live):
            beta = 0.0  # Polak-Ribiere after a step; a scan move restarts
            if not scanned[i]:
                beta = (np.vdot(grad[i], grad[i] - old[i])
                        / np.vdot(old[i], old[i])).real
            direction[i] = grad[i] + beta * direction[i]
            if np.vdot(direction[i], grad[i]).real <= 0:  # not an ascent direction
                direction[i] = grad[i]
    top, *rest = np.argsort(-best, kind="stable")
    classical_mi = best[top]
    # polish away rotation roundoff so the POVM sums to the identity exactly
    gram = dag(v[top]) @ v[top]
    v_best = v[top] @ matrix_function_on_support(gram, lambda x: 1 / np.sqrt(x))
    grad_norm = float(np.linalg.norm(_ascent_generator(rho4, v_best)))
    converged = not live[top] and grad_norm <= STATIONARY_GRAD and (
        not rest or classical_mi - best[rest[0]] <= CONVERGENCE_WINDOW
    )
    elements = [
        np.outer(row.conj(), row) for row in v_best
    ]
    best_povm = Povm(tuple(elements))
    return DiscordResult(
        value=_clamp_dust(float(quantum_mi - classical_mi), "discord"),
        best_povm=best_povm,
        classical_mi=float(classical_mi),
        restarts=len(starts),
        converged=bool(converged),
        grad_norm=grad_norm,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# broadcast-fidelity SDPs


def _swap_eigenspaces(d: int) -> list:
    """Isometries onto the +1 and -1 eigenspaces of I_B x SWAP, empty omitted:
    I_B x {|ii>, (|ij> + |ji>)/sqrt 2} and I_B x {(|ij> - |ji>)/sqrt 2}, i < j."""
    i, j = np.triu_indices(d)
    units, swapped = np.eye(d * d)[:, i * d + j], np.eye(d * d)[:, j * d + i]
    plus = (units + swapped) * np.where(i == j, 0.5, np.sqrt(0.5))
    minus = ((units - swapped) * np.sqrt(0.5))[:, i < j]
    return [kron(np.eye(d), u) for u in (plus, minus) if u.shape[1]]


def f_max_broadcast(
    rho: DensityMatrix,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[float, Channel]:
    """Best single-output fidelity of a symmetric one-to-two broadcast of B.

    Optimizes over Choi matrices of channels B -> B1 B2 that commute with
    swapping the outputs; by that symmetry both output marginals agree,
    so the objective is F(rho_AB, Tr_B1[(id x ch)(rho_AB)]).  A Choi
    matrix commutes with I_B x SWAP exactly when it is block diagonal on
    that operator's eigenspaces, so it is parametrized as
    V+ X+ V+^dag + V- X- V-^dag with PSD blocks X+ and X- on the +1 and -1
    eigenspaces (the -1 block is absent for a one-dimensional B).
    Returns the certified optimum and an optimal channel.
    """
    require_subsystems(rho.dims, 2, "f_max_broadcast")
    _require_broadcast_dim(rho)
    d_a, d_b = rho.dims
    d_out = d_b * d_b

    builder = SdpBuilder()
    spaces = _swap_eigenspaces(d_b)
    blocks = add_channel(builder, d_b, d_out, spaces)
    rho4 = rho.matrix.reshape(d_a, d_b, d_a, d_b)
    terms = []
    for blk, v in zip(blocks, spaces):
        # V = I_B x U: a sector Y over U's columns reaches B1 B2 as U Y U^dag,
        # and Tr_B1 leaves t[o, o', u, v] = sum_b U[(b o), u] conj(U[(b o'), v])
        u = v[:d_out, :v.shape[1] // d_b].reshape(d_b, d_b, -1)
        terms.append((blk, ChoiTerm(rho4, np.einsum("bou,bpv->opuv", u, u.conj()))))
    value, solution = certified_fidelity(
        builder, rho.matrix, terms, _a_support(rho, np.eye(d_b)), "broadcast",
        tol, max_iters,
    )
    choi = sum(
        v @ solution.primal_blocks[blk] @ dag(v)
        for blk, v in zip(blocks, spaces)
    )
    channel = project_to_nearest_channel(choi, (d_b,), (d_b, d_b))
    return value, channel


def _partial_transpose_output(mat: np.ndarray, din: int, dout: int) -> np.ndarray:
    """Transpose of the output factor of a matrix, or of each in a stack."""
    four = mat.reshape(-1, din, dout, din, dout)
    return four.transpose(0, 1, 4, 3, 2).reshape(mat.shape)


def f_eb_detailed(
    rho: DensityMatrix,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> EbDetail:
    """Entanglement-breaking broadcast fidelity of side B, bracketed.

    The main value is an SDP over Choi matrices with positive partial
    transpose: exactly the EB set for a qubit B, a superset (hence an
    upper bound on the fidelity) in higher dimension, reported via
    ``eb_exact``.  ``lower_bound`` is the fidelity of an explicit
    entanglement-breaking channel, so it is achievable whatever the
    roundoff.  For a qubit B that channel is the PPT optimum's own
    (``_qubit_eb_channel``): projected onto a channel and mixed with a
    little depolarizing Choi until its partial transpose is positive
    definite, which is checked.  A 2 (x) 2 PPT Choi matrix is separable,
    so the channel is entanglement breaking; no further SDP runs, and the
    bound matches the value to solver accuracy.  Above that PPT does not
    certify separability, and the channel is the one the alternating
    measure-and-prepare ascent ends at.
    """
    _require_dimension_two(rho, "f_eb_detailed", factors=(1,))
    value, solution = _f_eb_solve(rho, tol, max_iters)
    qubit_b = rho.dims[1] == 2
    if qubit_b:
        channel = _qubit_eb_channel(solution.primal_blocks[0])
    else:
        povm, preps = _measure_prepare_ascent(rho, tol, max_iters)
        channel = entanglement_breaking(povm, preps)
    lower = fidelity(rho, apply_on_subsystem(channel, rho, 1))
    return EbDetail(value, lower, eb_exact=qubit_b)


def f_eb(rho: DensityMatrix, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS):
    """Entanglement-breaking broadcast fidelity: the PPT-Choi program only."""
    return _f_eb_solve(rho, tol, max_iters)[0]


def _f_eb_solve(rho: DensityMatrix, tol, max_iters):
    """The PPT-Choi program; returns (value, solution), Choi block first."""
    require_subsystems(rho.dims, 2, "f_eb")
    d_a, d_b = rho.dims
    builder = SdpBuilder()
    (j_blk,) = add_channel(builder, d_b, d_b)
    pt_blk = builder.add_block(d_b * d_b)
    # tie the second block to the output partial transpose of the first;
    # PT is self-adjoint, so <H, PT(J)> = <PT(H), J>
    basis = hermitian_basis(d_b * d_b)
    builder.add_constraint(
        {pt_blk: _basis_tiles(d_b * d_b),
         j_blk: -_partial_transpose_output(basis, d_b, d_b)},
        np.zeros(len(basis)),
    )

    one_output = ChoiTerm(
        rho.matrix.reshape(d_a, d_b, d_a, d_b), ChoiTerm.on_output(d_b)
    )
    return certified_fidelity(
        builder, rho.matrix, [(j_blk, one_output)],
        _a_support(rho, np.eye(d_b)), "EB broadcast", tol, max_iters,
    )


def _qubit_eb_channel(choi: np.ndarray) -> Channel:
    """The channel of a qubit PPT Choi matrix, entanglement breaking as is.

    Projects ``choi`` onto a channel and mixes in just enough of the
    depolarizing Choi I (x) I / 2 to make its partial transpose positive
    definite.  On 2 (x) 2 a PPT operator is separable (Horodecki,
    Horodecki and Horodecki 1996), and a channel with a separable Choi
    matrix is entanglement breaking (Horodecki, Shor and Ruskai 2003).
    Raises RuntimeError if the mixed partial transpose is not positive
    definite, as it is not for a Choi matrix far from PPT.
    """
    j = project_to_nearest_channel(choi, (2,), (2,)).choi
    pt_min = float(np.linalg.eigvalsh(_partial_transpose_output(j, 2, 2))[0])
    eps = 1e-9 + 4.0 * max(0.0, -pt_min)
    j = (1.0 - eps) * j + eps * np.eye(4) / 2.0
    pt_min = float(np.linalg.eigvalsh(_partial_transpose_output(j, 2, 2))[0])
    if not pt_min > 0.0:
        raise RuntimeError(
            f"qubit EB channel not certified: its partial transpose has "
            f"eigenvalue {pt_min:.3e}, not positive definite"
        )
    return Channel((2,), (2,), j)


def _measure_prepare_ascent(rho: DensityMatrix, tol: float, max_iters: int):
    """Alternating SDP over measure-and-prepare channels, from below.

    A measure-and-prepare channel acts as X -> sum_i Tr(E_i X) tau_i.
    With either factor fixed the output is affine in the other, so each
    half-step is a fidelity SDP; the value climbs monotonically.  Starts
    from the d_B^2-outcome informationally complete POVM and returns the
    (POVM, preparations) pair the last round ends at, the POVM
    renormalized to sum to I exactly.
    """
    d_a, d_b = rho.dims
    k = d_b * d_b
    elements = build_ic_povm(d_b).elements
    # a measured X enters sigma as conditional_states(rho, X, 1) (x) tau,
    # whose M_ij[a, c] = rho[(a j), (c i)]: rho with B transposed
    measured = rho.matrix.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1)
    # the measurement sum_i E_i = I is trace preservation of a channel
    # B -> outcome register whose Choi matrix has one block per outcome
    outcomes = [kron(np.eye(d_b), np.eye(k)[:, [i]]) for i in range(k)]

    for _ in range(MEASURE_PREPARE_ROUNDS):
        # optimize preparations (unit-trace states) for the measurement
        builder = SdpBuilder()
        blocks = [add_channel(builder, 1, d_b)[0] for _ in range(k)]
        terms = [
            (blk, ChoiTerm(conditional_states(rho, el, 1).reshape(d_a, 1, d_a, 1),
                           ChoiTerm.on_output(d_b)))
            for blk, el in zip(blocks, elements)
        ]
        _, sol = certified_fidelity(
            builder, rho.matrix, terms, _a_support(rho, np.eye(d_b)),
            "measure-and-prepare preparation", tol, max_iters,
        )
        preps = [nearest_psd(sol.primal_blocks[blk]) for blk in blocks]
        preps = [p / np.trace(p).real for p in preps]

        # optimize the measurement for the current preparations
        builder = SdpBuilder()
        blocks = add_channel(builder, d_b, k, outcomes)
        terms = [
            (blk, ChoiTerm(measured, tau[:, :, None, None]))
            for blk, tau in zip(blocks, preps)
        ]
        _, sol = certified_fidelity(
            builder, rho.matrix, terms,
            _a_support(rho, support_projector(sum(preps))),
            "measure-and-prepare measurement", tol, max_iters,
        )
        elements = [nearest_psd(sol.primal_blocks[blk]) for blk in blocks]
    return renormalized_povm(elements), [DensityMatrix((d_b,), p) for p in preps]


def _a_support(rho: DensityMatrix, b_support: np.ndarray) -> np.ndarray:
    """An isometry onto supp(rho_A) x supp(b_support), which holds every
    output on AB: a product, so a coupling row keeps its tiles."""
    return kron(
        support_isometry(rho.marginal((0,)).matrix), support_isometry(b_support)
    )


# ---------------------------------------------------------------------------
# measurement-copy broadcasting and the MI-loss functional


def measurement_copy_broadcaster(povm: Povm, copies: int) -> Channel:
    """Measure, then write the outcome into ``copies`` classical registers.

    Each output register carries the outcome in the computational basis
    of dimension n_outcomes, so every single-register marginal equals the
    plain measurement channel output.
    """
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    k = povm.n_outcomes
    preps = [
        PureState((k,) * copies, kron(*[ket] * copies)).to_density()
        for ket in np.eye(k, dtype=complex)
    ]
    return entanglement_breaking(povm, preps)


def average_mi_loss(rho: DensityMatrix, channel: Channel) -> float:
    """I(A:B) minus the average I(A:B'_i) over output registers of B.

    Nonnegative for every channel by monotonicity of mutual information;
    zero is achievable exactly when the state is classical on B.
    """
    require_subsystems(rho.dims, 2, "average_mi_loss")
    if channel.in_dim != rho.dims[1]:
        raise ValueError(
            f"channel input dim {channel.in_dim} != B dim {rho.dims[1]}"
        )
    out = apply_on_subsystem(channel, rho, target=1)
    registers = len(channel.out_dims)
    base = mutual_information(rho, (0,))
    avg = 0.0
    for i in range(registers):
        avg += mutual_information(out.marginal((0, 1 + i)), (0,))
    return float(base - avg / registers)


def broadcast_report(
    rho: DensityMatrix,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> BroadcastReport:
    """All broadcastability quantifiers for one bipartite state."""
    _require_dimension_two(rho, "broadcast_report")
    _require_broadcast_dim(rho)  # before the seconds-long discord search
    disc = discord(rho, side="B", seed=seed, restarts=restarts)
    with recording() as records:
        fmax, _ = f_max_broadcast(rho, tol=tol, max_iters=max_iters)
        eb = f_eb_detailed(rho, tol=tol, max_iters=max_iters)
    solutions = dict(records)
    return BroadcastReport(
        f_max=fmax,
        f_eb=eb.value,
        f_eb_lower=eb.lower_bound,
        discord_bound_eb=_discord_bound(solutions["EB broadcast"]),
        discord_bound_max=_discord_bound(solutions["broadcast"]),
        discord=disc,
        exact=disc.verdict,
        eb_exact=eb.eb_exact,
        f_max_solution=solutions["broadcast"],
        f_eb_solution=solutions["EB broadcast"],
        tol=tol,
    )


def _discord_bound(solution) -> float:
    """-2 log2 of a fidelity solve's dual objective clipped to [0, 1]."""
    fid = min(max(solution.dual_value, 0.0), 1.0)
    if fid <= 0:
        return float("inf")
    return float(0.0 - 2.0 * np.log2(fid))  # +0.0, not -0.0, at fid = 1
