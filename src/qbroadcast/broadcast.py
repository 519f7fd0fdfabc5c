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
  explicit measure-and-prepare channel: for a qubit B one read off the
  PPT optimum by Wootters' product decomposition, with no further SDP;
  above that the one that alternating measure-and-prepare SDPs end at.
* ``discord`` — mutual information lost by the best measurement on one
  side, found by multi-start conjugate-gradient ascent of the measured
  mutual information over rank-one POVMs.

The three obey f_max >= f_eb and discord >= -2 log2 f_eb, which
``broadcast_report`` assembles into one record that checks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import hadamard
from scipy.optimize import minimize_scalar

from .channels import (
    Channel,
    apply_on_subsystem,
    choi_subsystem_action,
    entanglement_breaking,
    project_to_nearest_channel,
)
from .classicality import ClassicalityVerdict, classify
from .frames import build_ic_povm, conditional_states, renormalized_povm
from .info import _clamp_dust, entropy, fidelity, mutual_information
from .linalg import (
    SUPPORT_CUTOFF,
    VALIDATION_ATOL,
    InputError,
    dag,
    hermitian_eig,
    kron,
    matrix_function_on_support,
    nearest_psd,
    partial_trace,
    require_subsystems,
    support_projector,
)
from .sdp import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    SdpBuilder,
    SdpSolution,
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
    explicit measure-and-prepare channel (for every B dimension), and
    ``eb_exact`` says that ``value`` is the EB optimum itself (a qubit B
    side).
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
    """
    elements = np.einsum("ria,rib->riab", v_stack.conj(), v_stack)
    cond = np.einsum("abcd,ridb->riac", rho4, elements)
    weights = np.einsum("riaa->ri", cond).real
    spectra = np.clip(np.linalg.eigvalsh(cond), 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent_terms = np.where(spectra > 0, -spectra * np.log2(spectra), 0.0)
        weight_terms = np.where(
            weights > 0, -weights * np.log2(weights), 0.0
        )
    return s_keep + weight_terms.sum(axis=1) - ent_terms.sum(axis=(1, 2))


def _ascent_generator(rho4, v: np.ndarray) -> np.ndarray:
    """Anti-Hermitian k x k X along which exp(tX) v raises I(A:B') fastest.

    With conditional states A_i of the rows w_i of ``v`` and p_i = Tr A_i,
    dI = sum_i Tr(dA_i L_i) for L_i = log2(A_i / p_i) on supp(A_i): the
    1/ln 2 terms of the entropy and Shannon parts cancel.  The rows
    G_i = w_i N_i, N_i = sum_ac rho4[a, :, c, :] L_i[c, a], give
    X = (G v^dag - v G^dag) / 2 and d/dt I(exp(tY) v) = 2 Re Tr(Y^dag X)
    at t = 0 for every anti-Hermitian Y.
    """
    cond = np.einsum("abcd,id,ib->iac", rho4, v.conj(), v)
    vals, vecs = np.linalg.eigh(cond)
    support = vals > SUPPORT_CUTOFF * vals.max()
    weights = vals.sum(axis=1, where=support, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(support, np.log2(vals / weights), 0.0)
    cond_logs = np.einsum("iak,ik,ick->iac", vecs, logs, vecs.conj())
    g = np.einsum("ib,abcd,ica->id", v, rho4, cond_logs)
    gv = g @ dag(v)
    return (gv - dag(gv)) / 2


def _projective_rows(basis: np.ndarray, k: int) -> np.ndarray:
    """Isometry rows for a projective measurement, zero-padded to k."""
    d = basis.shape[0]
    rows = np.zeros((k, d), dtype=complex)
    rows[:d] = basis.T.conj()
    return rows


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
    the restart.  Any measurement only bounds discord from above, so
    ``converged`` says the best restart ended in a failed scan with
    ``grad_norm <= STATIONARY_GRAD`` and agrees with the runner-up (if
    any) within ``CONVERGENCE_WINDOW``.  A value below 0 by at most
    ``NEGATIVE_DUST`` is roundoff and reads 0; a lower one raises.
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

    def score(v_stack):
        return _classical_mi_stack(rho4, s_keep, v_stack)

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

    coarse = np.linspace(-np.pi, np.pi, 17)
    h = coarse[1] - coarse[0]

    def rotate(gen, ts, v):
        gvals, gvecs = gen
        phases = np.exp(1j * np.outer(ts, gvals))
        u = np.einsum("ab,tb,cb->tac", gvecs, phases, gvecs.conj())
        return u @ v

    scan = np.concatenate(  # every coordinate generator at every grid point
        [rotate(np.linalg.eigh(g), coarse, np.eye(k)) for g in hermitian_basis(k)]
    )

    def line_search(direction, v):
        gvals, gvecs = np.linalg.eigh(-1j * direction)
        gen = (gvals / np.abs(gvals).max(), gvecs)
        vals = score(rotate(gen, coarse, v))
        pick = int(np.argmax(vals))
        t_best, val_best = coarse[pick], float(vals[pick])
        res = minimize_scalar(
            lambda t: -float(score(rotate(gen, np.array([t]), v))[0]),
            bounds=(t_best - h, t_best + h),
            method="bounded",
            options={"xatol": 1e-9},
        )
        if -res.fun > val_best:
            t_best, val_best = float(res.x), float(-res.fun)
        return val_best, rotate(gen, np.array([t_best]), v)[0]

    results = []
    for v in starts:
        best = float(score(v[None])[0])
        grad = direction = _ascent_generator(rho4, v)
        stalled = False
        for _ in range(MAX_STEPS):
            gain, old = 0.0, grad
            if np.any(direction):
                val, moved = line_search(direction, v)
                if val > best + 1e-13:
                    gain, best, v = val - best, val, moved
                    grad = _ascent_generator(rho4, v)
            # a small gain far from stationarity is slow progress, not a stall
            scanned = gain < SWEEP_GAIN_FLOOR and (
                gain == 0.0 or np.linalg.norm(grad) <= STATIONARY_GRAD
            )
            if scanned:
                vals = score(scan @ v)
                pick = int(np.argmax(vals))
                if vals[pick] < best + SWEEP_GAIN_FLOOR:
                    stalled = True
                    break
                best, v = float(vals[pick]), scan[pick] @ v
                grad = _ascent_generator(rho4, v)
            beta = 0.0  # Polak-Ribiere after a step; a scan move restarts
            if not scanned:
                beta = (np.vdot(grad, grad - old) / np.vdot(old, old)).real
            direction = grad + beta * direction
            if np.vdot(direction, grad).real <= 0:  # not an ascent direction
                direction = grad
        results.append((best, v, stalled))

    results.sort(key=lambda item: item[0], reverse=True)
    classical_mi, v_best, stalled = results[0]
    # polish away rotation roundoff so the POVM sums to the identity exactly
    gram = dag(v_best) @ v_best
    v_best = v_best @ matrix_function_on_support(gram, lambda x: 1 / np.sqrt(x))
    grad_norm = float(np.linalg.norm(_ascent_generator(rho4, v_best)))
    converged = stalled and grad_norm <= STATIONARY_GRAD and (
        len(results) < 2 or results[0][0] - results[1][0] <= CONVERGENCE_WINDOW
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


def _swap_operator(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[j * d + i, i * d + j] = 1.0
    return s


def _swap_eigenspaces(d: int) -> list:
    """Isometries onto the +1 and -1 eigenspaces of I_B x SWAP, empty omitted."""
    vals, vecs = np.linalg.eigh(kron(np.eye(d), _swap_operator(d)))
    return [v for v in (vecs[:, vals > 0], vecs[:, vals < 0]) if v.shape[1]]


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
    full_dims = (d_a, d_b, d_b)

    def one_output(choi):
        both = choi_subsystem_action(
            choi, d_b, d_out, rho.matrix, rho.dims, 1
        )
        return partial_trace(both, full_dims, keep=(0, 2))

    terms = [
        (blk, lambda e, v=v: one_output(v @ e @ dag(v)))
        for blk, v in zip(blocks, spaces)
    ]
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
    measure-and-prepare channel, so it is achievable whatever the
    roundoff.  For a qubit B that channel is read off the PPT optimum by
    Wootters' product decomposition (``_wootters_measure_prepare``), with no
    further SDP, and matches the value to solver accuracy; above that it
    is the channel the alternating measure-and-prepare ascent ends at.
    """
    _require_dimension_two(rho, "f_eb_detailed", factors=(1,))
    value, solution = _f_eb_solve(rho, tol, max_iters)
    qubit_b = rho.dims[1] == 2
    if qubit_b:
        povm, preps = _wootters_measure_prepare(solution.primal_blocks[0])
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
    d_b = rho.dims[1]
    builder = SdpBuilder()
    (j_blk,) = add_channel(builder, d_b, d_b)
    pt_blk = builder.add_block(d_b * d_b)
    # tie the second block to the output partial transpose of the first;
    # PT is self-adjoint, so <H, PT(J)> = <PT(H), J>
    basis = hermitian_basis(d_b * d_b)
    builder.add_constraint(
        {pt_blk: basis, j_blk: -_partial_transpose_output(basis, d_b, d_b)},
        np.zeros(len(basis)),
    )

    def one_output(choi):
        return choi_subsystem_action(
            choi, d_b, d_b, rho.matrix, rho.dims, 1
        )

    return certified_fidelity(
        builder, rho.matrix, [(j_blk, one_output)],
        _a_support(rho, np.eye(d_b)), "EB broadcast", tol, max_iters,
    )


# sigma_y (x) sigma_y, real: psi^T SPIN_FLIP psi = -2 det(psi as 2x2)
_SPIN_FLIP = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]]).real
# real orthogonal with every entry +-1/2, so it spreads weight evenly
_HADAMARD_4 = hadamard(4) / 2.0


def _wootters_measure_prepare(choi: np.ndarray):
    """Measure-and-prepare channel read off a qubit PPT Choi matrix.

    Projects ``choi`` onto a channel, mixes in just enough of the
    depolarizing Choi I (x) I / 2 to make it full rank with a positive
    definite partial transpose, and splits it into four product terms
    w_k |a_k><a_k| (x) |b_k><b_k|.  Returns (POVM, preparations): the
    elements w_k |a_k><a_k|^T, renormalized to sum to I exactly, and the
    states |b_k><b_k|.
    """
    j = project_to_nearest_channel(choi, (2,), (2,)).choi
    pt_min = float(np.linalg.eigvalsh(_partial_transpose_output(j, 2, 2))[0])
    eps = 1e-9 + 4.0 * max(0.0, -pt_min)
    j = (1.0 - eps) * j + eps * np.eye(4) / 2.0
    weights, a_kets, b_kets = _product_decomposition(j)
    elements = [w * np.outer(a.conj(), a) for w, a in zip(weights, a_kets)]
    preps = [DensityMatrix((2,), np.outer(b, b.conj())) for b in b_kets]
    return renormalized_povm(elements), preps


def _product_decomposition(j: np.ndarray):
    """Four product terms of a separable 2 (x) 2 PSD operator (Wootters 1998).

    Returns (weights, a, b), each a_k and b_k a unit row, with
    j = sum_k weights[k] |a_k><a_k| (x) |b_k><b_k| up to roundoff.  The
    columns of X = V conj(Q), V the subnormalized eigenvectors of j and
    T = V^T SPIN_FLIP V = Q diag(lambda) Q^T a Takagi factorization, give
    j = X X^dag with X^T SPIN_FLIP X diagonal.  Phases making the diagonal
    sum to zero (possible because j is separable) and a Hadamard mix then
    leave each column with zero concurrence, i.e. a product vector.
    """
    vals, vecs = hermitian_eig(j).on_support()
    v = np.zeros((4, 4), dtype=complex)
    v[:, : vals.size] = vecs * np.sqrt(vals)
    t = v.T @ _SPIN_FLIP @ v
    # T conj(q) = lambda q, i.e. [x; y] with q = x + iy is an eigenvector of
    # this real symmetric matrix, whose spectrum is +-lambda
    embedding = np.block([[t.real, t.imag], [t.imag, -t.real]])
    _, embedded = np.linalg.eigh(embedding)
    q = embedded[:4, 4:] + 1j * embedded[4:, 4:]
    # use the unitary polar factor of q: a singular T makes q rank-deficient
    left, _, right = np.linalg.svd(q)
    x = v @ (left @ right).conj()
    diag = np.einsum("ij,ik,kj->j", x, _SPIN_FLIP, x)
    phases = _close_quadrilateral(np.abs(diag))
    z = (x * np.exp(0.5j * (phases - np.angle(diag)))) @ _HADAMARD_4
    u, s, vh = np.linalg.svd(z.T.reshape(4, 2, 2))
    return s[:, 0] ** 2, u[:, :, 0], vh[:, 0, :]


def _close_quadrilateral(lengths: np.ndarray) -> np.ndarray:
    """Phases theta with sum_k exp(i theta_k) lengths[k] = 0.

    Needs the longest of the four lengths to be at most the sum of the
    others.  The two longest and the two shortest each close a triangle
    with a shared third side r, chosen mid-range so both stay as far from
    degenerate as the lengths allow.
    """
    order = np.argsort(lengths)[::-1]
    l1, l2, l3, l4 = lengths[order]
    r = (max(l1 - l2, l3 - l4) + min(l1 + l2, l3 + l4)) / 2.0
    t2, t4 = _turn(l1, l2, r), _turn(l3, l4, r)
    rot = np.angle(-(l1 + l2 * np.exp(1j * t2)))
    rot -= np.angle(l3 + l4 * np.exp(1j * t4))
    phases = np.empty(4)
    phases[order] = [0.0, t2, rot, rot + t4]
    return phases


def _turn(a: float, b: float, c: float) -> float:
    """phi with |a + b exp(i phi)| = c, by the half-angle formula.

    Unlike the law of cosines, its error in c stays linear in the error of
    the sides when the triangle is nearly degenerate.
    """
    num = max(c - a + b, 0.0) * max(c + a - b, 0.0)
    den = max(a + b + c, 0.0) * max(a + b - c, 0.0)
    return float(np.pi - 2.0 * np.arctan2(np.sqrt(num), np.sqrt(den)))


def _measure_prepare_ascent(rho: DensityMatrix, tol: float, max_iters: int):
    """Alternating SDP over measure-and-prepare channels, from below.

    A measure-and-prepare channel acts as X -> sum_i Tr(E_i X) tau_i.
    With either factor fixed the output is affine in the other, so each
    half-step is a fidelity SDP; the value climbs monotonically.  Starts
    from the d_B^2-outcome informationally complete POVM and returns the
    (POVM, preparations) pair the last round ends at, the POVM
    renormalized to sum to I exactly.
    """
    d_b = rho.dims[1]
    k = d_b * d_b
    elements = build_ic_povm(d_b).elements
    # the measurement sum_i E_i = I is trace preservation of a channel
    # B -> outcome register whose Choi matrix has one block per outcome
    outcomes = [kron(np.eye(d_b), np.eye(k)[:, [i]]) for i in range(k)]

    for _ in range(MEASURE_PREPARE_ROUNDS):
        # optimize preparations (unit-trace states) for the measurement
        builder = SdpBuilder()
        blocks = [add_channel(builder, 1, d_b)[0] for _ in range(k)]
        terms = [
            (blk, lambda e, c=conditional_states(rho, el, 1): np.kron(c, e))
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
            (blk, lambda e, t=tau: np.kron(conditional_states(rho, e, 1), t))
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
    """Projector supp(rho_A) x b_support, which bounds every output on AB."""
    return kron(support_projector(rho.marginal((0,)).matrix), b_support)


# ---------------------------------------------------------------------------
# measurement-copy broadcasting and the MI-loss functional


def measurement_copy_broadcaster(
    povm: Povm, copies: int, prep_basis: np.ndarray | None = None
) -> Channel:
    """Measure, then write the outcome into ``copies`` classical registers.

    Each output register carries the outcome in ``prep_basis``
    (computational basis of dimension n_outcomes by default), so every
    single-register marginal equals the plain measurement channel output.
    """
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    k = povm.n_outcomes
    if prep_basis is None:
        prep_basis = np.eye(k, dtype=complex)
    prep_basis = np.asarray(prep_basis, dtype=complex)
    gram = dag(prep_basis) @ prep_basis
    if np.abs(gram - np.eye(prep_basis.shape[1])).max() > VALIDATION_ATOL:
        raise ValueError("prep basis columns must be orthonormal")
    if prep_basis.shape[1] < k:
        raise ValueError(
            f"need {k} prep vectors, got {prep_basis.shape[1]}"
        )

    d_reg = prep_basis.shape[0]
    preps = [
        PureState((d_reg,) * copies, kron(*[ket] * copies)).to_density()
        for ket in prep_basis.T[:k]
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
