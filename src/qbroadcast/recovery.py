"""Petz recovery maps and recoverability of tripartite correlations.

The central objects: the Petz (transpose) recovery map of a channel with
respect to a reference state, the fidelity of recovering a tripartite
state from its AB marginal by acting on B alone, and the SDP that
maximizes that fidelity over all recovery channels.  Small conditional
mutual information certifies good recoverability: the optimal fidelity is
at least 2^(-cmi/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
    apply,
    apply_on_subsystem,
    choi_subsystem_action,
    kraus_from_choi,
    channel_from_kraus,
    project_to_nearest_channel,
    trace_out_channel,
)
from .info import (_clamp_dust, conditional_mutual_information, fidelity,
                   relative_entropy)
from .linalg import (
    dag,
    hermitian_eig,
    kron,
    require_subsystems,
    support_projector,
    trace_norm,
)
from .sdp import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    SdpBuilder,
    SdpSolution,
    _basis_overlaps,
    add_channel,
    certified_fidelity,
    check_chain,
    fidelity_slack,
    hermitian_basis,
    recording,
)
from .states import DensityMatrix


@dataclass(frozen=True)
class RecoveryReport:
    """Recoverability summary for one tripartite state.

    ``optimal_solution`` is the solve of ``optimal_fidelity``, run at
    ``tol``.  Building a report checks F_opt >= max(F_petz, 2^(-I/2))
    within ``fidelity_slack(tol)`` and raises RuntimeError naming the
    first broken link.
    """

    cmi: float
    petz_fidelity: float
    optimal_fidelity: float
    bound: float
    sigma_recovery_residual: float
    optimal_solution: SdpSolution
    tol: float

    def __post_init__(self):
        check_chain("recovery", (
            ("F_opt >= F_petz", self.optimal_fidelity, self.petz_fidelity),
            ("F_opt >= 2^(-I/2)", self.optimal_fidelity, self.bound),
        ), self.tol)


@dataclass(frozen=True)
class MonotonicityReport:
    """Relative-entropy drop under a channel and how well recovery does."""

    drop: float
    petz_fidelity: float
    optimal_fidelity: float
    bound: float
    petz_meets_bound: bool
    optimal_meets_bound: bool


def petz_map(sigma: DensityMatrix, channel: Channel) -> Channel:
    """Recovery channel sigma^1/2 ch^dag((ch sigma)^-1/2 . (ch sigma)^-1/2) sigma^1/2.

    Exactly recovers ``sigma`` from its image.  Inputs supported outside
    the image's support are routed to ``sigma`` itself, which completes
    the map to a total channel without affecting any input state whose
    support lies inside supp(channel(sigma)).
    """
    if channel.in_dim != sigma.dim:
        raise ValueError(
            f"channel input dim {channel.in_dim} != state dim {sigma.dim}"
        )
    svals, svecs = hermitian_eig(sigma.matrix).on_support()
    image = hermitian_eig(apply(channel, sigma).matrix)
    ivals, ivecs = image.on_support()
    sqrt_sigma = (svecs * np.sqrt(svals)) @ dag(svecs)
    inv_sqrt_image = (ivecs * (1.0 / np.sqrt(ivals))) @ dag(ivecs)
    kraus = [
        sqrt_sigma @ dag(k) @ inv_sqrt_image
        for k in kraus_from_choi(channel)
    ]
    for w in image.vectors[:, ivals.size:].T:  # kernel of the image
        for s, u in zip(svals, svecs.T):
            kraus.append(np.sqrt(s) * np.outer(u, w.conj()))
    return channel_from_kraus(kraus, channel.out_dims, sigma.dims)


def petz_recovery_map(rho_abc: DensityMatrix) -> Channel:
    """Transpose channel rebuilding BC from B, built from the BC marginal."""
    require_subsystems(rho_abc.dims, 3, "petz_recovery_map")
    _, d_b, d_c = rho_abc.dims
    rho_bc = rho_abc.marginal((1, 2))
    return petz_map(rho_bc, trace_out_channel((d_b, d_c), keep=(0,)))


def petz_recovery_fidelity(rho_abc: DensityMatrix) -> float:
    """Fidelity of Petz-recovering the full state from its AB marginal."""
    return _rebuilt_fidelity(rho_abc, petz_recovery_map(rho_abc))


def _rebuilt_fidelity(rho_abc: DensityMatrix, recovery: Channel) -> float:
    """F(rho_ABC, (id_A x recovery)(rho_AB)) for a recovery channel B -> BC."""
    rebuilt = apply_on_subsystem(recovery, rho_abc.marginal((0, 1)), target=1)
    return fidelity(rho_abc, rebuilt)


def optimal_recovery_fidelity(
    rho_abc: DensityMatrix,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[float, Channel]:
    """Best achievable F(rho_ABC, (id_A x R)(rho_AB)) over channels R: B->BC.

    Solved as an SDP over the Choi matrix of R, with the rebuilt state
    entering the fidelity block as an affine expression.  Returns the
    optimum and an optimal recovery channel.
    """
    require_subsystems(rho_abc.dims, 3, "optimal_recovery_fidelity")
    d_a, d_b, d_c = rho_abc.dims
    d_bc = d_b * d_c
    rho_ab = rho_abc.marginal((0, 1))

    builder = SdpBuilder()
    (j_blk,) = add_channel(builder, d_b, d_bc)

    def rebuild(choi):
        return choi_subsystem_action(
            choi, d_b, d_bc, rho_ab.matrix, rho_ab.dims, 1
        )

    support_bound = kron(
        support_projector(rho_abc.marginal((0,)).matrix), np.eye(d_bc)
    )
    value, solution = certified_fidelity(
        builder, rho_abc.matrix, [(j_blk, rebuild)], support_bound,
        "recovery", tol, max_iters,
    )
    channel = project_to_nearest_channel(
        solution.primal_blocks[j_blk], (d_b,), (d_b, d_c)
    )
    return value, channel


def recovery_report(
    rho_abc: DensityMatrix,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> RecoveryReport:
    """Full recoverability summary for a tripartite state."""
    require_subsystems(rho_abc.dims, 3, "recovery_report")
    cmi = conditional_mutual_information(rho_abc, side_a=(0,), side_c=(2,))
    petz = petz_recovery_map(rho_abc)
    rho_b = rho_abc.marginal((1,))
    rho_bc = rho_abc.marginal((1, 2))
    residual = trace_norm(apply(petz, rho_b).matrix - rho_bc.matrix)
    with recording() as records:
        optimal, _ = optimal_recovery_fidelity(rho_abc, tol, max_iters)
    return RecoveryReport(
        cmi=cmi,
        petz_fidelity=_rebuilt_fidelity(rho_abc, petz),
        optimal_fidelity=optimal,
        bound=float(2.0 ** (-cmi / 2.0)),
        sigma_recovery_residual=float(residual),
        optimal_solution=dict(records)["recovery"],
        tol=tol,
    )


def optimal_fixing_recovery_fidelity(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    channel: Channel,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> float:
    """Best F(rho, R(channel(rho))) over channels R with R(channel(sigma)) = sigma.

    Raises ValueError unless supp(rho) lies inside supp(sigma): the
    fidelity block is compressed onto supp(sigma), which a reachable
    output could leave otherwise.
    """
    _relative_entropy_in_support(rho, sigma)
    image_rho = apply(channel, rho).matrix
    image_sigma = apply(channel, sigma).matrix
    d_in, d_out = channel.out_dim, sigma.dim

    builder = SdpBuilder()
    (j_blk,) = add_channel(builder, d_in, d_out)
    # sigma-fixing: <H, R(image_sigma)> = <H, sigma> for a Hermitian basis,
    # with the left side rewritten as <conj(image_sigma) x H, J>.  The first
    # diagonal unit is left out: the diagonal units sum to H = I, and that
    # row follows from trace preservation.
    basis = hermitian_basis(d_out)[1:]
    builder.add_constraint(
        {j_blk: kron(image_sigma.conj(), basis)},
        _basis_overlaps(basis, sigma.matrix),
    )

    def rebuild(choi):
        return choi_subsystem_action(choi, d_in, d_out, image_rho, (d_in,), 0)

    return certified_fidelity(
        builder, rho.matrix, [(j_blk, rebuild)], sigma.matrix,
        "sigma-fixing recovery", tol, max_iters,
    )[0]


def _relative_entropy_in_support(
    rho: DensityMatrix, sigma: DensityMatrix
) -> float:
    """S(rho || sigma); ValueError if supp(rho) is not inside supp(sigma)."""
    rel = relative_entropy(rho, sigma)
    if not np.isfinite(rel):
        raise ValueError(
            "support violation: supp(rho) is not contained in supp(sigma)"
        )
    return rel


def relative_entropy_recovery_check(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    channel: Channel,
) -> MonotonicityReport:
    """Relative-entropy loss under a channel versus recovery fidelities.

    Computes drop = S(rho||sigma) - S(channel(rho)||channel(sigma)), the
    Petz recovery fidelity for rho, and the SDP optimum over all channels
    that send channel(sigma) back to sigma.  The optimum must reach
    2^(-drop/2); the plain Petz map is only reported against that bound.
    Both count as meeting it within ``fidelity_slack(DEFAULT_TOL)``, the
    tolerance the optimum is solved at; ``drop`` clamps like any entropy.
    """
    rel_before = _relative_entropy_in_support(rho, sigma)
    rel_after = relative_entropy(apply(channel, rho), apply(channel, sigma))
    drop = _clamp_dust(rel_before - rel_after, "relative entropy drop")

    petz = petz_map(sigma, channel)
    petz_fid = fidelity(rho, apply(petz, apply(channel, rho)))
    optimal = optimal_fixing_recovery_fidelity(rho, sigma, channel)
    bound = float(2.0 ** (-drop / 2.0))
    slack = fidelity_slack(DEFAULT_TOL)
    return MonotonicityReport(
        drop=float(drop),
        petz_fidelity=float(petz_fid),
        optimal_fidelity=float(optimal),
        bound=bound,
        petz_meets_bound=bool(petz_fid >= bound - slack),
        optimal_meets_bound=bool(optimal >= bound - slack),
    )
