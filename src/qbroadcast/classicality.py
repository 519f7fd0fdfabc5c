"""Classicality structure of bipartite states and exact broadcasters.

A state can be broadcast on B by some channel iff it is classical on B
(block-diagonal in an orthonormal B basis); it can be broadcast on both
sides iff it is classical-classical.  Detection works through the
conditional states an informationally complete POVM on one side leaves on
the other: they commute pairwise iff the state is classical on that side,
and their common eigenbasis is the basis a measure-and-prepare
broadcaster needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, apply, apply_on_subsystem, entanglement_breaking
from .frames import build_ic_povm, conditional_states
from .info import _require_equal_dim, mutual_information
from .linalg import (
    COMMUTE_TOL,
    DEGENERACY_GAP,
    VALIDATION_ATOL,
    WEIGHT_FLOOR,
    dag,
    hermitian_part,
    max_abs,
    require_subsystems,
    trace_norm,
)
from .states import DensityMatrix, Povm, PureState


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def commute_test(rho: DensityMatrix, sigma: DensityMatrix):
    """Do two states commute?  Returns (flag, max-entry commutator norm)."""
    _require_equal_dim(rho, sigma, "commute_test")
    norm = max_abs(commutator(rho.matrix, sigma.matrix))
    return norm < COMMUTE_TOL, norm


def common_eigenbasis(ops, rng) -> np.ndarray:
    """Common eigenbasis of a family of pairwise-commuting Hermitian ops.

    Diagonalizes a random positive mixture and clusters its eigenvalues,
    splitting where neighbours differ by more than ``DEGENERACY_GAP``
    times max(1, largest |eigenvalue|).  Inside each cluster it then
    diagonalizes a second random mixture, drawn after the first, which
    separates the joint eigenspaces the first one ran together.
    """
    ops = [np.asarray(o, dtype=complex) for o in ops]

    def mixture():
        coeffs = rng.uniform(0.5, 1.5, size=len(ops))
        return hermitian_part(sum(c * o for c, o in zip(coeffs, ops)))

    vals, basis = np.linalg.eigh(mixture())
    scale = max(1.0, float(np.abs(vals).max()))
    cuts = np.flatnonzero(np.diff(vals) > DEGENERACY_GAP * scale) + 1
    clusters = [c for c in np.split(np.arange(len(vals)), cuts) if len(c) > 1]
    if clusters:
        second = mixture()
        for c in clusters:
            sub = basis[:, c]
            basis[:, c] = sub @ np.linalg.eigh(dag(sub) @ second @ sub)[1]
    return basis


@dataclass(frozen=True, eq=False)
class ClassicalityVerdict:
    """Which sides of a bipartite state are classical.

    ``witness_a``/``witness_b`` are the largest pairwise commutator
    spectral norms over the conditional-state family of the respective
    side; a side is classical iff its witness is below ``COMMUTE_TOL``.
    ``basis_a``/``basis_b`` hold the common eigenbases (columns) when the
    corresponding side is classical, else None.
    """

    classical_on_a: bool
    classical_on_b: bool
    witness_a: float
    witness_b: float
    basis_a: np.ndarray | None
    basis_b: np.ndarray | None

    @property
    def classical_classical(self) -> bool:
        return self.classical_on_a and self.classical_on_b

    @property
    def witness(self) -> float:
        return max(self.witness_a, self.witness_b)


def _side_witness(rho: DensityMatrix, measured: int):
    """Conditional states from an IC-POVM on ``measured``; max pairwise
    spectral-norm commutator and (if commuting) their common basis."""
    elements = np.array(build_ic_povm(rho.dims[measured]).elements)
    blocks = hermitian_part(conditional_states(rho, elements, measured))
    weights = np.trace(blocks, axis1=1, axis2=2).real
    kept = weights > WEIGHT_FLOOR
    states = blocks[kept] / weights[kept, None, None]
    i, j = np.triu_indices(len(states), 1)
    norms = np.linalg.norm(commutator(states[i], states[j]), ord=2, axis=(1, 2))
    witness = float(norms.max(initial=0.0))
    basis = None
    if witness < COMMUTE_TOL:
        # any basis of a joint eigenspace serves, so degeneracy is no fault;
        # a fixed mixture keeps every verdict's basis reproducible
        basis = common_eigenbasis(states, np.random.default_rng(8))
    return witness, basis


def classify(rho: DensityMatrix) -> ClassicalityVerdict:
    """Detect on which sides a bipartite state is classical.

    The A-side verdict comes from the conditional states left on A by an
    informationally complete POVM on B, and vice versa.
    """
    require_subsystems(rho.dims, 2, "classify")
    witness_b, basis_b = _side_witness(rho, 0)
    witness_a, basis_a = _side_witness(rho, 1)
    return ClassicalityVerdict(
        classical_on_a=witness_a < COMMUTE_TOL,
        classical_on_b=witness_b < COMMUTE_TOL,
        witness_a=witness_a,
        witness_b=witness_b,
        basis_a=basis_a,
        basis_b=basis_b,
    )


def basis_broadcaster(basis: np.ndarray) -> Channel:
    """Measure in an orthonormal basis, then prepare two copies.

    Broadcasts exactly every state diagonal in ``basis``; anything else
    is dephased.
    """
    basis = np.asarray(basis, dtype=complex)
    d = basis.shape[0]
    if (basis.shape != (d, d)
            or max_abs(dag(basis) @ basis - np.eye(d)) > VALIDATION_ATOL):
        raise ValueError("basis columns are not orthonormal")
    preps = [
        PureState((d, d), np.kron(ket, ket)).to_density() for ket in basis.T
    ]
    return entanglement_breaking(Povm.from_basis(basis), preps)


def verify_broadcast(rho: DensityMatrix, ch: Channel):
    """Trace-norm residuals of both output marginals against the input.

    ``ch`` must map the state's space to two copies of it.
    """
    if ch.out_dims != (rho.dim, rho.dim):
        raise ValueError(
            f"channel output dims {ch.out_dims} are not two copies of {rho.dim}"
        )
    out = apply(ch, rho.regroup((rho.dim,)))
    return tuple(
        trace_norm(out.marginal(i).matrix - rho.matrix) for i in (0, 1)
    )


def verify_unilocal_broadcast(rho: DensityMatrix, ch: Channel):
    """Residuals ||rho~_{A B_i} - rho_AB||_1 for a B -> B1 B2 channel."""
    require_subsystems(rho.dims, 2, "verify_unilocal_broadcast")
    if len(ch.out_dims) != 2 or ch.out_dims != (rho.dims[1],) * 2:
        raise ValueError(
            f"channel must map B to two copies of B, got {ch.out_dims}"
        )
    out = apply_on_subsystem(ch, rho, 1)  # dims (A, B1, B2)
    return tuple(
        trace_norm(out.marginal([0, k]).matrix - rho.matrix) for k in (1, 2)
    )


def verify_local_broadcast(rho: DensityMatrix, ch_a: Channel, ch_b: Channel):
    """Residuals ||rho~_{A_i B_i} - rho_AB||_1 for two-sided broadcasting."""
    require_subsystems(rho.dims, 2, "verify_local_broadcast")
    if ch_a.out_dims != (rho.dims[0],) * 2:
        raise ValueError(f"A-side channel output dims {ch_a.out_dims} invalid")
    if ch_b.out_dims != (rho.dims[1],) * 2:
        raise ValueError(f"B-side channel output dims {ch_b.out_dims} invalid")
    out = apply_on_subsystem(ch_a, rho, 0)  # (A1, A2, B)
    out = apply_on_subsystem(ch_b, out, 2)  # (A1, A2, B1, B2)
    return tuple(
        trace_norm(out.marginal([a, b]).matrix - rho.matrix)
        for a, b in ((0, 2), (1, 3))
    )


def broadcast_mi_check(rho: DensityMatrix, ch_b: Channel):
    """Mutual informations I(A:B_1), I(A:B_2) after a B-side broadcaster.

    Exact unilocal broadcasting forces both to equal I(A:B); the deficit
    is strictly positive for non-classical states.
    """
    out = apply_on_subsystem(ch_b, rho, 1)
    return tuple(
        mutual_information(out.marginal([0, k])) for k in (1, 2)
    )
