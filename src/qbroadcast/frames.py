"""Informationally complete POVMs and the conditional states they leave.

Measuring one side of a bipartite state with a POVM {E_i} leaves the
other side in the unnormalized conditional states

    p_i rho_i = Tr_measured[(E_i (x) I) rho]

with Born weights p_i.  An IC-POVM has d^2 elements spanning the operator
space of C^d, so these states determine rho; they are the workhorse of
the classicality tests, since they commute pairwise iff the state is
classical on the unmeasured side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ZERO_WEIGHT,
    hermitian_part,
    matrix_function_on_support,
    require_subsystems,
)
from .states import DensityMatrix, Povm

_TETRAHEDRON = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / np.sqrt(3)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True, eq=False)
class InformationallyCompletePovm:
    """A d^2-outcome POVM whose elements span operator space."""

    povm: Povm

    @property
    def dim(self) -> int:
        return self.povm.dim


def _tetrahedral_qubit_povm() -> tuple:
    els = []
    for n in _TETRAHEDRON:
        bloch = n[0] * _PAULI["x"] + n[1] * _PAULI["y"] + n[2] * _PAULI["z"]
        els.append((np.eye(2) + bloch) / 4.0)
    return tuple(els)


def _two_design_style_projectors(d: int) -> list:
    """d^2 rank-one projectors that span operator space for any d.

    Basis kets, plus (|j> + |k>)/sqrt(2) and (|j> + i|k>)/sqrt(2) pairs.
    """
    vecs = []
    eye = np.eye(d, dtype=complex)
    for j in range(d):
        vecs.append(eye[:, j])
    for j in range(d):
        for k in range(j + 1, d):
            vecs.append((eye[:, j] + eye[:, k]) / np.sqrt(2))
            vecs.append((eye[:, j] + 1j * eye[:, k]) / np.sqrt(2))
    return [np.outer(v, v.conj()) for v in vecs]


def renormalized_povm(elements) -> Povm:
    """The POVM S^{-1/2} E_i S^{-1/2} of PSD elements E_i with sum S."""
    s_isqrt = matrix_function_on_support(sum(elements), lambda x: x ** -0.5)
    return Povm(tuple(s_isqrt @ e @ s_isqrt for e in elements))


def build_ic_povm(d: int) -> InformationallyCompletePovm:
    """Construct an informationally complete POVM on C^d.

    For qubits this is the tetrahedral (SIC) POVM.  For larger d a fixed
    set of d^2 rank-one projectors is renormalized into a POVM.
    """
    if d < 2:
        raise ValueError("need dimension at least 2")
    if d == 2:
        return InformationallyCompletePovm(Povm(_tetrahedral_qubit_povm()))
    return InformationallyCompletePovm(
        renormalized_povm(_two_design_style_projectors(d))
    )


def conditional_states(rho: DensityMatrix, elements, measured: int) -> np.ndarray:
    """Tr_measured[(E (x) I) rho] of a bipartite state, unnormalized.

    ``elements`` is an operator on the ``measured`` side (0 or 1) or a
    stack of them (leading axes); the result is the operator, or stack,
    left on the other side.  Applies E (x) I to the state reshaped to
    (d0, d1, d0, d1), then traces the measured factor out.
    """
    rho4 = rho.matrix.reshape(rho.dims + rho.dims)
    if measured == 0:
        applied = np.einsum("...xa,abcd->...xbcd", elements, rho4)
        return np.einsum("...abad->...bd", applied)
    applied = np.einsum("...xb,abcd->...axcd", elements, rho4)
    return np.einsum("...abcb->...ac", applied)


@dataclass(frozen=True, eq=False)
class LocalDecomposition:
    """Born weights of an IC-POVM on one side of a bipartite state and
    the normalized conditional states it leaves on the other side."""

    weights: np.ndarray
    cond_states: tuple


def decompose(
    rho: DensityMatrix, ic: InformationallyCompletePovm, measured: int = 0
) -> LocalDecomposition:
    """Split a bipartite state along an IC-POVM on one subsystem.

    Outcomes with zero Born weight keep a maximally mixed placeholder as
    their conditional state (their weight annihilates the term anyway).
    """
    require_subsystems(rho.dims, 2, "decompose")
    if measured not in (0, 1):
        raise ValueError("measured side must be 0 or 1")
    if rho.dims[measured] != ic.dim:
        raise ValueError(
            f"subsystem dim {rho.dims[measured]} != POVM dim {ic.dim}"
        )
    d_other = rho.dims[1 - measured]
    blocks = hermitian_part(
        conditional_states(rho, np.array(ic.povm.elements), measured)
    )
    weights = np.trace(blocks, axis1=1, axis2=2).real
    conds = tuple(
        DensityMatrix((d_other,), block / p) if p > ZERO_WEIGHT
        else DensityMatrix.maximally_mixed(d_other)
        for block, p in zip(blocks, weights)
    )
    return LocalDecomposition(np.maximum(weights, 0.0), conds)
