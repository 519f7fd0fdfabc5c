"""Informationally complete POVMs and local frame decompositions.

An IC-POVM with d^2 elements spans the operator space of C^d, so every
bipartite state can be written as

    rho_AB = sum_i p_i  F^A_i (x) rho^B_i

with Born weights p_i, dual-frame operators F_i (Hermitian, generally not
positive) and normalized conditional states rho^B_i.  This decomposition
is the workhorse for the classicality tests: properties of the
conditional-state family decide broadcastability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ZERO_WEIGHT,
    dag,
    hermitian_part,
    kron,
    partial_trace,
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
    """A d^2-outcome POVM spanning operator space, with its dual frame.

    ``dual[i]`` are the Hermitian operators satisfying
    Tr(dual[i] @ elements[j]) = delta_ij, so any X decomposes as
    X = sum_i Tr(E_i X) dual[i].
    """

    povm: Povm
    dual: tuple
    gram_condition: float

    @property
    def dim(self) -> int:
        return self.povm.dim


def _gram(elements) -> np.ndarray:
    k = len(elements)
    g = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            g[i, j] = np.trace(elements[i] @ elements[j]).real
    return g


def _dual_frame(elements) -> tuple:
    g = _gram(elements)
    cond = float(np.linalg.cond(g))
    ginv = np.linalg.inv(g)
    dual = tuple(
        sum(ginv[i, j] * elements[j] for j in range(len(elements)))
        for i in range(len(elements))
    )
    return dual, cond


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


def _psd_sqrt(m):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0, None))) @ dag(vecs)


def build_ic_povm(d: int) -> InformationallyCompletePovm:
    """Construct an informationally complete POVM on C^d.

    For qubits this is the tetrahedral (SIC) POVM.  For larger d a fixed
    set of d^2 rank-one projectors is renormalized into a POVM.  Its Gram
    condition number grows like 4 d^2 (3, 21.5, 45.5, 121, 385 at
    d = 2, 3, 4, 6, 10), so the dual frame stays well conditioned at every
    dimension the package can hold in memory.
    """
    if d < 2:
        raise ValueError("need dimension at least 2")
    if d == 2:
        els = _tetrahedral_qubit_povm()
    else:
        projs = _two_design_style_projectors(d)
        total = sum(projs)
        isqrt = np.linalg.inv(_psd_sqrt(total))
        els = tuple(isqrt @ p @ isqrt for p in projs)
    dual, cond = _dual_frame(els)
    # symmetrize away roundoff before validation
    els = tuple(hermitian_part(e) for e in els)
    return InformationallyCompletePovm(Povm(els), dual, cond)


@dataclass(frozen=True, eq=False)
class LocalDecomposition:
    """Frame decomposition of a bipartite state along one side.

    rho = sum_i weights[i] * (frame_ops[i] on the measured side)
                (x) (cond_states[i] on the other side)

    with the tensor factors in the original order.  ``weights`` are the
    Born probabilities of the IC-POVM on the measured subsystem.
    """

    measured_subsystem: int
    weights: np.ndarray
    frame_ops: tuple
    cond_states: tuple

    def reconstruct(self) -> np.ndarray:
        pieces = []
        for w, f, c in zip(self.weights, self.frame_ops, self.cond_states):
            local = (f, w * c.matrix)
            if self.measured_subsystem == 1:
                local = local[::-1]
            pieces.append(kron(*local))
        return sum(pieces)


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
    other = 1 - measured
    d_other = rho.dims[other]
    weights = []
    conds = []
    for e in ic.povm.elements:
        op = kron(e, np.eye(d_other)) if measured == 0 else kron(np.eye(d_other), e)
        block = hermitian_part(partial_trace(op @ rho.matrix, rho.dims, other))
        p = float(block.trace().real)
        if p > ZERO_WEIGHT:
            conds.append(DensityMatrix((d_other,), block / p))
        else:
            p = max(p, 0.0)
            conds.append(DensityMatrix.maximally_mixed(d_other))
        weights.append(p)
    return LocalDecomposition(
        measured, np.array(weights), ic.dual, tuple(conds)
    )
