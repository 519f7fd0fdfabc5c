"""POVMs and the conditional states they leave on the other side.

``build_ic_povm`` gives an informationally complete POVM on C^d, whose d^2
elements span operator space; ``renormalized_povm`` renormalizes PSD
elements into a POVM.  ``conditional_states`` measures one side of a
bipartite state with elements {E_i} and returns the unnormalized states

    p_i rho_i = Tr_measured[(E_i (x) I) rho]

left on the other side, with Born weights p_i = Tr(p_i rho_i).  For an IC
POVM they commute pairwise iff the state is classical on the unmeasured
side, which is the classicality test; the measure-and-prepare SDPs of
``broadcast`` read them too.
"""

from __future__ import annotations

import numpy as np

from .linalg import matrix_function_on_support
from .states import DensityMatrix, Povm

_TETRAHEDRON = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / np.sqrt(3)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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


def build_ic_povm(d: int) -> Povm:
    """Construct an informationally complete POVM on C^d.

    For qubits this is the tetrahedral (SIC) POVM.  For larger d a fixed
    set of d^2 rank-one projectors is renormalized into a POVM.
    """
    if d < 2:
        raise ValueError("need dimension at least 2")
    if d == 2:
        return Povm(_tetrahedral_qubit_povm())
    return renormalized_povm(_two_design_style_projectors(d))


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
