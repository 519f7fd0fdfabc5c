"""Entropic and distance measures, all in bits (base-2 logarithms).

Every entropy, here and in the discord search, is ``entropy_of_spectrum``
of a spectrum, which counts the eigenvalues ``linalg.support_mask`` keeps.
Entropic quantities that are nonnegative in exact arithmetic, I(A:C|B)
included, read 0 within ``linalg.NEGATIVE_DUST`` below zero; anything more
negative raises, since it signals an invalid input rather than roundoff.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    NEGATIVE_DUST,
    SUPPORT_LEAK_TOL,
    InputError,
    dag,
    hermitian_eig,
    matrix_function_on_support,
    subsystem_indices,
    support_mask,
    trace_norm,
)
from .states import DensityMatrix


def _require_equal_dim(rho: DensityMatrix, sigma: DensityMatrix, what: str):
    if rho.dim != sigma.dim:
        raise InputError(f"{what} needs states of equal dimension, got "
                         f"{rho.dim} and {sigma.dim}")


def _clamp_dust(value: float, what: str) -> float:
    if value < -NEGATIVE_DUST:
        raise ValueError(f"{what} = {value:.3e} is negative beyond roundoff")
    return max(value, 0.0)


def entropy_of_spectrum(p: np.ndarray):
    """-sum p log2 p over the ``support_mask`` of a spectrum, or of each
    spectrum (last axis) of a stack; entries off the support, negative
    roundoff included, count as zeros.  Not normalized or clamped."""
    q = np.where(support_mask(p), p, 1.0)  # 1 log2 1 = 0 off the support
    return -(q * np.log2(q)).sum(axis=-1)


def entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy S(rho) in bits."""
    value = float(entropy_of_spectrum(np.linalg.eigvalsh(rho.matrix)))
    return _clamp_dust(value, "entropy")


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy S(rho || sigma) in bits.

    Returns ``float("inf")`` when the support of rho is not contained in
    the support of sigma (more than SUPPORT_LEAK_TOL of rho's weight sits
    outside).
    """
    _require_equal_dim(rho, sigma, "relative entropy")
    vals, vecs = hermitian_eig(sigma.matrix).on_support()
    outside = np.eye(rho.dim) - vecs @ dag(vecs)
    leak = float(np.trace(rho.matrix @ outside).real)
    if leak > SUPPORT_LEAK_TOL:
        return float("inf")
    log_sigma = (vecs * np.log2(vals)) @ dag(vecs)
    cross = float(np.trace(rho.matrix @ log_sigma).real)
    value = -entropy(rho) - cross
    return _clamp_dust(value, "relative entropy")


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F(rho, sigma) = || sqrt(rho) sqrt(sigma) ||_1.

    Square-root convention: F is 1 iff the states coincide, and for pure
    |psi> it reduces to sqrt(<psi| sigma |psi>).
    """
    _require_equal_dim(rho, sigma, "fidelity")
    sq_r = matrix_function_on_support(rho.matrix, np.sqrt)
    sq_s = matrix_function_on_support(sigma.matrix, np.sqrt)
    value = trace_norm(sq_r @ sq_s)
    if value > 1.0 + NEGATIVE_DUST:
        raise ValueError(f"fidelity {value} exceeds 1 beyond roundoff")
    return min(value, 1.0)


def _split_groups(dims, *groups):
    """Each group as ``subsystem_indices``; InputError on a subsystem listed
    twice, within a group or across groups."""
    split = [subsystem_indices(g, len(dims)) for g in groups]
    listed = [int(i) for g in groups for i in np.atleast_1d(g)]
    for i in listed:
        if listed.count(i) > 1:
            raise InputError(f"subsystem index {i} listed twice")
    return split


def mutual_information(rho: DensityMatrix, side_a=(0,)) -> float:
    """I(A:B) = S(A) + S(B) - S(AB), with A the listed subsystem indices.

    B is everything else.  Equals S(rho || rho_A (x) rho_B).
    """
    (a,) = _split_groups(rho.dims, side_a)
    b = [i for i in range(len(rho.dims)) if i not in a]
    if not a or not b:
        raise InputError("both sides of the cut must be nonempty")
    value = (
        entropy(rho.marginal(a)) + entropy(rho.marginal(b)) - entropy(rho)
    )
    return _clamp_dust(value, "mutual information")


def conditional_mutual_information(
    rho: DensityMatrix, side_a, side_c, side_b=None
) -> float:
    """I(A:C|B) = S(AB) + S(BC) - S(ABC) - S(B).

    ``side_b`` defaults to all remaining subsystems.  Strong subadditivity
    makes the exact quantity nonnegative, so it clamps like every entropic
    difference: 0 within ``NEGATIVE_DUST`` below zero, ValueError lower.
    """
    if side_b is None:
        a, c = _split_groups(rho.dims, side_a, side_c)
        b = [i for i in range(len(rho.dims)) if i not in a and i not in c]
    else:
        a, c, b = _split_groups(rho.dims, side_a, side_c, side_b)
    if not a or not c:
        raise InputError("A and C must be nonempty")
    value = (
        entropy(rho.marginal(sorted(a + b)))
        + entropy(rho.marginal(sorted(b + c)))
        - entropy(rho.marginal(sorted(a + b + c)))
        - (entropy(rho.marginal(sorted(b))) if b else 0.0)
    )
    return _clamp_dust(value, "conditional mutual information")
