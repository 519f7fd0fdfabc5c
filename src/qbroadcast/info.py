"""Entropic and distance measures, all in bits (base-2 logarithms).

Entropic quantities that are nonnegative in exact arithmetic, I(A:C|B)
included, read 0 within ``linalg.NEGATIVE_DUST`` below zero; anything more
negative raises, since it signals an invalid input rather than roundoff.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    NEGATIVE_DUST,
    SUPPORT_CUTOFF,
    SUPPORT_LEAK_TOL,
    InputError,
    matrix_function_on_support,
    subsystem_indices,
    support_projector,
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


def entropy_of_spectrum(p: np.ndarray) -> float:
    """Shannon entropy in bits of a (sub)normalized nonnegative vector."""
    p = np.asarray(p, dtype=float)
    top = p.max(initial=0.0)
    p = p[p > SUPPORT_CUTOFF * max(top, 1.0)]
    if p.size == 0:
        return 0.0
    return float(-(p * np.log2(p)).sum())


def entropy_matrix(mat: np.ndarray) -> float:
    """von Neumann entropy of a raw density matrix (no validation)."""
    vals = np.linalg.eigvalsh(mat)
    vals = np.clip(vals, 0.0, None)
    return _clamp_dust(entropy_of_spectrum(vals), "entropy")


def entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy S(rho) in bits."""
    return entropy_matrix(rho.matrix)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy S(rho || sigma) in bits.

    Returns ``float("inf")`` when the support of rho is not contained in
    the support of sigma (more than SUPPORT_LEAK_TOL of rho's weight sits
    outside).
    """
    _require_equal_dim(rho, sigma, "relative entropy")
    proj = support_projector(sigma.matrix)
    leak = float(np.trace(rho.matrix @ (np.eye(rho.dim) - proj)).real)
    if leak > SUPPORT_LEAK_TOL:
        return float("inf")
    log_sigma = matrix_function_on_support(sigma.matrix, np.log2)
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
