"""Dense linear algebra helpers and the package's numerical policy.

Everything here works on plain complex ndarrays.  Composite indices are
ordered with the first tensor factor slowest (most significant), i.e.
``kron(A, B)`` puts ``A`` on the slow index, matching the row-major
reshape ``(dA, dB, dA, dB)``.

This module is the one place that decides when a number about a state,
channel, POVM or spectrum counts as zero, equal or valid: the tolerance
constants below, the support rule (``support_mask``, which
``HermitianEig.on_support``, every entropy and the discord search read),
the PSD projection (``nearest_psd``) and one check per validation rule,
each naming what it refuses: ``require_hermitian`` (finite, and
max |A - A^dag| within a bound; it returns the Hermitian part),
``require_psd``, ``require_subsystems`` and ``subsystem_indices`` (the
factors a partial trace keeps, or the sides of a mutual information).
Other modules import them.  A refusal of the input's shape (factor
count, index, dimension, name) is an ``InputError``, which the command
line exits 2 on; a numerical refusal (not PSD, negative beyond
roundoff) is a plain ``ValueError``.  The only tolerance arguments
are ``require_hermitian``'s (``sdp`` passes its ``COEFF_HERM_TOL``) and the
SDP solve tolerance, whose ``sdp.fidelity_slack`` is how far a certified
fidelity may fall short of a bound.  Stopping rules of an algorithm stay
with it: the SDP solver's in ``sdp``, the discord search's in ``broadcast``.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

# Support rule, read by support_mask alone: eigenvalues <= this * top are 0.
SUPPORT_CUTOFF = 1e-12
# Input slack (Hermiticity, trace, positivity, orthonormality) before refusal.
VALIDATION_ATOL = 1e-10
# Entropies this far below 0, or fidelities this far above 1, are roundoff.
NEGATIVE_DUST = 1e-9
# S(rho||sigma) is infinite once more weight of rho leaks out of supp(sigma).
SUPPORT_LEAK_TOL = 1e-9
# Commutators below this are zero: two states commute, a side is classical.
COMMUTE_TOL = 1e-9
# Conditional states with less Born weight are roundoff in a verdict.
WEIGHT_FLOOR = 1e-12
# Relative eigenvalue gaps below this are degenerate in common_eigenbasis.
DEGENERACY_GAP = 1e-6
# A Stinespring dilation must be an isometry within this, entrywise.
ISOMETRY_ATOL = 1e-8


class InputError(ValueError):
    """The input has the wrong shape for the quantity asked of it."""


def support_mask(values: np.ndarray) -> np.ndarray:
    """The support rule: True where an eigenvalue exceeds SUPPORT_CUTOFF
    times the largest of its spectrum, the last axis of ``values`` (one
    spectrum or a stack of them).  A spectrum whose largest eigenvalue is
    not positive has no support."""
    values = np.asarray(values)
    top = values.max(axis=-1, keepdims=True, initial=0.0)
    return values > SUPPORT_CUTOFF * top


class HermitianEig(NamedTuple):
    """Eigendecomposition with eigenvalues sorted in descending order.

    ``vectors[:, k]`` is the unit eigenvector for ``values[k]``.
    """

    values: np.ndarray
    vectors: np.ndarray

    def on_support(self) -> "HermitianEig":
        """The eigenpairs on the support (``support_mask``).

        Empty (no values, no columns) when the largest eigenvalue is not
        positive.  Since values descend, these are the leading pairs; the
        remaining columns of ``vectors`` span the kernel.
        """
        rank = int(support_mask(self.values).sum())
        return HermitianEig(self.values[:rank], self.vectors[:, :rank])


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dag) / 2 of a matrix, or of each matrix in a stack."""
    return (a + dag(a)) / 2.0


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, first factor slowest."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def max_abs(a: np.ndarray) -> float:
    """Largest entry modulus; the norm used for residual reporting."""
    return float(np.abs(a).max()) if a.size else 0.0


@np.errstate(invalid="ignore", over="ignore")  # inf - inf, huge - -huge
def require_hermitian(a: np.ndarray, what: str, tol: float = VALIDATION_ATOL):
    """The Hermitian part A - (A - A^dag)/2 of ``a``, a matrix or a stack,
    if it is finite and max |A - A^dag| is at most ``tol``, else ValueError
    naming ``what``.  The part is built in place from the difference the
    check forms, so an exactly Hermitian ``a`` comes back unchanged.  An
    entry and its mirror agree exactly where their difference is exact
    (within a factor 2 of each other, or one of them 0), else to the last
    bit."""
    skew = a - dag(a)
    dev = max_abs(skew)
    if not dev <= tol:  # NaN fails too
        if not np.isfinite(a).all():
            raise ValueError(f"{what} is not finite")
        raise ValueError(f"{what} is not Hermitian: max |A - A^dag| = {dev:.3e}")
    skew *= -0.5
    skew += a
    return skew


def require_psd(a: np.ndarray, what: str, scale: float = 1.0):
    """ValueError naming ``what`` unless the least eigenvalue of ``a``, a
    Hermitian part as ``require_hermitian`` returns it, is at least
    ``-VALIDATION_ATOL * scale``."""
    lo = float(np.linalg.eigvalsh(a)[0])
    if lo < -VALIDATION_ATOL * scale:
        raise ValueError(f"{what} is not positive semidefinite: eigenvalue {lo:.3e}")


def require_subsystems(dims: Sequence[int], count: int, what: str):
    """InputError naming ``what`` unless ``dims`` lists ``count`` factors."""
    if len(dims) != count:
        raise InputError(f"{what} needs {count} subsystems, got dims {dims}")


def subsystem_indices(keep, n: int) -> list[int]:
    """``keep`` (an int or a sequence of ints) as sorted distinct subsystem
    indices, or InputError when one is not an integer or is out of range
    for ``n`` subsystems."""
    if np.isscalar(keep):
        keep = [keep]
    for k in keep:
        if k != int(k):
            raise InputError(f"subsystem index {k!r} is not an integer")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise InputError(f"subsystem indices {keep} out of range for {n} subsystems")
    return keep


def _check_square(mat: np.ndarray, dims: Sequence[int]) -> int:
    d = math.prod(dims)
    if mat.shape[-2:] != (d, d):
        raise ValueError(
            f"operator shape {mat.shape} does not match dims {list(dims)} "
            f"(product {d})"
        )
    return d


def partial_trace(mat: np.ndarray, dims: Sequence[int], keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    Parameters
    ----------
    mat : square array on the tensor product of ``dims``, or a stack of
        them (leading axes), each reduced on its own
    dims : subsystem dimensions, slowest factor first
    keep : int or sequence of ints; subsystem indices to retain,
        in their original order

    Returns the reduced operator (or stack) on the kept factors.
    """
    dims = [int(d) for d in dims]
    n = len(dims)
    keep = subsystem_indices(keep, n)
    mat = np.asarray(mat, dtype=complex)
    _check_square(mat, dims)
    lead = mat.shape[:-2]
    tensor = mat.reshape(lead + tuple(dims + dims))
    # Contract row/column indices of every traced subsystem, highest first
    # so the remaining axis numbers stay valid.
    traced = [k for k in range(n) if k not in keep]
    for k in sorted(traced, reverse=True):
        half = (tensor.ndim - len(lead)) // 2
        tensor = np.trace(tensor, axis1=len(lead) + k, axis2=len(lead) + k + half)
    d_keep = math.prod(dims[k] for k in keep)
    return tensor.reshape(lead + (d_keep, d_keep))


def hermitian_eig(mat: np.ndarray) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises ValueError unless ``mat`` is finite and Hermitian (VALIDATION_ATOL).
    """
    mat = require_hermitian(np.asarray(mat, dtype=complex), "matrix")
    vals, vecs = np.linalg.eigh(mat)
    order = np.argsort(vals)[::-1]
    return HermitianEig(vals[order], vecs[:, order])


def matrix_function_on_support(
    mat: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Apply ``fn`` to the nonzero spectrum of a PSD matrix.

    Eigenvalues off the support (``HermitianEig.on_support``) are treated
    as exact zeros (the function is *not* applied to them), so e.g.
    ``fn=lambda x: x**-0.5`` yields the pseudo-inverse square root.
    Eigenvalues below ``-VALIDATION_ATOL`` raise; small negative dust is
    dropped.
    """
    eig = hermitian_eig(mat)
    if eig.values.size and eig.values[-1] < -VALIDATION_ATOL:
        raise ValueError(
            f"matrix is not positive semidefinite: min eigenvalue "
            f"{eig.values[-1]:.3e}"
        )
    vals, vecs = eig.on_support()
    return (vecs * fn(vals)) @ dag(vecs)


def support_projector(mat: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the support (range) of a PSD matrix."""
    return matrix_function_on_support(mat, lambda x: np.ones_like(x))


def support_isometry(mat: np.ndarray) -> np.ndarray:
    """Isometry V whose columns span the support of a PSD matrix.

    ``dag(V) @ mat @ V`` is the compression of ``mat`` onto its support.
    V is exactly the identity when ``support_mask`` keeps every eigenvalue.
    """
    vals, vecs = hermitian_eig(mat).on_support()
    return vecs if len(vals) < len(vecs) else np.eye(len(vecs), dtype=complex)


def nearest_psd(mat: np.ndarray) -> np.ndarray:
    """Closest PSD matrix in Frobenius norm: the Hermitian part of ``mat``
    with its negative eigenvalues set to zero."""
    vals, vecs = hermitian_eig(hermitian_part(mat))
    return (vecs * np.clip(vals, 0.0, None)) @ dag(vecs)


def trace_norm(mat: np.ndarray) -> float:
    """Sum of singular values (Schatten 1-norm)."""
    return float(np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False).sum())
