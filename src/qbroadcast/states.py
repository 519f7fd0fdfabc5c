"""Validated value types for states and measurements.

Constructors reject anything that is not a state / POVM within a strict
tolerance; noisy matrices (experimental data, solver output) have to go
through :func:`project_to_nearest_state` explicitly first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import (
    VALIDATION_ATOL,
    dag,
    is_hermitian,
    kron,
    max_abs,
    nearest_psd,
    partial_trace,
)


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, copy=True)
    out.flags.writeable = False
    return out


def _as_dims(dims) -> tuple[int, ...]:
    if np.isscalar(dims):
        dims = [dims]
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"invalid subsystem dimensions {dims}")
    return dims


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density matrix on a tensor product of finite-dimensional factors.

    ``dims`` orders factors slowest-first, matching :func:`qbroadcast.linalg.kron`.
    Validation enforces hermiticity, unit trace and positivity within
    ``VALIDATION_ATOL``.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        dims = _as_dims(self.dims)
        mat = np.asarray(self.matrix, dtype=complex)
        d = int(np.prod(dims))
        if mat.shape != (d, d):
            raise ValueError(
                f"matrix shape {mat.shape} does not match dims {list(dims)}"
            )
        with np.errstate(invalid="ignore"):  # inf - inf
            herm_dev = max_abs(mat - dag(mat))
        if not np.isfinite(herm_dev):  # a non-finite M makes it NaN or inf
            raise ValueError("matrix is not finite")
        if herm_dev > VALIDATION_ATOL:
            raise ValueError(f"not Hermitian: max |M - M^dag| = {herm_dev:.3e}")
        tr_dev = abs(mat.trace() - 1.0)
        if tr_dev > VALIDATION_ATOL:
            raise ValueError(f"trace differs from 1 by {tr_dev:.3e}")
        lo = float(np.linalg.eigvalsh((mat + dag(mat)) / 2.0)[0])
        if lo < -VALIDATION_ATOL:
            raise ValueError(f"not positive semidefinite: min eigenvalue {lo:.3e}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @classmethod
    def maximally_mixed(cls, dims) -> "DensityMatrix":
        dims = _as_dims(dims)
        d = int(np.prod(dims))
        return cls(dims, np.eye(d) / d)

    def marginal(self, keep) -> "DensityMatrix":
        """Reduced state on the given subsystem indices."""
        if np.isscalar(keep):
            keep = [keep]
        keep = sorted(set(int(k) for k in keep))
        sub = partial_trace(self.matrix, self.dims, keep)
        return DensityMatrix(tuple(self.dims[k] for k in keep), sub)

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        return DensityMatrix(
            self.dims + other.dims, kron(self.matrix, other.matrix)
        )

    def regroup(self, dims) -> "DensityMatrix":
        """Reinterpret the factor structure (same total dimension)."""
        dims = _as_dims(dims)
        if int(np.prod(dims)) != self.dim:
            raise ValueError(f"cannot regroup dims {self.dims} as {dims}")
        return DensityMatrix(dims, self.matrix, self.label)


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector; ``to_density`` gives the projector."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = _as_dims(self.dims)
        vec = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if vec.size != int(np.prod(dims)):
            raise ValueError(
                f"vector length {vec.size} does not match dims {list(dims)}"
            )
        norm_dev = abs(np.linalg.norm(vec) - 1.0)
        if not np.isfinite(norm_dev):
            raise ValueError("amplitudes are not finite")
        if norm_dev > VALIDATION_ATOL:
            raise ValueError(f"norm differs from 1 by {norm_dev:.3e}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", _freeze(vec))

    def to_density(self, label: str = "") -> DensityMatrix:
        return DensityMatrix(
            self.dims, np.outer(self.amplitudes, self.amplitudes.conj()), label
        )


@dataclass(frozen=True, eq=False)
class Povm:
    """A positive operator-valued measure: PSD elements summing to identity."""

    elements: tuple

    def __post_init__(self):
        els = tuple(_freeze(np.asarray(e, dtype=complex)) for e in self.elements)
        if not els:
            raise ValueError("POVM needs at least one element")
        d = els[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for i, e in enumerate(els):
            if e.shape != (d, d):
                raise ValueError(f"element {i} has shape {e.shape}, expected {(d, d)}")
            if not is_hermitian(e):
                raise ValueError(f"element {i} is not Hermitian")
            lo = float(np.linalg.eigvalsh((e + dag(e)) / 2.0)[0])
            if lo < -VALIDATION_ATOL:
                raise ValueError(
                    f"element {i} is not positive semidefinite "
                    f"(min eigenvalue {lo:.3e})"
                )
            total += e
        dev = max_abs(total - np.eye(d))
        if dev > VALIDATION_ATOL * max(1, len(els)):
            raise ValueError(f"elements sum to identity only within {dev:.3e}")
        object.__setattr__(self, "elements", els)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    def probabilities(self, rho: DensityMatrix) -> np.ndarray:
        if rho.dim != self.dim:
            raise ValueError(f"state dim {rho.dim} != POVM dim {self.dim}")
        p = np.array([np.trace(e @ rho.matrix).real for e in self.elements])
        return p

    @classmethod
    def from_basis(cls, basis: np.ndarray) -> "Povm":
        """Rank-one projective measurement onto the columns of ``basis``."""
        basis = np.asarray(basis, dtype=complex)
        return cls(tuple(np.outer(basis[:, i], basis[:, i].conj())
                         for i in range(basis.shape[1])))


def project_to_nearest_state(mat: np.ndarray, dims, label: str = "") -> DensityMatrix:
    """Closest density matrix to an approximately-valid input.

    Symmetrizes, clips negative eigenvalues to zero and renormalizes the
    trace.  Intended for solver output or noisy data; raises only when the
    input is so far off that no sensible projection exists (zero trace).
    """
    dims = _as_dims(dims)
    psd = nearest_psd(np.asarray(mat, dtype=complex))
    total = np.trace(psd).real
    if total <= 0.0:
        raise ValueError("matrix has no positive part to normalize")
    rho = psd / total
    rho = (rho + dag(rho)) / 2.0
    return DensityMatrix(dims, rho, label)
