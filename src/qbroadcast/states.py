"""Validated value types for states and measurements.

Constructors reject anything that is not a state / POVM within a strict
tolerance; solver output is projected first, by
:func:`qbroadcast.linalg.nearest_psd` or
:func:`qbroadcast.channels.project_to_nearest_channel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    VALIDATION_ATOL,
    kron,
    max_abs,
    partial_trace,
    require_hermitian,
    require_psd,
    subsystem_indices,
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
    ``VALIDATION_ATOL``, and ``matrix`` keeps the Hermitian part that the
    hermiticity check returns (an exactly Hermitian input unchanged).
    """

    dims: tuple[int, ...]
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        dims = _as_dims(self.dims)
        mat = np.asarray(self.matrix, dtype=complex)
        d = math.prod(dims)  # exact: np.prod would wrap past int64
        if mat.shape != (d, d):
            raise ValueError(
                f"matrix shape {mat.shape} does not match dims {list(dims)}"
            )
        mat = require_hermitian(mat, "density matrix")
        tr_dev = abs(mat.trace() - 1.0)
        if tr_dev > VALIDATION_ATOL:
            raise ValueError(f"trace differs from 1 by {tr_dev:.3e}")
        require_psd(mat, "density matrix")
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
        keep = subsystem_indices(keep, len(self.dims))
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
        if vec.size != math.prod(dims):
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
    """A positive operator-valued measure: PSD elements summing to identity,
    each kept as the Hermitian part its hermiticity check returns."""

    elements: tuple

    def __post_init__(self):
        els = [np.asarray(e, dtype=complex) for e in self.elements]
        if not els:
            raise ValueError("POVM needs at least one element")
        d = els[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for i, e in enumerate(els):
            if e.shape != (d, d):
                raise ValueError(f"element {i} has shape {e.shape}, expected {(d, d)}")
            els[i] = e = require_hermitian(e, f"POVM element {i}")
            require_psd(e, f"POVM element {i}")
            total += e
        dev = max_abs(total - np.eye(d))
        if dev > VALIDATION_ATOL * max(1, len(els)):
            raise ValueError(f"elements sum to identity only within {dev:.3e}")
        object.__setattr__(self, "elements", tuple(_freeze(e) for e in els))

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

