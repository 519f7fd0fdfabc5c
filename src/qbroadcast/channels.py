"""Quantum channels and completely positive maps in Choi form.

The canonical Choi matrix convention is

    J = sum_{ij} |i><j| (x) ch(|i><j|)

with the *input* factor on the slow index, so ``J`` lives on
``in_dims + out_dims`` and the channel acts as

    ch(rho)[o, p] = sum_{ij} rho[i, j] * J[(i, o), (j, p)].

Kraus and Stinespring forms are derived views of the Choi matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    ISOMETRY_ATOL,
    VALIDATION_ATOL,
    dag,
    hermitian_eig,
    hermitian_part,
    kron,
    max_abs,
    nearest_psd,
    partial_trace,
    require_hermitian,
    require_psd,
    subsystem_indices,
)
from .states import DensityMatrix, Povm, PureState, _as_dims, _freeze


@dataclass(frozen=True, eq=False)
class CompletelyPositiveMap:
    """A completely positive (not necessarily trace-preserving) map.

    Validation enforces hermiticity and positivity of the Choi matrix, and
    ``choi`` keeps the Hermitian part that the hermiticity check returns.
    """

    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    choi: np.ndarray

    def __post_init__(self):
        in_dims = _as_dims(self.in_dims)
        out_dims = _as_dims(self.out_dims)
        din, dout = math.prod(in_dims), math.prod(out_dims)  # exact, no wrap
        j = np.asarray(self.choi, dtype=complex)
        if j.shape != (din * dout, din * dout):
            raise ValueError(
                f"Choi shape {j.shape} does not match dims "
                f"{list(in_dims)} -> {list(out_dims)}"
            )
        j = require_hermitian(j, "Choi matrix")
        require_psd(j, "the map is not completely positive; its Choi matrix",
                    scale=max(1.0, max_abs(j)))
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims", out_dims)
        object.__setattr__(self, "choi", _freeze(j))

    @property
    def in_dim(self) -> int:
        return int(np.prod(self.in_dims))

    @property
    def out_dim(self) -> int:
        return int(np.prod(self.out_dims))


@dataclass(frozen=True, eq=False)
class Channel(CompletelyPositiveMap):
    """A completely positive trace-preserving map."""

    def __post_init__(self):
        super().__post_init__()
        tp_dev = max_abs(
            partial_trace(self.choi, (self.in_dim, self.out_dim), 0)
            - np.eye(self.in_dim)
        )
        if tp_dev > VALIDATION_ATOL * max(1, self.out_dim):
            raise ValueError(
                f"map is not trace preserving: "
                f"max |Tr_out J - I| = {tp_dev:.3e}"
            )


def choi_subsystem_action(
    choi: np.ndarray,
    in_dim: int,
    out_dim: int,
    mat: np.ndarray,
    dims,
    target: int,
) -> np.ndarray:
    """Raw-Choi counterpart of apply_on_subsystem.

    ``mat`` lives on ``dims``; the factor at ``target`` (of size in_dim)
    is replaced by the map output.  Linear in ``choi`` with no positivity
    or trace assumptions, so it also acts through a Hermitian basis
    element when a channel enters an optimization as a variable.  A stack
    of Choi matrices (leading axes) gives the stack of their outputs.
    """
    dims = _as_dims(dims)
    d_pre = int(np.prod(dims[:target], dtype=int))
    d_post = int(np.prod(dims[target + 1:], dtype=int))
    lead = choi.shape[:-2]
    j4 = choi.reshape(lead + (in_dim, out_dim, in_dim, out_dim))
    t = mat.reshape(d_pre, in_dim, d_post, d_pre, in_dim, d_post)
    out = np.einsum("aibcjd,...iejf->...aebcfd", t, j4)
    side = d_pre * out_dim * d_post
    return out.reshape(lead + (side, side))


@dataclass(frozen=True, eq=False)
class ChoiTerm:
    """The linear map X -> sum_ij M_ij (x) T(X_ij) of a block X over
    (input, output), input slow, X_ij its output tile (i, j), with
    M_ij[a, a'] = m[a, i, a', j] and T(Y)[o, o'] = sum_uv t[o, o', u, v]
    Y[u, v].  A Choi matrix acting on one factor of a state rho
    (``choi_subsystem_action``) is m = rho over (rest, target) and the
    identity t (``on_output``); a trace over part of the output or a
    symmetry sector goes into t, and so does the preparation tau of a
    measure-and-prepare channel, t = tau.  The fidelity gadget reads its
    constraint rows off m and t."""

    m: np.ndarray  # (d_a, d_in, d_a, d_in)
    t: np.ndarray  # (s, s, d_out, d_out)

    @staticmethod
    def on_output(d_out: int) -> np.ndarray:
        """The ``t`` of the identity on a d_out-dimensional output."""
        eye = np.eye(d_out, dtype=complex)
        return eye[:, None, :, None] * eye[None, :, None, :]

    @classmethod
    def of_map(cls, lin, n: int) -> ChoiTerm:
        """A linear map of side-n blocks, given on stacks, as the term with
        d_in = n and a one-point output: M_ij = L(E_ij), one call on the
        units."""
        images = np.asarray(lin(np.eye(n * n, dtype=complex).reshape(n * n, n, n)))
        side = images.shape[-1]
        m = images.reshape(n, n, side, side).transpose(2, 0, 3, 1)
        return cls(m, np.ones((1, 1, 1, 1), dtype=complex))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """L(X), or the stack of L(X) over the leading axes of X."""
        (d_a, d_in), (s, d_out) = self.m.shape[:2], self.t.shape[1:3]
        x6 = x.reshape(x.shape[:-2] + (d_in, d_out, d_in, d_out))
        out = np.einsum("aibj,opuv,...iujv->...aobp", self.m, self.t, x6, optimize=True)
        return out.reshape(x.shape[:-2] + (d_a * s, d_a * s))


def apply(ch: CompletelyPositiveMap, rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel to a whole state."""
    if rho.dim != ch.in_dim:
        raise ValueError(f"state dim {rho.dim} != channel input dim {ch.in_dim}")
    out = choi_subsystem_action(
        ch.choi, ch.in_dim, ch.out_dim, rho.matrix, (rho.dim,), 0
    )
    return DensityMatrix(ch.out_dims, hermitian_part(out))


def apply_on_subsystem(
    ch: CompletelyPositiveMap, rho: DensityMatrix, target: int
) -> DensityMatrix:
    """Apply a channel to one tensor factor, identity on the rest.

    ``target`` is the index into ``rho.dims``; its dimension must equal
    the channel input.  The output dims replace the target factor with
    ``ch.out_dims`` in place.
    """
    n = len(rho.dims)
    if target < 0 or target >= n:
        raise ValueError(f"target {target} out of range for {n} subsystems")
    if rho.dims[target] != ch.in_dim:
        raise ValueError(
            f"subsystem dim {rho.dims[target]} != channel input dim {ch.in_dim}"
        )
    out = choi_subsystem_action(
        ch.choi, ch.in_dim, ch.out_dim, rho.matrix, rho.dims, target
    )
    new_dims = rho.dims[:target] + ch.out_dims + rho.dims[target + 1:]
    return DensityMatrix(new_dims, hermitian_part(out))


def choi_from_action(
    action: Callable[[np.ndarray], np.ndarray], in_dims, out_dims
) -> np.ndarray:
    """Choi matrix of a linear map given as a callable on operators."""
    in_dims = _as_dims(in_dims)
    out_dims = _as_dims(out_dims)
    din = int(np.prod(in_dims))
    dout = int(np.prod(out_dims))
    j = np.zeros((din * dout, din * dout), dtype=complex)
    j4 = j.reshape(din, dout, din, dout)
    unit = np.zeros((din, din), dtype=complex)
    for i in range(din):
        for k in range(din):
            unit[i, k] = 1.0
            j4[i, :, k, :] = action(unit)
            unit[i, k] = 0.0
    return j


def channel_from_kraus(kraus: Sequence[np.ndarray], in_dims, out_dims) -> Channel:
    """Build a channel from Kraus operators (shape out_dim x in_dim each)."""
    in_dims = _as_dims(in_dims)
    out_dims = _as_dims(out_dims)
    din = int(np.prod(in_dims))
    dout = int(np.prod(out_dims))
    j = np.zeros((din * dout, din * dout), dtype=complex)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        if k.shape != (dout, din):
            raise ValueError(f"Kraus shape {k.shape}, expected {(dout, din)}")
        # vec with the input index slow: v[(i, o)] = K[o, i]
        v = k.T.reshape(-1)
        j += np.outer(v, v.conj())
    return Channel(in_dims, out_dims, j)


def kraus_from_choi(ch: CompletelyPositiveMap) -> list:
    """Kraus operators from the spectral decomposition of the Choi matrix."""
    vals, vecs = hermitian_eig(ch.choi).on_support()
    return [
        np.sqrt(lam) * v.reshape(ch.in_dim, ch.out_dim).T
        for lam, v in zip(vals, vecs.T)
    ]


def stinespring(ch: Channel) -> np.ndarray:
    """Stinespring isometry V of shape (out_dim * env_dim, in_dim).

    The environment index is the fast factor of the output:
    ch(rho) = Tr_env[V rho V^dag].  env_dim equals the Choi rank.
    """
    kraus = kraus_from_choi(ch)
    env = len(kraus)
    v = np.zeros((ch.out_dim * env, ch.in_dim), dtype=complex)
    for e, k in enumerate(kraus):
        v[e::env, :] = k
    dev = max_abs(dag(v) @ v - np.eye(ch.in_dim))
    if dev > ISOMETRY_ATOL:
        raise ValueError(f"Stinespring dilation is not an isometry ({dev:.3e})")
    return v


def identity_channel(dims) -> Channel:
    dims = _as_dims(dims)
    d = int(np.prod(dims))
    return channel_from_kraus([np.eye(d)], dims, dims)


def trace_out_channel(dims, keep) -> Channel:
    """Partial trace over the unlisted factors, as a channel."""
    dims = _as_dims(dims)
    keep = subsystem_indices(keep, len(dims))
    out_dims = tuple(dims[k] for k in keep)
    j = choi_from_action(lambda x: partial_trace(x, dims, keep), dims, out_dims)
    return Channel(dims, out_dims, j)


def quantum_to_classical(povm: Povm) -> Channel:
    """Measure-and-record channel: rho -> sum_i Tr(E_i rho) |i><i|."""
    k = povm.n_outcomes
    return entanglement_breaking(
        povm, [PureState((k,), ket).to_density() for ket in np.eye(k)]
    )


def entanglement_breaking(povm: Povm, preps: Sequence[DensityMatrix]) -> Channel:
    """Measure-and-prepare channel: rho -> sum_i Tr(E_i rho) tau_i.

    The Choi matrix is sum_i E_i^T (x) tau_i, separable by construction.
    """
    if len(preps) != povm.n_outcomes:
        raise ValueError(
            f"{len(preps)} preparation states for {povm.n_outcomes} outcomes"
        )
    out_dims = preps[0].dims
    if any(p.dims != out_dims for p in preps):
        raise ValueError("preparation states live on different spaces")
    j = sum(
        kron(e.T, p.matrix) for e, p in zip(povm.elements, preps)
    )
    return Channel((povm.dim,), out_dims, j)


def project_to_nearest_channel(choi: np.ndarray, in_dims, out_dims) -> Channel:
    """Closest channel to an approximately CP/TP Choi matrix.

    Clips negative Choi eigenvalues, then restores trace preservation by
    the congruence J -> (T^{-1/2} (x) I) J (T^{-1/2} (x) I) with
    T = Tr_out J, inverted on its support.  Inputs in the kernel of T,
    where the map is undefined, go to the maximally mixed output.
    Intended for solver output.
    """
    in_dims = _as_dims(in_dims)
    out_dims = _as_dims(out_dims)
    din = int(np.prod(in_dims))
    dout = int(np.prod(out_dims))
    j = nearest_psd(np.asarray(choi, dtype=complex))
    t = partial_trace(j, (din, dout), 0)
    vals, vecs = hermitian_eig(t).on_support()
    t_isqrt = (vecs * vals ** -0.5) @ dag(vecs)
    j = kron(t_isqrt, np.eye(dout)) @ j @ kron(t_isqrt, np.eye(dout))
    if vals.size < din:
        missing = np.eye(din) - vecs @ dag(vecs)
        j = j + kron(missing, np.eye(dout) / dout)
    return Channel(in_dims, out_dims, hermitian_part(j))
