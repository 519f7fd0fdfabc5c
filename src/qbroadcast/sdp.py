"""Self-contained dense semidefinite-program solver.

Standard form over complex Hermitian PSD blocks X_k:

    maximize    sum_k <C_k, X_k>
    subject to  sum_k <A_ik, X_k> = b_i      (i = 1..m)
                X_k >= 0

with <A, B> = Re Tr(A B).  A constraint family enters ``SdpBuilder`` as
one row block: a (q, n_k, n_k) coefficient stack per block it touches and
q right-hand sides.  The builder refuses coefficients that are not
Hermitian, and ``SdpBuilder.build`` concatenates the row blocks into one
complex (m, n_k, n_k) array per block plus the vector b: the public data
that ``audit`` checks and redundancy removal reads.  Flattened and viewed
as real pairs, a stack becomes real rows whose dot product with a
flattened Hermitian X is Re Tr(A_i X), so the real linear algebra needs
neither a copy nor an embedding.  Dependent constraints are found by one
pivoted Cholesky of the rows' Gram matrix, which resolves independence to
about 1e-6 relative, and dropped once their right-hand sides are checked
against the kept rows.

Each solve then lays out the kept, scaled rows once per block group
(``_layout``), and every per-iterate operation (the map
X -> (<A_i, X>)_i, its adjoint, the Schur complement, the starting point)
runs from that layout.  An entry row of a block has at most 2 nonzero
entries there, as the orthonormal basis elements of the fidelity gadget
have; a block group is the blocks of one side whose entry rows are the
same rows with entries at the same positions.  The k outcome or
preparation blocks of a measure-and-prepare half-step form one group;
every other block the library builds is a group of its own.  X, Z and
every per-block quantity are one (b, n, n) stack per group, so the NT
scaling, the step lengths, the Newton right-hand sides and the updates
run once per group, in stacked LAPACK and BLAS calls, as SDPT3 uses the
block-diagonal structure.  A group (``_BlockRows``) holds only the rows
that touch it.  An entry row is held as its entries, with one value per
block: W A_i W is a sum of two outer products, and Re Tr(A_j W A_i W) is
read off it at row j's entries, as in the sparse-row Schur formulas of
Fujisawa, Kojima and Nakata (Math. Program. 79, 235, 1997).  The other
rows form one real matrix over the flattened stack, so A(X) and A^*(y)
are one matrix-vector product each, and keep dense W A W products.
Stacking blocks whose entry rows differ would hold those rows densely,
hence the grouping rule.  The reduced problem is solved by primal-dual
path following with Nesterov-Todd scaling run directly on the Hermitian
blocks, as SDPT3 does for complex data (Toh, Todd and Tutuncu 1999);
each iterate is factored once, and its step lengths reuse that
factorization.  A predictor step picks the centering weight, and the
corrector adds Mehrotra's second-order term in the NT-scaled space,
where the scaled point is diagonal and the Lyapunov solve is entrywise.  A Schur
complement that is numerically singular is solved on its range; only a
Schur complement or direction that is not finite ends a solve with
``breakdown``.  A solve reports the row-scaled residuals, over the kept
rows, of the point it returns; ``audit`` is the unscaled check.
Instances here are small (block side <= ~40, <= ~700 constraints), so
dense linear algebra per iteration is the right tool.  The fidelity
gadget applies each linear term of sigma once, to a whole stack of basis
elements.

Every fidelity the library reports comes from ``certified_fidelity``: a
solve counts only with status ``optimal`` and a passing, independent
``audit``, and it returns its ``SdpSolution`` with the value.  Inside
``recording()`` each such solve is also logged as a (what, solution)
record; the reports of ``broadcast`` and ``recovery`` read their solutions
from it and keep them, and check the paper's inequality chain with
``check_chain`` when they are built.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (
    dag,
    hermitian_part,
    kron,
    max_abs,
    require_hermitian,
    support_isometry,
)

COEFF_HERM_TOL = 1e-12
DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 500


def fidelity_slack(tol: float) -> float:
    """How far below a bound a fidelity solved at ``tol`` may still meet it."""
    return 10.0 * tol


def check_chain(chain: str, links, tol: float) -> None:
    """Raise RuntimeError naming the first link (name, high, low) of the
    chain with high < low beyond the slack of the solves' tolerance ``tol``."""
    for link, high, low in links:
        if high < low - fidelity_slack(tol):
            raise RuntimeError(
                f"{chain} chain broken: {link} fails ({high!r} < {low!r})"
            )


# ---------------------------------------------------------------------------
# problem containers


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Standard-form SDP data over complex Hermitian blocks.

    ``stacks[k][i]`` is the coefficient of block k in constraint i (zero
    where the constraint leaves the block out) and ``rhs[i]`` is b_i.
    """

    blocks: tuple[int, ...]
    objective: tuple
    stacks: tuple  # of (m, n_k, n_k) Hermitian stacks
    rhs: np.ndarray

    def __post_init__(self):
        if not len(self.blocks) == len(self.objective) == len(self.stacks):
            raise ValueError("blocks, objective and stacks differ in length")
        if not np.isfinite(self.rhs).all():
            raise ValueError("rhs is not finite")
        m = self.n_constraints
        for k, (n, c, a) in enumerate(
            zip(self.blocks, self.objective, self.stacks)
        ):
            _check_block(c, (n, n), "objective", k)
            _check_block(a, (m, n, n), "constraint", k)

    @property
    def n_constraints(self) -> int:
        return len(self.rhs)


@dataclass(frozen=True)
class SdpResiduals:
    primal: float
    dual: float
    gap: float


@dataclass(frozen=True, eq=False)
class SdpSolution:
    """``residuals`` decided ``status``: row-scaled, over the kept rows, of
    the returned point.  ``audit`` is the unscaled check over every row."""

    status: str  # optimal | infeasible | max-iterations | breakdown
    primal_blocks: tuple
    dual_vector: np.ndarray
    primal_value: float
    dual_value: float
    residuals: SdpResiduals
    iterations: int


class SdpBuilder:
    """Incremental construction of an SdpProblem, one row block at a time."""

    def __init__(self):
        self._blocks: list[int] = []
        self._objective: list[np.ndarray] = []
        self._row_blocks: list = []  # of (coefficient stacks by block, rhs)

    def add_block(self, side: int) -> int:
        self._blocks.append(int(side))
        self._objective.append(np.zeros((side, side), dtype=complex))
        return len(self._blocks) - 1

    def _handed_out(self, block: int) -> int:
        """``block`` if ``add_block`` returned it, else ValueError."""
        if not 0 <= block < len(self._blocks):
            raise ValueError(
                f"no block {block}: the builder has {len(self._blocks)}"
            )
        return block

    def block_side(self, block: int) -> int:
        return self._blocks[self._handed_out(block)]

    def add_objective(self, block: int, coeff: np.ndarray):
        k = self._handed_out(block)
        coeff = np.asarray(coeff, dtype=complex)
        if coeff.shape != self._objective[k].shape:
            raise ValueError(f"objective block {k} has shape {coeff.shape}")
        self._objective[k] = self._objective[k] + coeff

    def add_constraint(self, coeffs: dict, rhs):
        """Add rows sum_k <A_ik, X_k> = b_i: one matrix per block and a
        scalar ``rhs``, or a row block of (q, n_k, n_k) stacks and q values.
        Blocks left out of ``coeffs`` get zeros.  A block index that
        ``add_block`` did not return, or a coefficient not finite or further
        than ``COEFF_HERM_TOL`` from Hermitian, raises ValueError; roundoff
        below that is symmetrized away."""
        rhs = np.asarray(rhs, dtype=float)
        stacks = {k: np.asarray(a, dtype=complex) for k, a in coeffs.items()}
        if rhs.ndim == 0:
            rhs, stacks = rhs[None], {k: a[None] for k, a in stacks.items()}
        for k, a in stacks.items():
            shape = (len(rhs),) + (self.block_side(k),) * 2
            stacks[k] = hermitian_part(_check_block(a, shape, "constraint", k))
        self._row_blocks.append((stacks, rhs))

    def build(self) -> SdpProblem:
        rhs = np.concatenate([np.zeros(0)] + [b for _, b in self._row_blocks])
        stacks = [np.zeros((len(rhs), n, n), dtype=complex) for n in self._blocks]
        start = 0
        for coeffs, b in self._row_blocks:
            for k, a in coeffs.items():
                stacks[k][start:start + len(b)] = a
            start += len(b)
        objective = tuple(
            hermitian_part(_check_block(c, (n, n), "objective", k))
            for k, (n, c) in enumerate(zip(self._blocks, self._objective))
        )
        return SdpProblem(tuple(self._blocks), objective, tuple(stacks), rhs)


def _check_block(a: np.ndarray, shape: tuple, what: str, block: int):
    """A if it has ``shape`` and is Hermitian within COEFF_HERM_TOL."""
    if a.shape != shape:
        raise ValueError(f"{what} block {block} has shape {a.shape}")
    return require_hermitian(a, f"{what} block {block}", COEFF_HERM_TOL)


# ---------------------------------------------------------------------------
# hermitian operator basis


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of n x n Hermitian matrices.

    Stacked as an (n^2, n, n) array: the diagonal units first, then for
    each i < j the real and the imaginary off-diagonal element.
    """
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    t = n
    for i in range(n):
        for j in range(i + 1, n):
            basis[t, i, j] = basis[t, j, i] = 1.0 / np.sqrt(2)
            basis[t + 1, i, j] = -1j / np.sqrt(2)
            basis[t + 1, j, i] = 1j / np.sqrt(2)
            t += 2
    return basis


# ---------------------------------------------------------------------------
# the interior-point core (complex Hermitian blocks)


def _real_rows(stacks) -> list:
    """Zero-copy real (m, 2 n^2) views of the stacks: row . x is Re Tr(A X)."""
    return [a.reshape(len(a), a.shape[-1] ** 2).view(float) for a in stacks]


def _entry_rows(a: np.ndarray, kept: np.ndarray, scale: np.ndarray):
    """One block's kept rows that touch it, split by kind: the entry rows
    (at most 2 nonzero entries there) as positions in ``kept``, their
    entries' flat positions (e, 2) in the block and scaled values (e, 2),
    padded with value 0 after a lone entry, and the other touching rows
    as positions in ``kept``."""
    n = a.shape[-1]
    flat_a = a.reshape(len(a), n * n)
    # nonzero entries row by row, in flat order within a row, so an
    # off-diagonal pair's upper entry comes first
    row, t = np.nonzero(flat_a)
    nnz = np.bincount(row, minlength=len(a))[kept]
    basis = np.flatnonzero((nnz > 0) & (nnz <= 2))
    position = np.full(len(a), -1)
    position[kept[basis]] = np.arange(len(basis))
    i = position[row]
    row, t, i = row[i >= 0], t[i >= 0], i[i >= 0]
    slot = np.zeros(len(i), dtype=int)
    slot[1:] = i[1:] == i[:-1]
    flat = np.zeros((len(basis), 2), dtype=int)
    v = np.zeros((len(basis), 2), dtype=complex)
    flat[i, slot], v[i, slot] = t, flat_a[row, t] / scale[basis][i]
    return basis, flat, v, np.flatnonzero(nnz > 2)


def _layout(stacks, kept: np.ndarray, scale: np.ndarray) -> list:
    """The rows ``kept`` of the stacks, each divided by its ``scale``, as
    one ``_BlockRows`` per block group, in order of each group's first
    block.  A group is the blocks of one side whose entry rows are the
    same rows with entries at the same positions (the values may differ),
    so stacking the group's blocks adds no dense row to any entry row."""
    groups = {}
    for k, a in enumerate(stacks):
        basis, flat, v, dense = _entry_rows(a, kept, scale)
        key = (a.shape[-1], basis.tobytes(), flat.tobytes())
        groups.setdefault(key, (basis, flat, []))[2].append((k, v, dense))
    return [
        _BlockRows(stacks, kept, scale, basis, flat, members)
        for basis, flat, members in groups.values()
    ]


def _gather(layout, mats) -> list:
    """Per-block matrices as one (b, n, n) stack per group of ``layout``."""
    return [np.stack([mats[k] for k in blk.blocks]) for blk in layout]


def _scatter(layout, stacks) -> list:
    """The inverse of ``_gather``: one matrix per block, in block order."""
    out = [None] * sum(blk.b for blk in layout)
    for blk, stack in zip(layout, stacks):
        for k, mat in zip(blk.blocks, stack):
            out[k] = mat
    return out


class _BlockRows:
    """The layout of one block group: b blocks of side n, held as one
    (b, n, n) stack, and the kept, scaled rows that touch any of them, as
    the interior-point iteration reads them.

    The rows are listed in ``rows`` (as positions in ``kept``), entry rows
    first.  An entry row has at most 2 nonzero entries in each block, at
    positions ``flat`` that the group shares, and is held as the values
    ``v`` (e, b, 2) of those entries: W A_i W is then a sum of two outer
    products, Re Tr(A_i M) a gather and sum_i y_i A_i a scatter.  The
    other rows are one real (d, b 2n^2) matrix ``dense_real`` over the
    flattened stack (zero on the blocks a row leaves out), so A(X) and
    A^*(y) are one matrix-vector product each.  A lone block (b = 1) forms
    W A W by two matrix products per dense row; a group of several forms
    all of them by one batched product with W (x) W^T, as vec(W A W) =
    (W (x) W^T) vec(A) for the row-major vec.  Every index the iteration
    needs is built here, once per solve.
    """

    def __init__(self, stacks, kept, scale, basis, flat, members):
        self.blocks = tuple(k for k, _, _ in members)
        b = self.b = len(members)
        n = self.n = stacks[self.blocks[0]].shape[-1]
        dense = np.unique(np.concatenate([d for _, _, d in members]))
        self.rows, self.n_basis = np.concatenate([basis, dense]), len(basis)
        by_row = np.stack([stacks[k][kept[dense]] for k in self.blocks], axis=1)
        by_row /= scale[dense, None, None, None]
        self.dense_real = by_row.reshape(len(dense), b * n * n).view(float)
        # the same rows block by block, for the W A W products
        self.dense = np.ascontiguousarray(by_row.swapaxes(0, 1))

        # entry values (e, b, 2), and their positions in the flat stack
        v = self.v = np.stack([v for _, v, _ in members], axis=1)
        at = n * n * np.arange(b)[:, None] + flat[:, None, :]
        self.entry_at = at.reshape(len(v), 2 * b)
        self.v_bar = v.conj().reshape(len(v), 2 * b)
        # each entry's (Re, Im) positions in the real view of the flat stack
        self.flat_real = (2 * at[..., None] + np.arange(2)).reshape(-1)
        by_block = v.transpose(1, 0, 2)
        self.p, self.q, self.v_col = flat // n, flat % n, by_block[..., None]
        # On a Hermitian M an entry below the diagonal reads the conjugate
        # of its upper mirror, so Re Tr(A_i M) sums only the entries on or
        # above it: Re(v^* M[p, q]), doubled above the diagonal.
        read_w = by_block.conj() * (np.sign(self.q - self.p) + 1)
        self.reads = [
            (f.copy(), c[:, None, :].copy())
            for f, c in zip(flat.T, read_w.transpose(2, 0, 1)) if c.any()
        ]

        # where this group's terms go in A(X) and in the Schur complement
        start = self.rows[0] if len(self.rows) else 0
        if np.array_equal(self.rows, np.arange(start, start + len(self.rows))):
            self.at = slice(start, start + len(self.rows))
            self.where = (self.at, self.at)
        else:
            self.at, self.where = self.rows, np.ix_(self.rows, self.rows)

    def norms(self) -> np.ndarray:
        """Frobenius norm of each touching row in each block, (b, rows)."""
        by_block = self.dense_real.reshape(-1, self.b, 2 * self.n ** 2)
        return np.concatenate([
            np.linalg.norm(self.v, axis=2).T, np.linalg.norm(by_block, axis=2).T
        ], axis=1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """sum_k Re Tr(A_ik X_k) for each touching row i."""
        xr = np.ascontiguousarray(x).reshape(-1)
        dense = self.dense_real @ xr.view(float)
        if not self.n_basis:
            return dense
        basis = (xr[self.entry_at] * self.v_bar).sum(1).real
        return np.concatenate([basis, dense]) if len(dense) else basis

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """The (b, n, n) stack of sum_i y_i A_ik, ``y`` indexed like the
        touching rows."""
        nb, b, n = self.n_basis, self.b, self.n
        out = y[nb:] @ self.dense_real
        if nb:
            out += np.bincount(
                self.flat_real,
                (y[:nb, None, None] * self.v).view(float).reshape(-1),
                minlength=2 * b * n * n,
            )
        return out.view(complex).reshape(b, n, n)

    def schur(self, w: np.ndarray) -> np.ndarray:
        """sum_k Re Tr(A_ik W_k A_jk W_k) over pairs of touching rows."""
        nb, b, n, mt = self.n_basis, self.b, self.n, len(self.rows)
        if not mt:
            return np.zeros((0, 0))
        flat = np.empty((b, mt, n * n), dtype=complex)
        if nb:  # W[:, p] v W[q, :], summed over the two entries
            np.matmul(
                (w.swapaxes(1, 2)[:, self.p] * self.v_col).swapaxes(2, 3),
                w[:, self.q],
                out=flat[:, :nb].reshape(b, nb, n, n),
            )
        if nb < mt and b == 1:
            np.matmul(
                w[0] @ self.dense[0], w[0], out=flat[0, nb:].reshape(-1, n, n)
            )
        elif nb < mt:  # (W (x) W^T)^T, indexed [k, (b, c), (a, d)]
            kron_t = w.swapaxes(1, 2)[:, :, None, :, None] * w[:, None, :, None, :]
            np.matmul(
                self.dense.reshape(b, -1, n * n),
                kron_t.reshape(b, n * n, n * n),
                out=flat[:, nb:],
            )
        cols = []
        if nb:  # row i's entries read off each W A_j W, summed over blocks
            (f, c), *more = self.reads
            read = np.take(flat, f, axis=2) * c
            for f, c in more:
                read += np.take(flat, f, axis=2) * c
            cols.append((read.sum(0) if b > 1 else read[0]).real)
        if nb < mt:
            by_row = flat.swapaxes(0, 1).reshape(mt, b * n * n)
            cols.append(by_row.view(float) @ self.dense_real.T)
        return cols[0] if len(cols) == 1 else np.hstack(cols)


def _a_apply(layout, xs, m: int) -> np.ndarray:
    out = np.zeros(m)
    for blk, x in zip(layout, xs):
        out[blk.at] += blk.apply(x)
    return out


def _a_adjoint(layout, y: np.ndarray) -> list:
    return [blk.adjoint(y[blk.at]) for blk in layout]


def _schur_complement(layout, ws, m: int) -> np.ndarray:
    """S_ij = sum_k Re Tr(A_ik W_k A_jk W_k), symmetrized."""
    schur = np.zeros((m, m))
    for blk, w in zip(layout, ws):
        schur[blk.where] += blk.schur(w)
    return (schur + schur.T) / 2.0


def _inner(us, vs) -> float:
    """sum_k Re Tr(U_k V_k) for Hermitian U_k."""
    return float(sum(np.vdot(u, v).real for u, v in zip(us, vs)))


def _residuals(layout, objective, b, xs, y, zs):
    """Primal residual b - A(X), dual residuals C + Z - A^*(y), and their
    relative norms with the relative primal-dual gap."""
    rp = b - _a_apply(layout, xs, b.size)
    rds = [c + z - at for c, z, at in zip(objective, zs, _a_adjoint(layout, y))]
    pval, dval = _inner(objective, xs), float(b @ y)
    norm_c = np.sqrt(sum(np.linalg.norm(c) ** 2 for c in objective))
    return rp, rds, SdpResiduals(
        float(np.linalg.norm(rp) / (1 + np.linalg.norm(b))),
        float(np.sqrt(sum(np.linalg.norm(r) ** 2 for r in rds)) / (1 + norm_c)),
        float(abs(pval - dval) / (1 + (abs(pval) + abs(dval)) / 2)),
    )


def _max_step(factors, ds) -> float:
    """Largest alpha with every iterate + alpha*d still PSD, from the
    iterate's factor H (H^dag iterate H = I): the least eigenvalue of
    H^dag d H bounds alpha.  One ``eigvalsh`` per group's stack."""
    alpha = np.inf
    for h, d in zip(factors, ds):
        lam = np.linalg.eigvalsh(hermitian_part(dag(h) @ d @ h))
        lam_min = min(lam[..., 0].tolist())
        if lam_min < -1e-14:
            alpha = min(alpha, -1.0 / lam_min)
    return alpha


def _nt_scaling(x: np.ndarray, z: np.ndarray):
    """Nesterov-Todd point W (W Z W = X), Z^{-1}, the step factors H_x =
    U_x S_x^{-1/2} and H_z = X^{1/2} U_M S_M^{-1/2} (H_x^dag X H_x = I =
    H_z^dag Z H_z), the scaling factor G = X^{1/2} U_M S_M^{-1/4} and lam =
    S_M^{1/2}, from X = U_x S_x U_x^dag and X^{1/2} Z X^{1/2} = U_M S_M
    U_M^dag: one factorization serves the whole iteration.  G G^dag = W,
    the scaled point G^dag Z G = G^{-1} X G^{-dag} is V = diag(lam), and
    Z^{-1} = G V^{-1} G^dag.  X and Z may be (b, n, n) stacks, each
    matrix scaled on its own by one ``eigh`` pair over the stack."""
    sx, ux = np.linalg.eigh(x)
    floor = 1e-14 * np.maximum(sx.max(-1, keepdims=True), 1e-300)
    hx = ux / np.sqrt(np.maximum(sx, floor))[..., None, :]
    rx = (ux * np.sqrt(np.maximum(sx, 1e-300))[..., None, :]) @ dag(ux)
    sm, um = np.linalg.eigh(hermitian_part(rx @ z @ rx))
    sm = np.maximum(sm, 1e-300)
    lam = np.sqrt(sm)
    g = rx @ (um * (sm ** -0.25)[..., None, :])
    cols = lam[..., None, :]
    return g @ dag(g), (g / cols) @ dag(g), hx, g / np.sqrt(cols), g, lam


def _second_order(g, lam, z, dx, dz) -> np.ndarray:
    """G L_V^{-1}(R) G^dag, Mehrotra's second-order term in the NT-scaled
    space.  R = dX~ dZ~ + dZ~ dX~ for the scaled directions dX~ = G^{-1} dX
    G^{-dag} = V^{-1} G^dag Z dX Z G V^{-1} and dZ~ = G^dag dZ G, and
    L_V(U) = V U + U V, V = diag(lam), is inverted entrywise: U_ij =
    R_ij / (lam_i + lam_j).  Stacks are taken matrix by matrix."""
    rows = lam[..., :, None]
    ginv = (dag(g) @ z) / rows
    half = (ginv @ dx @ dag(ginv)) @ (dag(g) @ dz @ g)
    return g @ ((half + dag(half)) / (rows + lam[..., None, :])) @ dag(g)


def _finite(*arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def _schur_solver(schur: np.ndarray):
    """rhs -> dy with S dy = rhs, from one Cholesky of the Schur complement
    S.  A numerically singular S is solved on its range instead: one
    pivoted Cholesky (``dpstrf`` at its default tolerance) factors the
    pivots it keeps, and dy is zero on those it drops.  A non-finite S
    raises FloatingPointError; a non-finite rhs gives a non-finite dy."""
    if not _finite(schur):
        raise FloatingPointError("the Schur complement is not finite")
    try:
        factor = scipy.linalg.cho_factor(schur, lower=True)
    except np.linalg.LinAlgError:
        pass
    else:
        return lambda rhs: scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    chol, piv, rank, _ = scipy.linalg.lapack.dpstrf(schur, lower=1)
    kept, range_factor = piv[:rank] - 1, (chol[:rank, :rank], True)

    def on_range(rhs):
        dy = np.zeros_like(rhs)
        dy[kept] = scipy.linalg.cho_solve(
            range_factor, rhs[kept], check_finite=False
        )
        return dy

    return on_range


@np.errstate(over="ignore", invalid="ignore")
def _path_following(objective, layout, b, tol, max_iters):
    """NT-scaled primal-dual path following over the row ``layout``.

    X, Z, the ``objective`` and every per-block quantity are held as one
    (b, n, n) stack per block group of the layout, so each step below
    runs once per group, not once per block: the NT scaling, the Newton
    right-hand sides and directions, the step lengths and the updates.
    Each iterate is factored once: ``_nt_scaling`` per group and one
    Cholesky of the Schur complement (``_schur_solver``), whose Newton
    solves both directions share.  The predictor (affine-scaling)
    direction picks the centering weight sigma; the corrector aims at
    sigma mu on the central path and carries Mehrotra's second-order term,
    computed in the NT-scaled space as SDPT3 computes it (Todd, Toh and
    Tutuncu, SIAM J. Optim. 8, 769, 1998): its right-hand side is
    sigma mu Z^{-1} - X - G L_V^{-1}(dX~ dZ~ + dZ~ dX~) G^dag for the
    predictor's scaled directions (``_second_order``).  A Schur
    complement or a direction that is not finite (an overflow, so its
    warning is silenced) ends the solve with ``breakdown``.

    Iterates 0..``max_iters`` each get one ``_residuals`` pass, which sets
    ``status``.  Every exit returns (xs, y, zs, status, iterations,
    residuals) of its point, the stacks by group and the residuals
    row-scaled over the kept rows.
    """
    m = b.size

    xs, zs = [], []
    for c, blk in zip(objective, layout):
        n = blk.n
        a_norms = np.zeros((blk.b, m))
        a_norms[:, blk.at] = blk.norms()
        xi = np.full(blk.b, max(10.0, np.sqrt(n)))
        eta = np.array([max(10.0, np.sqrt(n), np.linalg.norm(ck)) for ck in c])
        if m:
            xi = np.maximum(xi, n * ((1 + np.abs(b)) / (1 + a_norms)).max(1))
            eta = np.maximum(eta, a_norms.max(1))
        xs.append(xi[:, None, None] * np.eye(n, dtype=complex))
        zs.append(eta[:, None, None] * np.eye(n, dtype=complex))
    y = np.zeros(m)
    total_side = sum(blk.b * blk.n for blk in layout)

    status = "max-iterations"
    for it in range(max_iters + 1):
        rp, rds, res = _residuals(layout, objective, b, xs, y, zs)
        if res.primal < tol and res.dual < tol and res.gap < tol:
            status = "optimal"
            break
        if b @ y < -1e8 * (1 + np.linalg.norm(b)):
            status = "infeasible"
            break
        if it == max_iters:
            break
        gap = _inner(xs, zs)
        mu = gap / total_side

        ws, zinvs, hxs, hzs, gs, lams = zip(
            *(_nt_scaling(x, z) for x, z in zip(xs, zs))
        )

        def newton(rcs):
            rhs = _a_apply(
                layout, [rc + w @ rd @ w for rc, rd, w in zip(rcs, rds, ws)], m
            ) - rp
            dy = solve_schur(rhs)
            dzs = [da - rd for da, rd in zip(_a_adjoint(layout, dy), rds)]
            dxs = [
                hermitian_part(rc - w @ dz @ w) for rc, w, dz in zip(rcs, ws, dzs)
            ]
            if not _finite(dy, *dxs, *dzs):
                raise FloatingPointError("a Newton direction is not finite")
            return dxs, dy, dzs

        try:
            solve_schur = _schur_solver(_schur_complement(layout, ws, m))

            # predictor: its step chooses the centering weight
            dxs_a, _, dzs_a = newton([-x for x in xs])
            ap = min(1.0, _max_step(hxs, dxs_a))
            ad = min(1.0, _max_step(hzs, dzs_a))
            gap_aff = _inner(
                [x + ap * dx for x, dx in zip(xs, dxs_a)],
                [z + ad * dz for z, dz in zip(zs, dzs_a)],
            )
            sigma = min(max((max(gap_aff, 0.0) / gap) ** 3, 1e-6), 0.999999)

            # corrector: centering plus the predictor's second-order term
            dxs, dy, dzs = newton([
                sigma * mu * zi - x - _second_order(g, lam, z, dx, dz)
                for zi, x, z, g, lam, dx, dz
                in zip(zinvs, xs, zs, gs, lams, dxs_a, dzs_a)
            ])
        except FloatingPointError:
            status = "breakdown"
            break

        ap = min(1.0, 0.98 * _max_step(hxs, dxs))
        ad = min(1.0, 0.98 * _max_step(hzs, dzs))

        xs = [hermitian_part(x + ap * dx) for x, dx in zip(xs, dxs)]
        y = y + ad * dy
        zs = [hermitian_part(z + ad * dz) for z, dz in zip(zs, dzs)]

    return xs, y, zs, status, it, res


# ---------------------------------------------------------------------------
# preprocessing: row scaling and redundancy elimination


def _reduce_constraints(problem: SdpProblem):
    """Normalize rows, drop dependent ones, verify consistency.

    Works on the Gram matrix G = sum_k R_k R_k^T of the real row views.
    The row scales are sqrt(diag G); a zero row (norm below 1e-14) keeps
    scale 1 and a zero pivot, so it is dropped with implied rhs 0.  One
    pivoted Cholesky of the normalized G (unit diagonal set exactly, so
    ties keep the earlier row) stops at the first pivot below 1e-12, which
    resolves independence to about 1e-6 relative: a row within that of
    the span of the kept rows is dropped, rows independent beyond it are
    kept, and exact linear combinations leave pivots near 1e-15.  With
    the factor split into L_11 (kept rows) and L_21 (dropped rows), each
    dropped row must have the normalized rhs L_21 L_11^{-1} b_kept.
    Returns (kept indices, row scales); raises ValueError on a
    structurally inconsistent system, a dropped row whose normalized rhs
    (a zero row's rhs itself) is off by more than 1e-8.
    """
    gram = sum(r @ r.T for r in _real_rows(problem.stacks))
    scales = np.sqrt(np.diagonal(gram))
    nonzero = scales >= 1e-14
    scales[~nonzero] = 1.0
    nb = problem.rhs / scales
    normed = gram / np.outer(scales, scales)
    np.fill_diagonal(normed, nonzero)
    factor, piv, rank, _ = scipy.linalg.lapack.dpstrf(normed, tol=1e-12, lower=1)
    piv = piv - 1
    kept, dropped = piv[:rank], piv[rank:]
    if dropped.size:
        coeff = scipy.linalg.solve_triangular(
            factor[:rank, :rank], nb[kept], lower=True
        )
        worst = float(np.abs(factor[rank:, :rank] @ coeff - nb[dropped]).max())
        if worst > 1e-8:
            raise ValueError(
                f"structurally inconsistent input: dependent constraints "
                f"disagree by {worst:.3e}"
            )
    return np.sort(kept), scales


# ---------------------------------------------------------------------------
# public entry points


def solve(
    problem: SdpProblem,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SdpSolution:
    """Solve a standard-form SDP (deterministically).

    Raises ValueError unless ``tol`` is finite and positive and
    ``max_iters`` is at least 1.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    kept, scales = _reduce_constraints(problem)
    row_scale = scales[kept]
    layout = _layout(problem.stacks, kept, row_scale)
    stacks, y_kept, _, status, iterations, res = _path_following(
        _gather(layout, problem.objective),
        layout,
        problem.rhs[kept] / row_scale,
        tol,
        max_iters,
    )
    xs = _scatter(layout, stacks)
    y = np.zeros(problem.n_constraints)
    y[kept] = y_kept / row_scale
    pval = _inner(problem.objective, xs)
    dval = float(problem.rhs @ y)
    return SdpSolution(status, tuple(xs), y, pval, dval, res, iterations)


def require_optimal(solution: SdpSolution, what: str):
    """Raise RuntimeError unless ``solution`` is certified optimal."""
    if solution.status != "optimal":
        res = solution.residuals
        raise RuntimeError(
            f"{what} SDP not certified: status {solution.status} after "
            f"{solution.iterations} iterations (residuals: primal "
            f"{res.primal:.1e}, dual {res.dual:.1e}, gap {res.gap:.1e})"
        )


def solution_diagnostics(solution: SdpSolution) -> dict:
    """Plain-dict summary of solver effort and certificates."""
    return {
        "status": solution.status,
        "iterations": solution.iterations,
        "residual_primal": solution.residuals.primal,
        "residual_dual": solution.residuals.dual,
        "residual_gap": solution.residuals.gap,
    }


def audit(problem: SdpProblem, solution: SdpSolution, tol: float = DEFAULT_TOL):
    """Independent feasibility check of a reported solution.

    Recomputes constraint violations (a complex contraction of the stored
    stacks) and block eigenvalues from scratch; returns (ok, details
    dict).  Deliberately shares no code with the solver.
    """
    details = {}
    worst_eig = 0.0
    for k, x in enumerate(solution.primal_blocks):
        lo = float(np.linalg.eigvalsh(hermitian_part(x))[0])
        worst_eig = min(worst_eig, lo)
    details["min_block_eigenvalue"] = worst_eig
    got = np.zeros(problem.n_constraints)
    for a, x in zip(problem.stacks, solution.primal_blocks):
        got += np.einsum("mij,ji->m", a, x).real
    worst_con = float(np.abs(got - problem.rhs).max(initial=0.0))
    details["max_constraint_violation"] = worst_con
    pval = float(
        sum(
            np.trace(c @ x).real
            for c, x in zip(problem.objective, solution.primal_blocks)
        )
    )
    details["primal_value"] = pval
    details["gap_vs_dual"] = abs(pval - solution.dual_value)
    scale = 1 + abs(pval) + abs(solution.dual_value)
    ok = (
        worst_eig > -1e-6
        and worst_con < 100 * tol
        and details["gap_vs_dual"] / scale < 100 * tol
    )
    return ok, details


# ---------------------------------------------------------------------------
# the fidelity gadget


def _basis_overlaps(basis: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Tr(H mat) for each H of a stacked Hermitian basis, real part."""
    return np.trace(basis @ mat, axis1=1, axis2=2).real


@dataclass(frozen=True, eq=False)
class AffineMatrixExpr:
    """sigma = const + sum over (block, L) of L(X_block), Hermitian-valued.

    Each L is linear and maps a stack of block operators (q, n, n) to the
    stack of their images (q, side, side) in one call.
    """

    side: int
    const: np.ndarray
    terms: tuple = ()  # of (block index, L)


def fidelity_sdp(
    builder: SdpBuilder,
    rho: np.ndarray,
    sigma: AffineMatrixExpr,
    sigma_support: np.ndarray | None = None,
) -> int:
    """Add a fidelity block for F(rho, sigma) to a problem under construction.

    Encodes max (Tr X + Tr X^dag)/2 over [[rho, X], [X^dag, sigma]] >= 0,
    where ``sigma`` may be affine in other problem blocks.  Both corners
    are compressed onto supports: rho onto its own, sigma onto the
    projector ``sigma_support`` (callers must guarantee every reachable
    sigma lives inside it; identity if omitted).  The compression keeps
    strictly feasible points available when rho or sigma is singular.

    Returns the index of the added PSD block.  The block's objective
    contribution equals the fidelity at the optimum.
    """
    v1 = support_isometry(np.asarray(rho, dtype=complex))
    if sigma_support is None:
        v2 = np.eye(sigma.side, dtype=complex)
    else:
        v2 = support_isometry(np.asarray(sigma_support, dtype=complex))
    r, s = v1.shape[1], v2.shape[1]
    if r == 0:
        raise ValueError("rho has empty support")
    w_blk = builder.add_block(r + s)

    c12 = (dag(v1) @ v2) / 2.0
    c_w = np.zeros((r + s, r + s), dtype=complex)
    c_w[:r, r:] = c12
    c_w[r:, :r] = dag(c12)
    builder.add_objective(w_blk, c_w)

    # each corner equals its target on a Hermitian basis, one row per element
    rho_basis = hermitian_basis(r)
    rho_rows = np.zeros((r * r, r + s, r + s), dtype=complex)
    rho_rows[:, :r, :r] = rho_basis
    builder.add_constraint(
        {w_blk: rho_rows}, _basis_overlaps(rho_basis, dag(v1) @ rho @ v1)
    )

    # sigma is affine: a term L puts -sum_e Tr(g L(e)) e over a basis e of
    # its block into the row of the basis element g of the sigma corner
    sig_basis = hermitian_basis(s)
    sig_rows = np.zeros((s * s, r + s, r + s), dtype=complex)
    sig_rows[:, r:, r:] = sig_basis
    coeffs = {w_blk: sig_rows}
    for blk, lin in sigma.terms:
        basis_b = hermitian_basis(builder.block_side(blk))
        images = dag(v2) @ lin(basis_b) @ v2
        overlap = np.einsum("gij,eji->ge", sig_basis, images, optimize=True)
        if max_abs(overlap.imag) > 1e-9:
            raise ValueError("sigma coupling is not Hermiticity-preserving")
        k_mats = np.einsum("ge,eij->gij", overlap.real, basis_b, optimize=True)
        coeffs[blk] = coeffs.get(blk, 0.0) - k_mats
    builder.add_constraint(
        coeffs, _basis_overlaps(sig_basis, dag(v2) @ sigma.const @ v2)
    )
    return w_blk


# ---------------------------------------------------------------------------
# channels and certified fidelities


def add_channel(builder: SdpBuilder, d_in: int, d_out: int, spaces=None):
    """Add the Choi matrix J of a channel C^d_in -> C^d_out; return its blocks.

    J >= 0 on input (x) output, trace preserving: <H (x) I, J> = Tr H for
    a Hermitian basis H of the input.  Given ``spaces`` (isometries V_k
    onto mutually orthogonal subspaces, e.g. symmetry sectors), J is
    sum_k V_k X_k V_k^dag with one PSD block X_k per space; otherwise J is
    one block.  A unit-trace state is the d_in = 1 case.
    """
    if spaces is None:
        spaces = [np.eye(d_in * d_out, dtype=complex)]
    blocks = [builder.add_block(v.shape[1]) for v in spaces]
    basis = hermitian_basis(d_in)
    tp = kron(basis, np.eye(d_out, dtype=complex))
    builder.add_constraint(
        {b: dag(v) @ tp @ v for b, v in zip(blocks, spaces)},
        np.trace(basis, axis1=1, axis2=2).real,
    )
    return blocks


_RECORDS: contextvars.ContextVar = contextvars.ContextVar("sdp_records")


@contextlib.contextmanager
def recording():
    """Yield a list that gets the (what, solution) record of every certified
    solve inside the block, in solve order; a nested block's records also
    reach the enclosing one.  Outside, solves keep nothing.  A report reads
    the solutions of its own solves this way, so they also reach a caller's
    enclosing block."""
    outer, records = _RECORDS.get(None), []
    token = _RECORDS.set(records)
    try:
        yield records
    finally:
        _RECORDS.reset(token)
        if outer is not None:
            outer.extend(records)


def certified_fidelity(builder, rho, terms, sigma_support, what, tol, max_iters):
    """Solve max F(rho, sigma), sigma = sum of L(X_blk) over (blk, L) ``terms``.

    Adds the fidelity gadget to the problem under construction, solves,
    records the solve if a ``recording()`` is active, and raises
    RuntimeError unless the solve is certified optimal and passes
    ``audit``.  Returns (the optimum clipped to [0, 1], solution).
    """
    zero = np.zeros_like(rho, dtype=complex)
    expr = AffineMatrixExpr(len(rho), zero, tuple(terms))
    fidelity_sdp(builder, rho, expr, sigma_support=sigma_support)
    problem = builder.build()
    solution = solve(problem, tol=tol, max_iters=max_iters)
    _RECORDS.get([]).append((what, solution))  # kept only while recording
    require_optimal(solution, what)
    ok, details = audit(problem, solution, tol)
    if not ok:
        figures = ", ".join(f"{k} {v:.1e}" for k, v in details.items())
        raise RuntimeError(f"{what} SDP failed its audit: {figures}")
    return float(min(max(solution.primal_value, 0.0), 1.0)), solution
