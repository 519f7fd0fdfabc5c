"""Self-contained dense semidefinite-program solver.

Standard form over complex Hermitian PSD blocks X_k:

    maximize    sum_k <C_k, X_k>
    subject to  sum_k <A_ik, X_k> = b_i      (i = 1..m)
                X_k >= 0

with <A, B> = Re Tr(A B).  A constraint family enters ``SdpBuilder`` as
one row block: a (q, n_k, n_k) coefficient stack per block it touches and
q right-hand sides.  The builder refuses coefficients that are not
Hermitian, once, as each row block comes in, and keeps the Hermitian
part that check returns; ``SdpBuilder.build`` concatenates the row
blocks into one complex (m, n_k, n_k) array per block plus the vector
b, which the builder then keeps as its one row block: the public data
that ``audit`` checks (an ``SdpProblem`` constructed directly validates
its own data and keeps its Hermitian part too).  A solve scans each
block's stack once (``_Nonzeros``) for its entry rows, with at most 2
nonzero entries there, as the gadget's basis elements have, and its
dense rows; preprocessing and the row layout both read that scan.
Dependent constraints are found by one pivoted Cholesky of the rows'
Gram matrix, which resolves independence to about 1e-6 relative, and
dropped once their right-hand sides are checked against the kept rows.
The Gram matrix is formed block by block: entry rows against each other
from their entries, against dense rows by gathers, dense rows against
each other by one symmetric product.  Flattened and viewed as real
pairs, a row is a real vector whose dot product with a flattened
Hermitian X is Re Tr(A_i X), so the real linear algebra needs neither a
copy nor an embedding.

Each solve then lays out the kept, scaled rows once per block group
(``_layout``), and every per-iterate operation (the map
X -> (<A_i, X>)_i, its adjoint, the Schur complement, the starting point)
runs from that layout.  A block group is the blocks of one side whose
entry rows are the same rows with entries at the same positions.  The k
outcome or preparation blocks of a measure-and-prepare half-step form one
group; every other block the library builds is a group of its own.  X, Z
and every per-block quantity are one (b, n, n) stack per group, so the NT
scaling, the Schur terms, the Newton directions and the step lengths run
once per group, in stacked LAPACK and BLAS calls, as SDPT3 uses the
block-diagonal structure; the stacks of all groups lie side by side in
flat arrays, so each entrywise step of an iterate is one operation.  A
group (``_BlockRows``) holds only the rows that touch it.  An entry row
is held as its entries, with one value per block: W A_i W is a sum of
two outer products, and Re Tr(A_j W A_i W) is read off it at row j's
entries, as in the sparse-row Schur formulas of
Fujisawa, Kojima and Nakata (Math. Program. 79, 235, 1997).  The other
rows form one real matrix over the flattened stack, so A(X) and A^*(y)
are one matrix-vector product each.  With W = G G^dag their Schur terms
are Re <G^dag A_i G, G^dag A_j G>, one symmetric product of the real
views of the G^dag A_j G, which two batched products form for the whole
group from its dense rows held side by side, and each group adds its
terms into the Schur complement in place.
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
gadget keeps a full support in the natural basis (``support_isometry``),
applies each linear term L of sigma once, to the matrix units E_ij of
its block, and reads the overlaps with the basis by gathers; the
coupling row of a basis element g is L^dag(g) = sum_ij Tr(g L(E_ij)) E_ji,
a transpose of those overlaps, with as few entries as L reaches.

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
from functools import cached_property

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
    Constructed directly, it validates its data and keeps the complex
    Hermitian part of its stacks and objective; ``SdpBuilder.build`` hands
    over data it validated and symmetrized as each row block came in.
    """

    blocks: tuple[int, ...]
    objective: tuple
    stacks: tuple  # of (m, n_k, n_k) Hermitian stacks
    rhs: np.ndarray

    def __post_init__(self):
        if not len(self.blocks) == len(self.objective) == len(self.stacks):
            raise ValueError("blocks, objective and stacks differ in length")
        _check_rhs(self.rhs)
        m = self.n_constraints
        objective, stacks = [], []
        for k, (n, c, a) in enumerate(
            zip(self.blocks, self.objective, self.stacks)
        ):
            c, a = np.asarray(c, dtype=complex), np.asarray(a, dtype=complex)
            objective.append(_check_block(c, (n, n), "objective", k))
            stacks.append(_check_block(a, (m, n, n), "constraint", k))
        object.__setattr__(self, "objective", tuple(objective))
        object.__setattr__(self, "stacks", tuple(stacks))

    @classmethod
    def _from_validated(cls, blocks, objective, stacks, rhs) -> SdpProblem:
        """A problem of data already validated, without checking it again."""
        problem = object.__new__(cls)
        for name, value in zip(
            ("blocks", "objective", "stacks", "rhs"), (blocks, objective, stacks, rhs)
        ):
            object.__setattr__(problem, name, value)
        return problem

    @cached_property
    def _nonzeros(self) -> tuple:
        """One ``_Nonzeros`` scan per block, shared by every reader."""
        return tuple(_Nonzeros(a) for a in self.stacks)

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
        ``add_block`` did not return, a right-hand side not finite, or a
        coefficient not finite or further than ``COEFF_HERM_TOL`` from
        Hermitian, raises ValueError; the rows keep the Hermitian part the
        check returns, so roundoff below that is symmetrized away.  This
        is the one check of the rows: ``build`` does not repeat it."""
        rhs = _check_rhs(np.asarray(rhs, dtype=float))
        stacks = {k: np.asarray(a, dtype=complex) for k, a in coeffs.items()}
        if rhs.ndim == 0:
            rhs, stacks = rhs[None], {k: a[None] for k, a in stacks.items()}
        for k, a in stacks.items():
            shape = (len(rhs),) + (self.block_side(k),) * 2
            stacks[k] = _check_block(a, shape, "constraint", k)
        self._row_blocks.append((stacks, rhs))

    def build(self) -> SdpProblem:
        rhs = np.concatenate([np.zeros(0)] + [b for _, b in self._row_blocks])
        stacks = [np.zeros((len(rhs), n, n), dtype=complex) for n in self._blocks]
        start = 0
        for coeffs, b in self._row_blocks:
            for k, a in coeffs.items():
                stacks[k][start:start + len(b)] = a
            start += len(b)
        self._row_blocks = [(dict(enumerate(stacks)), rhs)]  # no second copy
        objective = tuple(
            _check_block(c, (n, n), "objective", k)
            for k, (n, c) in enumerate(zip(self._blocks, self._objective))
        )
        return SdpProblem._from_validated(
            tuple(self._blocks), objective, tuple(stacks), rhs
        )


def _check_block(a: np.ndarray, shape: tuple, what: str, block: int):
    """The Hermitian part of A if A has ``shape`` and is Hermitian within
    COEFF_HERM_TOL."""
    if a.shape != shape:
        raise ValueError(f"{what} block {block} has shape {a.shape}")
    return require_hermitian(a, f"{what} block {block}", COEFF_HERM_TOL)


def _check_rhs(rhs: np.ndarray) -> np.ndarray:
    if not np.isfinite(rhs).all():
        raise ValueError("rhs is not finite")
    return rhs


# ---------------------------------------------------------------------------
# hermitian operator basis


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of n x n Hermitian matrices.

    Stacked as an (n^2, n, n) array: the diagonal units first, then for
    each i < j the real and the imaginary off-diagonal element.
    """
    i, j = np.triu_indices(n, 1)
    t, diag = n + 2 * np.arange(len(i)), np.arange(n)
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[diag, diag, diag] = 1.0
    basis[t, i, j] = basis[t, j, i] = 1.0 / np.sqrt(2)
    basis[t + 1, i, j] = -1j / np.sqrt(2)
    basis[t + 1, j, i] = 1j / np.sqrt(2)
    return basis


def _basis_overlaps(mats: np.ndarray) -> np.ndarray:
    """Tr(H_e M) for each element H_e of ``hermitian_basis(n)`` and each M
    of an (..., n, n) stack, as (..., n^2), complex: a gather, as each
    H_e has at most 2 entries.  Real where M is Hermitian."""
    n = mats.shape[-1]
    i, j = np.triu_indices(n, 1)
    upper, lower = mats[..., i, j] / np.sqrt(2), mats[..., j, i] / np.sqrt(2)
    out = np.empty(mats.shape[:-2] + (n * n,), dtype=complex)
    out[..., :n] = np.diagonal(mats, axis1=-2, axis2=-1)
    out[..., n::2] = upper + lower
    out[..., n + 1::2] = 1j * (upper - lower)
    return out


# ---------------------------------------------------------------------------
# the interior-point core (complex Hermitian blocks)


class _Nonzeros:
    """One block's constraint rows by their nonzero entries there, from one
    scan of its (m, n, n) stack.  The entry rows (1 or 2 nonzero entries)
    are listed in ``entry``, with their entries' flat positions ``flat``
    (e, 2) and values ``v`` (e, 2) in flat order within a row, so an
    off-diagonal pair's upper entry comes first, padded with value 0 after
    a lone entry.  The rows with more nonzero entries are listed in
    ``dense``; a row in neither leaves the block out."""

    def __init__(self, a: np.ndarray):
        flat_a = a.reshape(len(a), a.shape[-1] ** 2)
        nonzero = flat_a != 0
        nnz = nonzero.sum(1)
        self.entry = np.flatnonzero((nnz > 0) & (nnz <= 2))
        self.dense = np.flatnonzero(nnz > 2)
        i, t = np.nonzero(nonzero[self.entry])
        slot = np.zeros(len(i), dtype=int)
        slot[1:] = i[1:] == i[:-1]
        self.flat = np.zeros((len(self.entry), 2), dtype=int)
        self.v = np.zeros((len(self.entry), 2), dtype=complex)
        self.flat[i, slot], self.v[i, slot] = t, flat_a[self.entry[i], t]

    def entry_pairs(self):
        """The entry rows' terms of the Gram matrix: (i, j, Re(conj(a) b))
        for each pair of entries a of row i and b of row j at one position,
        found by sorting the entries by position."""
        live = self.v != 0
        rows = np.repeat(self.entry, live.sum(1))
        order = np.argsort(self.flat[live], kind="stable")
        rows, t, v = rows[order], self.flat[live][order], self.v[live][order]
        # entry p pairs with each entry q of its run of equal positions
        start = np.searchsorted(t, t)
        count = np.searchsorted(t, t, side="right") - start
        p = np.repeat(np.arange(len(t)), count)
        q = np.arange(len(p)) - np.repeat(np.cumsum(count) - count - start, count)
        return rows[p], rows[q], (v[p].conj() * v[q]).real


def _runs(rows: np.ndarray) -> list:
    """The runs of consecutive values in the increasing ``rows``, as pairs
    (slice of the values, slice of their positions in ``rows``)."""
    if not len(rows):
        return []
    bounds = [0, *(np.flatnonzero(rows[1:] - rows[:-1] != 1) + 1).tolist(), len(rows)]
    return [
        (slice(int(rows[a]), int(rows[b - 1]) + 1), slice(a, b))
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def _add_block(out: np.ndarray, row_runs: list, col_runs: list, block):
    """out[rows, cols] += block, one basic slice per pair of runs, added in
    place into the view of ``out``."""
    for at_r, r in row_runs:
        for at_c, c in col_runs:
            view = out[at_r, at_c]
            view += block[r, c]


def _layout(problem: SdpProblem, kept: np.ndarray, scale: np.ndarray) -> list:
    """The rows ``kept`` of the problem, each divided by its ``scale``, as
    one ``_BlockRows`` per block group, in order of each group's first
    block.  A group is the blocks of one side whose entry rows are the
    same rows with entries at the same positions (the values may differ),
    so stacking the group's blocks adds no dense row to any entry row.
    The rows of each block come from the problem's one ``_Nonzeros``
    scan."""
    position = np.full(problem.n_constraints, -1)
    position[kept] = np.arange(len(kept))
    groups = {}
    for k, (n, nz) in enumerate(zip(problem.blocks, problem._nonzeros)):
        at, dense = position[nz.entry], position[nz.dense]
        basis, flat, v = at[at >= 0], nz.flat[at >= 0], nz.v[at >= 0]
        key = (n, basis.tobytes(), flat.tobytes())
        member = (k, v / scale[basis, None], dense[dense >= 0])
        groups.setdefault(key, (basis, flat, []))[2].append(member)
    return [
        _BlockRows(problem.stacks, kept, scale, basis, flat, members)
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
    first; both kinds come from the ``_Nonzeros`` scan.  An entry row has
    at most 2 nonzero entries in each block, at positions ``flat`` that
    the group shares, and is held as the values ``v`` (e, b, 2) of those
    entries: W A_i W is then a sum of two outer products, Re Tr(A_i M) a
    gather and sum_i y_i A_i a scatter.  The other rows are one real
    (d, b 2n^2) matrix ``dense_real`` over the flattened stack (zero on
    the blocks a row leaves out), so A(X) and A^*(y) are one
    matrix-vector product each, and a complex copy ``dense`` (b, n, d, n)
    for their Schur terms: each block's rows side by side.  A lone block
    is a group of one.  Every index and work array the Schur terms need,
    and the views of them they read and write, are built here, once per
    solve.
    """

    def __init__(self, stacks, kept, scale, basis, flat, members):
        self.blocks = tuple(k for k, _, _ in members)
        b = self.b = len(members)
        n = self.n = stacks[self.blocks[0]].shape[-1]
        dense = np.unique(np.concatenate([d for _, _, d in members]))
        self.rows, self.n_basis = np.concatenate([basis, dense]), len(basis)
        by_row = np.empty((len(dense), b, n, n), dtype=complex)
        for j, k in enumerate(self.blocks):
            # the indices are in range; mode "raise" would buffer ``out``
            np.take(stacks[k], kept[dense], axis=0, out=by_row[:, j], mode="clip")
        by_row /= scale[dense, None, None, None]
        self.dense_real = by_row.reshape(len(dense), b * n * n).view(float)
        self.dense = np.ascontiguousarray(by_row.transpose(1, 2, 0, 3))

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
            (f.copy(), c.copy())
            for f, c in zip(flat.T, read_w.transpose(2, 0, 1)) if c.any()
        ]

        # where this group's terms go in A(X) and in the Schur complement
        start = self.rows[0] if len(self.rows) else 0
        if np.array_equal(self.rows, np.arange(start, start + len(self.rows))):
            self.at = slice(start, start + len(self.rows))
        else:
            self.at = self.rows
        self.entry_runs, self.dense_runs = _runs(basis), _runs(dense)
        # work arrays of the Schur terms, written afresh by every iterate,
        # and the views of them that it reads and writes
        nb, nd = len(basis), len(dense)
        self.waw = np.empty((nb, b, n * n), dtype=complex)
        self.waw_by_block = self.waw.reshape(nb, b, n, n).swapaxes(0, 1)
        self.read = np.empty((nb, b, nb), dtype=complex)
        half, scaled = np.empty((2, b, n, nd * n), dtype=complex)
        self.dense_cols, self.half = self.dense.reshape(b, n, nd * n), half
        self.half_rows = half.reshape(b, n * nd, n)
        self.scaled_rows = scaled.reshape(b, n * nd, n)
        self.scaled_by_row = scaled.reshape(b, n, nd, n).transpose(2, 0, 1, 3)
        self.coords = np.empty((nd, b * n * n))
        self.coords_by_block = self.coords.reshape(nd, b, n * n)
        self.upper = np.nonzero(np.arange(n)[:, None] < np.arange(n))  # i < j

    def norms(self) -> np.ndarray:
        """Frobenius norm of each touching row in each block, (b, rows)."""
        by_block = self.dense_real.reshape(-1, self.b, 2 * self.n ** 2)
        return np.concatenate([
            np.linalg.norm(self.v, axis=2).T, np.linalg.norm(by_block, axis=2).T
        ], axis=1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """sum_k Re Tr(A_ik X_k) for each touching row i."""
        xr = x.reshape(-1)
        if not self.n_basis:
            return self.dense_real @ xr.view(float)
        basis = (xr[self.entry_at] * self.v_bar).sum(1).real
        if len(self.rows) == self.n_basis:
            return basis
        return np.concatenate([basis, self.dense_real @ xr.view(float)])

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """The (b, n, n) stack of sum_i y_i A_ik, ``y`` indexed like the
        touching rows."""
        nb, b, n = self.n_basis, self.b, self.n
        if nb:
            out = np.bincount(
                self.flat_real,
                (y[:nb, None, None] * self.v).view(float).reshape(-1),
                minlength=2 * b * n * n,
            )
            if len(self.rows) > nb:
                out += y[nb:] @ self.dense_real
        else:
            out = y @ self.dense_real
        return out.view(complex).reshape(b, n, n)

    def add_schur(self, schur: np.ndarray, g: np.ndarray, w: np.ndarray):
        """Add sum_k Re Tr(A_ik W_k A_jk W_k), W_k = G_k G_k^dag, for each
        pair of touching rows into their entry of ``schur``, in place, from
        the stacks of the G_k and the W_k.

        An entry row's W A_i W is two outer products: row j's entries read
        off it if j is an entry row, and its dot product with row j if j is
        dense.  For dense rows i, j the term is Re Tr(M_i M_j) for the
        Hermitian M_j = G^dag A_j G, so all of them are one symmetric
        product (SYRK) of the real coordinates of the M_j, n^2 per block.
        Each block's rows are held side by side, so two batched products
        form G_k^dag [A_1k ... A_dk] G_k for every block k at once."""
        nb, b, n, nd = self.n_basis, self.b, self.n, len(self.rows) - self.n_basis
        if nb:  # W[:, p] v W[q, :], summed over the two entries, by row
            waw, read = self.waw, self.read
            np.matmul(
                (w.swapaxes(1, 2)[:, self.p] * self.v_col).swapaxes(2, 3),
                w[:, self.q],
                out=self.waw_by_block,
            )
            # the indices are in range; mode "raise" would buffer ``out``
            (f, c), *more = self.reads
            np.multiply(np.take(waw, f, axis=2, out=read, mode="clip"), c, out=read)
            for f, c in more:  # one temporary the size of ``read``, not two
                term = np.take(waw, f, axis=2)
                term *= c
                read += term
            entry = read[:, 0]
            for j in range(1, b):  # in place: read.sum(1) would allocate
                entry += read[:, j]
            _add_block(schur, self.entry_runs, self.entry_runs, entry.real)
            if nd:
                cross = waw.reshape(nb, -1).view(float) @ self.dense_real.T
                _add_block(schur, self.entry_runs, self.dense_runs, cross)
                _add_block(schur, self.dense_runs, self.entry_runs, cross.T)
        if nd:  # G^dag [A_1 ... A_d], then each row's product with G
            np.matmul(dag(g), self.dense_cols, out=self.half)
            np.matmul(self.half_rows, g, out=self.scaled_rows)
            real = self.coords
            _hermitian_coordinates(self.scaled_by_row, self.upper, self.coords_by_block)
            _add_block(schur, self.dense_runs, self.dense_runs, real @ real.T)


def _hermitian_coordinates(mats, upper, out):
    """Real coordinates of each Hermitian n x n M of a stack, into ``out``
    (..., n^2): the diagonal, then sqrt(2) times the real and the imaginary
    parts of the entries at ``upper`` (above the diagonal), so Re Tr(M N)
    is the dot product of the coordinates of M and N."""
    n, (i, j) = mats.shape[-1], upper
    above = mats[..., i, j]
    out[..., :n] = np.diagonal(mats, axis1=-2, axis2=-1).real
    np.multiply(above.real, np.sqrt(2), out=out[..., n:n + len(i)])
    np.multiply(above.imag, np.sqrt(2), out=out[..., n + len(i):])


def _a_apply(layout, xs, m: int) -> np.ndarray:
    out = np.zeros(m)
    for blk, x in zip(layout, xs):
        out[blk.at] += blk.apply(x)
    return out


def _a_adjoint(layout, y: np.ndarray) -> list:
    return [blk.adjoint(y[blk.at]) for blk in layout]


def _views(layout, flat: np.ndarray) -> list:
    """Per-group (..., b, n, n) views of a (..., N) array that holds the
    stacks of the groups of ``layout`` flattened side by side."""
    views, end = [], 0
    for blk in layout:
        start, end = end, end + blk.b * blk.n * blk.n
        shape = flat.shape[:-1] + (blk.b, blk.n, blk.n)
        views.append(flat[..., start:end].reshape(shape))
    return views


def _schur_complement(layout, gs, ws, m: int) -> np.ndarray:
    """S_ij = sum_k Re Tr(A_ik W_k A_jk W_k) for the NT scaling factors
    G_k and points W_k = G_k G_k^dag: each group adds its terms in place.
    The dense and mixed terms are exactly symmetric; an entry pair's two
    readings agree to roundoff, and the Cholesky reads the lower one."""
    schur = np.zeros((m, m))
    for blk, g, w in zip(layout, gs, ws):
        blk.add_schur(schur, g, w)
    return schur


def _inner(us, vs) -> float:
    """sum_k Re Tr(U_k V_k) for Hermitian U_k."""
    return float(sum(np.vdot(u, v).real for u, v in zip(us, vs)))


def _step_lengths(factors, directions) -> np.ndarray:
    """The largest (alpha_p, alpha_d) with every X + alpha_p dX and every
    Z + alpha_d dZ still PSD (inf where a direction stays PSD), from the
    iterate's factors H (H^dag X H = I): the least eigenvalue of H^dag d H
    bounds alpha.  Per group, ``factors`` is the stack [H_x; H_z] and
    ``directions`` the stack [dX; dZ], each (2, b, n, n), so one
    ``eigvalsh`` serves both sides; it reads one triangle of the Hermitian
    H^dag d H."""
    lam_min, alpha = np.zeros(2), np.full(2, np.inf)
    for h, d in zip(factors, directions):
        lam = np.linalg.eigvalsh(dag(h) @ d @ h)
        np.minimum(lam_min, lam[..., 0].min(1), out=lam_min)
    bounded = lam_min < -1e-14
    alpha[bounded] = -1.0 / lam_min[bounded]
    return alpha


def _nt_scaling(x: np.ndarray, z: np.ndarray):
    """Nesterov-Todd point W (W Z W = X), Z^{-1}, the step factors H_x =
    U_x S_x^{-1/2} and H_z = X^{1/2} U_M S_M^{-1/2} (H_x^dag X H_x = I =
    H_z^dag Z H_z), the scaling factor G = X^{1/2} U_M S_M^{-1/4} and lam =
    S_M^{1/2}, from X = U_x S_x U_x^dag and X^{1/2} Z X^{1/2} = U_M S_M
    U_M^dag: one factorization serves the whole iteration.  G G^dag = W,
    the scaled point G^dag Z G = G^{-1} X G^{-dag} is V = diag(lam), and
    Z^{-1} = G V^{-1} G^dag.  X and Z may be (b, n, n) stacks, each
    matrix scaled on its own by one ``eigh`` pair over the stack; each
    ``eigh`` reads one triangle of its Hermitian argument."""
    sx, ux = np.linalg.eigh(x)
    floor = 1e-14 * np.maximum(sx[..., -1:], 1e-300)  # eigh sorts ascending
    hx = ux / np.sqrt(np.maximum(sx, floor))[..., None, :]
    rx = (ux * np.sqrt(np.maximum(sx, 1e-300))[..., None, :]) @ dag(ux)
    sm, um = np.linalg.eigh(rx @ z @ rx)
    sm = np.maximum(sm, 1e-300)
    lam = np.sqrt(sm)
    g = rx @ (um * (sm ** -0.25)[..., None, :])
    g_dag, cols = dag(g), lam[..., None, :]
    return g @ g_dag, (g / cols) @ g_dag, hx, g / np.sqrt(cols), g, lam


def _second_order(g, lam, z, dx, dz) -> np.ndarray:
    """G L_V^{-1}(R) G^dag, Mehrotra's second-order term in the NT-scaled
    space.  R = dX~ dZ~ + dZ~ dX~ for the scaled directions dX~ = G^{-1} dX
    G^{-dag} = V^{-1} G^dag Z dX Z G V^{-1} and dZ~ = G^dag dZ G, and
    L_V(U) = V U + U V, V = diag(lam), is inverted entrywise: U_ij =
    R_ij / (lam_i + lam_j).  Stacks are taken matrix by matrix."""
    rows, g_dag = lam[..., :, None], dag(g)
    ginv = (g_dag @ z) / rows
    half = (ginv @ dx @ dag(ginv)) @ (g_dag @ dz @ g)
    return g @ ((half + dag(half)) / (rows + lam[..., None, :])) @ g_dag


def _finite(*arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def _schur_solver(schur: np.ndarray):
    """rhs -> dy with S dy = rhs, from one Cholesky of the Schur complement
    S.  A numerically singular S is solved on its range instead: one
    pivoted Cholesky (``dpstrf`` at its default tolerance) factors the
    pivots it keeps, and dy is zero on those it drops.  A non-finite S
    raises FloatingPointError; a non-finite rhs gives a non-finite dy.
    Without rows there is nothing to solve."""
    if not _finite(schur):
        raise FloatingPointError("the Schur complement is not finite")
    if not len(schur):
        return lambda rhs: rhs
    try:
        factor, _ = scipy.linalg.cho_factor(schur, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        pass
    else:
        return lambda rhs: scipy.linalg.lapack.dpotrs(factor, rhs, lower=1)[0]
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

    X, Z, the ``objective`` and every per-block quantity are one (b, n, n)
    stack per block group of the layout, so the NT scaling, the Schur
    terms, the Newton directions and the step lengths run once per group.
    The stacks of all groups lie side by side in flat arrays laid out once
    per solve, each with its group views ([X; Z], [dX; dZ], the dual
    residual R_d, W R_d W, the right-hand sides), so each entrywise step
    is one operation per iterate.  Each iterate is factored once:
    ``_nt_scaling`` per group and one Cholesky of the Schur complement
    (``_schur_solver``), whose two Newton solves also share W R_d W.
    ``_step_lengths`` reads both step lengths of a direction off one
    ``eigvalsh`` per group.  The predictor (affine-scaling) direction picks
    the centering weight sigma; the corrector aims at sigma mu on the
    central path and carries Mehrotra's second-order term, computed in the
    NT-scaled space as SDPT3 computes it (Todd, Toh and Tutuncu, SIAM J.
    Optim. 8, 769, 1998): its right-hand side is sigma mu Z^{-1} - X -
    G L_V^{-1}(dX~ dZ~ + dZ~ dX~) G^dag for the predictor's scaled
    directions (``_second_order``).  X moves by exactly Hermitian steps,
    so only Z, whose residual comes from the row map, is symmetrized.  A
    Schur complement or a direction that is not finite (an overflow, so
    its warning is silenced) ends the solve with ``breakdown``.

    Iterates 0..``max_iters`` each get one residual pass, which sets
    ``status``.  Every exit returns (xs, y, zs, status, iterations,
    residuals) of its point, the stacks by group and the residuals
    row-scaled over the kept rows.
    """
    m, size = b.size, sum(blk.b * blk.n * blk.n for blk in layout)
    point, step = np.zeros((2, 2, size), dtype=complex)  # [X; Z], [dX; dZ]
    c, rd, wrw, rc, work = np.zeros((5, size), dtype=complex)
    # the flat position of each entry's mirror: (A + A^dag) / 2 entrywise
    mirror = np.zeros(size, dtype=int)
    for v, k in zip(_views(layout, mirror), _views(layout, np.arange(size))):
        v[...] = k.swapaxes(1, 2)
    xs, zs = _views(layout, point[0]), _views(layout, point[1])
    steps, dzs = _views(layout, step), _views(layout, step[1])
    rds, wrws, rcs, works = (_views(layout, a) for a in (rd, wrw, rc, work))
    hs = [np.zeros((2, blk.b, blk.n, blk.n), dtype=complex) for blk in layout]

    for ck, x, z, cv, blk in zip(objective, xs, zs, _views(layout, c), layout):
        n = blk.n
        a_norms = np.zeros((blk.b, m))
        a_norms[:, blk.at] = blk.norms()
        xi = np.full(blk.b, max(10.0, np.sqrt(n)))
        eta = np.array([max(10.0, np.sqrt(n), np.linalg.norm(c_k)) for c_k in ck])
        if m:
            xi = np.maximum(xi, n * ((1 + np.abs(b)) / (1 + a_norms)).max(1))
            eta = np.maximum(eta, a_norms.max(1))
        x[...] = xi[:, None, None] * np.eye(n)
        z[...] = eta[:, None, None] * np.eye(n)
        cv[...] = ck
    y = np.zeros(m)
    total_side = sum(blk.b * blk.n for blk in layout)
    scale = (
        1 + np.linalg.norm(b),
        1 + np.sqrt(sum(np.linalg.norm(ck) ** 2 for ck in objective)),
    )

    def residuals():
        """The primal residual b - A(X), with the dual residual
        C + Z - A^*(y) written into ``rd``, and the relative residuals and
        gap."""
        rp = b - _a_apply(layout, xs, m)
        for r, at in zip(rds, _a_adjoint(layout, y)):
            r[...] = at
        np.subtract(c + point[1], rd, out=rd)
        pval, dval = np.vdot(c, point[0]).real, float(b @ y)
        return rp, SdpResiduals(
            float(np.sqrt(rp @ rp) / scale[0]),
            float(np.sqrt(np.vdot(rd, rd).real) / scale[1]),
            float(abs(pval - dval) / (1 + (abs(pval) + abs(dval)) / 2)),
        )

    def newton():
        """dy, and [dX; dZ] into ``step``, for the right-hand side whose
        centering part is ``rc``."""
        np.add(rc, wrw, out=work)
        dy = solve_schur(_a_apply(layout, works, m) - rp)
        for dz, da in zip(dzs, _a_adjoint(layout, dy)):
            dz[...] = da
        step[1] -= rd
        for w, dz, wdzw in zip(ws, dzs, works):  # work is free again
            np.matmul(w @ dz, w, out=wdzw)
        np.subtract(rc, work, out=work)
        np.add(work, work.conj()[mirror], out=step[0])
        step[0] *= 0.5  # dX, the Hermitian part of rc - W dZ W
        if not _finite(dy, step):
            raise FloatingPointError("a Newton direction is not finite")
        return dy

    status = "max-iterations"
    for it in range(max_iters + 1):
        rp, res = residuals()
        if res.primal < tol and res.dual < tol and res.gap < tol:
            status = "optimal"
            break
        if b @ y < -1e8 * scale[0]:
            status = "infeasible"
            break
        if it == max_iters:
            break
        gap = np.vdot(point[0], point[1]).real
        mu = gap / total_side

        ws, zinvs, gs, lams = [], [], [], []
        for x, z, rdk, wrwk, h in zip(xs, zs, rds, wrws, hs):
            w, zinv, h[0], h[1], g, lam = _nt_scaling(x, z)
            np.matmul(w @ rdk, w, out=wrwk)
            ws.append(w), zinvs.append(zinv), gs.append(g), lams.append(lam)

        try:
            solve_schur = _schur_solver(_schur_complement(layout, gs, ws, m))

            # predictor: its step chooses the centering weight
            np.negative(point[0], out=rc)
            newton()
            alpha = np.minimum(1.0, _step_lengths(hs, steps))
            trial = point + alpha[:, None] * step
            gap_aff = np.vdot(trial[0], trial[1]).real
            sigma = min(max((max(gap_aff, 0.0) / gap) ** 3, 1e-6), 0.999999)

            # corrector: centering plus the predictor's second-order term
            for rck, zinv, x, z, g, lam, (dx, dz) in zip(
                rcs, zinvs, xs, zs, gs, lams, steps
            ):
                np.subtract(
                    sigma * mu * zinv - x, _second_order(g, lam, z, dx, dz), out=rck
                )
            dy = newton()
        except FloatingPointError:
            status = "breakdown"
            break

        alpha = np.minimum(1.0, 0.98 * _step_lengths(hs, steps))
        point += alpha[:, None] * step
        y = y + alpha[1] * dy
        z = point[1]
        np.add(z, z.conj()[mirror], out=z)
        z *= 0.5  # the Hermitian part

    return xs, y, zs, status, it, res


# ---------------------------------------------------------------------------
# preprocessing: row scaling and redundancy elimination


def _reduce_constraints(problem: SdpProblem):
    """Normalize rows, drop dependent ones, verify consistency.

    Works on the Gram matrix G = sum_k R_k R_k^T of the real row views,
    formed block by block from the problem's one ``_Nonzeros`` scan:
    entry rows against entry rows from their entries (pairs at a common
    position), entry rows against dense rows by gathering the dense rows
    at the entries, and dense rows against each other by one symmetric
    product.  The row scales are sqrt(diag G); a zero row (norm below
    1e-14) keeps scale 1 and a zero pivot, so it is dropped with implied
    rhs 0.  One pivoted Cholesky of the normalized G (unit diagonal set
    exactly, so ties keep the earlier row) stops at the first pivot below
    1e-12, which resolves independence to about 1e-6 relative: a row
    within that of the span of the kept rows is dropped, rows independent
    beyond it are kept, and exact linear combinations leave pivots near
    1e-15.  With the factor split into L_11 (kept rows) and L_21 (dropped
    rows), each dropped row must have the normalized rhs L_21 L_11^{-1}
    b_kept.  Returns (kept indices, row scales); raises ValueError on a
    structurally inconsistent system, a dropped row whose normalized rhs
    (a zero row's rhs itself) is off by more than 1e-8.
    """
    m = problem.n_constraints
    gram = np.zeros((m, m))
    for a, nz in zip(problem.stacks, problem._nonzeros):
        dense = a.reshape(m, a.shape[-1] ** 2)[nz.dense]
        dense_runs = _runs(nz.dense)
        if len(nz.dense):
            real = dense.view(float)
            _add_block(gram, dense_runs, dense_runs, real @ real.T)
        if len(nz.entry):
            i, j, terms = nz.entry_pairs()
            np.add.at(gram, (i, j), terms)
        if len(nz.entry) and len(nz.dense):
            entry_runs = _runs(nz.entry)
            cross = (np.take(dense, nz.flat, axis=1) * nz.v.conj()).sum(2).real
            _add_block(gram, dense_runs, entry_runs, cross)
            _add_block(gram, entry_runs, dense_runs, cross.T)
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
    layout = _layout(problem, kept, row_scale)
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


@dataclass(frozen=True, eq=False)
class AffineMatrixExpr:
    """sigma = const + sum over (block, L) of L(X_block), Hermitian-valued.

    Each L is complex-linear and Hermiticity-preserving, and maps a stack
    of block operators (q, n, n) to the stack of their images (q, side,
    side) in one call; ``fidelity_sdp`` applies it to the n^2 matrix units
    E_ij of its block, which are not Hermitian.
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
    are compressed by ``support_isometry``: rho onto its own support,
    sigma onto the projector ``sigma_support`` (callers must guarantee
    every reachable sigma lives inside it; identity if omitted).  That
    keeps a full support in the natural basis, with objective Re Tr X
    and no product with the identity isometry (``_compress``), and
    strictly feasible points when rho or sigma is singular.

    Returns the index of the added PSD block.  The block's objective
    contribution equals the fidelity at the optimum.
    """
    if sigma_support is None:
        sigma_support = np.eye(sigma.side)
    v1, v2 = support_isometry(rho), support_isometry(sigma_support)
    r, s = v1.shape[1], v2.shape[1]
    if r == 0:
        raise ValueError("rho has empty support")
    w_blk = builder.add_block(r + s)

    c12 = _compress(np.eye(len(v1), dtype=complex), v1, v2) / 2.0
    c_w = np.zeros((r + s, r + s), dtype=complex)
    c_w[:r, r:] = c12
    c_w[r:, :r] = dag(c12)
    builder.add_objective(w_blk, c_w)

    # each corner equals its target on a Hermitian basis, one row per element
    rho_rows = np.zeros((r * r, r + s, r + s), dtype=complex)
    rho_rows[:, :r, :r] = hermitian_basis(r)
    builder.add_constraint(
        {w_blk: rho_rows}, _basis_overlaps(_compress(rho, v1, v1)).real
    )

    # sigma is affine: a term L puts -L^dag(g) = -sum_ij Tr(g L(E_ij)) E_ji,
    # over the matrix units E_ij of its block, into the row of the basis
    # element g of the sigma corner
    sig_rows = np.zeros((s * s, r + s, r + s), dtype=complex)
    sig_rows[:, r:, r:] = hermitian_basis(s)
    coeffs = {w_blk: sig_rows}
    for blk, lin in sigma.terms:
        n = builder.block_side(blk)
        units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)  # E_ij at i n + j
        images = _compress(lin(units), v2, v2)
        rows = _basis_overlaps(images).T.reshape(s * s, n, n).swapaxes(1, 2)
        if max_abs(rows - dag(rows)) > COEFF_HERM_TOL:
            raise ValueError("sigma coupling is not Hermiticity-preserving")
        coeffs[blk] = coeffs.get(blk, 0.0) - rows
    builder.add_constraint(
        coeffs, _basis_overlaps(_compress(sigma.const, v2, v2)).real
    )
    return w_blk


def _compress(mat: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """dag(left) @ mat @ right, skipping a factor that is the identity.

    ``support_isometry`` returns a square isometry only for a full
    support, and then it is exactly the identity, so the product it
    skips would return ``mat`` bit for bit.
    """
    if left.shape[0] != left.shape[1]:
        mat = dag(left) @ mat
    if right.shape[0] != right.shape[1]:
        mat = mat @ right
    return mat


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
