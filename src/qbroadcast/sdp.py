"""Self-contained dense semidefinite-program solver.

Standard form over complex Hermitian PSD blocks X_k:

    maximize    sum_k <C_k, X_k>
    subject to  sum_k <A_ik, X_k> = b_i      (i = 1..m)
                X_k >= 0

with <A, B> = Re Tr(A B).  Every row is held, block by block, as a short
sum of tiles (``Tiles``): A_ik = sum_t B_t (x) E_(p_t, q_t) over the
block's index (input, output), input slow, B_t a d x d tile over the input
and E_pq a unit over the output; an entry row is the case d = 1, a dense
row one tile of side d = n.  ``SdpBuilder`` takes each constraint family as
one row block and keeps the Hermitian part of its rows; it builds every
problem, one constructed directly from dense stacks too.  A solve reads
only the tiles; ``audit`` reads the dense view ``SdpProblem.stacks``.
Dependent rows are dropped by one pivoted Cholesky of the Gram matrix, and
the kept rows are laid out once per block group (``_layout``), one (b, n,
n) stack per group, in flat arrays over all groups.  The Schur terms are
Tr(A_i W A_j W) = sum over t in i, u in j of Tr(B_t W_(q_t, p_u) B_u
W_(q_u, p_t)), the tile form of the sparse-row formulas of Fujisawa, Kojima
and Nakata (Math. Program. 79, 235, 1997).  The builder declares the r^2
rows that fix the leading r x r corner of a block
(``SdpBuilder.fix_corner``), as the fidelity gadget fixes its rho corner:
the Gram factorization leaves them out, and each Newton system eliminates
them in closed form (``_FixedCorner``), factoring a complement r^2 rows
smaller.  The kept rows are solved by primal-dual path following with
Nesterov-Todd scaling on the Hermitian blocks, as SDPT3 does for complex
data (Toh, Todd and Tutuncu 1999), with Mehrotra's predictor-corrector in
the NT-scaled space.  A numerically singular Schur complement is solved on
its range; only a Schur complement or direction that is not finite ends a
solve with ``breakdown``.  A solve reports the row-scaled residuals, over
the kept rows, of the point it returns; ``audit`` is the unscaled check, of
the dual slack too.  Instances are small (block side <= ~40, <= ~700 rows):
dense linear algebra fits.

The fidelity gadget keeps a full support in the natural basis and writes
each coupling row down from its sigma term (``ChoiTerm``) as tiles of the
state.  Every fidelity the library reports comes from
``certified_fidelity``: a solve counts only with status ``optimal`` and a
passing, independent ``audit``.  Inside ``recording()`` each such solve is
logged as a (what, solution) record, which the reports of ``broadcast``
and ``recovery`` keep, checking the paper's inequality chain
(``check_chain``).
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.linalg

from .channels import ChoiTerm
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
# constraint rows as tiles


@dataclass(frozen=True, eq=False)
class Tiles:
    """Rows of one block: row i is the sum over the tiles t with
    ``row[t] == i`` of ``b[t]`` (x) E_(p[t], q[t]), a d x d tile over the
    input at output position (p, q) of the index (input, output), input
    slow; a block of side n has n / d output positions per axis."""

    row: np.ndarray
    p: np.ndarray
    q: np.ndarray
    b: np.ndarray  # (T, d, d) complex

    @property
    def d(self) -> int:
        return self.b.shape[-1]

    @classmethod
    def dense(cls, stack: np.ndarray) -> Tiles:
        """A tile of side n for each row of an (m, n, n) stack that is not 0."""
        rows = stack.any((1, 2)).nonzero()[0]
        return cls(rows, 0 * rows, 0 * rows, stack[rows])

    def refined(self, d: int, n: int) -> Tiles:
        """The rows of a side-n block over tiles of a side d that divides
        this one: each tile splits into its nonzero d x d parts."""
        f, d_out = self.d // d, n // self.d
        if f == 1:
            return self
        parts = self.b.reshape(-1, d, f, d, f).transpose(0, 2, 4, 1, 3)
        t, i, j = parts.any((3, 4)).nonzero()
        return Tiles(self.row[t], i * d_out + self.p[t], j * d_out + self.q[t],
                     parts[t, i, j])

    @staticmethod
    def stacked(parts, n: int) -> Tiles:
        """The tiles of (row offset, Tiles) parts of a side-n block over the
        greatest common divisor of their sides, one part after another."""
        d = math.gcd(n, *(t.d for _, t in parts))
        parts = [(at, t.refined(d, n)) for at, t in parts]
        none = np.zeros(0, dtype=int)
        row = np.concatenate([none] + [at + t.row for at, t in parts])
        p, q = (np.concatenate([none] + [getattr(t, a) for _, t in parts])
                for a in "pq")
        b = np.concatenate([np.zeros((0, d, d), complex)] + [t.b for _, t in parts])
        return Tiles(row, p, q, b)

    @staticmethod
    def joined(parts, n: int) -> Tiles:
        """``stacked`` sorted by (row, p, q), the tiles at one position of a
        row summed and zero tiles dropped."""
        t = Tiles.stacked(parts, n)
        row, p, q, b, d = t.row, t.p, t.q, t.b, t.d
        key = (row * (n // d) + p) * (n // d) + q
        order = key.argsort(kind="stable")
        start = (np.diff(key[order], prepend=-1) != 0).nonzero()[0]
        b = np.add.reduceat(b[order], start) if len(start) else b
        keep, first = b.any((1, 2)), order[start]
        return Tiles(row[first][keep], p[first][keep], q[first][keep], b[keep])


@np.errstate(over="ignore", invalid="ignore")  # huge - -huge in A - A^dag
def _check_tiles(tiles: Tiles, n: int, m: int, block: int) -> Tiles:
    """The tiles of m rows of a side-n block and their mirrors (row, q, p,
    B^dag), each halved, if they fit and the rows are Hermitian within
    COEFF_HERM_TOL, else ValueError.  Merged by ``Tiles.joined``, the halves
    sum to the Hermitian part (A + A^dag) / 2.  The check is one such merge,
    of A and -A^dag, so tiles at one position are summed before it."""
    at = [np.asarray(a, dtype=int) for a in (tiles.row, tiles.p, tiles.q)]
    b = np.asarray(tiles.b, dtype=complex)
    fits = b.ndim == 3 and b.shape[1] == b.shape[2] > 0 and n % b.shape[2] == 0
    if not fits or any(len(a) != len(b) or len(a) and not (
        0 <= a.min() <= a.max() < top
    ) for a, top in zip(at, (m,) + 2 * (n // b.shape[2],))):
        raise ValueError(f"constraint block {block} has tiles that do not fit it")
    if not np.isfinite(b).all():
        raise ValueError(f"constraint block {block} is not finite")
    row, p, q = at
    skew = Tiles.joined([(0, Tiles(row, p, q, b)), (0, Tiles(row, q, p, -dag(b)))], n)
    dev = max_abs(skew.b)
    if not dev <= COEFF_HERM_TOL:
        raise ValueError(
            f"constraint block {block} is not Hermitian: max |A - A^dag| = {dev:.3e}"
        )
    return Tiles(np.concatenate([row, row]), np.concatenate([p, q]),
                 np.concatenate([q, p]), np.concatenate([b, dag(b)]) / 2)


# ---------------------------------------------------------------------------
# problem containers


class SdpProblem:
    """Standard-form SDP data over complex Hermitian blocks: ``tiles[k]``
    the rows of block k, ``rhs[i]`` b_i.  Constructed directly from dense
    (m, n_k, n_k) ``stacks``, it goes through an ``SdpBuilder`` as one row
    block, so it is validated and held as tiles as a built problem is.
    ``stacks[k][i]``, the coefficient of block k in row i, is a view of the
    tiles expanded when first read.  ``corner``, (block, r, first row) or
    None, is the corner that ``SdpBuilder.fix_corner`` declared."""

    def __init__(self, blocks, objective, stacks, rhs):
        if not len(blocks) == len(objective) == len(stacks):
            raise ValueError("blocks, objective and stacks differ in length")
        builder = SdpBuilder()
        for n, c in zip(blocks, objective):
            builder.add_objective(builder.add_block(n), c)
        builder.add_constraint(dict(enumerate(stacks)), rhs)
        vars(self).update(vars(builder.build()))

    @classmethod
    def _from_validated(cls, blocks, objective, tiles, rhs, corner=None) -> SdpProblem:
        """A problem of tiles already validated, without checking them again."""
        problem = object.__new__(cls)
        problem.blocks, problem.objective = blocks, objective
        problem.tiles, problem.rhs, problem.corner = tiles, rhs, corner
        return problem

    @cached_property
    def stacks(self) -> tuple:
        """Each block's dense (m, n_k, n_k) stack, for ``audit`` and tests."""
        m, stacks = self.n_constraints, []
        for n, t in zip(self.blocks, self.tiles):
            a = np.zeros((m, t.d, n // t.d, t.d, n // t.d), dtype=complex)
            a[t.row, :, t.p, :, t.q] = t.b
            stacks.append(a.reshape(m, n, n))
        return tuple(stacks)

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
        self._row_blocks: list = []  # of (Tiles by block, rhs)
        self._corner = None  # the first fixed corner, (block, r, first row)

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
        scalar ``rhs``, or q values and per block a (q, n_k, n_k) stack or a
        ``Tiles`` of rows 0..q-1; blocks left out get zeros.  A block that
        ``add_block`` did not return, a right-hand side not finite, or a
        coefficient not finite or further than ``COEFF_HERM_TOL`` from
        Hermitian raises ValueError; the rows keep the Hermitian part the
        check returns.  This is the one check: ``build`` does not repeat it."""
        rhs = np.asarray(rhs, dtype=float)
        if not np.isfinite(rhs).all():
            raise ValueError("rhs is not finite")
        rows = {}
        for k, a in coeffs.items():
            n = self.block_side(k)
            if isinstance(a, Tiles):
                rows[k] = _check_tiles(a, n, rhs.size, k)
                continue
            a = np.asarray(a, dtype=complex)
            if rhs.ndim == 0:
                a = a[None]
            rows[k] = Tiles.dense(
                _check_block(a, (rhs.size, n, n), "constraint", k)
            )
        self._row_blocks.append((rows, rhs.reshape(-1)))

    def fix_corner(self, block: int, target: np.ndarray):
        """Add one row per element of ``hermitian_basis(r)`` that fixes the
        leading r x r corner of the block to the Hermitian ``target``; the
        first such corner is declared, for ``solve`` to eliminate."""
        first, r = sum(len(b) for _, b in self._row_blocks), len(target)
        self.add_constraint({block: _basis_tiles(r)}, _basis_overlaps(target).real)
        self._corner = self._corner or (block, r, first)

    def build(self) -> SdpProblem:
        rhs = np.concatenate([np.zeros(0)] + [b for _, b in self._row_blocks])
        starts = np.cumsum([0] + [len(b) for _, b in self._row_blocks])
        tiles = [Tiles.joined([
            (at, block[k]) for at, (block, _) in zip(starts, self._row_blocks)
            if k in block
        ], n) for k, n in enumerate(self._blocks)]
        self._row_blocks = [(dict(enumerate(tiles)), rhs)]  # no second copy
        objective = tuple(
            _check_block(c, (n, n), "objective", k)
            for k, (n, c) in enumerate(zip(self._blocks, self._objective))
        )
        return SdpProblem._from_validated(
            tuple(self._blocks), objective, tuple(tiles), rhs, self._corner
        )


def _check_block(a: np.ndarray, shape: tuple, what: str, block: int):
    """The Hermitian part of A if A has ``shape`` and is Hermitian within
    COEFF_HERM_TOL."""
    if a.shape != shape:
        raise ValueError(f"{what} block {block} has shape {a.shape}")
    return require_hermitian(a, f"{what} block {block}", COEFF_HERM_TOL)


# ---------------------------------------------------------------------------
# hermitian operator basis


@cache
def _basis_tiles(n: int, at: int = 0) -> Tiles:
    """``hermitian_basis(n)`` as entry tiles (d = 1) of a block, placed at
    rows and columns at..at+n-1.  Built once per (n, at) and read-only,
    since every program with that corner shares it."""
    i, j = np.triu_indices(n, 1)
    t, diag, h = n + 2 * np.arange(len(i)), np.arange(n), 1.0 / np.sqrt(2)
    v = np.repeat([1, h, h, -1j * h, 1j * h], [n] + 4 * [len(i)])
    tiles = Tiles(np.concatenate([diag, t, t, t + 1, t + 1]),
                  at + np.concatenate([diag, i, j, i, j]),
                  at + np.concatenate([diag, j, i, j, i]), v[:, None, None])
    for a in (tiles.row, tiles.p, tiles.q, tiles.b):
        a.flags.writeable = False
    return tiles


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of n x n Hermitian matrices,
    stacked (n^2, n, n): the diagonal units first, then for each i < j the
    real and the imaginary off-diagonal element."""
    tiles = _basis_tiles(n)
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[tiles.row, tiles.p, tiles.q] = tiles.b[:, 0, 0]
    return basis


def _basis_overlaps(mat: np.ndarray) -> np.ndarray:
    """Tr(H_e M) for each element H_e of ``hermitian_basis(n)``, complex,
    gathered at the 1 or 2 entries of H_e; real where M is Hermitian."""
    t = _basis_tiles(len(mat))
    terms = t.b[:, 0, 0] * mat[t.q, t.p]
    return np.bincount(t.row, terms.real) + 1j * np.bincount(t.row, terms.imag)


# ---------------------------------------------------------------------------
# the interior-point core (complex Hermitian blocks)


def _row_order(problem: SdpProblem, kept: np.ndarray) -> np.ndarray:
    """``kept`` ordered by the last, then the first block each row touches,
    so that in every program the library builds the rows of a block group
    are consecutive and it adds its Schur terms into one block."""
    first = np.full(problem.n_constraints, len(problem.blocks))
    last = np.full(problem.n_constraints, -1)
    for k, t in enumerate(problem.tiles):
        first[t.row] = np.minimum(first[t.row], k)
        last[t.row] = k
    return kept[np.lexsort((first[kept], last[kept]))]


def _layout(problem: SdpProblem, kept: np.ndarray, scale: np.ndarray) -> list:
    """The rows ``kept`` of the problem, each divided by its ``scale``, as
    one ``_BlockRows`` per block group, in order of each group's first
    block.  A group is the blocks of one side and tile side whose tiles lie
    at the same positions of every row that several blocks touch (values
    may differ); a row of one block alone, such as the unit trace of one
    preparation, gets zero tiles on the others."""
    m = problem.n_constraints
    position = np.full(m, -1)
    position[kept] = np.arange(len(kept))
    touched = sum(np.bincount(np.unique(t.row), minlength=m) for t in problem.tiles)
    groups = {}
    for k, (n, t) in enumerate(zip(problem.blocks, problem.tiles)):
        live = (position[t.row] >= 0).nonzero()[0]
        live = live[position[t.row[live]].argsort(kind="stable")]
        rows = position[t.row[live]]
        at = (rows * n + t.p[live]) * n + t.q[live]  # row and position
        key = (n, t.d, at[touched[t.row[live]] > 1].tobytes())
        groups.setdefault(key, []).append((k, at, t.b[live] / scale[rows, None, None]))
    layout = []
    for (n, d, _), members in groups.items():
        at, where = np.unique(np.concatenate([a for _, a, _ in members]),
                              return_inverse=True)
        values = np.zeros((len(at), len(members), d, d), dtype=complex)
        for j, (_, a, b) in enumerate(members):
            values[where[:len(a)], j], where = b, where[len(a):]
        rows, pq = np.divmod(at, n * n)
        blocks = tuple(k for k, _, _ in members)
        layout.append(_BlockRows(blocks, n, rows, *np.divmod(pq, n), values))
    return layout


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


def _at(rows: np.ndarray):
    """A basic slice for increasing ``rows`` without gaps, else ``rows``."""
    if len(rows) and rows[-1] - rows[0] == len(rows) - 1:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


class _BlockRows:
    """One block group as the iteration reads it: b blocks of side n = d
    d_out as one (b, n, n) stack, and the kept, scaled rows that touch them
    (``rows``, positions in ``kept``) as tiles sorted by row, one value per
    block.  A(X) gathers each tile's X_(q, p) from the stack, and A^*(y)
    adds y_i B_t at the mirrors by one ``bincount``.  For the Schur terms,
    rows of at most 2 tiles and the others form two classes padded with
    zero tiles to their widest row K: W A_i W = [W_(., p_t) B_t]_t
    [W_(q_t, .)]_t is one batched product of inner dimension K d, or two
    products over the class for dense rows (d = n).  Row j reads it at
    its tiles with p <= q, the others doubled (a Hermitian row's tile below
    the diagonal is the adjoint of one above, as is W A_i W there): entries
    (d = 1) by a gather, wider tiles by one real product per position
    (q, p).  Every index and work array is built once per solve, those of
    the Schur terms at the first ``add_schur``: a group whose rows a fixed
    corner replaces in the Newton system (``_FixedCorner``) never builds
    them."""

    def __init__(self, blocks, n, tile_rows, p, q, values):
        self.blocks, self.n, self.b, self.d = blocks, n, len(blocks), values.shape[-1]
        b, d, d_out = self.b, self.d, n // self.d
        new = np.diff(tile_rows, prepend=-1) != 0
        starts, tr = new.nonzero()[0], new.cumsum() - 1
        self.rows, self.starts = tile_rows[starts], starts
        self.at = _at(self.rows)
        self.sq_norms = (np.abs(values) ** 2).sum((2, 3))
        # tile t of block k pairs B_t[i, j] with X_k[(j, q_t), (i, p_t)]; y_i
        # B_t is added on the real view, where an entry is 2 numbers
        i, j, k = np.arange(d)[:, None], np.arange(d), n * n * np.arange(b)
        k, p4, q4 = k[:, None, None], p.reshape(-1, 1, 1, 1), q.reshape(-1, 1, 1, 1)
        self.reads = (k + (j * d_out + q4) * n + i * d_out + p4).reshape(-1)
        writes = (k + (i * d_out + p4) * n + j * d_out + q4).reshape(-1, 1)
        self.writes = (2 * writes + np.arange(2)).reshape(-1)
        self.read_v, self.write_v = values.reshape(-1), values.view(float).reshape(-1)
        self.read_at, self.write_rows = starts * b * d * d, tr.repeat(2 * b * d * d)
        self._tiles = (tr, p, q, values)

    @cached_property
    def _schur_plan(self):
        """(read slots, tiles by position, classes) for ``add_schur``: the
        tiles each row reads W A_i W at, and per class of rows its Schur
        slice, products and work arrays."""
        (tr, p, q, values), starts = self._tiles, self.starts
        b, n, d, size = self.b, self.n, self.d, len(tr)
        d_out, classes, by_position = n // d, [], None
        if not size:
            return [], by_position, classes

        read = (p <= q).nonzero()[0]  # slot j holds the j-th of each row
        rp, rq = p[read], q[read]
        rv = values[read] * np.where(rp < rq, 2.0, 1.0)[:, None, None, None]
        depth = np.arange(len(read)) - tr[read].searchsorted(tr[read])
        slots = [(depth == j).nonzero()[0] for j in range(depth.max() + 1)]
        if d == 1:  # W A_i W at (q, p), times the entry
            read_slots = [(_at(tr[read][u]), rq[u] * n + rp[u],
                           rv[u, :, 0, 0].T[:, None]) for u in slots]
        else:  # per position (q, p), the real coordinates of its tiles
            position, at = np.unique(rq * d_out + rp, return_inverse=True)
            order = at.argsort(kind="stable")
            depth[order] = np.arange(len(read)) - at[order].searchsorted(at[order])
            coords = np.stack([rv.real, -rv.imag], axis=-1).swapaxes(2, 3)
            by_position = np.zeros((len(position), 2 * b * d * d, depth.max() + 1))
            by_position[at, :, depth] = coords.reshape(len(read), -1)
            read_slots = [(_at(tr[read][u]), at[u], depth[u]) for u in slots]
            oq, op = np.divmod(position, d_out)  # (j, q) and (i, p): [P, m, b, j, i]
            j = np.arange(d)
            x_at = (j[:, None] * d_out + oq[:, None, None])[:, None, None]
            y_at = (j * d_out + op[:, None, None])[:, None, None]

        count = np.bincount(tr)
        tile_b = np.concatenate([values.swapaxes(0, 1), np.zeros((b, 1, d, d))], 1)
        tile_p, tile_q = np.append(p, 0), np.append(q, 0)
        block = n * n * np.arange(b)[:, None, None, None]
        for rows_k in ((count <= 2).nonzero()[0], (count > 2).nonzero()[0]):
            if not len(rows_k):
                continue
            m_k, width = len(rows_k), count[rows_k].max()
            idx = starts[rows_k, None] + np.arange(width)
            idx[np.arange(width) >= count[rows_k, None]] = size
            if d == n:  # W [B_1 ... B_m], then W B_i W laid out [b, x, i, y]
                mats = (tile_b[:, idx[:, 0]].transpose(0, 2, 1, 3).reshape(b, n, -1),
                        np.empty((b, n, m_k * n), dtype=complex))
                stride = (m_k * n * n, n, m_k * n)  # of a block, a row, an x
            else:  # W_(., p)[x, i] = W[x, (i, p)], W_(q, .)[j, y] = W[(j, q), y]
                cols = np.arange(d) * d_out + tile_p[idx][..., None]
                left = block + np.arange(n)[:, None] * n + cols.reshape(m_k, 1, -1)
                jq = np.arange(d)[:, None] * d_out + tile_q[idx][..., None, None]
                right = block + (jq * n + np.arange(n)).reshape(m_k, -1, n)
                factor = tile_b[:, idx, 0, 0][:, :, None]  # B_t scales column t
                if d > 1:  # blockdiag(B_t)
                    factor = np.zeros((b, m_k, width, d, width, d), dtype=complex)
                    factor[:, :, np.arange(width), :, np.arange(width)] = (
                        tile_b[:, idx].transpose(2, 0, 1, 3, 4))
                    factor = factor.reshape(b, m_k, width * d, -1)
                mats = (left, factor, right, np.empty((b, m_k, n, width * d), complex))
                stride = (m_k * n * n, n * n, n)
            if d == 1:
                work = np.empty((b, m_k, len(slots[0])), dtype=complex)
                at = (self.rows[rows_k], self.rows)
            else:
                gather = (np.arange(b)[:, None, None] * stride[0] + x_at * stride[2]
                          + y_at + np.arange(m_k)[:, None, None, None] * stride[1])
                gather = gather.reshape(len(position), m_k, -1)
                work = (gather, np.empty(gather.shape, dtype=complex),
                        np.empty((len(position), m_k, depth.max() + 1)))
                at = (self.rows, self.rows[rows_k])
            contiguous = all(a[-1] - a[0] == len(a) - 1 for a in at)
            at = tuple(map(_at, at)) if contiguous else np.ix_(*at)
            classes.append((at, mats, np.empty((b, m_k, n, n), complex), work))
        return read_slots, by_position, classes

    def norms(self) -> np.ndarray:
        """Frobenius norm of each touching row in each block, (b, rows)."""
        sq, starts = self.sq_norms, self.starts
        return (np.sqrt(np.add.reduceat(sq, starts)) if len(starts) else sq).T

    def apply(self, x: np.ndarray) -> np.ndarray:
        """sum_k Re Tr(A_ik X_k) for each touching row i."""
        terms = x.reshape(-1)[self.reads] * self.read_v
        return np.add.reduceat(terms.real, self.read_at)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """The (b, n, n) stack of sum_i y_i A_ik, ``y`` indexed like the
        touching rows."""
        b, n = self.b, self.n
        out = np.bincount(self.writes, y[self.write_rows] * self.write_v, 2 * b * n * n)
        return out.view(complex).reshape(b, n, n)

    def add_schur(self, schur: np.ndarray, w: np.ndarray, r=None):
        """Add sum_k Re Tr(A_ik W_k A_jk W_k) for each pair of touching rows
        into their entry of ``schur``, in place, from the stack of the W_k:
        entry rows the terms of row i to row i, wider tiles to column i.
        Given a second stack ``r``, add sum_k Re Tr(A_ik W_k A_jk R_k) + Re
        Tr(A_ik R_k A_jk W_k) instead: the rows read W A_i R + R A_i W."""
        b, n, d, r = self.b, self.n, self.d, w if r is None else r
        read_slots, by_position, classes = self._schur_plan
        for at, mats, waw, work in classes:
            if d == n:
                b_side, half = mats
                np.matmul(w, b_side, out=half)
                np.matmul(half.reshape(b, -1, n), r, out=waw.reshape(b, -1, n))
            else:
                left, factor, right, half = mats
                product = np.multiply if d == 1 else np.matmul
                product(w.reshape(-1).take(left), factor, out=half)
                np.matmul(half, r.reshape(-1).take(right), out=waw)
            if r is not w:  # dense rows lay the products out [b, x, i, y]
                v = waw.reshape(b, n, -1, n).swapaxes(1, 2) if d == n else waw
                v += dag(v)
            if d == 1:
                flat = waw.reshape(b, -1, n * n)
                (_, cols, v), *more = read_slots
                flat.take(cols, axis=2, out=work, mode="clip")
                work *= v
                part = work.real[0] if b == 1 else work.real.sum(0)
                for rows, cols, v in more:
                    part[:, rows] += (flat.take(cols, axis=2) * v).real.sum(0)
            else:
                gather, coords, terms = work
                waw.reshape(-1).take(gather, out=coords, mode="clip")
                np.matmul(coords.view(float), by_position, out=terms)
                (_, position, depth), *more = read_slots
                part = terms[position, :, depth]
                for rows, position, depth in more:
                    part[rows] += terms[position, :, depth]
            schur[at] += part


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


def _schur_complement(layout, ws, m: int) -> np.ndarray:
    """S_ij = sum_k Re Tr(A_ik W_k A_jk W_k) for the NT points W_k: each
    group adds its terms in place.  The two readings of a pair of rows
    agree to roundoff, and the Cholesky reads the lower one."""
    schur = np.zeros((m, m))
    for blk, w in zip(layout, ws):
        blk.add_schur(schur, w)
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


class _FixedCorner:
    """The Newton system with the r^2 rows C that fix the leading corner
    W_11 of one block (``SdpBuilder.fix_corner``: ``hermitian_basis(r)``
    over the row scales) eliminated in closed form.  They come last in the
    layout, after the m' others R, and the block is a group of its own
    (``group``).  S_CC is the congruence Y -> W_11 Y W_11, so with H(h) =
    sum_c h_c E_c and coords(V) = (Re Tr(E_c V))_c, each one gather,

        dy_C = coords(W_11^-1 (H(h_C) - W_1J A_R^*(dy_R) W_J1) W_11^-1),

    and, since the rows R reach the block only in its [r, n) corner J, the
    reduced complement S_RR - S_RC S_CC^-1 S_CR takes from the block Re
    Tr(A_i W_JJ A_j W_JJ) - Re Tr(A_i M A_j M), M = W_J1 W_11^-1 W_1J: by
    trace cyclicity Re Tr(A_i L A_j R), L = W_JJ - M, R = W_JJ + M, one
    Schur term of the side-(n - r) group ``rest`` (the rows R on J)."""

    def __init__(self, group, problem, kept, scales, k, r):
        self.group, self.r, self.m = group, r, len(kept) - r * r
        t, others = problem.tiles[k], kept[:self.m]
        on_j = SdpProblem._from_validated(  # the rows R on J
            (problem.blocks[k] - r,), None, (Tiles(t.row, t.p - r, t.q - r, t.b),),
            problem.rhs)
        (self.rest,) = _layout(on_j, others, scales[others])
        # H(h) and coords(V) on r x r matrices viewed as floats: each float
        # is the real or imaginary part of one basis tile, coords read p <= q
        e, scale = _basis_tiles(r), scales[kept[self.m:]]
        v = e.b[:, 0, 0] / scale[e.row]
        slot, part = 2 * (e.p * r + e.q) + (v.imag != 0), v.real + v.imag
        self.writes, self.write_v = np.full(2 * r * r, self.m), np.zeros(2 * r * r)
        self.writes[slot], self.write_v[slot] = self.m + e.row, part
        up = (e.p <= e.q).nonzero()[0]
        up = up[e.row[up].argsort()]  # one tile of each row
        self.reads, self.read_v = slot[up], np.where(e.p < e.q, 2.0, 1.0)[up] * part[up]

    def solver(self, layout, ws):
        """rhs -> dy with S dy = rhs, S the full Schur complement at the NT
        points ``ws``, from one Cholesky of W_11 (``zpotrf``) and one of the
        reduced complement; LinAlgError if W_11 is not numerically definite."""
        r, m, rest, w = self.r, self.m, self.rest, ws[self.group][0]
        chol, info = scipy.linalg.lapack.zpotrf(w[:r, :r], lower=1, clean=1)
        if info:
            raise np.linalg.LinAlgError("W_11 is not positive definite")
        outer = scipy.linalg.lapack.zpotrs(  # W_11^-1 [I, W_1J]
            chol, np.concatenate([np.eye(r), w[:r, r:]], axis=1), lower=1)[0]
        inner, w1j, w_jj = dag(outer), outer[:, r:], w[None, r:, r:]
        wj1, mm = inner[r:], w[r:, :r] @ w1j  # W_J1 W_11^-1, M
        schur = np.zeros((m, m))
        for blk, wk in zip(layout, ws):
            if blk is not layout[self.group]:
                blk.add_schur(schur, wk)
        rest.add_schur(schur, (w_jj - mm) / 2, w_jj + mm)  # at L / 2 and R
        solve_rest = _schur_solver(schur)

        def solve(rhs):
            hc = (rhs.take(self.writes) * self.write_v).view(complex).reshape(r, r)
            both = inner @ hc @ outer  # W_11^-1 H W_11^-1, W_J1 W_11^-1 H W_11^-1 W_1J
            h = rhs[:m].copy()
            h[rest.at] -= rest.apply(both[None, r:, r:])
            dy = solve_rest(h)
            v = both[:r, :r] - w1j @ rest.adjoint(dy[rest.at])[0] @ wj1
            coords = v.reshape(-1).view(float).take(self.reads) * self.read_v
            return np.concatenate([dy, coords])

        return solve


def _newton_solver(layout, ws, m: int, corner):
    """rhs -> dy for the Newton system at the NT points ``ws``: with the
    fixed ``corner`` eliminated if there is one and its W_11 factors, else
    from the full Schur complement."""
    if corner is not None:
        with contextlib.suppress(np.linalg.LinAlgError):
            return corner.solver(layout, ws)
    return _schur_solver(_schur_complement(layout, ws, m))


@np.errstate(over="ignore", invalid="ignore")
def _path_following(objective, layout, b, tol, max_iters, corner=None):
    """NT-scaled primal-dual path following over the row ``layout``.

    X, Z and every per-block quantity are one (b, n, n) stack per block
    group, all groups side by side in flat arrays laid out once per solve
    with their group views ([X; Z], [dX; dZ], R_d, W R_d W, the right-hand
    sides), so each entrywise step is one operation per iterate.  Each
    iterate is factored once: ``_nt_scaling`` per group and one Cholesky of
    the Schur complement, whose two Newton solves share W R_d W; with a
    fixed ``corner`` that is the reduced complement, beside the r x r
    Cholesky of its W_11 (``_FixedCorner``).  One ``eigvalsh`` per group
    reads both step lengths of a direction.  The predictor picks the
    centering weight sigma; the corrector aims at sigma mu with Mehrotra's
    second-order term in the NT-scaled space, as SDPT3 computes it (Todd,
    Toh and Tutuncu, SIAM J. Optim. 8, 769, 1998):
    sigma mu Z^{-1} - X - G L_V^{-1}(dX~ dZ~ + dZ~ dX~) G^dag
    (``_second_order``).  X moves by exactly Hermitian steps, so only Z is
    symmetrized.  A Schur complement or direction that is not finite (an
    overflow, its warning silenced) ends the solve with ``breakdown``.
    Iterates 0..``max_iters`` each get one residual pass, which sets
    ``status``; every exit returns (xs, y, zs, status, iterations,
    residuals) of its point, residuals row-scaled over the kept rows.
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
            solve_schur = _newton_solver(layout, ws, m, corner)

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


def _gram(problem: SdpProblem) -> np.ndarray:
    """G_ij = sum_k Re <A_ik, A_jk>: two tiles of a block meet only at one
    position, where they add Re Tr(B_t^dag B_u), so each tile, sorted by
    position, pairs with every tile of its run of equal positions."""
    m = problem.n_constraints
    at, terms = [np.zeros(0, dtype=int)], [np.zeros(0)]
    for n, t in zip(problem.blocks, problem.tiles):
        if t.d == n:  # dense rows meet at their one position: a product
            rows = t.b.reshape(len(t.b), n * n)
            at.append((t.row[:, None] * m + t.row).reshape(-1))
            terms.append((rows.conj() @ rows.T).real.reshape(-1))
            continue
        key = t.p * (n // t.d) + t.q
        order = key.argsort(kind="stable")
        key, rows, b = key[order], t.row[order], t.b[order].reshape(len(key), t.d ** 2)
        start = key.searchsorted(key)
        count = key.searchsorted(key, "right") - start
        i = np.arange(len(key)).repeat(count)
        j = np.arange(len(i)) - (count.cumsum() - count - start).repeat(count)
        at.append(rows[i] * m + rows[j])
        terms.append(np.add.reduce((b[i].conj() * b[j]).real, axis=1))
    gram = np.bincount(np.concatenate(at), np.concatenate(terms), minlength=m * m)
    return gram.reshape(m, m)


def _declared_corner(problem: SdpProblem, rows: np.ndarray):
    """(block k, side r, its r^2 rows) of the declared corner if r < n,
    ``rows`` hold its rows and no other of them has a tile in [0, r) x [0,
    n) of block k, else None: then its rows meet none of the others."""
    if problem.corner is None:
        return None
    k, r, first = problem.corner
    t, own = problem.tiles[k], np.arange(first, first + r * r)
    live = np.bincount(rows, minlength=problem.n_constraints) > 0
    reach = live[t.row] & (np.minimum(t.p, t.q) < r) & ~np.isin(t.row, own)
    if r < problem.blocks[k] and live[own].all() and not reach.any():
        return k, r, own
    return None


def _reduce_constraints(problem: SdpProblem):
    """Normalize rows, drop dependent ones, verify consistency, on the Gram
    matrix G of the rows (``_gram``).  The row scales are sqrt(diag G); a
    zero row (norm below 1e-14) keeps scale 1 and a zero pivot, so it is
    dropped with implied rhs 0.  One pivoted Cholesky of the normalized G
    (unit diagonal set exactly, so ties keep the earlier row) stops at the
    first pivot below 1e-12, which resolves independence to about 1e-6
    relative; exact linear combinations leave pivots near 1e-15.  The rows
    of a declared corner (``_declared_corner``) are orthonormal and meet no
    other row: they are kept, and only the other rows' G is factored.  With
    the factor split into L_11 (kept rows) and L_21 (dropped rows), each
    dropped row must have the normalized rhs L_21 L_11^{-1} b_kept.
    Returns (kept indices, row scales); raises ValueError on a structurally
    inconsistent system, a dropped row whose normalized rhs is off by more
    than 1e-8."""
    gram = _gram(problem)
    scales = np.sqrt(np.diagonal(gram))
    nonzero = scales >= 1e-14
    scales[~nonzero] = 1.0
    nb, every = problem.rhs / scales, np.arange(problem.n_constraints)
    corner = _declared_corner(problem, every)
    own = every[:0] if corner is None else corner[2]
    free = np.delete(every, own)
    normed = gram[np.ix_(free, free)] / np.outer(scales[free], scales[free])
    np.fill_diagonal(normed, nonzero[free])
    factor, piv, rank, _ = scipy.linalg.lapack.dpstrf(normed, tol=1e-12, lower=1)
    piv = free[piv - 1]
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
    return np.sort(np.concatenate([kept, own])), scales


def _solve_layout(problem: SdpProblem):
    """(kept rows in solve order, their scales, the row layout, the fixed
    corner or None) for ``solve``: the rows ``_reduce_constraints`` keeps,
    in ``_row_order``, those of a declared corner (``_declared_corner``)
    moved last; it is eliminated when its block is a group of its own."""
    kept, scales = _reduce_constraints(problem)
    kept = _row_order(problem, kept)
    corner = _declared_corner(problem, kept)
    if corner is not None:
        k, r, rows = corner
        kept = np.concatenate([kept[~np.isin(kept, rows)], rows])
    layout = _layout(problem, kept, scales[kept])
    if corner is not None:
        group = next(g for g, blk in enumerate(layout) if k in blk.blocks)
        corner = (_FixedCorner(group, problem, kept, scales, k, r)
                  if layout[group].b == 1 else None)
    return kept, scales[kept], layout, corner


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
    kept, row_scale, layout, corner = _solve_layout(problem)
    stacks, y_kept, _, status, iterations, res = _path_following(
        _gather(layout, problem.objective),
        layout,
        problem.rhs[kept] / row_scale,
        tol,
        max_iters,
        corner,
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

    Recomputes constraint violations (a contraction of the dense view
    ``problem.stacks``), block eigenvalues and the least eigenvalue of the
    dual slack A^*(y) - C from scratch; returns (ok, details dict).
    Deliberately shares no code with the solver.
    """
    details = {}
    worst_eig = 0.0
    for k, x in enumerate(solution.primal_blocks):
        lo = float(np.linalg.eigvalsh(hermitian_part(x))[0])
        worst_eig = min(worst_eig, lo)
    details["min_block_eigenvalue"] = worst_eig
    slack = [np.linalg.eigvalsh(hermitian_part(
        np.tensordot(solution.dual_vector, a, axes=1) - c))[0]
        for a, c in zip(problem.stacks, problem.objective)]
    details["min_dual_slack_eigenvalue"] = float(min(slack, default=0.0))
    got = np.zeros(problem.n_constraints)
    for a, x in zip(problem.stacks, solution.primal_blocks):
        got += np.tensordot(a, x.T, axes=2).real
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
        and details["min_dual_slack_eigenvalue"] > -1e-6
        and worst_con < 100 * tol
        and details["gap_vs_dual"] / scale < 100 * tol
    )
    return ok, details


# ---------------------------------------------------------------------------
# the fidelity gadget


@dataclass(frozen=True, eq=False)
class AffineMatrixExpr:
    """sigma = const + sum over (block, L) of L(X_block), Hermitian-valued;
    each L is complex-linear and Hermiticity-preserving, a ``ChoiTerm`` or a
    map of stacks of block operators (read as ``ChoiTerm.of_map``)."""

    side: int
    const: np.ndarray
    terms: tuple = ()  # of (block index, L)


def _coupling_tiles(term: ChoiTerm, units) -> Tiles:
    """Tiles of -sum_k g_k L^dag(E_(x_k, y_k)) in rows e_k for the units
    (e, x, y, g) of the sigma corner, L = ``term``: E_(a o),(a' o') reads
    sigma[(a' o'), (a o)], the tile M_(a' .)(a .) transposed times
    t[o', o, u, v], at each (v, u) where that is not 0."""
    e, x, y, g = units
    s = term.t.shape[0]
    (a1, o1), (a2, o2) = np.divmod(x, s), np.divmod(y, s)
    to2, to1, u, v = term.t.nonzero()  # grouped by (o', o)
    per_key = np.bincount(to2 * s + to1, minlength=s * s)
    key = o2 * s + o1
    count = per_key[key]
    k = np.arange(len(e)).repeat(count)
    nz = np.arange(len(k)) + (per_key.cumsum()[key] - per_key[key]
                              - count.cumsum() + count).repeat(count)
    tiles = term.m.transpose(2, 0, 3, 1)[a1[k], a2[k]]  # [j, i] = m[a', i, a, j]
    coeff = -g[k] * term.t[to2[nz], to1[nz], u[nz], v[nz]]
    return Tiles(e[k], v[nz], u[nz], coeff[:, None, None] * tiles)


def fidelity_sdp(
    builder: SdpBuilder,
    rho: np.ndarray,
    sigma: AffineMatrixExpr,
    sigma_support: np.ndarray | None = None,
) -> int:
    """Add a fidelity block for F(rho, sigma) to a problem under construction
    and return its index; its objective contribution is the fidelity at the
    optimum.  Encodes max (Tr X + Tr X^dag)/2 over [[rho, X], [X^dag, sigma]]
    >= 0, ``sigma`` affine in other blocks.  Rho is compressed onto its
    support, sigma onto ``sigma_support``: a PSD matrix whose support holds
    every reachable sigma, or an isometry (tall, orthonormal columns) onto
    such a subspace; the whole space if omitted.  A full support stays in
    the natural basis (``_compress``), a singular one keeps strictly
    feasible points.  Each corner equals its target on a Hermitian basis;
    a sigma term's coupling rows are tiles read off the units of each
    compressed element V h V^dag, which V = V_A (x) I merges into 2 tiles."""
    v1, v2 = support_isometry(rho), np.asarray(
        np.eye(sigma.side) if sigma_support is None else sigma_support, dtype=complex)
    v2 = support_isometry(v2) if v2.shape[0] == v2.shape[1] else v2
    r, s = v1.shape[1], v2.shape[1]
    if r == 0:
        raise ValueError("rho has empty support")
    w_blk = builder.add_block(r + s)

    c12 = _compress(np.eye(len(v1), dtype=complex), v1, v2) / 2.0
    c_w = np.zeros((r + s, r + s), dtype=complex)
    c_w[:r, r:], c_w[r:, :r] = c12, dag(c12)
    builder.add_objective(w_blk, c_w)
    builder.fix_corner(w_blk, _compress(rho, v1, v1))

    corner = _basis_tiles(s, at=r)
    units = (corner.row, corner.p - r, corner.q - r, corner.b[:, 0, 0])
    if v2.shape[0] != v2.shape[1]:  # the units of V h_e V^dag
        elements = v2 @ hermitian_basis(s) @ dag(v2)
        units = elements.nonzero() + (elements[elements.nonzero()],)
    coeffs = {w_blk: [(0, corner)]}
    for blk, lin in sigma.terms:
        n = builder.block_side(blk)
        term = lin if isinstance(lin, ChoiTerm) else ChoiTerm.of_map(lin, n)
        m = term.m.reshape(2 * (term.m.shape[0] * term.m.shape[1],))
        t = term.t - term.t.transpose(1, 0, 3, 2).conj()  # T(Y^dag) - T(Y)^dag
        if max(max_abs(m - dag(m)), max_abs(t)) > COEFF_HERM_TOL:
            raise ValueError("sigma coupling is not Hermiticity-preserving")
        coeffs.setdefault(blk, []).append((0, _coupling_tiles(term, units)))
    builder.add_constraint(
        {k: Tiles.stacked(v, builder.block_side(k)) for k, v in coeffs.items()},
        _basis_overlaps(_compress(sigma.const, v2, v2)).real,
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
