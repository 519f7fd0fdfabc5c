"""Solver checks against closed-form optima and an independent audit."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from qbroadcast import broadcast, channels, sdp
from qbroadcast.broadcast import f_eb, f_max_broadcast
from qbroadcast.channels import identity_channel
from qbroadcast.corpus import bell_state, ghz_state, random_channel, random_state
from qbroadcast.frames import conditional_states
from qbroadcast.info import fidelity
from qbroadcast.linalg import partial_trace, support_isometry
from qbroadcast.recovery import (
    optimal_fixing_recovery_fidelity,
    optimal_recovery_fidelity,
)
from qbroadcast.sdp import (
    AffineMatrixExpr,
    SdpBuilder,
    SdpProblem,
    add_channel,
    audit,
    fidelity_sdp,
    hermitian_basis,
    solve,
)
from qbroadcast.states import DensityMatrix

SQRT_HALF = 0.7071067811865476


def trace_constrained(c_mat, rhs=1.0):
    b = SdpBuilder()
    blk = b.add_block(c_mat.shape[0])
    b.add_objective(blk, c_mat)
    b.add_constraint({blk: np.eye(c_mat.shape[0], dtype=complex)}, rhs)
    return b.build()


class TestBasisAndEmbedding:
    def test_hermitian_basis_orthonormal(self):
        for n in (2, 3, 4):
            basis = hermitian_basis(n)
            assert len(basis) == n * n
            gram = np.array(
                [[np.trace(a @ b).real for b in basis] for a in basis]
            )
            assert np.allclose(gram, np.eye(n * n), atol=1e-12)


class TestSolverBasics:
    def test_trace_objective_unit_trace(self):
        sol = solve(trace_constrained(np.eye(2, dtype=complex)))
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 1.0) < 1e-7
        assert abs(sol.dual_value - 1.0) < 1e-7

    def test_spectral_norm_via_trace_one(self):
        c = np.diag([3.0, 1.0]).astype(complex)
        sol = solve(trace_constrained(c))
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 3.0) < 1e-6
        # optimizer should concentrate on the top eigenvector
        assert abs(sol.primal_blocks[0][0, 0] - 1.0) < 1e-5

    def test_complex_objective_pauli_y(self):
        c = np.array([[0.0, -1j], [1j, 0.0]])
        sol = solve(trace_constrained(c))
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 1.0) < 1e-6
        top = np.array([1.0, 1j]) / np.sqrt(2)
        assert abs(top.conj() @ sol.primal_blocks[0] @ top - 1.0) < 1e-5

    def test_random_hermitian_max_eigenvalue(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            c = (g + g.conj().T) / 2
            sol = solve(trace_constrained(c))
            assert sol.status == "optimal"
            target = np.linalg.eigvalsh(c)[-1]
            assert abs(sol.primal_value - target) < 1e-6
            assert abs(sol.dual_value - target) < 1e-6

    def test_complex_constraint_coefficient_pauli_y(self):
        # max Tr(sx X) over states with Tr(sy X) = 0.6: the Bloch vector
        # has y = 0.6 and unit length at best, so x = 0.8
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        sy = np.array([[0.0, -1j], [1j, 0.0]])
        b = SdpBuilder()
        blk = b.add_block(2)
        b.add_objective(blk, sx)
        b.add_constraint({blk: np.eye(2, dtype=complex)}, 1.0)
        b.add_constraint({blk: sy}, 0.6)
        problem = b.build()
        sol = solve(problem)
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 0.8) < 1e-6
        assert abs(sol.dual_value - 0.8) < 1e-6
        assert audit(problem, sol)[0]

    def test_two_blocks_with_shared_constraint(self):
        b = SdpBuilder()
        one = b.add_block(2)
        two = b.add_block(3)
        b.add_objective(one, np.eye(2, dtype=complex))
        b.add_constraint(
            {one: np.eye(2, dtype=complex), two: np.eye(3, dtype=complex)},
            1.0,
        )
        b.add_constraint({two: np.eye(3, dtype=complex)}, 0.3)
        sol = solve(b.build())
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 0.7) < 1e-6

    def test_deterministic_replay(self):
        c = np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, -0.5]])
        first = solve(trace_constrained(c))
        second = solve(trace_constrained(c))
        assert first.primal_value == second.primal_value
        assert np.array_equal(first.primal_blocks[0], second.primal_blocks[0])
        assert first.iterations == second.iterations

    def test_residuals_reported_small_when_optimal(self):
        sol = solve(trace_constrained(np.diag([2.0, -1.0]).astype(complex)))
        assert sol.status == "optimal"
        assert sol.residuals.primal < 1e-7
        assert sol.residuals.dual < 1e-7
        assert sol.residuals.gap < 1e-7
        assert sol.primal_value <= sol.dual_value + 1e-6


class TestPreprocessingAndFailureModes:
    def test_duplicate_consistent_constraint_is_dropped(self):
        b = SdpBuilder()
        blk = b.add_block(2)
        b.add_objective(blk, np.diag([1.0, 0.0]).astype(complex))
        eye = np.eye(2, dtype=complex)
        b.add_constraint({blk: eye}, 1.0)
        b.add_constraint({blk: 2 * eye}, 2.0)
        sol = solve(b.build())
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 1.0) < 1e-6
        assert sol.dual_vector.shape == (2,)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_fewer_than_one_iteration_is_rejected(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            f_max_broadcast(bell_state(), max_iters=max_iters)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            f_max_broadcast(bell_state(), tol=tol)

    def test_inconsistent_duplicates_raise(self):
        b = SdpBuilder()
        blk = b.add_block(2)
        eye = np.eye(2, dtype=complex)
        b.add_constraint({blk: eye}, 1.0)
        b.add_constraint({blk: eye}, 2.0)
        with pytest.raises(ValueError, match="structurally inconsistent"):
            solve(b.build())

    def test_zero_row_with_nonzero_rhs_raises(self):
        b = SdpBuilder()
        blk = b.add_block(2)
        b.add_constraint({blk: np.zeros((2, 2), dtype=complex)}, 0.5)
        with pytest.raises(ValueError, match="structurally inconsistent"):
            solve(b.build())

    @staticmethod
    def two_blocks_and_their_sum(sum_rhs):
        """Tr X1 = 1, Tr X2 = 1 and the sum of those two rows, rhs given."""
        b = SdpBuilder()
        blk1, blk2 = b.add_block(2), b.add_block(2)
        b.add_objective(blk1, np.diag([1.0, 0.0]).astype(complex))
        b.add_objective(blk2, np.diag([0.0, 1.0]).astype(complex))
        eye = np.eye(2, dtype=complex)
        b.add_constraint({blk1: eye}, 1.0)
        b.add_constraint({blk2: eye}, 1.0)
        b.add_constraint({blk1: eye, blk2: eye}, sum_rhs)
        return b.build()

    def test_consistent_combination_across_blocks_is_dropped(self):
        sol = solve(self.two_blocks_and_their_sum(2.0))
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 2.0) < 1e-6
        assert sol.dual_vector[2] == 0.0

    def test_combination_with_rhs_off_by_1e_6_raises(self):
        with pytest.raises(ValueError, match="structurally inconsistent"):
            solve(self.two_blocks_and_their_sum(2.0 + 1e-6))

    def test_row_independent_to_1e_5_relative_is_kept(self):
        # X00 + X11 = 1 and (1 + e) X00 + (1 - e) X11 = 1: the second row
        # leaves the span of the first by e = 1e-5 of its norm
        b = SdpBuilder()
        blk = b.add_block(2)
        b.add_objective(blk, np.array([[0, 1], [1, 0]], dtype=complex))
        b.add_constraint({blk: np.eye(2, dtype=complex)}, 1.0)
        tilted = np.diag([1 + 1e-5, 1 - 1e-5]).astype(complex)
        b.add_constraint({blk: tilted}, 1.0)
        problem = b.build()
        kept, _ = sdp._reduce_constraints(problem)
        assert list(kept) == [0, 1]
        sol = solve(problem)
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 1.0) < 1e-6

    def test_conic_infeasibility_detected(self):
        b = SdpBuilder()
        blk = b.add_block(2)
        b.add_constraint({blk: np.eye(2, dtype=complex)}, -1.0)
        sol = solve(b.build())
        assert sol.status in ("infeasible", "max-iterations")
        assert sol.status != "optimal"

    def test_iteration_cap_reported(self):
        sol = solve(trace_constrained(np.eye(2, dtype=complex)), max_iters=2)
        assert sol.status == "max-iterations"

    def test_non_hermitian_coefficient_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            SdpProblem((2,), (bad,), (np.zeros((0, 2, 2), dtype=complex),), np.zeros(0))

    @pytest.mark.parametrize("field", ["objective", "stacks", "rhs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, field, bad):
        # refused at construction, before a solve could end in breakdown or
        # in a dependent-row check that NaN makes look inconsistent
        good = trace_constrained(np.diag([1.0, 0.0]).astype(complex))
        data = {
            "objective": [c.copy() for c in good.objective],
            "stacks": [a.copy() for a in good.stacks],
            "rhs": good.rhs.copy(),
        }
        target = data[field] if field == "rhs" else data[field][0]
        target[..., 0] = bad
        with pytest.raises(ValueError, match="not finite"):
            SdpProblem(
                good.blocks, tuple(data["objective"]), tuple(data["stacks"]),
                data["rhs"],
            )

    def test_audit_passes_and_detects_corruption(self):
        sol = solve(trace_constrained(np.diag([1.0, 0.0]).astype(complex)))
        ok, details = audit(trace_constrained(np.diag([1.0, 0.0]).astype(complex)), sol)
        assert ok
        assert details["max_constraint_violation"] < 1e-7
        corrupted = SdpSolutionLike(sol)
        ok_bad, _ = audit(
            trace_constrained(np.diag([1.0, 0.0]).astype(complex)), corrupted
        )
        assert not ok_bad


def entry_tiles(stack):
    """The rows of an (m, n, n) stack as entry tiles (d = 1)."""
    rows, i, j = np.nonzero(stack)
    return sdp.Tiles(rows, i, j, stack[rows, i, j][:, None, None])


class TestBlockwiseGram:
    """The Gram matrix that preprocessing reads off the tiles: pairs of
    entry tiles at a common position, among them those of a dense row split
    into entries, decide dependencies, and the row scales are the rows'
    norms."""

    @staticmethod
    def program(rhs_off):
        # rows 0-3 are basis elements, row 4 (two diagonal entries) is
        # rows 0 + 1, and the dense row 5 is rows 0 + 2 * 3 - 2
        h = hermitian_basis(3)
        b = SdpBuilder()
        blk = b.add_block(3)
        b.add_objective(blk, np.diag([1.0, 0.0, 0.0]).astype(complex))
        two_diagonal = np.diag([1.0, 1.0, 0.0]).astype(complex)
        b.add_constraint(
            {blk: entry_tiles(np.concatenate([h[:4], two_diagonal[None]]))},
            [0.5, 0.3, 0.2, 0.1, 0.8],
        )
        b.add_constraint({blk: h[0] + 2 * h[3] - h[2]}, 0.5 + 0.2 - 0.2 + rhs_off)
        return b.build()

    def test_dependent_entry_and_dense_rows_are_dropped(self):
        problem = self.program(0.0)
        kept, scales = sdp._reduce_constraints(problem)
        assert list(kept) == [0, 1, 2, 3]
        norms = np.linalg.norm(problem.stacks[0], axis=(1, 2))
        assert np.abs(scales - norms).max() <= 1e-15
        assert solve(problem).status == "optimal"

    def test_dense_row_off_its_combination_raises(self):
        with pytest.raises(ValueError, match="structurally inconsistent"):
            sdp._reduce_constraints(self.program(1e-6))


class TestChannelFidelity:
    def test_identity_channel_maximizes_choi_overlap(self):
        # over 2 -> 2 channels, <Phi, J> <= ||Phi|| Tr(J) = 2 * 2 with
        # |Phi> = sum_i |ii>; the identity channel's Choi matrix J = Phi
        # attains it
        b = SdpBuilder()
        (blk,) = add_channel(b, 2, 2)
        ket = np.eye(2, dtype=complex).reshape(4)
        phi = np.outer(ket, ket.conj())
        b.add_objective(blk, phi)
        sol = solve(b.build())
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 4.0) < 1e-6
        assert np.abs(sol.primal_blocks[blk] - phi).max() < 1e-5

    @pytest.mark.parametrize(
        "call",
        [
            lambda: f_max_broadcast(bell_state(), max_iters=2),
            lambda: f_eb(bell_state(), max_iters=2),
            lambda: optimal_recovery_fidelity(ghz_state(), max_iters=2),
            lambda: optimal_fixing_recovery_fidelity(
                random_state(2, np.random.default_rng(3)),
                random_state(2, np.random.default_rng(4)),
                identity_channel(2),
                max_iters=2,
            ),
        ],
        ids=["f_max", "f_eb", "recovery", "sigma-fixing"],
    )
    def test_uncertified_fidelity_raises(self, call):
        with pytest.raises(RuntimeError, match="max-iterations"):
            call()


class SdpSolutionLike:
    """Copy of a solution with a deliberately infeasible primal block."""

    def __init__(self, sol):
        broken = sol.primal_blocks[0].copy()
        broken[0, 0] += 1.0
        self.primal_blocks = (broken,) + sol.primal_blocks[1:]
        self.dual_vector = sol.dual_vector
        self.primal_value = sol.primal_value
        self.dual_value = sol.dual_value
        self.status = sol.status


def solve_fidelity(rho, sigma):
    b = SdpBuilder()
    expr = AffineMatrixExpr(side=sigma.shape[0], const=sigma)
    fidelity_sdp(b, rho, expr, sigma_support=sigma)
    return solve(b.build())


class TestFidelityGadget:
    def test_pure_vs_maximally_mixed(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sol = solve_fidelity(rho, np.eye(2, dtype=complex) / 2)
        assert sol.status == "optimal"
        assert abs(sol.primal_value - SQRT_HALF) < 1e-7

    def test_orthogonal_pure_states(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.diag([0.0, 1.0]).astype(complex)
        sol = solve_fidelity(rho, sigma)
        assert sol.status == "optimal"
        assert abs(sol.primal_value) < 1e-6

    def test_identical_states_reach_one(self):
        rng = np.random.default_rng(21)
        rho = random_state(3, rng).matrix
        sol = solve_fidelity(rho, rho)
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 1.0) < 1e-6

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_closed_form_on_random_pairs(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(5):
            rho = random_state(dim, rng)
            sigma = random_state(dim, rng)
            sol = solve_fidelity(rho.matrix, sigma.matrix)
            assert sol.status == "optimal"
            closed = fidelity(rho, sigma)
            assert abs(sol.primal_value - closed) < 1e-6
            assert sol.residuals.primal < 1e-7
            assert sol.residuals.dual < 1e-7

    def test_rank_deficient_inputs(self):
        rng = np.random.default_rng(31)
        rho = random_state(3, rng, rank=1)
        sigma = random_state(3, rng, rank=2)
        sol = solve_fidelity(rho.matrix, sigma.matrix)
        assert sol.status == "optimal"
        closed = fidelity(rho, sigma)
        assert abs(sol.primal_value - closed) < 1e-6

    def test_affine_sigma_free_over_states_reaches_one(self):
        # with sigma ranging over the whole state set, the best fidelity
        # against any fixed rho is exactly one (take sigma = rho)
        rng = np.random.default_rng(41)
        rho = random_state(2, rng).matrix
        b = SdpBuilder()
        free = b.add_block(2)
        b.add_constraint({free: np.eye(2, dtype=complex)}, 1.0)
        expr = AffineMatrixExpr(
            side=2, const=np.zeros((2, 2), dtype=complex), terms=((free, lambda e: e),)
        )
        fidelity_sdp(b, rho, expr)
        sol = solve(b.build())
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 1.0) < 1e-6
        best = sol.primal_blocks[free]
        assert np.allclose(best, rho, atol=1e-4)

    def test_affine_sigma_scaled_trace(self):
        # fidelity scales as sqrt of a scalar multiplier on sigma
        rho = np.diag([0.5, 0.5]).astype(complex)
        b = SdpBuilder()
        free = b.add_block(2)
        b.add_constraint({free: np.eye(2, dtype=complex)}, 0.25)
        expr = AffineMatrixExpr(
            side=2,
            const=np.zeros((2, 2), dtype=complex),
            terms=((free, lambda e: e),),
        )
        fidelity_sdp(b, rho, expr)
        sol = solve(b.build())
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 0.5) < 1e-6

    def test_non_hermiticity_preserving_term_rejected(self):
        # the gadget refuses at the builder's COEFF_HERM_TOL, by its own
        # message, also a term only 2e-10 from Hermiticity-preserving
        for term in (lambda e: 1j * e, lambda e: (1 + 1e-10j) * e):
            b = SdpBuilder()
            free = b.add_block(2)
            expr = AffineMatrixExpr(
                side=2,
                const=np.zeros((2, 2), dtype=complex),
                terms=((free, term),),
            )
            with pytest.raises(ValueError, match="not Hermiticity-preserving"):
                fidelity_sdp(b, np.eye(2, dtype=complex) / 2, expr)


def test_density_matrix_inputs_accepted_via_matrix_attribute():
    rho = DensityMatrix((2,), np.diag([0.75, 0.25]).astype(complex))
    sol = solve_fidelity(rho.matrix, rho.matrix)
    assert abs(sol.primal_value - 1.0) < 1e-6


class TestRowBlocks:
    def test_row_block_equals_its_single_rows(self):
        rng = np.random.default_rng(21)
        basis = hermitian_basis(2)
        g = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        coupling = g + g.conj().transpose(0, 2, 1)
        rhs = rng.normal(size=4)
        singles, block = SdpBuilder(), SdpBuilder()
        for b in (singles, block):
            for side in (2, 3, 4):  # the side-4 block is in no row
                b.add_block(side)
            b.add_constraint({0: np.eye(2)}, 1.0)
        for t in range(4):
            singles.add_constraint({0: basis[t], 1: coupling[t]}, rhs[t])
        block.add_constraint({0: basis, 1: coupling}, rhs)
        one, many = block.build(), singles.build()
        assert one.n_constraints == 5
        for a, b in zip(one.stacks, many.stacks):
            assert np.array_equal(a, b)
        assert np.array_equal(one.rhs, many.rhs)
        assert not one.stacks[2].any()
        assert not one.stacks[1][0].any()

    def test_each_row_block_is_validated_once(self, monkeypatch):
        # where it enters the builder; build checks only the objectives
        calls = []
        original = sdp.require_hermitian

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(sdp, "require_hermitian", counting)
        b = SdpBuilder()
        blk1, blk2 = b.add_block(2), b.add_block(3)
        b.add_constraint({blk1: np.eye(2), blk2: np.eye(3)}, 1.0)
        b.add_constraint({blk2: hermitian_basis(3)}, np.zeros(9))
        assert calls == [(1, 2, 2), (1, 3, 3), (9, 3, 3)]
        calls.clear()
        b.build()
        assert calls == [(2, 2), (3, 3)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected_where_it_enters(self, bad):
        b = SdpBuilder()
        blk = b.add_block(2)
        with pytest.raises(ValueError, match="rhs is not finite"):
            b.add_constraint({blk: np.eye(2)}, bad)
        with pytest.raises(ValueError, match="rhs is not finite"):
            b.add_constraint({blk: hermitian_basis(2)}, [0.0, bad, 0.0, 0.0])

    @pytest.mark.parametrize(
        "coeff, rhs",
        [
            (np.zeros((3, 2, 2)), np.zeros(2)),  # three rows, two values
            (np.zeros((2, 3, 3)), np.zeros(2)),  # wrong side
            (np.eye(3), 1.0),
            (np.zeros((1, 2, 2)), 1.0),  # a stack needs an array of values
        ],
    )
    def test_stack_shape_must_match_its_block(self, coeff, rhs):
        b = SdpBuilder()
        blk = b.add_block(2)
        with pytest.raises(ValueError, match="shape"):
            b.add_constraint({blk: coeff}, rhs)

    @pytest.mark.parametrize("block", [-1, 2])
    def test_block_index_must_have_been_handed_out(self, block):
        b = SdpBuilder()
        for side in (2, 3):
            b.add_block(side)
        with pytest.raises(ValueError, match=f"no block {block}"):
            b.add_objective(block, np.eye(3))
        with pytest.raises(ValueError, match=f"no block {block}"):
            b.add_constraint({block: np.eye(3)}, 1.0)
        with pytest.raises(ValueError, match=f"no block {block}"):
            b.block_side(block)

    @pytest.mark.parametrize("coeff", [1.0, np.ones(2)])
    def test_objective_shape_must_match_its_block(self, coeff):
        # numpy would broadcast either one into an all-ones 2x2 objective
        b = SdpBuilder()
        blk = b.add_block(2)
        with pytest.raises(ValueError, match="shape"):
            b.add_objective(blk, coeff)

    def test_non_hermitian_objective_rejected(self):
        b = SdpBuilder()
        blk = b.add_block(2)
        b.add_objective(blk, np.array([[0.0, 1.0], [0.0, 0.0]]))
        b.add_constraint({blk: np.eye(2)}, 1.0)
        with pytest.raises(ValueError, match="Hermitian"):
            b.build()

    def test_non_hermitian_constraint_rejected(self):
        b = SdpBuilder()
        blk = b.add_block(2)
        b.add_constraint({blk: np.eye(2)}, 1.0)
        with pytest.raises(ValueError, match="Hermitian"):
            b.add_constraint({blk: np.array([[0.0, 1.0], [0.0, 0.0]])}, 0.5)

    def test_tiles_are_checked_where_they_enter(self):
        # a block of side 4 as 2x2 tiles at 2 x 2 output positions
        b = SdpBuilder()
        blk = b.add_block(4)
        unit = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
        one, at = np.array([0]), np.array([1])
        with pytest.raises(ValueError, match="not Hermitian"):
            b.add_constraint({blk: sdp.Tiles(0 * one, 0 * one, at, unit)}, [0.0])
        with pytest.raises(ValueError, match="do not fit"):
            b.add_constraint({blk: sdp.Tiles(0 * one, 2 * at, at, unit)}, [0.0])
        # dust without its mirror tile keeps the Hermitian part, half each
        b.add_constraint({blk: sdp.Tiles(0 * one, 0 * one, at, 1e-14 * unit)}, [0.0])
        row = b.build().stacks[0][0]
        assert np.array_equal(row, row.conj().T) and np.abs(row).max() == 5e-15

    def test_overflowing_skew_is_refused_as_not_hermitian(self):
        # A - A^dag overflows to inf; the dense row is refused the same way
        b = SdpBuilder()
        blk = b.add_block(2)
        row = sdp.Tiles(np.array([0, 0]), np.array([0, 1]), np.array([1, 0]),
                        np.array([1e308, -1e308])[:, None, None])
        dense = np.array([[[0.0, 1e308], [-1e308, 0.0]]])
        for coeff in (row, dense):
            with pytest.raises(ValueError, match="not Hermitian"):
                b.add_constraint({blk: coeff}, [0.0])

    def test_non_square_tiles_do_not_fit(self):
        b = SdpBuilder()
        blk = b.add_block(6)
        zero = np.array([0])
        with pytest.raises(ValueError, match="do not fit"):
            b.add_constraint(
                {blk: sdp.Tiles(zero, zero, zero, np.ones((1, 2, 3)))}, [0.0]
            )

    def test_duplicate_tiles_are_summed_before_the_check(self):
        # two tiles at (0, 1) are Hermitian only with their summed adjoint
        b = SdpBuilder()
        blk = b.add_block(4)
        u = np.array([[1.0, 2j], [0.5, -1.0]])
        tiles = np.stack([u, 2 * u, (3 * u).conj().T])
        b.add_constraint({blk: sdp.Tiles(
            np.zeros(3, int), np.array([0, 0, 1]), np.array([1, 1, 0]), tiles
        )}, [0.0])
        expected = np.zeros((2, 2, 2, 2), dtype=complex)  # (input, output)^2
        expected[:, 0, :, 1], expected[:, 1, :, 0] = 3 * u, tiles[2]
        assert np.array_equal(b.build().stacks[0][0], expected.reshape(4, 4))

    def test_direct_construction_equals_the_built_problem(self):
        rng = np.random.default_rng(33)
        g = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
        stacks = (hermitian_basis(2)[:3], g + g.conj().transpose(0, 2, 1))
        stacks[1][1] = 0.0  # a row that only block 0 holds
        objective = (np.diag([1.0, -1.0]), np.eye(3))
        rhs = rng.normal(size=3)
        b = SdpBuilder()
        for c in objective:
            b.add_objective(b.add_block(len(c)), c)
        b.add_constraint(dict(enumerate(stacks)), rhs)
        built, direct = b.build(), SdpProblem((2, 3), objective, stacks, rhs)
        assert direct.blocks == built.blocks
        assert np.array_equal(direct.rhs, built.rhs)
        for a, c in zip(direct.objective, built.objective):
            assert np.array_equal(a, c)
        for s, t in zip(direct.tiles, built.tiles):
            for field in ("row", "p", "q", "b"):
                assert np.array_equal(getattr(s, field), getattr(t, field))
        for a, c in zip(direct.stacks, built.stacks):
            assert np.array_equal(a, c)

    def test_sub_tolerance_asymmetry_is_symmetrized(self):
        b = SdpBuilder()
        blk = b.add_block(2)
        dust = np.array([[1.0, 1e-14], [0.0, 0.0]])
        b.add_objective(blk, dust)
        b.add_constraint({blk: dust}, 1.0)
        problem = b.build()
        for a in (problem.objective[0], problem.stacks[0][0]):
            assert np.array_equal(a, a.conj().T)

    def test_sub_tolerance_asymmetry_is_symmetrized_when_constructed_directly(self):
        dust = np.array([[1.0, 1e-14], [0.0, 0.0]], dtype=complex)
        problem = SdpProblem((2,), (dust,), (dust[None],), np.ones(1))
        for a in (problem.objective[0], problem.stacks[0][0]):
            assert np.array_equal(a, a.conj().T)

    def test_real_data_constructed_directly_is_held_complex(self):
        c = np.array([[1.0, 0.5], [0.5, -1.0]])
        problem = SdpProblem((2,), (c,), (np.eye(2)[None],), np.ones(1))
        assert problem.objective[0].dtype == problem.stacks[0].dtype == complex
        sol = solve(problem)
        assert sol.status == "optimal"
        assert abs(sol.primal_value - np.sqrt(1.25)) < 1e-6  # top eigenvalue of c

    def test_built_stacks_become_the_one_row_block(self):
        # the builder keeps no second copy of its rows, and still extends
        b = SdpBuilder()
        x, y = b.add_block(2), b.add_block(3)
        b.add_constraint({x: np.eye(2)}, 1.0)
        b.add_constraint({y: np.eye(3)}, 2.0)
        first = b.build()
        ((rows, rhs),) = b._row_blocks
        assert rows[x] is first.tiles[x] and rows[y] is first.tiles[y]
        assert rhs is first.rhs
        z = b.add_block(2)
        b.add_constraint({x: np.diag([1.0, 0.0]), z: np.eye(2)}, 0.5)
        second = b.build()
        assert second.blocks == (2, 3, 2)
        assert np.array_equal(second.rhs, [1.0, 2.0, 0.5])
        assert first.n_constraints == 2
        for a, c in zip(first.stacks, second.stacks):
            assert np.array_equal(a, c[:2])
        assert not second.stacks[z][:2].any()
        assert np.array_equal(second.stacks[x][2], np.diag([1.0, 0.0]))


def count_add_constraint(monkeypatch, fn, *args) -> int:
    calls = []
    original = SdpBuilder.add_constraint

    def counted(self, *a, **kw):
        calls.append(None)
        return original(self, *a, **kw)

    monkeypatch.setattr(SdpBuilder, "add_constraint", counted)
    fn(*args)
    return len(calls)


class TestOneCallPerConstraintFamily:
    """Trace preservation, each fidelity corner, the PPT tie and the
    sigma-fixing rows each go into the builder as one row block."""

    def test_f_max(self, monkeypatch):
        rho = random_state((2, 2), 31)
        assert count_add_constraint(monkeypatch, f_max_broadcast, rho) == 3

    def test_f_eb(self, monkeypatch):
        rho = random_state((2, 2), 31)
        assert count_add_constraint(monkeypatch, f_eb, rho) == 4

    def test_optimal_recovery(self, monkeypatch):
        rho = random_state((2, 2, 2), 32)
        calls = count_add_constraint(monkeypatch, optimal_recovery_fidelity, rho)
        assert calls == 3

    def test_sigma_fixing_recovery(self, monkeypatch):
        rng = np.random.default_rng(33)
        args = (random_state(2, rng), random_state(2, rng),
                random_channel(2, 2, rng))
        calls = count_add_constraint(
            monkeypatch, optimal_fixing_recovery_fidelity, *args
        )
        assert calls == 4


@pytest.fixture(scope="module")
def measurement_program():
    """A measure-and-prepare measurement program, built as
    ``f_eb_detailed`` builds it for a random 3x3 state: nine side-3
    outcome blocks, touched by the trace-preservation rows (entries) and
    the sigma rows (dense), and the fidelity block."""
    rng = np.random.default_rng(31)
    rho = random_state((3, 3), rng)
    preps = [random_state(3, rng).matrix for _ in range(9)]
    builder = SdpBuilder()
    outcomes = [np.kron(np.eye(3), np.eye(9)[:, [i]]) for i in range(9)]
    blocks = add_channel(builder, 3, 9, outcomes)
    terms = tuple(
        (blk, lambda e, t=tau: np.kron(conditional_states(rho, e, 1), t))
        for blk, tau in zip(blocks, preps)
    )
    zero = np.zeros((9, 9), dtype=complex)
    fidelity_sdp(builder, rho.matrix, AffineMatrixExpr(9, zero, terms))
    return builder.build()


def kept_layout(problem):
    """The block groups ``solve`` lays the problem's kept rows out in."""
    kept, scales = sdp._reduce_constraints(problem)
    return sdp._layout(problem, kept, scales[kept])


class TestEachJobOnce:
    """One factorization per block group per IPM iteration, and one read of
    its tiles per sigma term when the fidelity gadget is built."""

    def test_two_eigh_per_block_per_iteration(self, monkeypatch):
        problems = []
        original_solve = sdp.solve

        def capturing(problem, *args, **kwargs):
            problems.append(problem)
            return original_solve(problem, *args, **kwargs)

        monkeypatch.setattr(sdp, "solve", capturing)
        f_eb(random_state((2, 2), 31))
        (problem,) = problems

        calls = []
        original_eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(None)
            return original_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        solution = original_solve(problem)
        assert solution.status == "optimal"
        assert len(calls) == 2 * len(problem.blocks) * solution.iterations

    def test_two_eigh_per_group_per_iteration(
        self, monkeypatch, measurement_program
    ):
        # the nine outcome blocks are one group: 4 eigh per iteration, not 20
        groups = kept_layout(measurement_program)
        assert [blk.blocks for blk in groups] == [tuple(range(9)), (9,)]
        calls = []
        original_eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(None)
            return original_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        solution = solve(measurement_program)
        assert solution.status == "optimal"
        assert len(calls) == 2 * len(groups) * solution.iterations

    def test_two_eigvalsh_per_group_per_iteration(
        self, monkeypatch, measurement_program
    ):
        # one stacked eigvalsh per group reads both step lengths of the
        # predictor, and one more those of the corrector: 4 per iteration
        groups = kept_layout(measurement_program)
        calls = []
        original_eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(None)
            return original_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        solution = solve(measurement_program)
        assert solution.status == "optimal"
        assert len(calls) == 2 * len(groups) * solution.iterations

    def test_one_cholesky_and_no_qr_or_lstsq_per_iteration(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("solve must not call qr or lstsq")

        calls = []
        original_cho = scipy.linalg.cho_factor

        def counting(*args, **kwargs):
            calls.append(None)
            return original_cho(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "qr", forbidden)
        monkeypatch.setattr(np.linalg, "lstsq", forbidden)
        monkeypatch.setattr(scipy.linalg, "cho_factor", counting)
        with sdp.recording() as records:
            f_eb(random_state((2, 2), 31))
        ((_, solution),) = records
        assert solution.status == "optimal"
        assert len(calls) == solution.iterations

    @pytest.mark.parametrize(
        "fn, state, expected",
        [
            (f_max_broadcast, ((2, 2), 31), 2),  # one per swap sector
            (f_eb, ((2, 2), 31), 1),
            (optimal_recovery_fidelity, ((2, 2, 2), 32), 1),
        ],
        ids=["f_max", "f_eb", "optimal_recovery"],
    )
    def test_one_choi_action_per_sigma_term(self, monkeypatch, fn, state, expected):
        # each sigma term is one ChoiTerm, whose coupling tiles are read off
        # the state once; no Choi matrix goes through choi_subsystem_action
        reads, actions = [], []
        coupling = sdp._coupling_tiles

        def counting(term, units):
            reads.append(term)
            return coupling(term, units)

        monkeypatch.setattr(sdp, "_coupling_tiles", counting)
        monkeypatch.setattr(
            channels, "choi_subsystem_action", lambda *args: actions.append(args)
        )
        built_problem(monkeypatch, fn, random_state(*state))
        assert len(reads) == expected and not actions


def test_no_constraint_rows():
    # maximize -Tr X over X >= 0 with no rows at all: the optimum is X = 0
    b = SdpBuilder()
    blk = b.add_block(2)
    b.add_objective(blk, -np.eye(2, dtype=complex))
    problem = b.build()
    assert problem.n_constraints == 0
    sol = solve(problem)
    assert sol.status == "optimal"
    assert abs(sol.primal_value) < sdp.DEFAULT_TOL
    assert audit(problem, sol)[0]


def mixed_rows_problem():
    """Every kind of row the solver's layout tells apart: basis elements
    given as entry tiles (one diagonal entry, an off-diagonal pair), the
    identity on a qubit (a dense tile, not a basis element), a dense row
    over two blocks, split into entry tiles on the block that holds them,
    and a block no row touches."""
    rng = np.random.default_rng(12)
    b = SdpBuilder()
    (qubit,) = add_channel(b, 1, 2)
    mixed = b.add_block(3)
    untouched = b.add_block(2)
    rho = random_state(3, rng).matrix
    sigma = random_state(2, rng).matrix
    basis = hermitian_basis(3)[[0, 1, 3, 6]]
    b.add_constraint(
        {mixed: entry_tiles(basis)}, np.trace(basis @ rho, axis1=1, axis2=2).real
    )
    h, g = random_hermitian(3, rng), random_hermitian(2, rng)
    b.add_constraint(
        {mixed: h, qubit: g}, float(np.trace(h @ rho).real + np.trace(g @ sigma).real)
    )
    b.add_objective(mixed, random_hermitian(3, rng))
    b.add_objective(qubit, random_hermitian(2, rng))
    b.add_objective(untouched, -np.eye(2, dtype=complex))
    return b.build()


def random_hermitian(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


class TestRowLayout:
    """The row layout of each block group against independent dense
    contractions."""

    def layout_and_points(self, problem):
        rng = np.random.default_rng(13)
        m = problem.n_constraints
        layout = sdp._layout(problem, np.arange(m), np.ones(m))
        points = []
        for n in problem.blocks:
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            points.append(g @ g.conj().T)
        return layout, points

    def test_every_kind_of_row_is_present(self):
        problem = mixed_rows_problem()
        layout, _ = self.layout_and_points(problem)
        qubit, mixed, untouched = layout
        # I_2 and the row over two blocks, one dense tile each
        assert (qubit.d, list(qubit.rows)) == (2, [0, 5])
        assert list(np.bincount(problem.tiles[0].row)) == [1, 0, 0, 0, 0, 1]
        # two diagonal units, two off-diagonal pairs, then the dense row's 9
        assert (mixed.d, list(mixed.rows)) == (1, [1, 2, 3, 4, 5])
        assert list(np.bincount(problem.tiles[1].row)) == [0, 1, 1, 2, 2, 9]
        assert len(untouched.rows) == 0

    def test_schur_complement_matches_dense_contraction(self):
        problem = mixed_rows_problem()
        layout, ws = self.layout_and_points(problem)
        factors = [np.linalg.cholesky(w) for w in ws]
        got = sdp._schur_complement(
            layout, sdp._gather(layout, ws), problem.n_constraints
        )
        want = sum(
            np.einsum("iab,bc,jcd,da->ij", a, w, a, w).real
            for a, w in zip(problem.stacks, ws)
        )
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_map_and_adjoint_match_dense_contraction(self):
        problem = mixed_rows_problem()
        layout, xs = self.layout_and_points(problem)
        m = problem.n_constraints
        got = sdp._a_apply(layout, sdp._gather(layout, xs), m)
        want = sum(
            np.einsum("mij,ji->m", a, x).real for a, x in zip(problem.stacks, xs)
        )
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        y = np.random.default_rng(14).normal(size=m)
        adjoint = sdp._scatter(layout, sdp._a_adjoint(layout, y))
        for got, a in zip(adjoint, problem.stacks):
            want = np.tensordot(y, a, axes=(0, 0))
            assert np.abs(got - want).max() <= 1e-12 * (1 + np.abs(want).max())

    def test_solve_agrees_with_the_rows_supplied_densely(self):
        # a unitary change of basis on every block keeps the program and
        # the interior-point path, but leaves no row with 2 or fewer entries
        problem = mixed_rows_problem()
        rng = np.random.default_rng(15)
        us = [np.linalg.qr(random_hermitian(n, rng) + 1j * np.eye(n))[0]
              for n in problem.blocks]
        rotated = SdpProblem(
            problem.blocks,
            tuple(u @ c @ u.conj().T for u, c in zip(us, problem.objective)),
            tuple(u @ a @ u.conj().T for u, a in zip(us, problem.stacks)),
            problem.rhs,
        )
        layout, _ = self.layout_and_points(rotated)
        assert [blk.d for blk in layout] == [2, 3, 2]  # one dense tile per row
        sparse, dense = solve(problem), solve(rotated)
        assert sparse.status == dense.status == "optimal"
        assert sparse.iterations == dense.iterations
        assert abs(sparse.primal_value - dense.primal_value) < sdp.DEFAULT_TOL


class TestGroupedLayout:
    """A layout with a group of nine blocks against independent dense
    contractions over ``problem.stacks``, block by block."""

    def layout_and_points(self, problem):
        rng = np.random.default_rng(16)
        m = problem.n_constraints
        layout = sdp._layout(problem, np.arange(m), np.ones(m))
        assert [blk.b for blk in layout] == [9, 1]
        points = [random_pd(n, rng) for n in problem.blocks]
        return layout, points

    def test_schur_complement_matches_dense_contraction(self, measurement_program):
        problem = measurement_program
        layout, ws = self.layout_and_points(problem)
        factors = [np.linalg.cholesky(w) for w in ws]
        got = sdp._schur_complement(
            layout, sdp._gather(layout, ws), problem.n_constraints
        )
        want = sum(
            np.einsum("iab,bc,jcd,da->ij", a, w, a, w, optimize=True).real
            for a, w in zip(problem.stacks, ws)
        )
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_adjoint_is_the_transpose_of_the_map(self, measurement_program):
        problem = measurement_program
        layout, xs = self.layout_and_points(problem)
        m = problem.n_constraints
        stacks = sdp._gather(layout, xs)
        got = sdp._a_apply(layout, stacks, m)
        want = sum(
            np.einsum("mij,ji->m", a, x).real for a, x in zip(problem.stacks, xs)
        )
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        y = np.random.default_rng(17).normal(size=m)
        adjoint = sdp._a_adjoint(layout, y)
        assert [a.shape for a in adjoint] == [s.shape for s in stacks]
        lhs, rhs = sdp._inner(stacks, adjoint), float(got @ y)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class _Built(Exception):
    """Stops a certified solve once its problem is built."""


def built_problem(monkeypatch, fn, *args, gadget=None):
    """The problem ``fn(*args)`` hands to ``sdp.solve``, built with the
    fidelity ``gadget`` in place of ``sdp.fidelity_sdp`` if one is given."""
    if gadget is not None:
        monkeypatch.setattr(sdp, "fidelity_sdp", gadget)

    def stop(problem, *rest, **kwargs):
        raise _Built(problem)

    monkeypatch.setattr(sdp, "solve", stop)
    with pytest.raises(_Built) as built:
        fn(*args)
    return built.value.args[0]


def dense_fidelity_gadget(builder, rho, sigma, sigma_support=None):
    """``fidelity_sdp`` with every basis overlap a trace of a matrix product
    and every coupling row an einsum over the dense ``hermitian_basis``."""
    def overlaps(basis, mat):
        return np.trace(basis @ mat, axis1=1, axis2=2).real

    v1 = support_isometry(np.asarray(rho, dtype=complex))
    if sigma_support is None:
        v2 = np.eye(sigma.side, dtype=complex)
    else:
        v2 = support_isometry(np.asarray(sigma_support, dtype=complex))
    r, s = v1.shape[1], v2.shape[1]
    w_blk = builder.add_block(r + s)
    c12 = (v1.conj().T @ v2) / 2.0
    c_w = np.zeros((r + s, r + s), dtype=complex)
    c_w[:r, r:], c_w[r:, :r] = c12, c12.conj().T
    builder.add_objective(w_blk, c_w)
    rho_basis = hermitian_basis(r)
    rho_rows = np.zeros((r * r, r + s, r + s), dtype=complex)
    rho_rows[:, :r, :r] = rho_basis
    builder.add_constraint(
        {w_blk: rho_rows}, overlaps(rho_basis, v1.conj().T @ rho @ v1)
    )
    sig_basis = hermitian_basis(s)
    sig_rows = np.zeros((s * s, r + s, r + s), dtype=complex)
    sig_rows[:, r:, r:] = sig_basis
    coeffs = {w_blk: sig_rows}
    for blk, lin in sigma.terms:
        basis_b = hermitian_basis(builder.block_side(blk))
        images = v2.conj().T @ lin(basis_b) @ v2
        overlap = np.einsum("gij,eji->ge", sig_basis, images, optimize=True)
        k_mats = np.einsum("ge,eij->gij", overlap.real, basis_b, optimize=True)
        coeffs[blk] = coeffs.get(blk, 0.0) - k_mats
    builder.add_constraint(
        coeffs, overlaps(sig_basis, v2.conj().T @ sigma.const @ v2)
    )
    return w_blk


class TestGadgetRows:
    """The fidelity gadget gathers its basis overlaps and reads its coupling
    rows off them by a transpose; the rows equal those of the dense einsum
    formulas."""

    @pytest.mark.parametrize(
        "fn, dims",
        [(optimal_recovery_fidelity, (2, 3, 3)), (f_max_broadcast, (2, 2))],
        ids=["recovery_2x3x3", "f_max_2x2"],
    )
    def test_rows_equal_the_dense_reference(self, monkeypatch, fn, dims):
        rho = random_state(dims, 51)
        got = built_problem(monkeypatch, fn, rho)
        want = built_problem(monkeypatch, fn, rho, gadget=dense_fidelity_gadget)
        assert got.blocks == want.blocks
        assert np.abs(got.rhs - want.rhs).max() <= 1e-14
        for a, b in zip(got.stacks, want.stacks):
            assert np.abs(a - b).max() <= 1e-14


class TestNaturalBasis:
    """On full-rank data the gadget's corners and the swap sectors stay in
    the natural basis: the objective is Re Tr X, and a coupling row touches
    only the Choi entries its sigma term reaches, 2 d_B^2 = 18 on a 2x3x3
    recovery and 54 / 18 on the two swap sectors of a 2x3 f_max (of 729,
    324 and 81)."""

    @staticmethod
    def coupling_nonzeros(problem, block, sigma_side):
        rows = problem.stacks[block][-sigma_side ** 2:]  # the gadget's last rows
        return np.count_nonzero(rows.reshape(len(rows), -1), axis=1)

    @staticmethod
    def assert_textbook_objective(problem, side):
        want = np.zeros((2 * side, 2 * side))
        want[:side, side:] = want[side:, :side] = np.eye(side) / 2
        assert np.array_equal(problem.objective[-1], want)

    def test_recovery_2x3x3(self, monkeypatch):
        problem = built_problem(
            monkeypatch, optimal_recovery_fidelity, random_state((2, 3, 3), 4)
        )
        assert problem.blocks == (27, 36)
        self.assert_textbook_objective(problem, 18)
        assert self.coupling_nonzeros(problem, 0, 18).max() <= 18

    def test_f_max_2x3(self, monkeypatch):
        problem = built_problem(monkeypatch, f_max_broadcast, random_state((2, 3), 4))
        assert problem.blocks == (18, 9, 12)
        self.assert_textbook_objective(problem, 6)
        assert self.coupling_nonzeros(problem, 0, 6).max() <= 54
        assert self.coupling_nonzeros(problem, 1, 6).max() <= 18


def pure_a_product(rest: DensityMatrix) -> DensityMatrix:
    """|0><0| (x) ``rest``: rho_A has rank one, so supp(rho_A) (x) I, which
    holds every sigma the broadcast and recovery programs reach, is deficient."""
    return DensityMatrix((2,), np.diag([1.0, 0.0]).astype(complex)).tensor(rest)


class TestDeficientSigmaSupport:
    """The gadget compresses a deficient sigma support onto its eigenbasis.
    No state with a full rho_A takes that path, so these states do: every
    solve is optimal and audited, and each fidelity is 1 within the slack."""

    @pytest.fixture
    def certified(self, monkeypatch):
        audits, original = [], sdp.audit

        def audited(*args, **kwargs):
            audits.append(original(*args, **kwargs))
            return audits[-1]

        monkeypatch.setattr(sdp, "audit", audited)

        def run(fn, rho):
            del audits[:]
            with sdp.recording() as records:
                value = fn(rho)
            assert records and len(audits) == len(records)
            assert all(ok for ok, _ in audits)
            for _, solution in records:
                assert solution.status == "optimal"
                # the gadget block, added last, holds both compressed corners
                assert len(solution.primal_blocks[-1]) <= len(rho.matrix)
            return value

        return run

    @pytest.mark.parametrize("d_b", [2, 3])
    def test_broadcast_fidelities_reach_one(self, certified, d_b):
        rho = pure_a_product(random_state(d_b, 7))
        slack = sdp.fidelity_slack(sdp.DEFAULT_TOL)
        f_max, _ = certified(f_max_broadcast, rho)
        detail = certified(broadcast.f_eb_detailed, rho)
        assert f_max >= 1 - slack
        assert detail.value >= 1 - slack
        assert detail.lower_bound >= 1 - slack

    def test_recovery_reaches_one(self, certified):
        rho = pure_a_product(random_state((2, 2), 7))
        value, _ = certified(optimal_recovery_fidelity, rho)
        assert value >= 1 - sdp.fidelity_slack(sdp.DEFAULT_TOL)


class TestDeficientSupportKeepsTiles:
    """A rank-deficient rho_A compresses sigma by the product isometry
    V_A (x) I, which acts on A alone, so each coupling row keeps at most 2
    tiles of the Choi block (at most 2 d_B^2 of its entries); the solves
    stay certified (``TestDeficientSigmaSupport``)."""

    @pytest.mark.parametrize(
        "fn, rest",
        [
            (optimal_recovery_fidelity, ((2, 2), 7)),
            (f_eb, (2, 7)),
            (f_eb, (3, 7)),
        ],
        ids=["recovery", "f_eb_2", "f_eb_3"],
    )
    def test_coupling_rows_have_at_most_two_tiles(self, monkeypatch, fn, rest):
        rho = pure_a_product(random_state(*rest))
        problem = built_problem(monkeypatch, fn, rho)
        side = len(rho.matrix) // rho.dims[0]  # supp(rho_A) (x) the rest
        assert problem.blocks[-1] == np.linalg.matrix_rank(rho.matrix) + side
        choi = problem.tiles[0]
        d_b = choi.d
        coupling = choi.row >= problem.n_constraints - side ** 2
        assert np.bincount(choi.row[coupling]).max() <= 2
        rows = problem.stacks[0][-side ** 2:]
        entries = np.count_nonzero(rows.reshape(len(rows), -1), axis=1)
        assert entries.max() <= 2 * d_b ** 2


class TestChoiTerms:
    """Each sigma term the library builds, applied as a map, equals the
    formula it replaced, on random stacks of block operators."""

    @staticmethod
    def stack(n, rng, q=3):
        g = rng.normal(size=(q, n, n)) + 1j * rng.normal(size=(q, n, n))
        return g + g.conj().transpose(0, 2, 1)

    def test_recovery_and_f_eb_act_on_one_factor(self):
        rng = np.random.default_rng(81)
        rho = random_state((2, 3, 2), rng)
        rho_ab = rho.marginal((0, 1)).matrix
        term = channels.ChoiTerm(
            rho_ab.reshape(2, 3, 2, 3), channels.ChoiTerm.on_output(6)
        )
        x = self.stack(18, rng)
        want = channels.choi_subsystem_action(x, 3, 6, rho_ab, (2, 3), 1)
        assert np.abs(term(x) - want).max() <= 1e-13

    def test_f_max_sector_keeps_one_output(self):
        rng = np.random.default_rng(82)
        rho = random_state((2, 3), rng)
        for v in broadcast._swap_eigenspaces(3):
            u = v[:9, :v.shape[1] // 3].reshape(3, 3, -1)
            term = channels.ChoiTerm(rho.matrix.reshape(2, 3, 2, 3),
                                     np.einsum("bou,bpv->opuv", u, u.conj()))
            x = self.stack(v.shape[1], rng)
            both = channels.choi_subsystem_action(
                v @ x @ v.conj().T, 3, 9, rho.matrix, (2, 3), 1)
            want = [partial_trace(m, (2, 3, 3), keep=(0, 2)) for m in both]
            assert np.abs(term(x) - np.array(want)).max() <= 1e-13

    def test_measure_and_prepare_terms(self):
        rng = np.random.default_rng(83)
        rho = random_state((2, 3), rng)
        tau, el = random_state(3, rng).matrix, random_state(3, rng).matrix
        x = self.stack(3, rng)
        measured = channels.ChoiTerm(
            rho.matrix.reshape(2, 3, 2, 3).transpose(0, 3, 2, 1), tau[:, :, None, None]
        )
        want = [np.kron(conditional_states(rho, e, 1), tau) for e in x]
        assert np.abs(measured(x) - np.array(want)).max() <= 1e-13
        cond = conditional_states(rho, el, 1)
        prepared = channels.ChoiTerm(
            cond.reshape(2, 1, 2, 1), channels.ChoiTerm.on_output(3)
        )
        want = [np.kron(cond, e) for e in x]
        assert np.abs(prepared(x) - np.array(want)).max() <= 1e-13


def problems_and_references(monkeypatch, fn, *args):
    """Pairs of each problem ``fn(*args)`` solves and the same problem built
    with ``dense_fidelity_gadget``; the second run replays the first run's
    solutions, so programs that depend on earlier solves see the same data."""
    tiled, solutions, original = [], [], sdp.solve

    def solving(problem, *rest, **kwargs):
        tiled.append(problem)
        solutions.append(original(problem, *rest, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(sdp, "solve", solving)
    fn(*args)
    dense, replay = [], iter(solutions)

    def replaying(problem, *rest, **kwargs):
        dense.append(problem)
        return next(replay)

    monkeypatch.setattr(sdp, "solve", replaying)
    monkeypatch.setattr(sdp, "fidelity_sdp", dense_fidelity_gadget)
    fn(*args)
    return list(zip(tiled, dense))


def sigma_fixing_args(seed):
    rng = np.random.default_rng(seed)
    return random_state(2, rng), random_state(2, rng), random_channel(2, 3, rng)


TILED_PROGRAMS = [
    (optimal_recovery_fidelity, (random_state((2, 3, 3), 4),)),
    (optimal_recovery_fidelity, (random_state((3, 2, 3), 4),)),
    (f_max_broadcast, (random_state((2, 3), 4),)),
    (f_eb, (random_state((2, 2), 4),)),
    (optimal_fixing_recovery_fidelity, sigma_fixing_args(8)),
    (broadcast.f_eb_detailed, (random_state((3, 3), 4),)),
]
TILED_IDS = [
    "recovery_2x3x3", "recovery_3x2x3", "f_max_2x3", "f_eb_ppt_2x2",
    "sigma_fixing", "measure_prepare_3x3",
]


class TestTileRows:
    """Every row family the library builds is a short sum of tiles, and
    the tiles, expanded by ``SdpProblem.stacks``, equal the dense formulas:
    the coupling and corner rows those of ``dense_fidelity_gadget``, and
    trace preservation V^dag (H (x) I) V.  The measure-and-prepare case
    runs the PPT program and two rounds of preparation and measurement
    programs.  On each program the solver's tiled A(X), A^*(y), Gram
    matrix and Schur complement equal dense contractions over that view."""

    @pytest.mark.parametrize("fn, args", TILED_PROGRAMS, ids=TILED_IDS)
    def test_tiles_expand_to_the_dense_rows(self, monkeypatch, fn, args):
        pairs = problems_and_references(monkeypatch, fn, *args)
        assert len(pairs) == (5 if fn is broadcast.f_eb_detailed else 1)
        for got, want in pairs:
            assert got.blocks == want.blocks
            assert np.abs(got.rhs - want.rhs).max() <= 1e-14
            for a, b in zip(got.stacks, want.stacks):
                assert np.abs(a - b).max() <= 1e-14

    @pytest.mark.parametrize(
        "fn, rho, spaces",
        [
            (optimal_recovery_fidelity, random_state((2, 3, 3), 4), [np.eye(27)]),
            (f_max_broadcast, random_state((2, 3), 4), broadcast._swap_eigenspaces(3)),
        ],
        ids=["recovery_2x3x3", "f_max_2x3"],
    )
    def test_trace_preservation_rows(self, monkeypatch, fn, rho, spaces):
        # the first d_B^2 rows of each Choi block, with tiles over B_in
        problem = built_problem(monkeypatch, fn, rho)
        d_in = rho.dims[1]
        tp = np.kron(hermitian_basis(d_in), np.eye(len(spaces[0]) // d_in))
        for k, v in enumerate(spaces):
            assert problem.tiles[k].d == d_in
            want = v.conj().T @ tp @ v
            assert np.abs(problem.stacks[k][:d_in ** 2] - want).max() <= 1e-15

    @pytest.mark.parametrize("fn, args", TILED_PROGRAMS, ids=TILED_IDS)
    def test_solver_contractions_match_the_dense_view(self, monkeypatch, fn, args):
        rng = np.random.default_rng(71)
        problems = [got for got, _ in problems_and_references(monkeypatch, fn, *args)]
        for problem in problems:
            m = problem.n_constraints
            layout = sdp._layout(problem, np.arange(m), np.ones(m))
            ws = [random_pd(n, rng) for n in problem.blocks]
            factors = [np.linalg.cholesky(w) for w in ws]
            dense = [a.reshape(m, -1) for a in problem.stacks]
            # with W = L L^dag, Tr(A_i W A_j W) = <L^dag A_i L, L^dag A_j L>
            scaled = [(f.conj().T @ a @ f).reshape(m, -1)
                      for a, f in zip(problem.stacks, factors)]
            for got, want in (
                (sdp._schur_complement(layout, sdp._gather(layout, ws), m),
                 sum((s.conj() @ s.T).real for s in scaled)),
                (sdp._gram(problem), sum((a.conj() @ a.T).real for a in dense)),
                (sdp._a_apply(layout, sdp._gather(layout, ws), m),
                 sum(a.conj() @ w.reshape(-1) for a, w in zip(dense, ws)).real),
            ):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            y = rng.normal(size=m)
            adjoint = sdp._scatter(layout, sdp._a_adjoint(layout, y))
            for got, a in zip(adjoint, problem.stacks):
                want = np.tensordot(y, a, axes=(0, 0))
                assert np.abs(got - want).max() <= 1e-12 * (1 + np.abs(want).max())


def test_a_solve_leaves_the_dense_view_unbuilt(monkeypatch):
    # build and solve read only the tiles; ``audit`` expands them into the
    # dense view by its own scatter, which shares no code with A(X)
    problem = built_problem(
        monkeypatch, optimal_recovery_fidelity, random_state((2, 3, 3), 4)
    )
    solution = solve(problem)
    assert solution.status == "optimal" and "stacks" not in vars(problem)
    assert audit(problem, solution)[0]
    assert "stacks" in vars(problem)


def test_recovery_schur_complement_matches_dense_contraction(monkeypatch):
    # the Choi group holds tiles over B_in (d = d_B), at non-contiguous
    # positions: the d_B^2 trace rows first and the sigma coupling rows last
    problem = built_problem(
        monkeypatch, optimal_recovery_fidelity, random_state((2, 2, 2), 52)
    )
    m = problem.n_constraints
    layout = sdp._layout(problem, np.arange(m), np.ones(m))
    choi = layout[0]
    assert choi.blocks == (0,) and choi.d == 2
    assert choi.rows[0] == 0 and choi.rows[-1] == m - 1
    assert np.any(np.diff(choi.rows) != 1)
    rng = np.random.default_rng(53)
    ws = [random_pd(n, rng) for n in problem.blocks]
    factors = [np.linalg.cholesky(w) for w in ws]
    got = sdp._schur_complement(layout, sdp._gather(layout, ws), m)
    want = sum(
        np.einsum("iab,bc,jcd,da->ij", a, w, a, w, optimize=True).real
        for a, w in zip(problem.stacks, ws)
    )
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def count_cholesky_sides(monkeypatch) -> list:
    """The side of each matrix ``scipy.linalg.cho_factor`` receives."""
    sides, original = [], scipy.linalg.cho_factor

    def counting(a, *args, **kwargs):
        sides.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counting)
    return sides


class TestFixedCorner:
    """The r^2 orthonormal rows that fix the gadget's rho corner W_11 are
    eliminated from each Newton system in closed form: dy equals a dense
    solve of the full Schur system, and the one matrix ``cho_factor``
    receives per iterate has side m - r^2 where such a corner is found and
    m where none is."""

    @pytest.mark.parametrize(
        "fn, rho, r",
        [
            (optimal_recovery_fidelity, random_state((2, 3, 3), 7), 18),
            (optimal_recovery_fidelity, pure_a_product(random_state((2, 2), 7)), 4),
            (optimal_recovery_fidelity, ghz_state(), 1),
            (f_max_broadcast, random_state((2, 3), 7), 6),
        ],
        ids=["recovery_2x3x3", "recovery_deficient", "recovery_ghz", "f_max_2x3"],
    )
    def test_newton_step_matches_the_dense_solve(self, monkeypatch, fn, rho, r):
        problem = built_problem(monkeypatch, fn, rho)
        kept, _, layout, corner = sdp._solve_layout(problem)
        m = len(kept)
        assert (corner.r, corner.m) == (r, m - r * r)
        rng = np.random.default_rng(81)
        ws = sdp._gather(layout, [random_pd(n, rng) for n in problem.blocks])
        rhs = rng.normal(size=m)
        want = np.linalg.solve(sdp._schur_complement(layout, ws, m), rhs)
        got = corner.solver(layout, ws)(rhs)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize(
        "fn, rho",
        [
            (optimal_recovery_fidelity, random_state((2, 2, 2), 32)),
            (f_max_broadcast, random_state((2, 2), 31)),
            (f_eb, random_state((2, 2), 31)),
            (broadcast.f_eb_detailed, random_state((2, 3), 4)),
        ],
        ids=["recovery", "f_max", "f_eb", "measure_prepare"],
    )
    def test_the_factored_complement_drops_the_corner(self, monkeypatch, fn, rho):
        solves, ranks = [], []
        gadget, original = sdp.fidelity_sdp, sdp.solve

        def noting(builder, target, *args, **kwargs):
            ranks.append(support_isometry(np.asarray(target, complex)).shape[1])
            return gadget(builder, target, *args, **kwargs)

        def solving(problem, *args, **kwargs):
            del sides[:]
            solution = original(problem, *args, **kwargs)
            m = len(sdp._reduce_constraints(problem)[0])
            solves.append((m, ranks[-1], list(sides), solution.iterations))
            return solution

        sides = count_cholesky_sides(monkeypatch)
        monkeypatch.setattr(sdp, "fidelity_sdp", noting)
        monkeypatch.setattr(sdp, "solve", solving)
        fn(rho)
        assert len(solves) == (5 if fn is broadcast.f_eb_detailed else 1)
        for m, r, got, iterations in solves:
            assert got == [m - r * r] * iterations

    def test_a_row_across_the_corner_keeps_the_full_system(self, monkeypatch):
        # rows 0, 1, 3 and 6 of hermitian_basis(3) span the 2 x 2 corner of
        # the side-3 block, but the dense row touches that corner too
        problem = mixed_rows_problem()
        assert sdp._solve_layout(problem)[3] is None
        sides = count_cholesky_sides(monkeypatch)
        solution = solve(problem)
        m = len(sdp._reduce_constraints(problem)[0])
        assert solution.status == "optimal"
        assert sides == [m] * solution.iterations

    def test_constant_sigma_eliminates_the_rho_corner_only(self, monkeypatch):
        # both corners are fixed; the leading one goes, the sigma rows stay
        rng = np.random.default_rng(82)
        rho, sigma = random_state(3, rng), random_state(3, rng)
        builder = SdpBuilder()
        fidelity_sdp(builder, rho.matrix, AffineMatrixExpr(3, sigma.matrix))
        problem = builder.build()
        corner = sdp._solve_layout(problem)[3]
        assert (corner.r, corner.m) == (3, 9)
        sides = count_cholesky_sides(monkeypatch)
        solution = solve(problem)
        assert solution.status == "optimal" and audit(problem, solution)[0]
        assert sides == [9] * solution.iterations
        assert abs(solution.primal_value - fidelity(rho, sigma)) < 1e-6

    def test_a_corner_that_fills_its_block_keeps_the_full_system(self, monkeypatch):
        # r = n would leave nothing of the block: that corner is not eliminated
        rng = np.random.default_rng(83)
        rho = random_state(2, rng).matrix
        builder = SdpBuilder()
        blk = builder.add_block(2)
        builder.add_objective(blk, random_hermitian(2, rng))
        overlaps = np.trace(hermitian_basis(2) @ rho, axis1=1, axis2=2).real
        builder.add_constraint({blk: sdp._basis_tiles(2)}, overlaps)
        problem = builder.build()
        assert sdp._solve_layout(problem)[3] is None
        sides = count_cholesky_sides(monkeypatch)
        solution = solve(problem)
        assert solution.status == "optimal" and audit(problem, solution)[0]
        assert sides == [4] * solution.iterations

    def test_a_block_that_shares_its_group_keeps_the_full_system(self, monkeypatch):
        # block 0 has a fixed 2 x 2 corner, but an entry row at (2, 2) of
        # both side-3 blocks puts them in one group
        rng = np.random.default_rng(84)
        rho = random_state(2, rng).matrix
        builder = SdpBuilder()
        first, second = builder.add_block(3), builder.add_block(3)
        overlaps = np.trace(hermitian_basis(2) @ rho, axis1=1, axis2=2).real
        builder.add_constraint({first: sdp._basis_tiles(2)}, overlaps)
        at = np.array([2])
        entry = sdp.Tiles(0 * at, at, at, np.ones((1, 1, 1), dtype=complex))
        builder.add_constraint({first: entry, second: entry}, 1.0)
        diagonal = np.arange(3)
        trace = sdp.Tiles(0 * diagonal, diagonal, diagonal, np.ones((3, 1, 1), complex))
        builder.add_constraint({second: trace}, 2.0)
        builder.add_objective(first, -random_pd(3, rng))
        builder.add_objective(second, -np.eye(3, dtype=complex))
        problem = builder.build()
        _, _, layout, corner = sdp._solve_layout(problem)
        assert [blk.blocks for blk in layout] == [(0, 1)] and corner is None
        sides = count_cholesky_sides(monkeypatch)
        solution = solve(problem)
        assert solution.status == "optimal" and audit(problem, solution)[0]
        assert sides == [6] * solution.iterations

    def test_a_corner_that_does_not_factor_falls_back_to_the_full_system(
        self, monkeypatch
    ):
        problem = built_problem(
            monkeypatch, optimal_recovery_fidelity, random_state((2, 2, 2), 32)
        )
        want = solve(problem)
        # zpotrf reports a pivot that is not positive at every iterate
        monkeypatch.setattr(scipy.linalg.lapack, "zpotrf", lambda a, **kw: (a, 1))
        sides = count_cholesky_sides(monkeypatch)
        got = solve(problem)
        m = len(sdp._reduce_constraints(problem)[0])
        assert want.status == got.status == "optimal"
        assert got.iterations == want.iterations
        assert sides == [m] * got.iterations
        assert abs(got.primal_value - want.primal_value) < 1e-9


def constant_sigma_program(seed):
    """F(rho, sigma) for random qutrit states, sigma fixed: the builder, the
    fidelity block and rho."""
    rng = np.random.default_rng(seed)
    rho, sigma = random_state(3, rng), random_state(3, rng)
    builder = SdpBuilder()
    blk = fidelity_sdp(builder, rho.matrix, AffineMatrixExpr(3, sigma.matrix))
    return builder, blk, rho.matrix


def corner_and_band_row(blk, rho, shift=0.0):
    """W_00 + Re W_03 = rho_00 + ``shift``: a row with a tile in the rho
    corner and two in [0, 3) x [3, 6) of the side-6 fidelity block."""
    tiles = sdp.Tiles(np.zeros(3, dtype=int), np.array([0, 0, 3]), np.array([0, 3, 0]),
                      np.array([1.0, 0.5, 0.5], dtype=complex)[:, None, None])
    return {blk: tiles}, rho[0, 0].real + shift


class TestDeclaredCorner:
    """``fidelity_sdp`` declares its rho corner on the builder
    (``SdpBuilder.fix_corner``); ``_reduce_constraints`` keeps its rows
    without factoring them, and ``_solve_layout`` eliminates it only while
    no other kept row reaches [0, r) x [0, n) of its block."""

    def test_the_gadget_declares_its_rho_corner(self):
        builder, blk, _ = constant_sigma_program(85)
        problem = builder.build()
        assert problem.corner == (blk, 3, 0)
        assert SdpProblem([2], [np.eye(2)], [np.eye(2)[None]], [1.0]).corner is None

    @pytest.mark.parametrize(
        "fn, rho",
        [
            (f_max_broadcast, random_state((2, 3), 7)),
            (f_eb, random_state((2, 2), 31)),
            (optimal_recovery_fidelity, random_state((2, 3, 2), 7)),
        ],
        ids=["f_max", "f_eb", "recovery"],
    )
    def test_reduction_matches_the_full_factorization(self, monkeypatch, fn, rho):
        problem = built_problem(monkeypatch, fn, rho)
        kept, scales = sdp._reduce_constraints(problem)
        assert problem.corner is not None
        problem.corner = None  # the same rows, nothing declared
        want_kept, want_scales = sdp._reduce_constraints(problem)
        assert np.array_equal(kept, want_kept)
        assert np.array_equal(scales, want_scales)

    def test_a_row_into_the_corner_keeps_the_full_system(self, monkeypatch):
        builder, blk, rho = constant_sigma_program(86)
        builder.add_constraint(*corner_and_band_row(blk, rho))
        problem = builder.build()
        assert problem.corner is not None
        assert sdp._solve_layout(problem)[3] is None
        m = len(sdp._reduce_constraints(problem)[0])
        assert m == problem.n_constraints
        sides = count_cholesky_sides(monkeypatch)
        solution = solve(problem)
        assert solution.status == "optimal" and audit(problem, solution)[0]
        assert sides == [m] * solution.iterations

    def test_a_dependent_row_into_the_corner_is_dropped(self):
        # W_00 = rho_00 again: dropped with a zero dual, and the corner,
        # which no kept row reaches, is eliminated
        builder, blk, rho = constant_sigma_program(87)
        at = np.array([0])
        entry = sdp.Tiles(at, at, at, np.ones((1, 1, 1), dtype=complex))
        builder.add_constraint({blk: entry}, rho[0, 0].real)
        problem = builder.build()
        kept = sdp._reduce_constraints(problem)[0]
        assert problem.n_constraints - 1 not in kept
        assert sdp._solve_layout(problem)[3].r == 3
        solution = solve(problem)
        assert solution.status == "optimal" and audit(problem, solution)[0]
        assert solution.dual_vector[-1] == 0.0

    def test_an_inconsistent_row_into_the_corner_raises(self):
        builder, blk, rho = constant_sigma_program(88)
        at = np.array([0])
        entry = sdp.Tiles(at, at, at, np.ones((1, 1, 1), dtype=complex))
        builder.add_constraint({blk: entry}, rho[0, 0].real + 0.1)
        with pytest.raises(ValueError, match="structurally inconsistent"):
            solve(builder.build())

    @pytest.mark.parametrize("fn", [f_max_broadcast, f_eb], ids=["f_max", "ppt"])
    def test_newton_step_matches_the_dense_solve_at_r_4(self, monkeypatch, fn):
        problem = built_problem(monkeypatch, fn, random_state((2, 2), 7))
        kept, _, layout, corner = sdp._solve_layout(problem)
        m = len(kept)
        assert (corner.r, corner.m) == (4, m - 16)
        rng = np.random.default_rng(89)
        for _ in range(3):
            ws = sdp._gather(layout, [random_pd(n, rng) for n in problem.blocks])
            rhs = rng.normal(size=m)
            want = np.linalg.solve(sdp._schur_complement(layout, ws, m), rhs)
            got = corner.solver(layout, ws)(rhs)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("fn", [f_max_broadcast, f_eb], ids=["f_max", "f_eb"])
    def test_two_qubit_programs_stay_certified_at_a_tight_tolerance(
        self, monkeypatch, fn
    ):
        problems, original = [], sdp.solve

        def capturing(problem, *args, **kwargs):
            problems.append(problem)
            return original(problem, *args, **kwargs)

        monkeypatch.setattr(sdp, "solve", capturing)
        with sdp.recording() as records:
            fn(random_state((2, 2), 7), tol=1e-9)
        ((_, solution),) = records
        assert solution.status == "optimal"
        assert audit(problems[-1], solution, 1e-9)[0]


class TestBasisTilesCache:
    @pytest.mark.parametrize("n, at", [(1, 0), (3, 0), (4, 2)])
    def test_cached_tiles_are_read_only_and_equal_a_fresh_build(self, n, at):
        cached, fresh = sdp._basis_tiles(n, at), sdp._basis_tiles.__wrapped__(n, at)
        assert sdp._basis_tiles(n, at) is cached
        for name in ("row", "p", "q", "b"):
            got, want = getattr(cached, name), getattr(fresh, name)
            assert not got.flags.writeable
            assert np.array_equal(got, want)

    def test_hermitian_basis_stays_a_fresh_writable_array(self):
        first, second = hermitian_basis(3), hermitian_basis(3)
        assert first is not second and first.flags.writeable
        first[0] = 0
        assert np.array_equal(second, hermitian_basis(3))


class TestDualSlackAudit:
    """``audit`` checks the dual slack Z = A^*(y) - C as well: a y that
    leaves Z indefinite fails it, and the figure names the dual slack."""

    def test_an_indefinite_dual_slack_fails_the_audit(self):
        problem = trace_constrained(np.diag([1.0, -1.0]).astype(complex))
        solution = solve(problem)
        ok, details = audit(problem, solution)
        assert ok and abs(details["min_dual_slack_eigenvalue"]) < 1e-6
        for shift in (1e-7, 1e-5, 1e-3):
            # y I - C with y below lambda_max(C) = 1 is indefinite
            moved = dataclasses.replace(solution, dual_vector=solution.dual_vector - shift)
            ok, details = audit(problem, moved)
            assert details["min_block_eigenvalue"] > -1e-6
            assert details["max_constraint_violation"] < 1e-6
            assert ok == (shift < 1e-6)
            assert details["min_dual_slack_eigenvalue"] == pytest.approx(-shift, abs=1e-7)

    def test_a_certified_fidelity_names_the_dual_slack(self, monkeypatch):
        original = sdp.solve

        def no_dual(problem, *args, **kwargs):
            solution = original(problem, *args, **kwargs)
            return dataclasses.replace(solution, dual_vector=0 * solution.dual_vector)

        monkeypatch.setattr(sdp, "solve", no_dual)
        # Z = -C, and the fidelity objective's off-diagonal halves have
        # eigenvalues -1/2 and 1/2
        with pytest.raises(RuntimeError, match="min_dual_slack_eigenvalue -5.0e-01"):
            f_max_broadcast(random_state((2, 2), 7))


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)])
def test_recovery_stays_certified_at_a_tight_tolerance(monkeypatch, dims):
    # near its optimum, W_11 is at its worst conditioned
    problems, original = [], sdp.solve

    def capturing(problem, *args, **kwargs):
        problems.append(problem)
        return original(problem, *args, **kwargs)

    monkeypatch.setattr(sdp, "solve", capturing)
    with sdp.recording() as records:
        optimal_recovery_fidelity(random_state(dims, 7), tol=1e-9)
    ((_, solution),) = records
    assert solution.status == "optimal"
    assert audit(problems[-1], solution, 1e-9)[0]


def unbounded_problem():
    """maximize Tr X over X >= 0 with X00 = X11: X = t I is feasible for
    every t, so no optimum exists."""
    b = SdpBuilder()
    blk = b.add_block(2)
    b.add_objective(blk, np.eye(2, dtype=complex))
    b.add_constraint({blk: np.diag([1.0, -1.0]).astype(complex)}, 0.0)
    return b.build()


def random_pd(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T + 0.1 * np.eye(n)


class TestCorrectorAndSchurSolve:
    """The corrector's second-order term, the Schur solve on the range of a
    singular complement, and breakdown on a non-finite iterate."""

    def test_unbounded_problem_ends_in_breakdown(self):
        sol = solve(unbounded_problem())
        assert sol.status == "breakdown"

    def test_semidefinite_schur_path_reaches_the_same_optimum(self, monkeypatch):
        c_mat = np.array([[1.0, 0.5 - 0.5j], [0.5 + 0.5j, -1.0]])
        problem = trace_constrained(c_mat)
        want = solve(problem)
        calls = []

        def singular(*args, **kwargs):
            calls.append(None)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(scipy.linalg, "cho_factor", singular)
        got = solve(problem)
        assert calls and len(calls) == got.iterations
        assert want.status == got.status == "optimal"
        assert abs(got.primal_value - want.primal_value) < sdp.DEFAULT_TOL
        assert audit(problem, got)[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_scaling_factor_and_lyapunov_step(self, n):
        rng = np.random.default_rng(100 + n)
        x, z = random_pd(n, rng), random_pd(n, rng)
        w, _, _, _, g, lam = sdp._nt_scaling(x, z)
        g_inv = np.linalg.inv(g)
        assert np.abs(g @ g.conj().T - w).max() <= 1e-10 * np.abs(w).max()
        assert np.abs(w @ z @ w - x).max() <= 1e-10 * np.abs(x).max()
        for scaled in (g.conj().T @ z @ g, g_inv @ x @ g_inv.conj().T):
            assert np.abs(scaled - np.diag(lam)).max() <= 1e-10 * lam.max()

        dx, dz = random_hermitian(n, rng), random_hermitian(n, rng)
        dx_s = g_inv @ dx @ g_inv.conj().T
        dz_s = g.conj().T @ dz @ g
        r = dx_s @ dz_s + dz_s @ dx_s
        # (I (x) V + V^T (x) I) vec U = vec R, vec stacking columns
        v, eye = np.diag(lam), np.eye(n)
        u = np.linalg.solve(
            np.kron(eye, v) + np.kron(v.T, eye), r.reshape(-1, order="F")
        ).reshape(n, n, order="F")
        want = g @ u @ g.conj().T
        got = sdp._second_order(g, lam, z, dx, dz)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_iteration_budget(self):
        # f_max_broadcast and f_eb_detailed on one random state of each of
        # the dims below: 349 iterations in all with the centering-only
        # corrector, 194 with the second-order term
        total = 0
        for dims, seed in (((2, 2), 41), ((3, 2), 42), ((2, 3), 43), ((3, 3), 44)):
            with sdp.recording() as records:
                f_max_broadcast(random_state(dims, seed))
                broadcast.f_eb_detailed(random_state(dims, seed))
            assert {s.status for _, s in records} == {"optimal"}
            total += sum(s.iterations for _, s in records)
        assert total <= 0.7 * 349


class TestStepLengths:
    """Both step lengths of a block group from one stacked ``eigvalsh`` of
    [H_x^dag dX H_x; H_z^dag dZ H_z], against independent references."""

    @pytest.mark.parametrize("b, n", [(1, 5), (4, 3)])
    def test_each_side_matches_a_per_matrix_reference(self, b, n):
        rng = np.random.default_rng(60 + b)
        points = [np.stack([random_pd(n, rng) for _ in range(b)]) for _ in "xz"]
        _, _, hx, hz, _, _ = sdp._nt_scaling(*points)
        dirs = [np.stack([random_hermitian(n, rng) for _ in range(b)]) for _ in "xz"]
        alphas = sdp._step_lengths([np.stack([hx, hz])], [np.stack(dirs)])
        for alpha, point, d in zip(alphas, points, dirs):
            # the least eigenvalue of L^-1 d L^-dag, P = L L^dag, bounds alpha
            least = []
            for p_k, d_k in zip(point, d):
                l_inv = np.linalg.inv(np.linalg.cholesky(p_k))
                least.append(np.linalg.eigvalsh(l_inv @ d_k @ l_inv.conj().T)[0])
            assert min(least) < 0
            assert alpha == pytest.approx(-1.0 / min(least), rel=1e-10)
            # the step ends on the boundary of the tightest block only
            lows = sorted(np.linalg.eigvalsh(p_k + alpha * d_k)[0]
                          for p_k, d_k in zip(point, d))
            assert lows[0] == pytest.approx(0.0, abs=1e-9)
            assert all(low > 0 for low in lows[1:])

    def test_a_direction_that_stays_psd_gives_no_step_bound(self):
        rng = np.random.default_rng(62)
        points = [np.stack([random_pd(3, rng) for _ in range(2)]) for _ in "xz"]
        _, _, hx, hz, _, _ = sdp._nt_scaling(*points)
        # dX >= 0 keeps X + alpha dX PSD for every alpha; dZ = -Z does not
        d = np.stack([np.stack([random_pd(3, rng) for _ in range(2)]), -points[1]])
        alpha_p, alpha_d = sdp._step_lengths([np.stack([hx, hz])], [d])
        assert alpha_p == np.inf
        assert alpha_d == pytest.approx(1.0, rel=1e-10)


def pauli_x_problem():
    """maximize Re Tr(sigma_x X) over X >= 0 with Tr X = 1 (optimum 1): the
    solve certifies on its 7th step."""
    return trace_constrained(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


class TestOneResidualPass:
    """A solve lays out its rows once, and its status and residuals
    describe the point it returns."""

    def test_one_row_layout_per_block(self, monkeypatch):
        calls = []
        original = sdp._BlockRows.__init__

        def counting(self, *args, **kwargs):
            calls.append(None)
            original(self, *args, **kwargs)

        monkeypatch.setattr(sdp._BlockRows, "__init__", counting)
        for problem in (pauli_x_problem(), mixed_rows_problem()):
            calls.clear()
            assert solve(problem).status == "optimal"
            assert len(calls) == len(problem.blocks)

    def test_status_agrees_with_the_returned_residuals(self):
        problem = pauli_x_problem()
        uncapped = solve(problem)
        assert uncapped.status == "optimal" and uncapped.iterations == 7
        tol = sdp.DEFAULT_TOL
        for max_iters in (6, 7, 8):
            sol = solve(problem, max_iters=max_iters)
            res = sol.residuals
            below = res.primal < tol and res.dual < tol and res.gap < tol
            assert (sol.status == "optimal") == below
            assert sol.iterations == min(max_iters, 7)
        capped = solve(problem, max_iters=7)
        assert capped.status == "optimal"
        assert capped.primal_value == uncapped.primal_value
        assert solve(problem, max_iters=6).status == "max-iterations"
