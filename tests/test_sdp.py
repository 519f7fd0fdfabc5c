"""Solver checks against closed-form optima and an independent audit."""

import numpy as np
import pytest
import scipy.linalg

from qbroadcast import broadcast, recovery, sdp
from qbroadcast.broadcast import f_eb, f_max_broadcast
from qbroadcast.channels import identity_channel
from qbroadcast.corpus import bell_state, ghz_state, random_channel, random_state
from qbroadcast.info import fidelity
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
    dump_sdpa,
    embed_hermitian,
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

    def test_embedding_roundtrip_and_inner_products(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (g + g.conj().T) / 2
        x = random_state(3, rng).matrix
        lhs = np.trace(embed_hermitian(h) / 2 @ embed_hermitian(x)).real
        assert abs(lhs - np.trace(h @ x).real) < 1e-12

    def test_embedded_psd_iff_complex_psd(self):
        rng = np.random.default_rng(12)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        pos = g @ g.conj().T
        assert np.linalg.eigvalsh(embed_hermitian(pos))[0] > -1e-12
        indef = pos - np.eye(3) * np.trace(pos).real
        assert np.linalg.eigvalsh(embed_hermitian(indef))[0] < -1e-9


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

    def test_sdpa_dump_layout(self, tmp_path):
        path = tmp_path / "prob.dat-s"
        dump_sdpa(trace_constrained(np.diag([1.0, 2.0]).astype(complex)), str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("1 ")
        assert lines[1].startswith("1 ")
        assert lines[2].split("=")[0].strip() == "4"
        entry = lines[4].split()
        assert len(entry) == 5


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
        b = SdpBuilder()
        free = b.add_block(2)
        expr = AffineMatrixExpr(
            side=2,
            const=np.zeros((2, 2), dtype=complex),
            terms=((free, lambda e: 1j * e),),
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

    def test_sub_tolerance_asymmetry_is_symmetrized(self):
        b = SdpBuilder()
        blk = b.add_block(2)
        dust = np.array([[1.0, 1e-14], [0.0, 0.0]])
        b.add_objective(blk, dust)
        b.add_constraint({blk: dust}, 1.0)
        problem = b.build()
        for a in (problem.objective[0], problem.stacks[0][0]):
            assert np.array_equal(a, a.conj().T)


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


class TestEachJobOnce:
    """One factorization per block per IPM iteration, and one map call per
    sigma term when the fidelity gadget is built."""

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
        "module, fn, state, expected",
        [
            (broadcast, f_max_broadcast, ((2, 2), 31), 2),  # one per swap sector
            (broadcast, f_eb, ((2, 2), 31), 1),
            (recovery, optimal_recovery_fidelity, ((2, 2, 2), 32), 1),
        ],
        ids=["f_max", "f_eb", "optimal_recovery"],
    )
    def test_one_choi_action_per_sigma_term(
        self, monkeypatch, module, fn, state, expected
    ):
        calls = []
        original = module.choi_subsystem_action

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "choi_subsystem_action", counting)
        fn(random_state(*state))
        assert len(calls) == expected


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
    (one diagonal entry, an off-diagonal pair), the identity on a qubit
    (two entries, not a basis element), dense rows, a block touched by both
    kinds, one dense row over two blocks, and a block no row touches."""
    rng = np.random.default_rng(12)
    b = SdpBuilder()
    (qubit,) = add_channel(b, 1, 2)
    mixed = b.add_block(3)
    untouched = b.add_block(2)
    rho = random_state(3, rng).matrix
    sigma = random_state(2, rng).matrix
    basis = hermitian_basis(3)[[0, 1, 3, 6]]
    b.add_constraint({mixed: basis}, np.trace(basis @ rho, axis1=1, axis2=2).real)
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
    """The per-block row layout against independent dense contractions."""

    def layout_and_points(self, problem):
        rng = np.random.default_rng(13)
        m = problem.n_constraints
        layout = [sdp._BlockRows(a, np.arange(m), np.ones(m)) for a in problem.stacks]
        points = []
        for n in problem.blocks:
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            points.append(g @ g.conj().T)
        return layout, points

    def test_every_kind_of_row_is_present(self):
        problem = mixed_rows_problem()
        layout, _ = self.layout_and_points(problem)
        qubit, mixed, untouched = layout
        assert qubit.n_basis == 1 and len(qubit.rows) == 2  # I_2, then dense
        assert np.count_nonzero(qubit.v[0]) == 2
        assert mixed.n_basis == 4 and len(mixed.rows) == 5
        assert len(untouched.rows) == 0

    def test_schur_complement_matches_dense_contraction(self):
        problem = mixed_rows_problem()
        layout, ws = self.layout_and_points(problem)
        got = sdp._schur_complement(layout, ws, problem.n_constraints)
        want = sum(
            np.einsum("iab,bc,jcd,da->ij", a, w, a, w).real
            for a, w in zip(problem.stacks, ws)
        )
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_map_and_adjoint_match_dense_contraction(self):
        problem = mixed_rows_problem()
        layout, xs = self.layout_and_points(problem)
        m = problem.n_constraints
        got = sdp._a_apply(layout, xs, m)
        want = sum(
            np.einsum("mij,ji->m", a, x).real for a, x in zip(problem.stacks, xs)
        )
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        y = np.random.default_rng(14).normal(size=m)
        for got, a in zip(sdp._a_adjoint(layout, y), problem.stacks):
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
        assert [blk.n_basis for blk in layout] == [0, 0, 0]
        sparse, dense = solve(problem), solve(rotated)
        assert sparse.status == dense.status == "optimal"
        assert sparse.iterations == dense.iterations
        assert abs(sparse.primal_value - dense.primal_value) < sdp.DEFAULT_TOL


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
