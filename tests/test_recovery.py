"""Petz map behavior and recovery-fidelity optimization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbroadcast import sdp
from qbroadcast.channels import (
    Channel,
    apply,
    apply_on_subsystem,
    channel_from_kraus,
    choi_from_action,
    identity_channel,
    trace_out_channel,
)
from qbroadcast.corpus import (
    ghz_state,
    markov_chain_state,
    random_channel,
    random_state,
    random_unitary,
)
from qbroadcast.info import conditional_mutual_information, fidelity
from qbroadcast.linalg import dag, matrix_function_on_support, max_abs, trace_norm
from qbroadcast.recovery import (
    optimal_fixing_recovery_fidelity,
    optimal_recovery_fidelity,
    petz_map,
    petz_recovery_fidelity,
    petz_recovery_map,
    recovery_report,
    relative_entropy_recovery_check,
)
from qbroadcast.states import DensityMatrix

SQRT_HALF = 0.7071067811865476


class TestPetzMap:
    def test_identity_channel_gives_identity(self):
        rng = np.random.default_rng(0)
        sigma = random_state(3, rng)
        rec = petz_map(sigma, identity_channel(3))
        tau = random_state(3, rng)
        assert max_abs(apply(rec, tau).matrix - tau.matrix) < 1e-9

    def test_unitary_channel_inverted(self):
        rng = np.random.default_rng(1)
        u = random_unitary(2, rng)
        conj = channel_from_kraus([u], 2, 2)
        sigma = random_state(2, rng)
        rec = petz_map(sigma, conj)
        tau = random_state(2, rng)
        back = apply(rec, apply(conj, tau))
        assert max_abs(back.matrix - tau.matrix) < 1e-9

    def test_partial_trace_closed_form(self):
        # for tracing out C with reference rho_BC, the recovery acts as
        # X -> rho_BC^1/2 (rho_B^-1/2 X rho_B^-1/2 x I_C) rho_BC^1/2
        rng = np.random.default_rng(2)
        rho_bc = random_state((2, 3), rng)
        rho_b = rho_bc.marginal((0,))
        half = matrix_function_on_support(rho_bc.matrix, np.sqrt)
        inv_half = matrix_function_on_support(
            rho_b.matrix, lambda x: 1.0 / np.sqrt(x)
        )

        def action(x):
            inner = np.kron(inv_half @ x @ inv_half, np.eye(3))
            return half @ inner @ half

        oracle = choi_from_action(action, (2,), (2, 3))
        built = petz_map(rho_bc, trace_out_channel((2, 3), keep=(0,)))
        assert max_abs(built.choi - oracle) < 1e-9
        rebuilt = apply(built, rho_b)
        assert trace_norm(rebuilt.matrix - rho_bc.matrix) < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_sigma_fixed_point(self, seed):
        rng = np.random.default_rng(100 + seed)
        sigma = random_state(2, rng, rank=rng.integers(1, 3))
        ch = random_channel(2, 2, rng)
        rec = petz_map(sigma, ch)
        back = apply(rec, apply(ch, sigma))
        assert trace_norm(back.matrix - sigma.matrix) < 1e-8

    def test_rank_deficient_image_completed_to_channel(self):
        # constant map onto |0><0| has a singular image; the completion
        # must still produce a trace-preserving channel fixing sigma
        kraus = [
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 1.0], [0.0, 0.0]]),
        ]
        to_zero = channel_from_kraus(kraus, 2, 2)
        rng = np.random.default_rng(7)
        sigma = random_state(2, rng)
        rec = petz_map(sigma, to_zero)
        back = apply(rec, apply(to_zero, sigma))
        assert trace_norm(back.matrix - sigma.matrix) < 1e-8
        # inputs outside the image support go to sigma
        routed = apply(rec, DensityMatrix((2,), np.diag([0.0, 1.0j * 0 + 1.0])))
        assert trace_norm(routed.matrix - sigma.matrix) < 1e-8


class TestTripartitePetz:
    def test_product_with_c_recovers_exactly(self):
        rng = np.random.default_rng(3)
        state = markov_chain_state("product-right", (2, 2, 2), rng)
        assert petz_recovery_fidelity(state) > 1 - 1e-8

    def test_classical_markov_chain_recovers_exactly(self):
        rng = np.random.default_rng(4)
        state = markov_chain_state("classical-b", (2, 2, 2), rng)
        assert petz_recovery_fidelity(state) > 1 - 1e-8

    def test_ghz_petz_fidelity_hits_the_cmi_bound(self):
        # losing C from a GHZ state leaves classical correlations only;
        # the Petz rebuild gets fidelity exactly 2^(-1/2), matching the
        # bound at cmi = 1
        got = petz_recovery_fidelity(ghz_state())
        assert abs(got - SQRT_HALF) < 1e-9

    def test_recovery_map_rebuilds_bc_marginal(self):
        rng = np.random.default_rng(5)
        state = random_state((2, 2, 2), rng)
        rec = petz_recovery_map(state)
        rebuilt = apply(rec, state.marginal((1,)))
        assert trace_norm(rebuilt.matrix - state.marginal((1, 2)).matrix) < 1e-8


class TestOptimalRecovery:
    def test_markov_states_reach_one(self):
        rng = np.random.default_rng(6)
        for kind in ("product-right", "classical-b"):
            state = markov_chain_state(kind, (2, 2, 2), rng)
            value, channel = optimal_recovery_fidelity(state)
            assert value > 1 - 1e-6
            assert isinstance(channel, Channel)

    def test_ghz_meets_theorem_bound(self):
        value, channel = optimal_recovery_fidelity(ghz_state())
        assert value >= SQRT_HALF - 1e-6
        # the returned channel should achieve close to the reported value
        rebuilt = apply_on_subsystem(channel, ghz_state().marginal((0, 1)), 1)
        assert fidelity(ghz_state(), rebuilt) >= value - 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_random_states_bound_and_petz_ordering(self, seed):
        rng = np.random.default_rng(200 + seed)
        state = random_state((2, 2, 2), rng)
        report = recovery_report(state)
        assert report.optimal_fidelity >= report.petz_fidelity - 1e-6
        assert report.optimal_fidelity >= report.bound - 1e-6
        assert report.sigma_recovery_residual < 1e-8
        assert 0.0 <= report.optimal_fidelity <= 1.0

    def test_low_cmi_iff_high_fidelity(self):
        rng = np.random.default_rng(8)
        markov = markov_chain_state("product-right", (2, 2, 2), rng)
        assert conditional_mutual_information(markov, (0,), (2,)) < 1e-9
        value, _ = optimal_recovery_fidelity(markov)
        assert value > 1 - 1e-6
        entangled = ghz_state()
        value_ghz, _ = optimal_recovery_fidelity(entangled)
        assert value_ghz < 1 - 1e-3

    def test_rejects_bipartite_input(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="3 subsystems"):
            optimal_recovery_fidelity(random_state((2, 2), rng))


@settings(max_examples=4, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 10 ** 6))
def test_recovery_chain_on_random_states(d_c, seed):
    report = recovery_report(random_state((2, 2, d_c), np.random.default_rng(seed)))
    floor = max(report.petz_fidelity, report.bound)
    assert report.optimal_fidelity >= floor - 1e-6


class TestRelativeEntropyCheck:
    def test_unitary_channel_drop_zero_fidelity_one(self):
        rng = np.random.default_rng(10)
        u = random_unitary(2, rng)
        conj = channel_from_kraus([u], 2, 2)
        rho = random_state(2, rng)
        sigma = random_state(2, rng)
        report = relative_entropy_recovery_check(rho, sigma, conj)
        assert abs(report.drop) < 1e-8
        assert report.petz_fidelity > 1 - 1e-8
        assert report.petz_meets_bound

    def test_rho_equal_sigma(self):
        rng = np.random.default_rng(11)
        rho = random_state(2, rng)
        ch = random_channel(2, 2, rng)
        report = relative_entropy_recovery_check(rho, rho, ch)
        assert abs(report.drop) < 1e-8
        assert report.petz_fidelity > 1 - 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_random_instances_meet_bound_via_sdp(self, seed):
        rng = np.random.default_rng(300 + seed)
        rho = random_state(2, rng)
        sigma = random_state(2, rng)
        ch = random_channel(2, 2, rng)
        report = relative_entropy_recovery_check(rho, sigma, ch)
        assert report.drop >= -1e-9
        assert report.optimal_meets_bound
        assert report.optimal_fidelity >= report.petz_fidelity - 1e-6

    def test_support_violation_raises(self):
        pure = DensityMatrix((2,), np.diag([1.0, 0.0]).astype(complex))
        mixed = DensityMatrix((2,), np.diag([0.5, 0.5]).astype(complex))
        ch = identity_channel(2)
        with pytest.raises(ValueError, match="support"):
            relative_entropy_recovery_check(mixed, pure, ch)
        # the sigma-fixing SDP compresses onto supp(sigma), so it must refuse
        # rather than certify a value: R = id fixes sigma and reaches 1
        excited = DensityMatrix((2,), np.diag([0.0, 1.0]).astype(complex))
        for rho in (mixed, excited):
            with pytest.raises(ValueError, match="support violation"):
                optimal_fixing_recovery_fidelity(rho, pure, ch)

    @pytest.mark.parametrize("d", [2, 3])
    def test_fixing_program_has_no_dependent_rows(self, d, monkeypatch):
        # trace preservation already implies one sigma-fixing row, so the
        # program leaves it out and the redundancy pass drops nothing
        rng = np.random.default_rng(20 + d)
        reduce_constraints = sdp._reduce_constraints
        counts = []

        def counting(problem):
            kept, scales = reduce_constraints(problem)
            counts.append((len(kept), problem.n_constraints))
            return kept, scales

        monkeypatch.setattr(sdp, "_reduce_constraints", counting)
        optimal_fixing_recovery_fidelity(
            random_state(d, rng), random_state(d, rng), random_channel(d, d, rng)
        )
        assert len(counts) == 1
        assert counts[0][0] == counts[0][1]

    def test_fixing_constraint_respected_by_optimizer(self):
        # the sigma-fixing SDP value can never exceed the unconstrained
        # fidelity optimum of 1 and must beat the Petz map
        rng = np.random.default_rng(13)
        rho = random_state(2, rng)
        sigma = random_state(2, rng)
        ch = random_channel(2, 2, rng)
        best = optimal_fixing_recovery_fidelity(rho, sigma, ch)
        petz = petz_map(sigma, ch)
        petz_fid = fidelity(rho, apply(petz, apply(ch, rho)))
        assert petz_fid - 1e-6 <= best <= 1.0
