"""Discord optimizer, broadcast-fidelity SDPs, and the MI-loss functional."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize_scalar
from hypothesis import given, settings
from hypothesis import strategies as st

import qbroadcast.broadcast as broadcast_module
from qbroadcast.broadcast import (
    MAX_STEPS,
    STATIONARY_GRAD,
    BroadcastReport,
    EbDetail,
    _ascent_generator,
    _classical_mi_stack,
    _f_eb_solve,
    _parabolic_lanes,
    _partial_transpose_output,
    _projective_rows,
    _qubit_eb_channel,
    _swap_eigenspaces,
    _swap_sides,
    average_mi_loss,
    broadcast_report,
    discord,
    f_eb,
    f_eb_detailed,
    f_max_broadcast,
    measurement_copy_broadcaster,
)
from qbroadcast.channels import (
    Channel,
    apply_on_subsystem,
    identity_channel,
    project_to_nearest_channel,
    quantum_to_classical,
)
from qbroadcast.classicality import classify
from qbroadcast.corpus import (
    bell_state,
    classical_classical_state,
    classical_on_b_state,
    named_state,
    random_channel,
    random_state,
    random_unitary,
    werner_state,
)
from qbroadcast.frames import build_ic_povm
from qbroadcast.info import entropy, fidelity, mutual_information
from qbroadcast.linalg import max_abs, trace_norm
from qbroadcast.sdp import DEFAULT_TOL, fidelity_slack, recording
from qbroadcast.states import DensityMatrix, Povm

SQRT_HALF = 0.7071067811865476


def reinterpret_outputs(ch: Channel, out_dims) -> Channel:
    """View a channel's single output as a register pair of the same size."""
    return Channel(ch.in_dims, tuple(out_dims), ch.choi)


def grid_best_projective_mi(rho: DensityMatrix, n_theta=40, n_phi=25) -> float:
    """Brute-force best I(A:B') over projective qubit measurements on B."""
    d_a = rho.dims[0]
    rho4 = rho.matrix.reshape(d_a, 2, d_a, 2)
    from qbroadcast.info import entropy

    s_a = entropy(rho.marginal((0,)))
    best = -np.inf
    for theta in np.linspace(0, np.pi, n_theta):
        for phi in np.linspace(0, 2 * np.pi, n_phi, endpoint=False):
            up = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
            down = np.array([-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)])
            rows = np.stack([up.conj(), down.conj()])
            got = _classical_mi_stack(rho4, s_a, rows[None])[0]
            best = max(best, float(got))
    return best


class TestObjective:
    def test_stack_matches_channel_mutual_information(self):
        # the optimizer objective must agree with building the actual
        # measurement channel and computing MI of its output
        rng = np.random.default_rng(1)
        rho = random_state((2, 2), rng)
        g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        v, _ = np.linalg.qr(g)
        povm = Povm(tuple(np.outer(r.conj(), r) for r in v))
        ch = quantum_to_classical(povm)
        out = apply_on_subsystem(ch, rho, 1)
        direct = mutual_information(out, (0,))
        from qbroadcast.info import entropy

        rho4 = rho.matrix.reshape(2, 2, 2, 2)
        fast = _classical_mi_stack(rho4, entropy(rho.marginal((0,))), v[None])[0]
        assert abs(direct - fast) < 1e-10


class TestDiscord:
    def test_product_state_zero(self):
        rng = np.random.default_rng(2)
        rho = random_state(2, rng).tensor(random_state(2, rng))
        res = discord(rho, restarts=4)
        assert abs(res.value) < 1e-7
        assert res.converged

    def test_classical_classical_zero(self):
        rng = np.random.default_rng(3)
        rho = classical_classical_state(2, 2, rng)
        res = discord(rho, restarts=6)
        assert res.value < 1e-7
        assert res.value >= -1e-8

    def test_bell_equals_one_and_matches_grid_oracle(self):
        res = discord(bell_state(), restarts=4)
        assert abs(res.value - 1.0) < 1e-4
        oracle_mi = grid_best_projective_mi(bell_state())
        oracle = mutual_information(bell_state(), (0,)) - oracle_mi
        assert abs(res.value - oracle) < 1e-4

    def test_value_decomposition_invariant(self):
        rng = np.random.default_rng(4)
        rho = random_state((2, 2), rng)
        res = discord(rho, restarts=6)
        mi = mutual_information(rho, (0,))
        assert abs(res.value - (mi - res.classical_mi)) < 1e-9
        assert res.value >= -1e-8
        assert res.restarts == 6

    def test_classical_on_b_sides_differ(self):
        rng = np.random.default_rng(5)
        rho = classical_on_b_state(2, 2, rng)
        on_b = discord(rho, side="B", restarts=6)
        on_a = discord(rho, side="A", restarts=6)
        assert on_b.value < 1e-7
        assert on_a.value > 1e-3

    def test_side_a_equals_swapped_side_b(self):
        rng = np.random.default_rng(6)
        rho = random_state((2, 2), rng)
        res_a = discord(rho, side="A", seed=3, restarts=4)
        res_b = discord(_swap_sides(rho), side="B", seed=3, restarts=4)
        assert abs(res_a.value - res_b.value) < 1e-7

    def test_werner_has_discord(self):
        res = discord(werner_state(0.7), restarts=4)
        assert res.value > 1e-3
        assert res.converged

    def test_single_restart_reports_convergence(self):
        res = discord(werner_state(0.7), restarts=1)
        assert res.converged
        assert res.grad_norm <= 1e-6

    def test_small_gains_keep_stepping_until_stationary(self):
        # on this 3x3 state a step gains < SWEEP_GAIN_FLOOR while the
        # gradient norm is still ~3e-6; stopping there left it unconverged
        rng = np.random.default_rng(5)
        for dims in [(2, 2)] * 4 + [(2, 3)] * 4 + [(3, 3)]:
            rho = random_state(dims, rng)
        res = discord(rho, restarts=4)
        assert res.converged
        assert res.grad_norm <= STATIONARY_GRAD

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_ascent_generator_matches_finite_difference(self, dims):
        # d/dt I(exp(tY) v) at t = 0 is 2 Re Tr(Y^dag X) for anti-Hermitian Y
        rng = np.random.default_rng(sum(dims))
        rho = random_state(dims, rng)
        d_a, d_b = dims
        k = d_b * d_b
        rho4 = rho.matrix.reshape(d_a, d_b, d_a, d_b)
        s_a = entropy(rho.marginal((0,)))
        g = rng.normal(size=(k, d_b)) + 1j * rng.normal(size=(k, d_b))
        v = np.linalg.qr(g)[0][:, :d_b]
        x = _ascent_generator(rho4, v)
        assert np.abs(x + x.conj().T).max() < 1e-12
        step = 1e-5
        for _ in range(3):
            h = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            y = (h - h.conj().T) / 2
            ends = np.stack(
                [scipy.linalg.expm(t * y) @ v for t in (step, -step)]
            )
            plus, minus = _classical_mi_stack(rho4, s_a, ends)
            numeric = (plus - minus) / (2 * step)
            analytic = 2 * np.vdot(y, x).real
            assert abs(numeric - analytic) <= 1e-6 * abs(analytic)

    @pytest.mark.parametrize("dims, rank, padded", [
        ((3, 2), 2, False),  # every conditional state on A has a kernel
        ((2, 2), None, True),  # two zero-weight outcomes
        ((2, 3), None, True),
        ((3, 2), 2, True),
    ])
    def test_ascent_generator_matches_finite_difference_at_the_support_edge(
        self, dims, rank, padded
    ):
        # score and gradient cut each conditional state to its own support
        rng = np.random.default_rng(sum(dims) + 10 * padded)
        rho = random_state(dims, rng, rank=rank)
        d_a, d_b = dims
        k = d_b * d_b
        rho4 = rho.matrix.reshape(d_a, d_b, d_a, d_b)
        s_a = entropy(rho.marginal((0,)))
        if padded:
            v = _projective_rows(random_unitary(d_b, rng), k)
        else:
            g = rng.normal(size=(k, d_b)) + 1j * rng.normal(size=(k, d_b))
            v = np.linalg.qr(g)[0][:, :d_b]
        x = _ascent_generator(rho4, v)
        step = 1e-5
        for _ in range(3):
            h = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            y = (h - h.conj().T) / 2
            ends = np.stack(
                [scipy.linalg.expm(t * y) @ v for t in (step, -step)]
            )
            plus, minus = _classical_mi_stack(rho4, s_a, ends)
            numeric = (plus - minus) / (2 * step)
            analytic = 2 * np.vdot(y, x).real
            assert abs(numeric - analytic) <= 1e-6 * abs(analytic)

    def test_bell_diagonal_matches_closed_form(self):
        # Luo, PRA 77, 042303 (2008): for rho = (I + sum_j c_j s_j x s_j)/4,
        # D = I(A:B) - C(c) with C(c) = sum_(s=+-1) (1 + s c)/2 log2(1 + s c)
        # and c = max_j |c_j|
        rng = np.random.default_rng(42)
        bell = np.array(
            [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]
        ) / np.sqrt(2)
        paulis = [
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.diag([1.0, -1.0]),
        ]
        states = [werner_state(0.3), werner_state(0.7)]
        for _ in range(6):
            weights = rng.dirichlet([1] * 4)
            mat = sum(p * np.outer(b, b) for p, b in zip(weights, bell))
            states.append(DensityMatrix((2, 2), mat.astype(complex)))
        for rho in states:
            c = max(
                abs(np.trace(rho.matrix @ np.kron(s, s)).real) for s in paulis
            )
            classical = sum(
                (1 + s * c) / 2 * np.log2(1 + s * c)
                for s in (1, -1)
                if 1 + s * c > 0
            )
            expected = mutual_information(rho, (0,)) - classical
            assert abs(discord(rho, restarts=4).value - expected) < 1e-8

    def test_best_povm_is_valid_and_reproduces_value(self):
        rng = np.random.default_rng(7)
        rho = random_state((2, 2), rng)
        res = discord(rho, restarts=6)
        ch = quantum_to_classical(res.best_povm)
        out = apply_on_subsystem(ch, rho, 1)
        assert abs(mutual_information(out, (0,)) - res.classical_mi) < 1e-9

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError, match="side"):
            discord(bell_state(), side="C")

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_rejects_fewer_than_one_restart(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            discord(bell_state(), restarts=restarts)

    @pytest.mark.parametrize("make", [
        lambda rng: random_state((2, 2), rng),
        lambda rng: classical_classical_state(2, 2, rng),
    ], ids=["random-2x2", "classical-classical"])
    def test_restarts_stay_independent(self, make):
        # the starts for r restarts are a prefix of those for r + 1, and a
        # restart ends where it would alone, so adding one never loses
        rho = make(np.random.default_rng(11))
        found = [discord(rho, restarts=r).classical_mi for r in range(1, 9)]
        assert all(a <= b for a, b in zip(found, found[1:]))

    def test_one_line_search_call_per_lockstep_step(self, monkeypatch):
        # every live restart rides in the one minimize_scalar call of a
        # step; restarts only leave the lockstep, so the lanes per call
        # never grow, and no restart makes more than MAX_STEPS steps
        lanes = []

        def counted(fun, bounds, **kwargs):
            lanes.append(np.size(bounds[0]))
            return minimize_scalar(fun, bounds=bounds, **kwargs)

        monkeypatch.setattr(broadcast_module, "minimize_scalar", counted)
        rho = random_state((2, 2), np.random.default_rng(12))
        discord(rho, restarts=8)
        assert lanes[0] == 8
        assert all(a >= b >= 1 for a, b in zip(lanes, lanes[1:]))
        assert len(lanes) <= MAX_STEPS
        assert len(lanes) < sum(lanes)

    def test_line_searches_take_few_evaluations(self, monkeypatch):
        # each stacked call of a line search scores its slowest lane once;
        # a refinement that starts from three scored points needs only a few
        calls = []

        def counted(fun, bounds, **kwargs):
            calls.append(0)

            def each(*args):
                calls[-1] += 1
                return fun(*args)

            return minimize_scalar(each, bounds=bounds, **kwargs)

        monkeypatch.setattr(broadcast_module, "minimize_scalar", counted)
        discord(random_state((2, 2), np.random.default_rng(12)), restarts=8)
        assert np.median(calls) <= 10


class TestParabolicLanes:
    # brackets (a, b) whose middle is lowest, with the true minimum: a
    # lopsided lane, a flat-bottomed quartic, a constant and smooth minima
    LANES = (
        (lambda x: math.exp(x) - 2 * x, -3.0, 3.0, 2 - 2 * math.log(2)),
        (lambda x: (x - 0.7) ** 4, 0.0, 1.0, 0.0),
        (lambda x: 1.0, -1.0, 1.0, 1.0),
        (lambda x: math.cos(x), 2.0, 4.5, -1.0),
        (lambda x: x * x + x ** 3, -0.5, 0.6, 0.0),
    )

    def test_each_lane_ends_at_its_minimum(self):
        calls = []

        def stacked(x, lanes):
            calls.append(lanes.tolist())
            return np.array([self.LANES[i][0](t) for i, t in zip(lanes, x)])

        lo, hi = (np.array([lane[j] for lane in self.LANES]) for j in (1, 2))
        fvals = np.array(
            [[f(a), f((a + b) / 2), f(b)] for f, a, b, _ in self.LANES]
        )
        res = minimize_scalar(stacked, bounds=(lo, hi), method=_parabolic_lanes,
                              options={"xatol": 1e-7, "x0": (lo + hi) / 2,
                                       "fvals": fvals})
        for i, (f, _, _, least) in enumerate(self.LANES):
            assert res.fun[i] == f(res.x[i])
            assert res.fun[i] <= fvals[i, 1]
            assert abs(res.fun[i] - least) <= 1e-12
        nfev = np.bincount(sum(calls, []), minlength=len(self.LANES))
        assert nfev[2] == 0  # the constant lane
        # one stacked call per iteration, over the lanes still running
        for j, lanes in enumerate(calls):
            assert lanes == np.flatnonzero(nfev > j).tolist()
        assert nfev.max() <= 20  # against an iteration cap of 500

    def test_own_minimize_scalar_calls_the_method_as_scipy_does(self):
        def stacked(x, lanes):
            return np.array([self.LANES[i][0](t) for i, t in zip(lanes, x)])

        lo, hi = (np.array([lane[j] for lane in self.LANES]) for j in (1, 2))
        fvals = np.array(
            [[f(a), f((a + b) / 2), f(b)] for f, a, b, _ in self.LANES]
        )
        options = {"xatol": 1e-7, "x0": (lo + hi) / 2, "fvals": fvals}
        ours, scipys = (
            call(stacked, bounds=(lo, hi), method=_parabolic_lanes,
                 options=options)
            for call in (broadcast_module.minimize_scalar, minimize_scalar)
        )
        for attr in ("x", "fun"):
            assert getattr(ours, attr).tobytes() == getattr(scipys, attr).tobytes()


def test_the_package_runs_without_scipy_optimize():
    # a fresh interpreter, since this file itself imports scipy.optimize
    script = (
        "import sys\n"
        "from qbroadcast import (broadcast_report, ghz_state, recovery_report,\n"
        "                        werner_state)\n"
        "broadcast_report(werner_state(0.7), restarts=2)\n"
        "recovery_report(ghz_state())\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("d", [2, 3, 4])
def test_swap_eigenspaces_are_written_down(d):
    # I_B x {|ii>, (|ij> +- |ji>)/sqrt 2}: isometries that together resolve
    # the identity, each in its eigenspace of I_B x SWAP, entries 0, +-1/sqrt 2, 1
    swap = np.eye(d * d)[[(k % d) * d + k // d for k in range(d * d)]]
    i_swap = np.kron(np.eye(d), swap)
    plus, minus = _swap_eigenspaces(d)
    assert plus.shape == (d ** 3, d * d * (d + 1) // 2)
    assert minus.shape == (d ** 3, d * d * (d - 1) // 2)
    for v, sign in ((plus, 1.0), (minus, -1.0)):
        assert max_abs(v.conj().T @ v - np.eye(v.shape[1])) < 1e-15
        assert np.array_equal(i_swap @ v, sign * v)
        assert np.isin(v, [0.0, 1.0, np.sqrt(0.5), -np.sqrt(0.5)]).all()
    both = plus @ plus.conj().T + minus @ minus.conj().T
    assert max_abs(both - np.eye(d ** 3)) < 1e-15


class TestFMaxBroadcast:
    def test_classical_on_b_reaches_one(self):
        rng = np.random.default_rng(8)
        rho = classical_on_b_state(2, 2, rng)
        value, channel = f_max_broadcast(rho)
        assert abs(value - 1.0) < 1e-6
        assert isinstance(channel, Channel)
        assert channel.out_dims == (2, 2)

    def test_pure_b_marginal_trivially_broadcastable(self):
        rng = np.random.default_rng(9)
        rho = random_state(2, rng).tensor(
            DensityMatrix((2,), np.diag([1.0, 0.0]).astype(complex))
        )
        value, _ = f_max_broadcast(rho)
        assert abs(value - 1.0) < 1e-6

    def test_bell_strictly_below_one_above_discord_bound(self):
        value, _ = f_max_broadcast(bell_state())
        assert value >= SQRT_HALF - 1e-6
        assert value <= 1.0 - 1e-3

    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_werner_below_one(self, p):
        value, _ = f_max_broadcast(werner_state(p))
        assert value <= 1.0 - 1e-3

    def test_optimal_channel_achieves_reported_value(self):
        rho = werner_state(0.7)
        value, channel = f_max_broadcast(rho)
        out = apply_on_subsystem(channel, rho, 1)
        achieved = fidelity(rho, out.marginal((0, 2)))
        assert achieved >= value - 1e-4

    def test_symmetrizing_never_hurts_and_never_beats_optimum(self):
        rho = werner_state(0.5)
        value, _ = f_max_broadcast(rho)
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        big = np.kron(np.eye(2), swap)
        rng = np.random.default_rng(10)
        for _ in range(3):
            raw = reinterpret_outputs(random_channel(2, 4, rng), (2, 2))
            sym = Channel((2,), (2, 2), (raw.choi + big @ raw.choi @ big) / 2)
            out_raw = apply_on_subsystem(raw, rho, 1)
            f_parts = [
                fidelity(rho, out_raw.marginal((0, 2))),
                fidelity(rho, out_raw.marginal((0, 1))),
            ]
            out_sym = apply_on_subsystem(sym, rho, 1)
            f_sym = fidelity(rho, out_sym.marginal((0, 2)))
            assert f_sym >= 0.5 * sum(f_parts) - 1e-9
            assert f_sym <= value + 1e-6

    def test_channel_is_swap_covariant_on_qutrit_b(self):
        rng = np.random.default_rng(15)
        rho = random_state((2, 3), rng)
        _, channel = f_max_broadcast(rho)
        out = apply_on_subsystem(channel, rho, 1)
        assert np.abs(
            out.marginal((0, 1)).matrix - out.marginal((0, 2)).matrix
        ).max() < 1e-6
        swap = np.zeros((9, 9))
        for i in range(3):
            for j in range(3):
                swap[j * 3 + i, i * 3 + j] = 1.0
        big = np.kron(np.eye(3), swap)
        assert np.abs(big @ channel.choi - channel.choi @ big).max() < 1e-6

    def test_large_b_dimension_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="too large"):
            f_max_broadcast(random_state((2, 5), rng))


@settings(max_examples=8, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 10 ** 6))
def test_fidelity_chain_on_random_states(d_a, seed):
    rho = random_state((d_a, 2), np.random.default_rng(seed))
    f_max, _ = f_max_broadcast(rho)
    detail = f_eb_detailed(rho)
    assert f_max >= detail.value - 1e-6
    assert detail.value >= detail.lower_bound - 1e-6
    assert detail.lower_bound >= detail.value - 1e-6


@settings(max_examples=3, derandomize=True, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_fidelity_chain_on_random_qutrit_b_states(seed):
    rho = random_state((2, 3), np.random.default_rng(seed))
    f_max, _ = f_max_broadcast(rho)
    detail = f_eb_detailed(rho)
    assert f_max >= detail.value - 1e-6
    assert detail.value >= detail.lower_bound - 1e-6


class TestFEb:
    def test_bell_value_frozen(self):
        # the best entanglement-breaking approximation of a Bell pair has
        # squared overlap 1/2, so the fidelity is exactly 2^(-1/2)
        detail = f_eb_detailed(bell_state())
        assert abs(detail.value - SQRT_HALF) < 1e-6
        assert detail.eb_exact
        assert detail.lower_bound <= detail.value + 1e-6
        assert detail.lower_bound >= SQRT_HALF - 1e-3

    def test_classical_on_b_reaches_one(self):
        rng = np.random.default_rng(12)
        rho = classical_on_b_state(2, 2, rng)
        detail = f_eb_detailed(rho)
        assert abs(detail.value - 1.0) < 1e-6
        assert detail.lower_bound > 1.0 - 1e-6

    def test_product_state_reaches_one(self):
        rng = np.random.default_rng(13)
        rho = random_state(2, rng).tensor(random_state(2, rng))
        assert abs(f_eb(rho) - 1.0) < 1e-6

    def test_f_eb_is_the_detailed_value(self):
        # f_eb solves only the PPT program of f_eb_detailed
        rho = random_state((2, 3), np.random.default_rng(15))
        assert f_eb(rho) == f_eb_detailed(rho).value

    def test_never_above_f_max(self):
        rng = np.random.default_rng(14)
        for rho in (
            bell_state(),
            werner_state(0.6),
            random_state((2, 2), rng),
        ):
            fmax, _ = f_max_broadcast(rho)
            assert f_eb(rho) <= fmax + 1e-6

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_lower_bound_is_the_fidelity_of_its_channel(
        self, dims, monkeypatch
    ):
        # both B dimensions build one explicit entanglement-breaking
        # channel, and the bound is exactly the fidelity of its output
        import qbroadcast.broadcast as module

        channels = []

        def spy(build):
            def built(*args):
                channels.append(build(*args))
                return channels[-1]
            return built

        for name in ("entanglement_breaking", "_qubit_eb_channel"):
            monkeypatch.setattr(module, name, spy(getattr(module, name)))
        rho = random_state(dims, np.random.default_rng(16))
        detail = f_eb_detailed(rho)
        (ch,) = channels
        assert detail.lower_bound == fidelity(
            rho, apply_on_subsystem(ch, rho, 1)
        )
        assert detail.lower_bound <= detail.value + 1e-6


def isotropic_state(d: int, p: float) -> DensityMatrix:
    """rho_p = p Phi_d + (1 - p) I / d^2, Phi_d maximally entangled."""
    phi = np.zeros(d * d)
    phi[:: d + 1] = d ** -0.5
    mixed = np.eye(d * d) / d ** 2
    return DensityMatrix((d, d), p * np.outer(phi, phi) + (1 - p) * mixed)


def isotropic_fidelity(d: int, p: float, q: float) -> float:
    """F(rho_p, rho_q): both are diagonal in one basis, with weight
    x + (1 - x) / d^2 on Phi_d and (1 - x) / d^2 on each of the other
    d^2 - 1 vectors, so F is a sum of two square roots."""
    lo_p, lo_q = (1 - p) / d ** 2, (1 - q) / d ** 2
    return math.sqrt((p + lo_p) * (q + lo_q)) + (d * d - 1) * math.sqrt(lo_p * lo_q)


def cloning_shrink(d: int) -> float:
    """The largest shrink of a symmetric 1 -> 2 broadcast (optimal cloning)."""
    return (d + 2) / (2 * (d + 1))


def eb_shrink(d: int) -> float:
    """The largest shrink of an entanglement-breaking (or PPT) channel."""
    return 1 / (d + 1)


ISOTROPIC = [(d, p) for d in (2, 3) for p in (0.3, 0.7, 1.0)]


@pytest.fixture(scope="module")
def isotropic_solves():
    """Per (d, p): the f_max and f_eb solutions and the f_eb detail.

    A twirl makes an optimal channel covariant, so depolarizing with some
    shrink eta, and its output on rho_p is rho_{eta p}."""
    solved = {}
    for d, p in ISOTROPIC:
        with recording() as records:
            f_max_broadcast(isotropic_state(d, p))
            detail = f_eb_detailed(isotropic_state(d, p))
        (_, f_max_sol), (_, f_eb_sol) = records[:2]
        solved[d, p] = f_max_sol, f_eb_sol, detail
    return solved


def closed_form_misses(solved, d, p, shrinks, tol=DEFAULT_TOL) -> list:
    """The checks of the SDP optima against F(rho_p, rho_{eta p}) that fail.

    The primal may fall short by ``fidelity_slack(tol)`` and the dual
    overshoot by as much; neither may pass the optimum by more than
    ``tol``, and the measure-and-prepare bound stays below it."""
    f_max_sol, f_eb_sol, detail = solved[d, p]
    exact = [isotropic_fidelity(d, p, eta * p) for eta in shrinks]
    slack, misses = fidelity_slack(tol), []
    for name, sol, want in zip(("f_max", "f_eb"), (f_max_sol, f_eb_sol), exact):
        if not want - slack <= sol.primal_value <= want + tol:
            misses.append(f"{name} primal {sol.primal_value} vs {want}")
        if not want - tol <= sol.dual_value <= want + slack:
            misses.append(f"{name} dual {sol.dual_value} vs {want}")
    if not detail.lower_bound <= exact[1] + tol:
        misses.append(f"lower_bound {detail.lower_bound} above {exact[1]}")
    if detail.eb_exact != (d == 2):
        misses.append(f"eb_exact {detail.eb_exact}")
    return misses


class TestIsotropicClosedForms:
    """f_max and f_eb of isotropic states against their closed forms."""

    @pytest.mark.parametrize("d, p", ISOTROPIC)
    def test_optima_meet_the_closed_forms(self, isotropic_solves, d, p):
        shrinks = (cloning_shrink(d), eb_shrink(d))
        assert closed_form_misses(isotropic_solves, d, p, shrinks) == []

    @pytest.mark.parametrize("d, p", ISOTROPIC)
    @pytest.mark.parametrize("off", [-1e-3, 1e-3])
    def test_a_shrink_off_by_1e_3_is_caught(self, isotropic_solves, d, p, off):
        for shrinks, name in (
            ((cloning_shrink(d) + off, eb_shrink(d)), "f_max"),
            ((cloning_shrink(d), eb_shrink(d) + off), "f_eb"),
        ):
            misses = closed_form_misses(isotropic_solves, d, p, shrinks)
            assert any(m.startswith(name) for m in misses)


class TestQubitEbChannelAndSolveCounts:
    """The qubit-B bound's channel is the PPT optimum's own; no solve
    follows the PPT program for a qubit B, and d_B >= 3 keeps the ascent."""

    def test_qubit_channel_is_the_ppt_optimum_with_pd_partial_transpose(self):
        for rho in (bell_state(), werner_state(0.7),
                    random_state((3, 2), np.random.default_rng(41))):
            _, solution = _f_eb_solve(rho, 1e-7, 500)
            choi = solution.primal_blocks[0]
            ch = _qubit_eb_channel(choi)
            pt = _partial_transpose_output(ch.choi, 2, 2)
            assert np.linalg.eigvalsh(pt)[0] > 0
            projected = project_to_nearest_channel(choi, (2,), (2,))
            assert max_abs(ch.choi - projected.choi) <= 1e-8

    def test_choi_far_from_ppt_is_refused(self):
        with pytest.raises(RuntimeError, match="not positive definite"):
            _qubit_eb_channel(identity_channel(2).choi)

    def test_qubit_b_needs_no_further_solve(self):
        with recording() as records:
            detail = f_eb_detailed(werner_state(0.7))
        assert [what for what, _ in records] == ["EB broadcast"]
        assert abs(detail.lower_bound - detail.value) <= 1e-6

    def test_qutrit_b_keeps_the_measure_and_prepare_ascent(self):
        rho = random_state((2, 3), np.random.default_rng(42))
        with recording() as records:
            detail = f_eb_detailed(rho)
        labels = [what for what, _ in records]
        assert labels[0] == "EB broadcast"
        assert "measure-and-prepare measurement" in labels
        assert not detail.eb_exact
        assert detail.lower_bound <= detail.value + 1e-6


class TestMeasurementCopy:
    def test_single_copy_equals_measurement_channel(self):
        povm = build_ic_povm(2)
        ch = measurement_copy_broadcaster(povm, 1)
        assert max_abs(ch.choi - quantum_to_classical(povm).choi) < 1e-10

    def test_two_copies_broadcast_classical_state(self):
        probs = np.array([0.3, 0.2, 0.4, 0.1])
        mat = np.diag(probs).astype(complex)
        rho = DensityMatrix((2, 2), mat)
        povm = Povm.from_basis(np.eye(2, dtype=complex))
        ch = measurement_copy_broadcaster(povm, 2)
        out = apply_on_subsystem(ch, rho, 1)
        for keep in ((0, 1), (0, 2)):
            assert trace_norm(out.marginal(keep).matrix - rho.matrix) < 1e-9

    def test_all_marginals_identical(self):
        rng = np.random.default_rng(15)
        povm = build_ic_povm(2)
        ch = measurement_copy_broadcaster(povm, 3)
        rho = random_state((2, 2), rng)
        out = apply_on_subsystem(ch, rho, 1)
        first = out.marginal((0, 1)).matrix
        for i in (2, 3):
            assert max_abs(out.marginal((0, i)).matrix - first) < 1e-10

    def test_rejects_bad_inputs(self):
        povm = build_ic_povm(2)
        with pytest.raises(ValueError, match="copies"):
            measurement_copy_broadcaster(povm, 0)


class TestAverageMiLoss:
    def test_zero_for_exact_classical_broadcast(self):
        probs = np.array([0.3, 0.2, 0.4, 0.1])
        rho = DensityMatrix((2, 2), np.diag(probs).astype(complex))
        povm = Povm.from_basis(np.eye(2, dtype=complex))
        ch = measurement_copy_broadcaster(povm, 2)
        assert abs(average_mi_loss(rho, ch)) < 1e-9

    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_measurement_copy_loss_equals_discord(self, copies):
        rng = np.random.default_rng(16)
        rho = random_state((2, 2), rng)
        res = discord(rho, restarts=6)
        ch = measurement_copy_broadcaster(res.best_povm, copies)
        loss = average_mi_loss(rho, ch)
        assert abs(loss - res.value) < 1e-6

    def test_bell_loses_under_every_two_register_channel(self):
        rng = np.random.default_rng(17)
        channels = [
            measurement_copy_broadcaster(build_ic_povm(2), 2),
            measurement_copy_broadcaster(
                Povm.from_basis(np.eye(2, dtype=complex)), 2
            ),
            reinterpret_outputs(random_channel(2, 4, rng), (2, 2)),
        ]
        for ch in channels:
            loss = average_mi_loss(bell_state(), ch)
            assert loss > 1e-3
            assert loss >= -1e-8

    def test_loss_nonnegative_for_random_channels(self):
        rng = np.random.default_rng(18)
        rho = random_state((2, 2), rng)
        for _ in range(5):
            ch = reinterpret_outputs(random_channel(2, 4, rng), (2, 2))
            assert average_mi_loss(rho, ch) >= -1e-8

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(19)
        rho = random_state((2, 3), rng)
        ch = measurement_copy_broadcaster(build_ic_povm(2), 2)
        with pytest.raises(ValueError, match="dim"):
            average_mi_loss(rho, ch)


class TestBroadcastReport:
    def test_classical_state_report(self):
        rng = np.random.default_rng(20)
        rho = classical_on_b_state(2, 2, rng)
        report = broadcast_report(rho, restarts=6)
        assert abs(report.f_max - 1.0) < 1e-6
        assert report.discord.value < 1e-6
        assert report.exact.classical_on_b
        assert report.f_max >= report.f_eb - 1e-6
        assert report.discord.value >= report.discord_bound_eb - 1e-6

    def test_bell_report_chain_is_tight(self):
        report = broadcast_report(bell_state(), restarts=4)
        assert abs(report.f_eb - SQRT_HALF) < 1e-6
        assert abs(report.discord_bound_eb - 1.0) < 1e-4
        assert abs(report.discord.value - 1.0) < 1e-4
        assert report.f_max >= report.f_eb - 1e-6
        assert report.discord_bound_max <= report.discord_bound_eb + 1e-6
        assert report.eb_exact
        assert not report.exact.classical_on_b
        assert isinstance(report, BroadcastReport)

    # classical-on-B states whose best measured MI lands a few ulps above I(A:B)
    @pytest.mark.parametrize("rho", [
        *(pytest.param(classical_on_b_state(2, 2, np.random.default_rng(s)),
                       id=f"cq-seed{s}") for s in (0, 1, 7, 8, 11)),
        pytest.param(named_state("cq"), id="named-cq"),
    ])
    def test_classical_on_b_discord_and_bounds_are_plain_zeros(self, rho):
        report = broadcast_report(rho, restarts=4)
        assert report.discord.value >= 0.0
        for bound in (report.discord_bound_eb, report.discord_bound_max):
            assert math.copysign(1.0, bound) == 1.0

    def test_large_b_is_refused_before_the_discord_search(self, monkeypatch):
        import qbroadcast.broadcast as module

        def no_discord(*args, **kwargs):
            raise AssertionError("discord ran before the dimension check")

        monkeypatch.setattr(module, "discord", no_discord)
        rho = random_state((2, 5), np.random.default_rng(5))
        with pytest.raises(ValueError, match="too large"):
            broadcast_report(rho, restarts=1)


class TestClassifyOnce:
    def test_report_reuses_the_discord_verdict(self, monkeypatch):
        import qbroadcast.broadcast as module

        calls = []

        def counting(rho):
            calls.append(rho)
            return classify(rho)

        monkeypatch.setattr(module, "classify", counting)
        report = broadcast_report(werner_state(0.7), restarts=2)
        assert len(calls) == 1
        assert report.exact is report.discord.verdict

    def test_verdict_has_the_measured_side_second(self):
        rho = classical_on_b_state(2, 2, np.random.default_rng(21))
        direct = classify(rho)
        assert direct.classical_on_b and not direct.classical_on_a
        swapped = discord(rho, side="A", restarts=2).verdict
        assert swapped.classical_on_a and not swapped.classical_on_b
        assert swapped.witness_b == pytest.approx(direct.witness_a)


class TestReportChain:
    """A report checks the paper's chain when built, from Python too."""

    def test_lower_bound_above_f_eb_raises(self, monkeypatch):
        import qbroadcast.broadcast as module

        original = module.f_eb_detailed

        def inflated(*args, **kwargs):
            detail = original(*args, **kwargs)
            return EbDetail(detail.value, detail.value + 1e-3, detail.eb_exact)

        monkeypatch.setattr(module, "f_eb_detailed", inflated)
        with pytest.raises(RuntimeError, match="f_eb >= f_eb_lower"):
            broadcast_report(bell_state(), restarts=2)

    def test_replace_checks_again_and_keeps_the_recorded_solves(self):
        with recording() as records:
            report = broadcast_report(bell_state(), restarts=2)
        solutions = dict(records)
        assert report.f_max_solution is solutions["broadcast"]
        assert report.f_eb_solution is solutions["EB broadcast"]
        assert report.tol == DEFAULT_TOL
        with pytest.raises(RuntimeError, match="f_max >= f_eb"):
            dataclasses.replace(report, f_eb=report.f_max + 1e-3)


class TestOneDimensionalFactors:
    @pytest.mark.parametrize(
        "fn, name, dims",
        [
            (discord, "discord", (2, 1)),
            (discord, "discord", (1, 2)),
            (f_eb_detailed, "f_eb_detailed", (2, 1)),
            (broadcast_report, "broadcast_report", (2, 1)),
            (broadcast_report, "broadcast_report", (1, 2)),
        ],
    )
    def test_refused_up_front_by_name(self, fn, name, dims):
        rho = random_state(dims, np.random.default_rng(7))
        with recording() as records:
            with pytest.raises(ValueError, match=rf"^{name} .*{re.escape(str(dims))}$"):
                fn(rho)
        assert records == []

    def test_f_eb_detailed_keeps_a_one_dimensional_a(self):
        detail = f_eb_detailed(random_state((1, 2), np.random.default_rng(7)))
        assert detail.eb_exact
        assert detail.lower_bound <= detail.value + 1e-6
