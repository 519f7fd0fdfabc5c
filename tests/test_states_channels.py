import numpy as np
import pytest

from qbroadcast.channels import (
    Channel,
    CompletelyPositiveMap,
    apply,
    apply_on_subsystem,
    channel_from_kraus,
    choi_from_action,
    choi_subsystem_action,
    entanglement_breaking,
    identity_channel,
    kraus_from_choi,
    project_to_nearest_channel,
    quantum_to_classical,
    stinespring,
    trace_out_channel,
)
from qbroadcast.broadcast import measurement_copy_broadcaster
from qbroadcast.classicality import basis_broadcaster
from qbroadcast.corpus import random_channel, random_state, random_unitary
from qbroadcast.frames import build_ic_povm
from qbroadcast.linalg import dag, kron, max_abs, partial_trace
from qbroadcast.states import DensityMatrix, Povm, PureState


class TestDensityMatrixValidation:
    def test_accepts_valid(self):
        rho = DensityMatrix((2,), np.diag([0.75, 0.25]))
        assert rho.dim == 2

    def test_rejects_nonhermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix((2,), m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix((2,), np.diag([0.9, 0.2]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive"):
            DensityMatrix((2,), np.diag([1.1, -0.1]))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            DensityMatrix((2, 2), np.eye(2) / 2)

    def test_rejects_dims_whose_size_overflows_int64(self):
        # 3 * 6148914691236517206 = 2^64 + 2, which int64 wraps to 2
        big = (3, 6148914691236517206)
        with pytest.raises(ValueError, match="shape"):
            DensityMatrix(big, np.eye(2) / 2)
        with pytest.raises(ValueError, match="length"):
            PureState(big, [1.0, 0.0])
        with pytest.raises(ValueError, match="Choi shape"):
            CompletelyPositiveMap((1,), big, np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, bad):
        # every comparison with NaN is False, so no tolerance test fails
        m = np.eye(2, dtype=complex) / 2
        m[0, 0] = bad
        with pytest.raises(ValueError, match="not finite"):
            DensityMatrix((2,), m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pure_state_rejects_non_finite_amplitude(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            PureState((2,), [bad, 1.0])

    def test_matrix_is_readonly(self):
        rho = DensityMatrix((2,), np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 3.0

    def test_marginal_of_product(self):
        rng = np.random.default_rng(0)
        a, b = random_state(2, rng), random_state(3, rng)
        ab = a.tensor(b)
        assert max_abs(ab.marginal(0).matrix - a.matrix) < 1e-10
        assert max_abs(ab.marginal(1).matrix - b.matrix) < 1e-10


class TestPovm:
    def test_accepts_projective(self):
        p = Povm.from_basis(np.eye(2))
        assert p.n_outcomes == 2

    def test_rejects_not_summing_to_identity(self):
        with pytest.raises(ValueError, match="identity"):
            Povm((np.eye(2) / 2, np.eye(2) / 3))

    def test_rejects_negative_element(self):
        with pytest.raises(ValueError, match="positive"):
            Povm((np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])))

    def test_born_probabilities(self):
        p = Povm.from_basis(np.eye(2))
        rho = DensityMatrix((2,), np.diag([0.75, 0.25]))
        assert max_abs(p.probabilities(rho) - np.array([0.75, 0.25])) < 1e-12


class TestChoiConvention:
    def test_identity_choi_is_maximally_entangled_projector(self):
        ch = identity_channel(2)
        # J = sum_ij |i><j| (x) |i><j| = vectorized identity outer itself
        v = np.eye(2).reshape(-1)
        assert max_abs(ch.choi - np.outer(v, v)) < 1e-12

    def test_apply_matches_kraus_action(self):
        rng = np.random.default_rng(2)
        ch = random_channel(3, 2, rng)
        rho = random_state(3, rng)
        kraus = kraus_from_choi(ch)
        direct = sum(k @ rho.matrix @ dag(k) for k in kraus)
        assert max_abs(apply(ch, rho).matrix - direct) < 1e-10

    def test_kraus_choi_roundtrip(self):
        rng = np.random.default_rng(3)
        ch = random_channel(2, 3, rng)
        back = channel_from_kraus(kraus_from_choi(ch), ch.in_dims, ch.out_dims)
        assert max_abs(back.choi - ch.choi) < 1e-9

    def test_trace_preservation_enforced(self):
        # half the identity channel is CP but not TP
        j = identity_channel(2).choi / 2
        with pytest.raises(ValueError, match="trace preserving"):
            Channel((2,), (2,), j)
        CompletelyPositiveMap((2,), (2,), j)  # fine as a plain CP map

    def test_complete_positivity_enforced(self):
        # transpose map is positive but not CP
        j = choi_from_action(lambda x: x.T, 2, 2)
        with pytest.raises(ValueError, match="completely positive"):
            CompletelyPositiveMap((2,), (2,), j)


class TestChoiStacks:
    def test_stacked_choi_action_equals_per_element_loop(self):
        rng = np.random.default_rng(8)
        shape = (5, 2 * 3, 2 * 3)  # raw (not CP) Choi matrices C^2 -> C^3
        stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        for dims, target in (((2, 2, 2), 1), ((2,), 0), ((2, 4), 0)):
            d = int(np.prod(dims))
            m = mat[:d, :d]
            got = choi_subsystem_action(stack, 2, 3, m, dims, target)
            want = [choi_subsystem_action(j, 2, 3, m, dims, target) for j in stack]
            assert got.shape == (5,) + want[0].shape
            assert max_abs(got - np.array(want)) < 1e-14


class TestChannelOps:
    def test_apply_preserves_state(self):
        rng = np.random.default_rng(4)
        ch = random_channel(4, 3, rng)
        out = apply(ch, random_state(4, rng))
        assert abs(out.matrix.trace() - 1) < 1e-10

    def test_stinespring_dilation(self):
        rng = np.random.default_rng(5)
        ch = random_channel(2, 3, rng)
        v = stinespring(ch)
        env = v.shape[0] // 3
        rho = random_state(2, rng)
        big = v @ rho.matrix @ dag(v)
        out = partial_trace(big, [3, env], [0])
        assert max_abs(out - apply(ch, rho).matrix) < 1e-9

    def test_apply_on_subsystem_matches_extended_channel(self):
        rng = np.random.default_rng(9)
        ch = random_channel(2, 3, rng)
        rho = random_state((2, 2, 2), rng)
        got = apply_on_subsystem(ch, rho, 1)
        assert got.dims == (2, 3, 2)
        # oracle: extend the Kraus operators by hand
        kraus = [kron(np.eye(2), k, np.eye(2)) for k in kraus_from_choi(ch)]
        want = sum(k @ rho.matrix @ dag(k) for k in kraus)
        assert max_abs(got.matrix - want) < 1e-9

    def test_trace_out_channel(self):
        rng = np.random.default_rng(10)
        rho = random_state((2, 3), rng)
        ch = trace_out_channel((2, 3), [0])
        assert max_abs(apply(ch, rho).matrix - rho.marginal(0).matrix) < 1e-10


# the three ways to keep some factors of a state, as (rho, keep) -> matrix
REDUCTIONS = {
    "partial_trace": lambda rho, keep: partial_trace(rho.matrix, rho.dims, keep),
    "marginal": lambda rho, keep: rho.marginal(keep).matrix,
    "trace_out_channel": lambda rho, keep: apply(
        trace_out_channel(rho.dims, keep), rho
    ).matrix,
}


class TestKeepIndices:
    @pytest.mark.parametrize("how", sorted(REDUCTIONS))
    def test_spellings_of_keep_give_one_reduction(self, how):
        rho = random_state((2, 3, 2), np.random.default_rng(4))
        reduce = REDUCTIONS[how]
        assert np.array_equal(reduce(rho, 1), reduce(rho, [1]))
        assert np.array_equal(reduce(rho, [1, 1]), reduce(rho, [1]))
        assert np.array_equal(reduce(rho, [2, 0]), reduce(rho, [0, 2]))

    @pytest.mark.parametrize("keep", [5, [0, 5], -1])
    @pytest.mark.parametrize("how", sorted(REDUCTIONS))
    def test_out_of_range_keep_is_refused(self, how, keep):
        rho = random_state((2, 3), np.random.default_rng(4))
        with pytest.raises(ValueError, match="out of range"):
            REDUCTIONS[how](rho, keep)

    @pytest.mark.parametrize("keep", [1.7, [0.9]])
    @pytest.mark.parametrize("how", sorted(REDUCTIONS))
    def test_fractional_keep_is_refused(self, how, keep):
        rho = random_state((2, 3), np.random.default_rng(4))
        with pytest.raises(ValueError, match="not an integer"):
            REDUCTIONS[how](rho, keep)


class TestMeasurementChannels:
    def test_quantum_to_classical_diagonal_born(self):
        rng = np.random.default_rng(11)
        basis = random_unitary(3, rng)
        povm = Povm.from_basis(basis)
        ch = quantum_to_classical(povm)
        rho = random_state(3, rng)
        out = apply(ch, rho)
        off = out.matrix - np.diag(np.diagonal(out.matrix))
        assert max_abs(off) < 1e-10
        assert max_abs(np.diagonal(out.matrix).real - povm.probabilities(rho)) < 1e-10

    def test_entanglement_breaking_choi_is_ppt(self):
        rng = np.random.default_rng(12)
        basis = random_unitary(2, rng)
        povm = Povm.from_basis(basis)
        preps = [random_state(2, rng) for _ in range(2)]
        ch = entanglement_breaking(povm, preps)
        rho = random_state(2, rng)
        want = sum(
            povm.probabilities(rho)[i] * preps[i].matrix for i in range(2)
        )
        assert max_abs(apply(ch, rho).matrix - want) < 1e-10
        # partial transpose on the output factor stays PSD
        j4 = ch.choi.reshape(2, 2, 2, 2)
        jpt = np.einsum("iojp->ipjo", j4).reshape(4, 4)
        assert np.linalg.eigvalsh(jpt)[0] > -1e-10


def _pure(dims, ket):
    return PureState(dims, ket).to_density()


@pytest.mark.parametrize("d", [2, 3])
class TestOneMeasurePreparePath:
    """Each measure-and-prepare constructor is entanglement_breaking with
    its preparations."""

    def test_quantum_to_classical(self, d):
        povm = build_ic_povm(d)
        k = povm.n_outcomes
        want = entanglement_breaking(povm, [_pure((k,), e) for e in np.eye(k)])
        assert max_abs(quantum_to_classical(povm).choi - want.choi) < 1e-12

    def test_basis_broadcaster(self, d):
        u = random_unitary(d, np.random.default_rng(d))
        preps = [_pure((d, d), np.kron(ket, ket)) for ket in u.T]
        want = entanglement_breaking(Povm.from_basis(u), preps)
        assert max_abs(basis_broadcaster(u).choi - want.choi) < 1e-12

    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_measurement_copy_broadcaster(self, d, copies):
        rng = np.random.default_rng(10 * d + copies)
        povm = Povm.from_basis(random_unitary(d, rng))
        preps = [
            _pure((d,) * copies, kron(*[ket] * copies)) for ket in np.eye(d)
        ]
        want = entanglement_breaking(povm, preps)
        got = measurement_copy_broadcaster(povm, copies)
        assert max_abs(got.choi - want.choi) < 1e-12


class TestChannelProjection:
    def test_projection_restores_cptp(self):
        rng = np.random.default_rng(13)
        ch = random_channel(2, 2, rng)
        noisy = ch.choi + 1e-7 * np.eye(4) * rng.normal()
        fixed = project_to_nearest_channel(noisy, (2,), (2,))
        assert max_abs(fixed.choi - ch.choi) < 1e-5

    def test_projection_handles_rank_deficient_trace(self):
        # a "channel" that forgets half the input space
        j = np.zeros((4, 4), dtype=complex)
        j[0, 0] = 1.0  # maps |0><0| to |0><0|, kills |1>
        fixed = project_to_nearest_channel(j, (2,), (2,))
        assert isinstance(fixed, Channel)
