import warnings

import numpy as np
import pytest

from qbroadcast import classicality
from qbroadcast.channels import apply
from qbroadcast.classicality import (
    basis_broadcaster,
    broadcast_mi_check,
    classify,
    common_eigenbasis,
    commute_test,
    verify_broadcast,
    verify_local_broadcast,
    verify_unilocal_broadcast,
)
from qbroadcast.corpus import (
    bell_state,
    classical_classical_state,
    classical_on_a_state,
    classical_on_b_state,
    random_channel,
    random_state,
    random_unitary,
    werner_state,
)
from qbroadcast.frames import build_ic_povm, conditional_states
from qbroadcast.info import mutual_information
from qbroadcast.linalg import (
    COMMUTE_TOL,
    WEIGHT_FLOOR,
    dag,
    hermitian_part,
    kron,
    max_abs,
)
from qbroadcast.states import DensityMatrix, PureState


def test_commute_test_diagonal_pair():
    a = DensityMatrix((2,), np.diag([0.7, 0.3]))
    b = DensityMatrix((2,), np.diag([0.2, 0.8]))
    ok, norm = commute_test(a, b)
    assert ok and norm < 1e-15


def test_commute_test_frozen_value():
    # [|0><0|, |+><+|] has max-entry modulus exactly 1/2
    p0 = DensityMatrix((2,), np.diag([1.0, 0.0]))
    plus = PureState((2,), np.array([1, 1]) / np.sqrt(2)).to_density()
    ok, norm = commute_test(p0, plus)
    assert not ok
    assert abs(norm - 0.5) < 1e-12


def test_common_eigenbasis_diagonalizes():
    rng = np.random.default_rng(0)
    u = random_unitary(4, rng)
    spectra = [rng.uniform(0, 1, size=4) for _ in range(3)]
    ops = [(u * s) @ dag(u) for s in spectra]
    basis = common_eigenbasis(ops, np.random.default_rng(1))
    for op in ops:
        rotated = dag(basis) @ op @ basis
        off = rotated - np.diag(np.diagonal(rotated))
        assert max_abs(off) < 1e-8


def test_common_eigenbasis_jointly_degenerate_block():
    # both operators are scalar on span{e0, e1}: the mixture is always
    # degenerate there, and any intra-block basis is fine
    a = np.diag([1.0, 1.0, 2.0])
    b = np.diag([2.0, 2.0, 3.0])
    basis = common_eigenbasis([a, b], np.random.default_rng(2))
    for op in (a, b):
        rotated = dag(basis) @ op @ basis
        off = rotated - np.diag(np.diagonal(rotated))
        assert max_abs(off) < 1e-8


def test_classify_degenerate_conditional_states_without_warning():
    # every conditional state on B is |0><0|, so every mixture of them is
    # degenerate on span{e1, e2}; any basis of that eigenspace will do
    m = kron(random_state(2, np.random.default_rng(1)).matrix,
             np.diag([1.0, 0.0, 0.0]))
    rho = DensityMatrix((2, 3), m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = classify(rho)
    assert verdict.classical_on_b
    basis = verdict.basis_b
    assert max_abs(dag(basis) @ basis - np.eye(3)) < 1e-10
    blocks = conditional_states(rho, np.array(build_ic_povm(2).elements), 0)
    weights = np.trace(blocks, axis1=1, axis2=2).real
    assert weights.min() > 1e-3  # every outcome occurs, so each block normalizes
    for block, w in zip(blocks, weights):
        rotated = dag(basis) @ (block / w) @ basis
        assert max_abs(rotated - np.diag(np.diagonal(rotated))) < 1e-8


def test_common_eigenbasis_of_one_operator_in_one_cluster(monkeypatch):
    # a huge degeneracy gap puts every eigenvalue into one cluster; with a
    # single operator each random mixture is a multiple of it, so the
    # basis must still diagonalize it
    monkeypatch.setattr(classicality, "DEGENERACY_GAP", 10.0)
    rng = np.random.default_rng(0)
    u = random_unitary(3, rng)
    a = (u * [1.0, 2.0, 3.0]) @ dag(u)
    basis = common_eigenbasis([a], np.random.default_rng(2))
    rotated = dag(basis) @ a @ basis
    off = rotated - np.diag(np.diagonal(rotated))
    assert max_abs(off) < 1e-8


def test_common_eigenbasis_splits_a_cluster_the_first_mixture_merges():
    # joint eigenvalues (a_j, b_j): columns 0 and 1 are jointly degenerate;
    # columns 2 and 3 differ in each operator, but the first mixture
    # c_a a + c_b b (the first draw of the rng) takes one value on both
    c_a, c_b = np.random.default_rng(5).uniform(0.5, 1.5, size=2)
    a = np.array([1.0, 1.0, 2.0, 3.0])
    b = np.array([0.5, 0.5, 1.0, 1.0 - c_a / c_b])
    u = random_unitary(4, np.random.default_rng(6))
    ops = [(u * a) @ dag(u), (u * b) @ dag(u)]
    basis = common_eigenbasis(ops, np.random.default_rng(5))
    assert max_abs(dag(basis) @ basis - np.eye(4)) < 1e-10
    for op in ops:
        rotated = dag(basis) @ op @ basis
        assert max_abs(rotated - np.diag(np.diagonal(rotated))) < 1e-8
    again = common_eigenbasis(ops, np.random.default_rng(5))
    assert np.array_equal(basis, again)


def _pairwise_side_witness(rho, measured):
    """Reference witness: a Python loop over every pair of normalized
    conditional states with weight above WEIGHT_FLOOR."""
    elements = np.array(build_ic_povm(rho.dims[measured]).elements)
    blocks = hermitian_part(conditional_states(rho, elements, measured))
    weights = np.trace(blocks, axis1=1, axis2=2).real
    supported = [b / w for b, w in zip(blocks, weights) if w > WEIGHT_FLOOR]
    witness = 0.0
    for i in range(len(supported)):
        for j in range(i + 1, len(supported)):
            x, y = supported[i], supported[j]
            witness = max(witness, float(np.linalg.norm(x @ y - y @ x, ord=2)))
    basis = None
    if witness < COMMUTE_TOL:
        basis = common_eigenbasis(supported, np.random.default_rng(8))
    return witness, basis


def _witness_cases():
    for dims in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        for seed in range(3):
            rng = np.random.default_rng(seed)
            tag = f"{dims[0]}x{dims[1]}-{seed}"
            yield pytest.param(random_state(dims, rng), id=f"random-{tag}")
            yield pytest.param(
                classical_classical_state(*dims, rng), id=f"cc-{tag}"
            )
            yield pytest.param(classical_on_b_state(*dims, rng), id=f"cq-{tag}")


@pytest.mark.parametrize("rho", list(_witness_cases()))
def test_stacked_witness_equals_pairwise_loop(rho):
    verdict = classify(rho)
    sides = [(verdict.witness_b, verdict.basis_b, 0),
             (verdict.witness_a, verdict.basis_a, 1)]
    for witness, basis, measured in sides:
        want_witness, want_basis = _pairwise_side_witness(rho, measured)
        assert witness == want_witness
        if want_basis is None:
            assert basis is None
        else:
            assert np.array_equal(basis, want_basis)


class TestClassify:
    def test_classical_on_b(self):
        rho = classical_on_b_state(2, 2, np.random.default_rng(3))
        v = classify(rho)
        assert v.classical_on_b
        assert not v.classical_on_a
        assert not v.classical_classical
        assert v.witness_b < 1e-9 < v.witness_a

    def test_classical_on_a(self):
        rho = classical_on_a_state(2, 2, np.random.default_rng(4))
        v = classify(rho)
        assert v.classical_on_a and not v.classical_on_b

    def test_classical_classical(self):
        rho = classical_classical_state(2, 2, np.random.default_rng(5))
        v = classify(rho)
        assert v.classical_classical
        assert v.witness < 1e-9
        assert v.basis_a is not None and v.basis_b is not None

    def test_bell_fully_quantum(self):
        v = classify(bell_state())
        assert not v.classical_on_a and not v.classical_on_b
        assert v.witness > 0.1
        assert v.basis_a is None and v.basis_b is None

    def test_flags_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(6)
        for builder in (classical_on_b_state, classical_classical_state):
            rho = builder(2, 2, rng)
            u = kron(random_unitary(2, rng), random_unitary(2, rng))
            rotated = DensityMatrix((2, 2), u @ rho.matrix @ dag(u))
            v0, v1 = classify(rho), classify(rotated)
            assert v0.classical_on_a == v1.classical_on_a
            assert v0.classical_on_b == v1.classical_on_b

    def test_witness_invariant_under_unmeasured_side_unitary(self):
        # witness_b is computed from conditional states living on B, which
        # rotate covariantly under 1 (x) U_B, so it is exactly invariant
        rng = np.random.default_rng(7)
        rho = random_state((2, 2), rng)
        u = kron(np.eye(2), random_unitary(2, rng))
        rotated = DensityMatrix((2, 2), u @ rho.matrix @ dag(u))
        v0, v1 = classify(rho), classify(rotated)
        assert abs(v0.witness_b - v1.witness_b) < 1e-8
        u = kron(random_unitary(2, rng), np.eye(2))
        rotated = DensityMatrix((2, 2), u @ rho.matrix @ dag(u))
        v1 = classify(rotated)
        assert abs(v0.witness_a - classify(rotated).witness_a) < 1e-8


class TestSingleSystemBroadcast:
    def test_commuting_pair_broadcasts_exactly(self):
        rng = np.random.default_rng(8)
        u = random_unitary(3, rng)
        rho = DensityMatrix((3,), (u * rng.dirichlet(np.ones(3))) @ dag(u))
        sig = DensityMatrix((3,), (u * rng.dirichlet(np.ones(3))) @ dag(u))
        assert commute_test(rho, sig)[0]
        ch = basis_broadcaster(common_eigenbasis(
            [rho.matrix, sig.matrix], np.random.default_rng(9)
        ))
        for state in (rho, sig):
            r1, r2 = verify_broadcast(state, ch)
            assert max(r1, r2) < 1e-9

    def test_noncommuting_pair_fails_on_every_basis(self):
        p0 = DensityMatrix((2,), np.diag([0.8, 0.2]))
        plus = PureState((2,), np.array([1, 1]) / np.sqrt(2)).to_density()
        rng = np.random.default_rng(10)
        bases = [np.eye(2)] + [random_unitary(2, rng) for _ in range(5)]
        for basis in bases:
            ch = basis_broadcaster(basis)
            worst = max(
                max(verify_broadcast(p0, ch)), max(verify_broadcast(plus, ch))
            )
            assert worst > 1e-3

    def test_basis_broadcaster_rejects_nonorthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            basis_broadcaster(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_basis_broadcaster_dephases(self):
        plus = PureState((2,), np.array([1, 1]) / np.sqrt(2)).to_density()
        ch = basis_broadcaster(np.eye(2))
        r1, r2 = verify_broadcast(plus, ch)
        assert min(r1, r2) > 0.1


class TestUnilocalBroadcast:
    def test_classical_on_b_broadcasts(self):
        rho = classical_on_b_state(2, 2, np.random.default_rng(11))
        v = classify(rho)
        ch = basis_broadcaster(v.basis_b)
        r1, r2 = verify_unilocal_broadcast(rho, ch)
        assert max(r1, r2) < 1e-9

    def test_bell_fails_under_corpus(self):
        rng = np.random.default_rng(12)
        channels = [basis_broadcaster(np.eye(2)),
                    basis_broadcaster(random_unitary(2, rng)),
                    random_channel(2, 4, rng)]
        for ch in channels:
            ch = Channel_reshaped(ch)
            r1, r2 = verify_unilocal_broadcast(bell_state(), ch)
            assert max(r1, r2) > 0.01

    def test_mi_version(self):
        rng = np.random.default_rng(13)
        rho = classical_on_b_state(2, 2, rng)
        v = classify(rho)
        i_orig = mutual_information(rho)
        i1, i2 = broadcast_mi_check(rho, basis_broadcaster(v.basis_b))
        assert abs(i1 - i_orig) < 1e-8 and abs(i2 - i_orig) < 1e-8
        # a non-classical state must lose MI under every corpus channel
        for ch in (basis_broadcaster(np.eye(2)),
                   basis_broadcaster(random_unitary(2, rng))):
            j1, j2 = broadcast_mi_check(werner_state(0.7), ch)
            i_w = mutual_information(werner_state(0.7))
            assert i_w - max(j1, j2) > 1e-3


def Channel_reshaped(ch):
    """Reinterpret a channel with output dim 4 as outputting 2 (x) 2."""
    from qbroadcast.channels import Channel

    if ch.out_dims == (2, 2):
        return ch
    return Channel(ch.in_dims, (2, 2), ch.choi)


class TestLocalBroadcast:
    def test_classical_classical_two_sided(self):
        rho = classical_classical_state(2, 2, np.random.default_rng(14))
        v = classify(rho)
        r1, r2 = verify_local_broadcast(
            rho, basis_broadcaster(v.basis_a), basis_broadcaster(v.basis_b)
        )
        assert max(r1, r2) < 1e-9

    def test_product_of_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed((2, 2))
        r1, r2 = verify_local_broadcast(
            rho, basis_broadcaster(np.eye(2)), basis_broadcaster(np.eye(2))
        )
        assert max(r1, r2) < 1e-12

    def test_bell_fails(self):
        rng = np.random.default_rng(15)
        for _ in range(3):
            u1, u2 = random_unitary(2, rng), random_unitary(2, rng)
            r1, r2 = verify_local_broadcast(
                bell_state(), basis_broadcaster(u1), basis_broadcaster(u2)
            )
            assert max(r1, r2) > 0.01

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            verify_local_broadcast(
                bell_state(), basis_broadcaster(np.eye(3)), basis_broadcaster(np.eye(2))
            )
