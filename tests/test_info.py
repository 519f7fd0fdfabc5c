import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbroadcast.channels import apply, apply_on_subsystem, stinespring
from qbroadcast.corpus import (
    bell_state,
    ghz_state,
    markov_chain_state,
    random_channel,
    random_pure,
    random_state,
    random_unitary,
)
from qbroadcast.info import (
    conditional_mutual_information,
    entropy,
    fidelity,
    mutual_information,
    relative_entropy,
)
from qbroadcast.linalg import dag, max_abs, partial_trace
from qbroadcast.states import DensityMatrix


# Frozen oracle values, computed independently from closed forms:
#   S(diag(3/4, 1/4))            = -(3/4 log2 3/4 + 1/4 log2 1/4)
#   S(I/2 || diag(3/4, 1/4))     = 1 - log2(3)/2
#   F(|0><0|, I/2)               = sqrt(1/2)
ENTROPY_3QUARTER = 0.8112781244591328
RELENT_MIXED_VS_3QUARTER = 0.20751874963942196
FID_PURE_VS_MIXED = 0.7071067811865476


def test_entropy_frozen_value():
    rho = DensityMatrix((2,), np.diag([0.75, 0.25]))
    assert abs(entropy(rho) - ENTROPY_3QUARTER) < 1e-12


def test_entropy_pure_is_zero():
    assert entropy(bell_state()) < 1e-10


def test_entropy_maximally_mixed():
    assert abs(entropy(DensityMatrix.maximally_mixed(4)) - 2.0) < 1e-12


def test_relative_entropy_frozen_value():
    rho = DensityMatrix.maximally_mixed(2)
    sigma = DensityMatrix((2,), np.diag([0.75, 0.25]))
    assert abs(relative_entropy(rho, sigma) - RELENT_MIXED_VS_3QUARTER) < 1e-12


def test_relative_entropy_infinite_off_support():
    p0 = DensityMatrix((2,), np.diag([1.0, 0.0]))
    p1 = DensityMatrix((2,), np.diag([0.0, 1.0]))
    assert relative_entropy(p0, p1) == float("inf")
    assert relative_entropy(DensityMatrix.maximally_mixed(2), p1) == float("inf")
    # but fine the other way around
    assert np.isfinite(relative_entropy(p1, DensityMatrix.maximally_mixed(2)))


def test_relative_entropy_zero_iff_equal():
    rng = np.random.default_rng(0)
    rho = random_state(3, rng)
    assert relative_entropy(rho, rho) < 1e-10


def test_fidelity_frozen_value():
    p0 = DensityMatrix((2,), np.diag([1.0, 0.0]))
    assert abs(fidelity(p0, DensityMatrix.maximally_mixed(2)) - FID_PURE_VS_MIXED) < 1e-12


def test_fidelity_pure_reduces_to_overlap():
    rng = np.random.default_rng(1)
    psi = random_pure(3, rng)
    sigma = random_state(3, rng)
    want = np.sqrt(
        (psi.amplitudes.conj() @ sigma.matrix @ psi.amplitudes).real
    )
    assert abs(fidelity(psi.to_density(), sigma) - want) < 1e-10


def test_mutual_information_bell():
    assert abs(mutual_information(bell_state()) - 2.0) < 1e-10


def test_cmi_ghz():
    got = conditional_mutual_information(ghz_state(), side_a=0, side_c=2)
    assert abs(got - 1.0) < 1e-10


def test_cmi_zero_for_products():
    rng = np.random.default_rng(2)
    rho = random_state((2, 2), rng).tensor(random_state(2, rng))
    got = conditional_mutual_information(rho, side_a=0, side_c=2)
    assert abs(got) < 1e-9


@pytest.mark.parametrize(
    "kind, seed", [("product-right", 2), ("product-left", 1), ("classical-b", 1)]
)
def test_cmi_of_a_markov_chain_clamps_roundoff_to_zero(kind, seed):
    # the four entropies of each state sum to -5.6e-16 .. -1.0e-15 in floats
    rho = markov_chain_state(kind, (2, 2, 2), np.random.default_rng(seed))
    assert conditional_mutual_information(rho, side_a=0, side_c=2) >= 0.0


def test_rejects_dimension_mismatch():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        relative_entropy(random_state(2, rng), random_state(3, rng))
    with pytest.raises(ValueError):
        fidelity(random_state(2, rng), random_state(3, rng))


def test_mi_rejects_overlapping_cut():
    with pytest.raises(ValueError):
        conditional_mutual_information(ghz_state(), side_a=0, side_c=0)


def test_out_of_range_side_is_refused_without_naming_keep():
    rho = ghz_state()
    with pytest.raises(
        ValueError,
        match=r"^subsystem indices \[0, 5\] out of range for 3 subsystems$",
    ):
        mutual_information(rho, (0, 5))
    with pytest.raises(
        ValueError, match=r"^subsystem indices \[7\] out of range for 3 subsystems$"
    ):
        conditional_mutual_information(rho, (0,), (7,))


def test_fractional_side_is_refused():
    rho = ghz_state()
    with pytest.raises(ValueError, match="0.5 is not an integer"):
        mutual_information(rho, (0.5,))
    with pytest.raises(ValueError, match="0.4 is not an integer"):
        conditional_mutual_information(rho, (0.4,), (2.9,))
    with pytest.raises(ValueError, match="2.9 is not an integer"):
        conditional_mutual_information(rho, (0,), (2.9,))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_entropy_unitary_invariant_and_additive(seed):
    rng = np.random.default_rng(seed)
    rho = random_state(3, rng)
    u = random_unitary(3, rng)
    rotated = DensityMatrix((3,), u @ rho.matrix @ dag(u))
    assert abs(entropy(rotated) - entropy(rho)) < 1e-9
    sigma = random_state(2, rng)
    assert abs(entropy(rho.tensor(sigma)) - entropy(rho) - entropy(sigma)) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_fidelity_symmetric_and_multiplicative(seed):
    rng = np.random.default_rng(seed)
    rho, sigma = random_state(3, rng), random_state(3, rng)
    assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-9
    rho2, sigma2 = random_state(2, rng), random_state(2, rng)
    prod = fidelity(rho.tensor(rho2), sigma.tensor(sigma2))
    assert abs(prod - fidelity(rho, sigma) * fidelity(rho2, sigma2)) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_data_processing_inequalities(seed):
    rng = np.random.default_rng(seed)
    rho, sigma = random_state(3, rng), random_state(3, rng)
    ch = random_channel(3, 2, rng)
    out_r, out_s = apply(ch, rho), apply(ch, sigma)
    assert relative_entropy(out_r, out_s) <= relative_entropy(rho, sigma) + 1e-8
    assert fidelity(out_r, out_s) >= fidelity(rho, sigma) - 1e-8


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_mi_equals_relent_to_marginals(seed):
    rng = np.random.default_rng(seed)
    rho = random_state((2, 3), rng)
    want = relative_entropy(rho, rho.marginal(0).tensor(rho.marginal(1)))
    assert abs(mutual_information(rho) - want) < 1e-8


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_mi_loss_is_cmi_of_dilation(seed):
    # applying a channel to B and keeping its environment E, the lost
    # mutual information I(A:B) - I(A:B') equals I(A:E|B') of the dilated
    # state -- the identity underlying the recoverability bound.
    rng = np.random.default_rng(seed)
    rho = random_state((2, 2), rng)
    ch = random_channel(2, 2, rng)
    v = stinespring(ch)
    env = v.shape[0] // 2
    big = np.kron(np.eye(2), v) @ rho.matrix @ dag(np.kron(np.eye(2), v))
    dilated = DensityMatrix((2, 2, env), big)
    out = apply_on_subsystem(ch, rho, 1)
    lhs = mutual_information(rho) - mutual_information(out)
    rhs = conditional_mutual_information(dilated, side_a=0, side_c=2, side_b=1)
    assert abs(lhs - rhs) < 1e-8


def test_mi_nonincreasing_under_local_channel():
    rng = np.random.default_rng(4)
    for _ in range(10):
        rho = random_state((2, 3), rng)
        ch = random_channel(3, 3, rng)
        out = apply_on_subsystem(ch, rho, 1)
        assert mutual_information(out) <= mutual_information(rho) + 1e-8
