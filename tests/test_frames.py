import numpy as np
import pytest

from qbroadcast.corpus import bell_state, random_state
from qbroadcast.frames import (
    build_ic_povm,
    decompose,
)
from qbroadcast.linalg import kron, max_abs, partial_trace
from qbroadcast.states import DensityMatrix


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ic_povm_is_minimal_and_valid(d):
    ic = build_ic_povm(d)
    assert ic.povm.n_outcomes == d * d
    total = sum(ic.povm.elements)
    assert max_abs(total - np.eye(d)) < 1e-10


def test_tetrahedral_qubit_sum_and_trace():
    ic = build_ic_povm(2)
    for e in ic.povm.elements:
        assert abs(np.trace(e).real - 0.5) < 1e-12
        # rank one: one eigenvalue 1/2, one 0
        vals = np.linalg.eigvalsh(e)
        assert abs(vals[1] - 0.5) < 1e-12 and abs(vals[0]) < 1e-12


def test_decompose_product_state():
    rng = np.random.default_rng(1)
    a, b = random_state(2, rng), random_state(3, rng)
    dec = decompose(a.tensor(b), build_ic_povm(2))
    for w, c in zip(dec.weights, dec.cond_states):
        if w > 1e-12:
            assert max_abs(c.matrix - b.matrix) < 1e-9


def test_decompose_weights_are_born_probabilities():
    rng = np.random.default_rng(2)
    rho = random_state((2, 2), rng)
    ic = build_ic_povm(2)
    dec = decompose(rho, ic)
    want = ic.povm.probabilities(rho.marginal(0))
    assert max_abs(dec.weights - want) < 1e-10
    assert abs(dec.weights.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("measured", [0, 1])
def test_decompose_conditional_states_are_partial_traces(measured):
    rng = np.random.default_rng(3)
    rho = random_state((2, 3), rng)
    ic = build_ic_povm(rho.dims[measured])
    dec = decompose(rho, ic, measured=measured)
    other = 1 - measured
    eye = np.eye(rho.dims[other])
    total = 0
    for e, w, c in zip(ic.povm.elements, dec.weights, dec.cond_states):
        op = kron(e, eye) if measured == 0 else kron(eye, e)
        want = partial_trace(op @ rho.matrix, rho.dims, other)
        assert max_abs(w * c.matrix - want) < 1e-12
        total = total + w * c.matrix
    assert max_abs(total - rho.marginal(other).matrix) < 1e-12


def test_decompose_bell_conditionals_do_not_commute():
    dec = decompose(bell_state(), build_ic_povm(2))
    worst = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            x = dec.cond_states[i].matrix
            y = dec.cond_states[j].matrix
            worst = max(worst, max_abs(x @ y - y @ x))
    assert worst > 0.1


def test_decompose_rejects_wrong_dims():
    with pytest.raises(ValueError):
        decompose(DensityMatrix.maximally_mixed((2, 2)), build_ic_povm(3))
    with pytest.raises(ValueError):
        decompose(DensityMatrix.maximally_mixed((2,)), build_ic_povm(2))


def test_build_rejects_trivial_dimension():
    with pytest.raises(ValueError):
        build_ic_povm(1)
