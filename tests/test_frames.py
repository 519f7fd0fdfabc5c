import numpy as np
import pytest

from qbroadcast.corpus import bell_state, random_state
from qbroadcast.frames import build_ic_povm, conditional_states
from qbroadcast.linalg import kron, max_abs, partial_trace


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ic_povm_is_minimal_and_valid(d):
    povm = build_ic_povm(d)
    assert povm.n_outcomes == d * d
    total = sum(povm.elements)
    assert max_abs(total - np.eye(d)) < 1e-10


def test_tetrahedral_qubit_sum_and_trace():
    for e in build_ic_povm(2).elements:
        assert abs(np.trace(e).real - 0.5) < 1e-12
        # rank one: one eigenvalue 1/2, one 0
        vals = np.linalg.eigvalsh(e)
        assert abs(vals[1] - 0.5) < 1e-12 and abs(vals[0]) < 1e-12


# "decompose" below: split a bipartite state along an IC POVM on one side
# into the unnormalized conditional states it leaves on the other


def _weights(blocks):
    return np.trace(blocks, axis1=1, axis2=2).real


def test_decompose_product_state():
    rng = np.random.default_rng(1)
    a, b = random_state(2, rng), random_state(3, rng)
    elements = np.array(build_ic_povm(2).elements)
    blocks = conditional_states(a.tensor(b), elements, 0)
    for w, block in zip(_weights(blocks), blocks):
        if w > 1e-12:
            assert max_abs(block / w - b.matrix) < 1e-9


def test_decompose_weights_are_born_probabilities():
    rng = np.random.default_rng(2)
    rho = random_state((2, 2), rng)
    povm = build_ic_povm(2)
    weights = _weights(conditional_states(rho, np.array(povm.elements), 0))
    want = povm.probabilities(rho.marginal(0))
    assert max_abs(weights - want) < 1e-10
    assert abs(weights.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("measured", [0, 1])
def test_decompose_conditional_states_are_partial_traces(measured):
    rng = np.random.default_rng(3)
    rho = random_state((2, 3), rng)
    elements = build_ic_povm(rho.dims[measured]).elements
    blocks = conditional_states(rho, np.array(elements), measured)
    other = 1 - measured
    eye = np.eye(rho.dims[other])
    for e, block in zip(elements, blocks):
        op = kron(e, eye) if measured == 0 else kron(eye, e)
        want = partial_trace(op @ rho.matrix, rho.dims, other)
        assert max_abs(block - want) < 1e-12
    assert max_abs(blocks.sum(axis=0) - rho.marginal(other).matrix) < 1e-12


def test_decompose_bell_conditionals_do_not_commute():
    blocks = conditional_states(
        bell_state(), np.array(build_ic_povm(2).elements), 0
    )
    states = blocks / _weights(blocks)[:, None, None]
    worst = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            x, y = states[i], states[j]
            worst = max(worst, max_abs(x @ y - y @ x))
    assert worst > 0.1


def test_build_rejects_trivial_dimension():
    with pytest.raises(ValueError):
        build_ic_povm(1)
