"""Shape refusals raise ``InputError`` (a ``ValueError``); numerical ones do not.

The command line exits 2 on an ``InputError`` and 1 on any other
``ValueError``, so which class a refusal raises decides its exit code.
"""

import numpy as np
import pytest

from qbroadcast import cli
from qbroadcast.broadcast import broadcast_report
from qbroadcast.corpus import bell_state, ghz_state, named_state, random_state
from qbroadcast.info import (
    _clamp_dust,
    conditional_mutual_information,
    fidelity,
    mutual_information,
    relative_entropy,
)
from qbroadcast.linalg import InputError, require_subsystems, subsystem_indices
from qbroadcast.recovery import recovery_report
from qbroadcast.sdp import SdpBuilder, solve
from qbroadcast.states import DensityMatrix


def _state(dims, seed=7):
    return random_state(dims, np.random.default_rng(seed))


SHAPE_REFUSALS = {
    "require_subsystems-4": (
        lambda: require_subsystems((2, 2), 4, "x"),
        r"^x needs 4 subsystems, got dims \(2, 2\)$",
    ),
    "subsystem_indices-out-of-range": (
        lambda: subsystem_indices(5, 2), "out of range for 2 subsystems"
    ),
    "subsystem_indices-fractional": (
        lambda: subsystem_indices(0.5, 2), "not an integer"
    ),
    "mi-one-factor": (
        lambda: mutual_information(_state((2,))), "both sides of the cut"
    ),
    "cmi-side-2-on-two-factors": (
        lambda: conditional_mutual_information(bell_state(), (0,), (2,)),
        "out of range",
    ),
    "cmi-listed-twice": (
        lambda: conditional_mutual_information(ghz_state(), (0,), (0,)),
        "listed twice",
    ),
    "fidelity-2-vs-3": (
        lambda: fidelity(_state((2,)), _state((3,))),
        "^fidelity needs states of equal dimension, got 2 and 3$",
    ),
    "relative-entropy-2-vs-3": (
        lambda: relative_entropy(_state((2,)), _state((3,))),
        "^relative entropy needs states of equal dimension, got 2 and 3$",
    ),
    "broadcast-ghz": (
        lambda: broadcast_report(ghz_state()),
        r"^broadcast_report needs 2 subsystems, got dims \(2, 2, 2\)$",
    ),
    "broadcast-2x1": (
        lambda: broadcast_report(_state((2, 1))), "dimension at least 2"
    ),
    "broadcast-2x5": (
        lambda: broadcast_report(_state((2, 5))), "B dimension 5 too large"
    ),
    "recovery-bell": (
        lambda: recovery_report(bell_state()),
        r"^recovery_report needs 3 subsystems, got dims \(2, 2\)$",
    ),
    "named-cc:abc": (lambda: named_state("cc:abc"), "^state 'cc:abc': "),
    "named-random:1e3": (
        lambda: named_state("random:1e3"), "^state 'random:1e3': "
    ),
    "named-werner:2": (
        lambda: named_state("werner:2"), r"^state 'werner:2': .*outside \[0, 1\]"
    ),
}


@pytest.mark.parametrize("case", sorted(SHAPE_REFUSALS))
def test_shape_rule_raises_input_error(case):
    call, match = SHAPE_REFUSALS[case]
    with pytest.raises(InputError, match=match) as exc:
        call()
    assert isinstance(exc.value, ValueError)


def _inconsistent_duplicate_rows():
    b = SdpBuilder()
    blk = b.add_block(2)
    eye = np.eye(2, dtype=complex)
    b.add_constraint({blk: eye}, 1.0)
    b.add_constraint({blk: eye}, 2.0)
    return solve(b.build())


NUMERICAL_REFUSALS = {
    "negative-entropy": (
        lambda: _clamp_dust(-1e-3, "entropy"), "negative beyond roundoff"
    ),
    "not-psd": (
        lambda: DensityMatrix((2,), np.diag([1.2, -0.2])),
        "positive semidefinite",
    ),
    "inconsistent-sdp": (_inconsistent_duplicate_rows, "structurally inconsistent"),
}


@pytest.mark.parametrize("case", sorted(NUMERICAL_REFUSALS))
def test_numerical_refusal_is_not_an_input_error(case):
    call, match = NUMERICAL_REFUSALS[case]
    with pytest.raises(ValueError, match=match) as exc:
        call()
    assert not isinstance(exc.value, InputError)


def test_cli_input_error_is_the_library_class():
    assert cli.InputError is InputError
