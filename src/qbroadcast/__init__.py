"""Broadcastability of quantum correlations: no-go checks, entropic
measures, recovery maps and broadcast-fidelity optimization."""

__version__ = "0.1.0"

from .states import DensityMatrix, PureState, Povm
from .channels import (
    Channel,
    ChoiTerm,
    CompletelyPositiveMap,
    apply,
    apply_on_subsystem,
    channel_from_kraus,
    entanglement_breaking,
    identity_channel,
    kraus_from_choi,
    project_to_nearest_channel,
    quantum_to_classical,
    stinespring,
)
from .info import (
    conditional_mutual_information,
    entropy,
    fidelity,
    mutual_information,
    relative_entropy,
)
from .linalg import (
    dag,
    hermitian_eig,
    kron,
    matrix_function_on_support,
    partial_trace,
    support_projector,
    trace_norm,
)
from .corpus import (
    bell_state,
    classical_classical_state,
    classical_on_a_state,
    classical_on_b_state,
    ghz_state,
    markov_chain_state,
    named_state,
    random_channel,
    random_state,
    werner_state,
)
from .frames import build_ic_povm
from .classicality import (
    ClassicalityVerdict,
    basis_broadcaster,
    broadcast_mi_check,
    classify,
    common_eigenbasis,
    commute_test,
    verify_broadcast,
    verify_local_broadcast,
    verify_unilocal_broadcast,
)
from .sdp import (
    AffineMatrixExpr,
    SdpBuilder,
    SdpProblem,
    SdpSolution,
    audit,
    fidelity_sdp,
    hermitian_basis,
    recording,
    require_optimal,
    solution_diagnostics,
    solve,
)
from .recovery import (
    MonotonicityReport,
    RecoveryReport,
    optimal_fixing_recovery_fidelity,
    optimal_recovery_fidelity,
    petz_map,
    petz_recovery_fidelity,
    petz_recovery_map,
    recovery_report,
    relative_entropy_recovery_check,
)
from .broadcast import (
    BroadcastReport,
    DiscordResult,
    EbDetail,
    average_mi_loss,
    broadcast_report,
    discord,
    f_eb,
    f_eb_detailed,
    f_max_broadcast,
    measurement_copy_broadcaster,
)
