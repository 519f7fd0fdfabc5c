"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured margins and
wall time, and asserts the advertised tolerance and time budget.
"""

import json
import time

import numpy as np
from scipy.special import xlogy

from qbroadcast import cli
from qbroadcast.broadcast import (
    average_mi_loss,
    discord,
    f_eb,
    f_max_broadcast,
    measurement_copy_broadcaster,
)
from qbroadcast.channels import apply, apply_on_subsystem
from qbroadcast.classicality import basis_broadcaster, classify, verify_broadcast
from qbroadcast.corpus import (
    bell_state,
    classical_classical_state,
    classical_on_a_state,
    classical_on_b_state,
    ghz_state,
    markov_chain_state,
    random_channel,
    random_probabilities,
    random_state,
    random_unitary,
    werner_state,
)
from qbroadcast.info import (
    conditional_mutual_information,
    entropy,
    fidelity,
    mutual_information,
    relative_entropy,
)
from qbroadcast.linalg import dag, hermitian_eig, trace_norm
from qbroadcast.recovery import recovery_report
from qbroadcast.sdp import (
    AffineMatrixExpr,
    SdpBuilder,
    fidelity_sdp,
    solve,
)
from qbroadcast.states import DensityMatrix


def _report(number: int, ok: bool, detail: str, seconds: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {status}  {detail}  [{seconds:.2f}s]")
    assert ok, f"criterion {number}: {detail}"


def _eigenbasis(mat: np.ndarray) -> np.ndarray:
    return hermitian_eig(mat).vectors


def _copy_candidates(pair):
    """The classical copying strategies the library can construct."""
    d = pair[0].dim
    return [
        basis_broadcaster(_eigenbasis(pair[0].matrix)),
        basis_broadcaster(_eigenbasis(pair[1].matrix)),
        basis_broadcaster(np.eye(d, dtype=complex)),
        basis_broadcaster(_eigenbasis((pair[0].matrix + pair[1].matrix) / 2)),
    ]


def test_criterion_01_entropic_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(60):
        dims = tuple(rng.choice([2, 3, 4], size=2))
        rho = random_state(dims, rng)
        prod = rho.marginal((0,)).tensor(rho.marginal((1,)))
        worst = max(
            worst,
            abs(mutual_information(rho) - relative_entropy(rho, prod)),
            abs(mutual_information(rho, (0,)) - mutual_information(rho, (1,))),
            abs(
                entropy(prod)
                - entropy(rho.marginal((0,)))
                - entropy(rho.marginal((1,)))
            ),
        )
    for _ in range(40):
        dims = tuple(rng.choice([2, 3], size=3))
        rho = random_state(dims, rng)
        cmi = conditional_mutual_information(rho, (0,), (2,))
        via_mi = mutual_information(rho, (0,)) - mutual_information(
            rho.marginal((0, 1)), (0,)
        )
        worst = max(
            worst,
            abs(cmi - via_mi),
            abs(cmi - conditional_mutual_information(rho, (2,), (0,))),
        )
    seconds = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-8 and seconds < 5.0,
        f"100 states, worst identity deviation {worst:.2e} (tol 1e-8)",
        seconds,
    )


def test_criterion_02_data_processing():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_rel = 0.0
    worst_fid = 0.0
    for _ in range(200):
        d_in = int(rng.choice([2, 3, 4]))
        d_out = int(rng.choice([2, 3, 4]))
        rho = random_state(d_in, rng)
        sigma = random_state(d_in, rng)
        ch = random_channel(d_in, d_out, rng)
        worst_rel = max(
            worst_rel,
            relative_entropy(apply(ch, rho), apply(ch, sigma))
            - relative_entropy(rho, sigma),
        )
        worst_fid = max(
            worst_fid,
            fidelity(rho, sigma) - fidelity(apply(ch, rho), apply(ch, sigma)),
        )
    seconds = time.perf_counter() - start
    _report(
        2,
        worst_rel <= 1e-8 and worst_fid <= 1e-8 and seconds < 30.0,
        f"200 triples, worst DPI excess {worst_rel:.2e}, "
        f"worst fidelity drop {worst_fid:.2e} (tol 1e-8)",
        seconds,
    )


def test_criterion_03_no_broadcasting():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_commuting = 0.0
    for _ in range(50):
        d = int(rng.choice([2, 3]))
        basis = random_unitary(d, rng)
        pair = [
            DensityMatrix(
                (d,),
                basis @ np.diag(random_probabilities(d, rng)) @ dag(basis),
            )
            for _ in range(2)
        ]
        ch = basis_broadcaster(basis)
        worst_commuting = max(
            worst_commuting,
            max(max(verify_broadcast(rho, ch)) for rho in pair),
        )
    weakest_noncommuting = np.inf
    count = 0
    while count < 50:
        d = int(rng.choice([2, 3]))
        pair = [random_state(d, rng) for _ in range(2)]
        comm = pair[0].matrix @ pair[1].matrix - pair[1].matrix @ pair[0].matrix
        if np.abs(comm).max() < 0.02:
            continue
        count += 1
        best = min(
            max(max(verify_broadcast(rho, ch)) for rho in pair)
            for ch in _copy_candidates(pair)
        )
        weakest_noncommuting = min(weakest_noncommuting, best)
    seconds = time.perf_counter() - start
    _report(
        3,
        worst_commuting < 1e-9
        and weakest_noncommuting > 1e-3
        and seconds < 30.0,
        f"commuting residual {worst_commuting:.2e} (< 1e-9); "
        f"non-commuting floor {weakest_noncommuting:.2e} (> 1e-3)",
        seconds,
    )


def test_criterion_04_unilocal_broadcast_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_classical = 0.0
    for k in range(20):
        d_a = 2 + (k % 2)
        rho = classical_on_b_state(d_a, 2, rng)
        value, _ = f_max_broadcast(rho)
        worst_classical = max(worst_classical, abs(value - 1.0))
    nonclassical = [bell_state(), werner_state(0.3), werner_state(0.7)]
    while len(nonclassical) < 20:
        rho = random_state((2, 2), rng)
        if classify(rho).witness_b > 0.05:
            nonclassical.append(rho)
    best_gap = np.inf
    for rho in nonclassical:
        value, _ = f_max_broadcast(rho)
        best_gap = min(best_gap, 1.0 - value)
    seconds = time.perf_counter() - start
    _report(
        4,
        worst_classical <= 1e-6 and best_gap >= 1e-3 and seconds < 300.0,
        f"classical-on-B worst |f_max - 1| = {worst_classical:.2e} (tol 1e-6); "
        f"non-classical smallest gap {best_gap:.2e} (>= 1e-3)",
        seconds,
    )


def test_criterion_05_local_broadcasting():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    worst_residual = 0.0
    worst_drift = 0.0
    for _ in range(10):
        cc = classical_classical_state(2, 2, rng)
        verdict = classify(cc)
        ch_a = basis_broadcaster(verdict.basis_a)
        ch_b = basis_broadcaster(verdict.basis_b)
        out = apply_on_subsystem(ch_a, cc, 0)
        out = apply_on_subsystem(ch_b, out, 2)  # dims (A1, A2, B1, B2)
        mi = mutual_information(cc)
        for a, b in ((0, 2), (1, 3)):
            pair = out.marginal([a, b])
            worst_residual = max(
                worst_residual, trace_norm(pair.matrix - cc.matrix)
            )
            worst_drift = max(
                worst_drift, abs(mutual_information(pair, (0,)) - mi)
            )
    nonclassical = [
        bell_state(),
        werner_state(0.3),
        werner_state(0.7),
        classical_on_a_state(2, 2, rng),
    ]
    while len(nonclassical) < 10:
        rho = random_state((2, 2), rng)
        if classify(rho).witness_b > 0.05:
            nonclassical.append(rho)
    weakest_deficit = np.inf
    for rho in nonclassical:
        mi = mutual_information(rho)
        channels = [
            basis_broadcaster(_eigenbasis(rho.marginal((1,)).matrix)),
            basis_broadcaster(np.eye(2, dtype=complex)),
        ]
        for ch in channels:
            out = apply_on_subsystem(ch, rho, 1)
            deficit = mi - max(
                mutual_information(out.marginal([0, k]), (0,)) for k in (1, 2)
            )
            weakest_deficit = min(weakest_deficit, deficit)
    seconds = time.perf_counter() - start
    _report(
        5,
        worst_residual < 1e-9 and worst_drift <= 1e-8
        and weakest_deficit > 1e-3,
        f"CC residual {worst_residual:.2e} (< 1e-9), MI drift "
        f"{worst_drift:.2e} (tol 1e-8); non-classical deficit floor "
        f"{weakest_deficit:.2e} (> 1e-3)",
        seconds,
    )


def test_criterion_06_recoverability():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    states = [ghz_state()]
    for kind in ("product-right", "product-left", "classical-b"):
        for _ in range(3):
            states.append(markov_chain_state(kind, (2, 2, 2), rng))
    while len(states) < 30:
        states.append(random_state((2, 2, 2), rng))
    worst_bound = np.inf
    worst_markov = 0.0
    worst_residual = 0.0
    for rho in states:
        rep = recovery_report(rho)
        worst_bound = min(worst_bound, rep.optimal_fidelity - rep.bound)
        worst_residual = max(worst_residual, rep.sigma_recovery_residual)
        if rep.cmi < 1e-9:
            worst_markov = max(worst_markov, abs(rep.optimal_fidelity - 1.0))
    seconds = time.perf_counter() - start
    _report(
        6,
        worst_bound >= -1e-6
        and worst_markov <= 1e-6
        and worst_residual < 1e-8
        and seconds < 600.0,
        f"30 states, min(optimal - bound) = {worst_bound:.2e} (>= -1e-6); "
        f"Markov worst |F - 1| = {worst_markov:.2e} (tol 1e-6); "
        f"Petz fixed-point residual {worst_residual:.2e} (< 1e-8)",
        seconds,
    )


def _grid_discord_oracle(rho: DensityMatrix, n_theta: int, n_phi: int) -> float:
    """Discord upper-bounded by scanning projective qubit measurements.

    Builds the measured state sum_s <s|rho|s>_B (x) |s><s| of every grid
    point in one stack and recomputes mutual information from the
    entropies of the stacked states and their marginals, sharing nothing
    with the discord optimizer.
    """
    d_a = rho.dims[0]

    def mutual_info(states):
        four = states.reshape(-1, d_a, 2, d_a, 2)
        parts = (four.trace(axis1=2, axis2=4), four.trace(axis1=1, axis2=3))
        spectra = [np.linalg.eigvalsh(m).clip(0.0) for m in (*parts, states)]
        s_a, s_b, s_ab = (-xlogy(w, w).sum(axis=-1) / np.log(2) for w in spectra)
        return s_a + s_b - s_ab

    theta, phi = np.meshgrid(
        np.linspace(0.0, np.pi, n_theta),
        np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False),
        indexing="ij",
    )
    cos, sin = np.cos(theta / 2).ravel(), np.sin(theta / 2).ravel()
    phase = np.exp(1j * phi).ravel()
    # kets[n, s] is outcome s (up, down) of grid point n
    kets = np.stack([np.stack([cos, phase * sin], axis=-1),
                     np.stack([-phase.conj() * sin, cos], axis=-1)], axis=1)
    rho4 = rho.matrix.reshape(d_a, 2, d_a, 2)
    cond = np.einsum("nsb,abcd,nsd->nsac", kets.conj(), rho4, kets)
    measured = np.einsum("nsac,st->nasct", cond, np.eye(2))
    measured = measured.reshape(-1, 2 * d_a, 2 * d_a)
    return mutual_info(rho.matrix)[0] - mutual_info(measured).max()


def test_criterion_07_discord_and_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    bell = bell_state()
    disc_bell = discord(bell, restarts=8).value
    oracle = _grid_discord_oracle(bell, n_theta=100, n_phi=100)
    bell_dev = abs(disc_bell - 1.0) + abs(oracle - 1.0)
    disc_cc = discord(classical_classical_state(2, 2, rng), restarts=8).value
    corpus = [
        bell,
        classical_classical_state(2, 2, rng),
        classical_on_b_state(2, 2, rng),
        werner_state(0.3),
        werner_state(0.7),
        random_state((2, 2), rng),
        random_state((2, 2), rng),
    ]
    worst_eb = np.inf
    worst_chain = np.inf
    for rho in corpus:
        d = discord(rho, restarts=16).value
        feb = f_eb(rho)
        fmax, _ = f_max_broadcast(rho)
        bound = -2.0 * np.log2(feb) if feb > 0 else np.inf
        worst_eb = min(worst_eb, d - bound)
        worst_chain = min(worst_chain, fmax - feb)
    seconds = time.perf_counter() - start
    _report(
        7,
        abs(disc_bell - oracle) <= 1e-4
        and bell_dev < 1e-4
        and disc_cc < 1e-7
        and worst_eb >= -1e-6
        and worst_chain >= -1e-6,
        f"discord(Bell) = {disc_bell:.6f} vs grid oracle {oracle:.6f} "
        f"(tol 1e-4); discord(CC) = {disc_cc:.2e} (< 1e-7); "
        f"min(D + 2log2 F_EB) = {worst_eb:.2e} and "
        f"min(F_max - F_EB) = {worst_chain:.2e} (>= -1e-6)",
        seconds,
    )


def test_criterion_08_average_mi_loss():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    corpus = [
        ("bell", bell_state()),
        ("werner-0.7", werner_state(0.7)),
        ("cq", classical_on_b_state(2, 2, rng)),
        ("random", random_state((2, 2), rng)),
    ]
    worst_match = 0.0
    lowest_loss = np.inf
    weakest_strict = np.inf
    for name, rho in corpus:
        disc = discord(rho, restarts=16)
        for copies in (2, 3):
            ch = measurement_copy_broadcaster(disc.best_povm, copies)
            loss = average_mi_loss(rho, ch)
            worst_match = max(worst_match, abs(loss - disc.value))
            lowest_loss = min(lowest_loss, loss)
        if disc.value > 1e-3:  # non-classical on B
            channels = [
                measurement_copy_broadcaster(disc.best_povm, 2),
                basis_broadcaster(_eigenbasis(rho.marginal((1,)).matrix)),
                basis_broadcaster(np.eye(2, dtype=complex)),
            ]
            for ch in channels:
                weakest_strict = min(weakest_strict, average_mi_loss(rho, ch))
    seconds = time.perf_counter() - start
    _report(
        8,
        worst_match <= 1e-6
        and lowest_loss >= -1e-8
        and weakest_strict > 1e-3,
        f"|loss - discord| worst {worst_match:.2e} (tol 1e-6); "
        f"min loss {lowest_loss:.2e} (>= -1e-8); non-classical strict "
        f"floor {weakest_strict:.2e} (> 1e-3)",
        seconds,
    )


def test_criterion_09_fidelity_sdp_self_test():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    worst_dev = 0.0
    worst_residual = 0.0
    for k in range(50):
        d = 2 if k % 2 == 0 else 3
        rho = random_state(d, rng)
        sigma = random_state(d, rng)
        builder = SdpBuilder()
        expr = AffineMatrixExpr(side=d, const=sigma.matrix, terms=())
        fidelity_sdp(builder, rho.matrix, expr)
        solution = solve(builder.build())
        worst_dev = max(
            worst_dev, abs(solution.primal_value - fidelity(rho, sigma))
        )
        worst_residual = max(
            worst_residual,
            solution.residuals.primal,
            solution.residuals.dual,
            solution.residuals.gap,
        )
    seconds = time.perf_counter() - start
    _report(
        9,
        worst_dev <= 1e-6 and worst_residual < 1e-7,
        f"50 pairs, worst |SDP - closed form| = {worst_dev:.2e} (tol 1e-6); "
        f"worst residual {worst_residual:.2e} (< 1e-7)",
        seconds,
    )


def test_criterion_10_demo_determinism(capsys):
    start = time.perf_counter()
    suites = sorted(cli.SUITES)
    outputs = []
    for _ in range(2):
        chunks = []
        for suite in suites:
            code = cli.main(
                ["demo", suite, "--seed", "0", "--restarts", "8",
                 "--output", "json"]
            )
            captured = capsys.readouterr()
            assert code == 0, f"suite {suite} failed:\n{captured.out}"
            json.loads(captured.out)  # must be well-formed JSON
            chunks.append(captured.out)
        outputs.append("".join(chunks))
    seconds = time.perf_counter() - start
    identical = outputs[0] == outputs[1]
    with capsys.disabled():
        _report(
            10,
            identical,
            f"all {len(suites)} demo suites twice with seed 0: "
            + ("identical JSON" if identical else "outputs differ"),
            seconds,
        )
