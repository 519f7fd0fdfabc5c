"""Seeded generators for states, channels and bases used across the suite.

Everything takes either a ``numpy.random.Generator`` or an integer seed,
so corpora are reproducible by construction.
"""

from __future__ import annotations

import numpy as np

from .channels import Channel, channel_from_kraus
from .linalg import InputError, dag, kron
from .states import DensityMatrix, PureState


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def bell_state() -> DensityMatrix:
    """The maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4)
    v[0] = v[3] = 2 ** -0.5
    return PureState((2, 2), v).to_density("bell")


def ghz_state() -> DensityMatrix:
    """(|000> + |111>)/sqrt(2) on three qubits."""
    v = np.zeros(8)
    v[0] = v[7] = 2 ** -0.5
    return PureState((2, 2, 2), v).to_density("ghz")


def werner_state(p: float) -> DensityMatrix:
    """p |psi-><psi-| + (1-p) I/4 on two qubits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight p={p} outside [0, 1]")
    v = np.zeros(4)
    v[1], v[2] = 2 ** -0.5, -(2 ** -0.5)
    singlet = np.outer(v, v)
    return DensityMatrix(
        (2, 2), p * singlet + (1 - p) * np.eye(4) / 4, f"werner:{p:g}"
    )


def random_unitary(d: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    rng = _rng(rng)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_pure(dims, rng) -> PureState:
    rng = _rng(rng)
    d = int(np.prod(dims))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(dims, v / np.linalg.norm(v))


def random_state(dims, rng, rank: int | None = None) -> DensityMatrix:
    """Hilbert-Schmidt-ish random state: G G^dag / Tr with Ginibre G."""
    rng = _rng(rng)
    d = int(np.prod(dims) if not np.isscalar(dims) else dims)
    dims = (d,) if np.isscalar(dims) else tuple(int(x) for x in dims)
    r = d if rank is None else int(rank)
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ dag(g)
    return DensityMatrix(dims, m / m.trace().real)


def random_probabilities(k: int, rng) -> np.ndarray:
    """A random probability vector bounded away from zero."""
    rng = _rng(rng)
    p = rng.uniform(0.1, 1.0, size=k)
    return p / p.sum()


def classical_classical_state(d_a: int, d_b: int, rng) -> DensityMatrix:
    """sum_ij p_ij |a_i><a_i| (x) |b_j><b_j| in random local bases."""
    rng = _rng(rng)
    ua = random_unitary(d_a, rng)
    ub = random_unitary(d_b, rng)
    p = random_probabilities(d_a * d_b, rng).reshape(d_a, d_b)
    mat = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for i in range(d_a):
        for j in range(d_b):
            pa = np.outer(ua[:, i], ua[:, i].conj())
            pb = np.outer(ub[:, j], ub[:, j].conj())
            mat += p[i, j] * kron(pa, pb)
    return DensityMatrix((d_a, d_b), mat, "cc")


def classical_on_b_state(d_a: int, d_b: int, rng) -> DensityMatrix:
    """sum_j p_j rho^A_j (x) |b_j><b_j| with a random B basis.

    Classical on B, generically non-classical on A.
    """
    rng = _rng(rng)
    ub = random_unitary(d_b, rng)
    p = random_probabilities(d_b, rng)
    mat = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for j in range(d_b):
        rho_a = random_state(d_a, rng).matrix
        pb = np.outer(ub[:, j], ub[:, j].conj())
        mat += p[j] * kron(rho_a, pb)
    return DensityMatrix((d_a, d_b), mat, "cq")


def classical_on_a_state(d_a: int, d_b: int, rng) -> DensityMatrix:
    """sum_i p_i |a_i><a_i| (x) rho^B_i with a random A basis."""
    rng = _rng(rng)
    ua = random_unitary(d_a, rng)
    p = random_probabilities(d_a, rng)
    mat = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for i in range(d_a):
        rho_b = random_state(d_b, rng).matrix
        pa = np.outer(ua[:, i], ua[:, i].conj())
        mat += p[i] * kron(pa, rho_b)
    return DensityMatrix((d_a, d_b), mat, "qc")


def markov_chain_state(kind: str, dims, rng) -> DensityMatrix:
    """Short quantum Markov chains A-B-C with exactly zero I(A:C|B).

    kind: "product-right"  rho_AB (x) rho_C
          "product-left"   rho_A (x) rho_BC
          "classical-b"    sum_j p_j rho^A_j (x) |j><j|_B (x) rho^C_j
    """
    rng = _rng(rng)
    d_a, d_b, d_c = (int(x) for x in dims)
    if kind == "product-right":
        return random_state((d_a, d_b), rng).tensor(random_state(d_c, rng))
    if kind == "product-left":
        return random_state(d_a, rng).tensor(random_state((d_b, d_c), rng))
    if kind == "classical-b":
        p = random_probabilities(d_b, rng)
        mat = np.zeros((d_a * d_b * d_c,) * 2, dtype=complex)
        for j in range(d_b):
            pb = np.zeros((d_b, d_b))
            pb[j, j] = 1.0
            mat += p[j] * kron(
                random_state(d_a, rng).matrix, pb, random_state(d_c, rng).matrix
            )
        return DensityMatrix((d_a, d_b, d_c), mat, "markov-classical-b")
    raise ValueError(f"unknown Markov chain kind {kind!r}")


def random_channel(in_dim: int, out_dim: int, rng) -> Channel:
    """Random channel from a Haar isometry into out (x) env, env of dim in_dim."""
    rng = _rng(rng)
    u = random_unitary(out_dim * in_dim, rng)
    v = u[:, :in_dim]  # isometry columns
    kraus = [v[e::in_dim, :] for e in range(in_dim)]
    return channel_from_kraus(kraus, (in_dim,), (out_dim,))


def named_state(spec: str) -> DensityMatrix:
    """Parse corpus names used by the command line: bell, ghz, cc, cq,
    werner:p, random:seed.  InputError names ``spec`` when it is not one."""
    name, sep, arg = spec.partition(":")
    if name in ("bell", "ghz"):
        if sep:
            raise InputError(f"state {name!r} takes no argument, got {spec!r}")
        return bell_state() if name == "bell" else ghz_state()
    if name not in ("cc", "cq", "werner", "random"):
        raise InputError(f"unknown state name {spec!r}")
    if sep and not arg:
        raise InputError(f"state {name!r} needs a value after ':'")
    try:
        if name == "cc":
            return classical_classical_state(2, 2, _rng(int(arg or 7)))
        if name == "cq":
            return classical_on_b_state(2, 2, _rng(int(arg or 7)))
        if name == "werner":
            return werner_state(float(arg or 0.5))
        return random_state((2, 2), _rng(int(arg or 0)))
    except ValueError as exc:  # an unreadable or out-of-range argument
        raise InputError(f"state {spec!r}: {exc}") from exc
