import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbroadcast.linalg import (
    HermitianEig,
    dag,
    hermitian_eig,
    kron,
    matrix_function_on_support,
    max_abs,
    partial_trace,
    require_hermitian,
    support_isometry,
    support_projector,
    trace_norm,
)


def random_herm(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + dag(g)) / 2


def random_psd(d, rng, rank=None):
    g = rng.normal(size=(d, rank or d)) + 1j * rng.normal(size=(d, rank or d))
    return g @ dag(g)


def test_kron_convention_first_factor_slow():
    a = np.diag([1.0, 2.0])
    b = np.diag([10.0, 20.0, 30.0])
    k = kron(a, b)
    # row index (i, j) = i * 3 + j
    assert k[0 * 3 + 1, 0 * 3 + 1] == 1.0 * 20.0
    assert k[1 * 3 + 2, 1 * 3 + 2] == 2.0 * 30.0


def test_partial_trace_of_product():
    rng = np.random.default_rng(0)
    a = random_psd(2, rng)
    b = random_psd(3, rng)
    c = random_psd(2, rng)
    full = kron(a, b, c)
    assert max_abs(partial_trace(full, [2, 3, 2], [0]) - a * b.trace() * c.trace()) < 1e-10
    assert max_abs(partial_trace(full, [2, 3, 2], [1]) - b * a.trace() * c.trace()) < 1e-10
    assert max_abs(partial_trace(full, [2, 3, 2], [0, 2]) - kron(a, c) * b.trace()) < 1e-10


def test_partial_trace_keeps_trace():
    rng = np.random.default_rng(1)
    m = random_psd(12, rng)
    red = partial_trace(m, [2, 3, 2], [1])
    assert abs(red.trace() - m.trace()) < 1e-10


def test_partial_trace_matches_elementwise_oracle():
    # independent contraction written out by hand
    rng = np.random.default_rng(2)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    got = partial_trace(m, [2, 3], [0])
    want = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                want[i, j] += m[i * 3 + k, j * 3 + k]
    assert max_abs(got - want) < 1e-12


def test_partial_trace_of_a_stack_equals_per_element_loop():
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(2, 3, 12, 12)) + 1j * rng.normal(size=(2, 3, 12, 12))
    for keep in ([0], [1], [0, 2], [1, 2], []):
        got = partial_trace(stack, [2, 3, 2], keep)
        want = [[partial_trace(m, [2, 3, 2], keep) for m in row] for row in stack]
        assert got.shape == np.shape(want)
        assert max_abs(got - np.array(want)) < 1e-14


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), [2, 3], [0])
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), [2, 3], [2])


def test_partial_trace_sizes_dims_exactly():
    # 3 * 6148914691236517206 = 2^64 + 2, which int64 arithmetic wraps to 2
    with pytest.raises(ValueError, match="does not match dims"):
        partial_trace(np.eye(2) / 2, (3, 6148914691236517206), 0)


def test_hermitian_eig_descending_and_reconstructs():
    rng = np.random.default_rng(3)
    h = random_herm(7, rng)
    vals, vecs = hermitian_eig(h)
    assert np.all(np.diff(vals) <= 1e-12)
    assert max_abs((vecs * vals) @ dag(vecs) - h) < 1e-10
    assert max_abs(dag(vecs) @ vecs - np.eye(7)) < 1e-10


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("count", [None, 3], ids=["matrix", "stack"])
def test_require_hermitian_returns_the_hermitian_part(count):
    rng = np.random.default_rng(4)
    h = random_herm(4, rng) if count is None else np.stack(
        [random_herm(4, rng) for _ in range(count)]
    )
    skewed = h + 1e-13 * (rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape))
    got = require_hermitian(skewed, "skewed")
    assert np.array_equal(got, dag(got))
    assert max_abs(got - (skewed + dag(skewed)) / 2) <= 1e-15
    exact = require_hermitian(h, "exact")
    assert exact.tobytes() == h.tobytes()


def test_matrix_function_on_support_pseudoinverse():
    rng = np.random.default_rng(4)
    m = random_psd(6, rng, rank=4)
    inv = matrix_function_on_support(m, lambda x: 1.0 / x)
    proj = support_projector(m)
    assert max_abs(m @ inv - proj) < 1e-8
    assert max_abs(inv @ m - proj) < 1e-8


def test_matrix_function_sqrt_squares_back():
    rng = np.random.default_rng(5)
    m = random_psd(5, rng, rank=3)
    r = matrix_function_on_support(m, np.sqrt)
    assert max_abs(r @ r - m) < 1e-8


def test_matrix_function_rejects_negative():
    with pytest.raises(ValueError, match="positive semidefinite"):
        matrix_function_on_support(np.diag([1.0, -0.5]), np.sqrt)


def test_support_isometry_spans_range():
    rng = np.random.default_rng(6)
    m = random_psd(6, rng, rank=2)
    v = support_isometry(m)
    assert v.shape == (6, 2)
    assert max_abs(dag(v) @ v - np.eye(2)) < 1e-10
    assert max_abs(v @ dag(v) - support_projector(m)) < 1e-10


def test_support_isometry_of_a_full_support_is_the_identity():
    # the natural basis, not an eigenbasis: exact, entry for entry
    rng = np.random.default_rng(7)
    for m in (random_psd(6, rng), np.eye(5), kron(np.eye(2), np.eye(3))):
        v = support_isometry(m)
        assert v.dtype == complex
        assert np.array_equal(v, np.eye(len(m)))


def test_trace_norm_known_values():
    assert abs(trace_norm(np.diag([1.0, -2.0, 3.0])) - 6.0) < 1e-12
    assert abs(trace_norm(np.zeros((3, 3)))) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_trace_norm_equals_abs_eigs_for_hermitian(seed, d):
    h = random_herm(d, np.random.default_rng(seed))
    assert abs(trace_norm(h) - np.abs(np.linalg.eigvalsh(h)).sum()) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_partial_trace_adjoint_of_tensoring(seed):
    # <Tr_B(M), X> == <M, X (x) I_B>
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lhs = np.trace(dag(x) @ partial_trace(m, [2, 3], [0]))
    rhs = np.trace(dag(kron(x, np.eye(3))) @ m)
    assert abs(lhs - rhs) < 1e-9


def test_hermitian_eig_namedtuple_fields():
    out = hermitian_eig(np.eye(2))
    assert isinstance(out, HermitianEig)
    assert out.values.shape == (2,)
    assert out.vectors.shape == (2, 2)


class TestNumericalPolicy:
    # algorithm controls that stay with their algorithm; every other
    # module-level float constant must be the linalg object
    ALGORITHM_CONTROLS = {
        "sdp": {"COEFF_HERM_TOL", "DEFAULT_TOL"},
        "broadcast": {
            "CONVERGENCE_WINDOW", "SWEEP_GAIN_FLOOR", "STATIONARY_GRAD",
        },
    }

    @staticmethod
    def modules():
        import importlib
        import pkgutil

        import qbroadcast

        return [
            importlib.import_module(f"qbroadcast.{info.name}")
            for info in pkgutil.iter_modules(qbroadcast.__path__)
        ]

    def test_support_rule_shared_at_the_boundary(self):
        from qbroadcast.channels import (
            CompletelyPositiveMap,
            kraus_from_choi,
            quantum_to_classical,
        )
        from qbroadcast.linalg import SUPPORT_CUTOFF
        from qbroadcast.states import Povm

        # one eigenvalue just above SUPPORT_CUTOFF * top, one just below
        cut = SUPPORT_CUTOFF * 0.8
        vals = np.array([0.8, 0.3, 1.1 * cut, 0.9 * cut])
        u = np.linalg.qr(random_herm(4, np.random.default_rng(9)))[0]
        m = (u * vals) @ dag(u)
        m = (m + dag(m)) / 2
        rank = 3
        assert support_isometry(m).shape == (4, rank)
        proj = matrix_function_on_support(m, lambda x: np.ones_like(x))
        assert abs(np.trace(proj).real - rank) < 1e-9
        choi = CompletelyPositiveMap((2,), (2,), m)
        assert len(kraus_from_choi(choi)) == rank
        povm = Povm((m, np.eye(4) - m))
        quantum_to_classical(povm)

    def test_no_tolerance_parameters(self):
        import inspect

        for mod in self.modules():
            owners = [mod] + [
                c for _, c in inspect.getmembers(mod, inspect.isclass)
                if c.__module__ == mod.__name__
            ]
            for owner in owners:
                for name, fn in inspect.getmembers(owner, inspect.isfunction):
                    if name.startswith("_") or fn.__module__ != mod.__name__:
                        continue
                    params = set(inspect.signature(fn).parameters)
                    assert not params & {"atol", "dust", "slack"}, (
                        f"{mod.__name__}.{name}"
                    )
                    assert not [p for p in params if p.endswith("_tol")], (
                        f"{mod.__name__}.{name}"
                    )

    def test_tolerances_are_the_linalg_objects(self):
        import importlib

        from qbroadcast import linalg

        for mod in self.modules():
            for name, value in vars(mod).items():
                if not (name.isupper() and isinstance(value, float)):
                    continue
                owner = linalg
                for home, names in self.ALGORITHM_CONTROLS.items():
                    if name in names:
                        owner = importlib.import_module(f"qbroadcast.{home}")
                assert value is getattr(owner, name, None), (
                    f"{mod.__name__}.{name}"
                )

    def test_entropy_cuts_relative_to_the_largest_eigenvalue(self):
        from qbroadcast.info import entropy
        from qbroadcast.linalg import SUPPORT_CUTOFF
        from qbroadcast.states import DensityMatrix

        # top < 1: an absolute floor of SUPPORT_CUTOFF would drop both
        top = 0.6
        above, below = 1.1 * SUPPORT_CUTOFF * top, 0.9 * SUPPORT_CUTOFF * top
        vals = np.array([top, 1.0 - top - above - below, above, below])
        u = np.linalg.qr(random_herm(4, np.random.default_rng(4)))[0]
        rho = DensityMatrix((2, 2), (u * vals) @ dag(u))
        kept = vals[:3]
        expected = float(-(kept * np.log2(kept)).sum())
        assert -below * np.log2(below) > 1e-11  # each small term shows
        assert abs(entropy(rho) - expected) < 1e-13

    def test_only_linalg_reads_support_cutoff(self):
        import ast
        import inspect

        import qbroadcast

        for mod in [qbroadcast, *self.modules()]:
            if mod.__name__ == "qbroadcast.linalg":
                continue
            names = set()
            for node in ast.walk(ast.parse(inspect.getsource(mod))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            assert "SUPPORT_CUTOFF" not in names, mod.__name__


def _poisoned(mat, bad):
    out = np.array(mat, dtype=complex)
    out[0, 0] = bad
    return out


def _non_finite_cases():
    from qbroadcast.channels import Channel, CompletelyPositiveMap, identity_channel
    from qbroadcast.sdp import SdpProblem
    from qbroadcast.states import DensityMatrix, Povm, PureState

    half = np.eye(2) / 2
    choi = identity_channel(2).choi
    no_rows = np.zeros((0, 2, 2), dtype=complex)
    return {
        "DensityMatrix": lambda bad: DensityMatrix((2,), _poisoned(half, bad)),
        "PureState": lambda bad: PureState((2,), [bad, 1.0]),
        "Povm": lambda bad: Povm((_poisoned(half, bad), half)),
        "CompletelyPositiveMap": lambda bad: CompletelyPositiveMap(
            (2,), (2,), _poisoned(choi, bad)
        ),
        "Channel": lambda bad: Channel((2,), (2,), _poisoned(choi, bad)),
        "SdpProblem": lambda bad: SdpProblem(
            (2,), (_poisoned(half, bad),), (no_rows,), np.zeros(0)
        ),
        "hermitian_eig": lambda bad: hermitian_eig(_poisoned(half, bad)),
        "matrix_function_on_support": lambda bad: matrix_function_on_support(
            _poisoned(half, bad), np.sqrt
        ),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("case", sorted(_non_finite_cases()))
def test_non_finite_data_refused_the_same_way(case, bad):
    # every validated type says "not finite", and numpy warns nowhere
    call = _non_finite_cases()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="not finite"):
            call(bad)


def test_overflowing_deviation_is_not_hermitian_rather_than_not_finite():
    # every entry is finite, but A - A^dag overflows to inf
    m = np.array([[0.5, 1e308], [-1e308, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(m)
