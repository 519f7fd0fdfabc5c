"""Solver certificates: the recording log, the audit gate and honest status."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import qbroadcast
from qbroadcast import cli, sdp
from qbroadcast.broadcast import broadcast_report, f_max_broadcast
from qbroadcast.corpus import bell_state, random_state, werner_state
from qbroadcast.sdp import recording


def public_functions():
    """Every public function and method defined in a qbroadcast module."""
    for info in pkgutil.iter_modules(qbroadcast.__path__):
        mod = importlib.import_module(f"qbroadcast.{info.name}")
        owners = [mod] + [
            c for _, c in inspect.getmembers(mod, inspect.isclass)
            if c.__module__ == mod.__name__
        ]
        for owner in owners:
            for name, fn in inspect.getmembers(owner, inspect.isfunction):
                if not name.startswith("_") and fn.__module__ == mod.__name__:
                    yield f"{mod.__name__}.{name}", fn


class TestRecording:
    def test_broadcast_report_logs_every_solve_in_order(self):
        # a qubit B reads its EB lower bound off the PPT optimum; a qutrit B
        # still runs two rounds of the measure-and-prepare ascent
        rounds = ["measure-and-prepare preparation",
                  "measure-and-prepare measurement"]
        for rho, expected in (
            (bell_state(), ["broadcast", "EB broadcast"]),
            (random_state((2, 3), np.random.default_rng(0)),
             ["broadcast", "EB broadcast"] + 2 * rounds),
        ):
            with recording() as records:
                broadcast_report(rho, restarts=4)
            assert [what for what, _ in records] == expected
            assert all(sol.status == "optimal" for _, sol in records)

    def test_a_nested_recording_also_reaches_the_enclosing_one(self):
        with recording() as outer:
            with recording() as inner:
                f_max_broadcast(bell_state())
            f_max_broadcast(werner_state(0.7))
        assert [what for what, _ in inner] == ["broadcast"]
        assert [what for what, _ in outer] == ["broadcast", "broadcast"]
        assert outer[0][1] is inner[0][1]

    def test_report_bounds_use_the_dual_objectives(self):
        with recording() as records:
            report = broadcast_report(bell_state(), restarts=2)
        solutions = dict(records)
        for bound, what in ((report.discord_bound_eb, "EB broadcast"),
                            (report.discord_bound_max, "broadcast")):
            assert bound == -2 * np.log2(solutions[what].dual_value)
        assert report.discord_bound_eb <= report.discord.value

    def test_nothing_is_kept_outside_a_recording(self):
        with recording() as records:
            pass
        broadcast_report(bell_state(), restarts=4)
        assert records == []
        assert sdp._RECORDS.get(None) is None

    def test_no_diagnostics_parameters(self):
        for name, fn in public_functions():
            params = inspect.signature(fn).parameters
            assert "diagnostics" not in params, name


class TestAuditGate:
    @pytest.fixture
    def failing_audit(self, monkeypatch):
        monkeypatch.setattr(
            sdp, "audit", lambda *args: (False, {"gap_vs_dual": 1.0})
        )

    def test_library_raises_on_a_failed_audit(self, failing_audit):
        with pytest.raises(RuntimeError, match="audit"):
            f_max_broadcast(bell_state())

    def test_command_exits_one_on_a_failed_audit(self, failing_audit, capsys):
        code = cli.main(["broadcast", "--gen", "bell", "--restarts", "2"])
        assert code == 1
        assert "audit" in capsys.readouterr().err


class TestSolverStatus:
    def test_schur_breakdown_is_not_an_iteration_cap(self):
        # at tol 1e-13 the Schur complement of this problem stops being
        # positive definite long before the 500-iteration cap
        with pytest.raises(RuntimeError, match="breakdown"):
            f_max_broadcast(werner_state(0.7), tol=1e-13)
