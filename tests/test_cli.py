import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qbroadcast import broadcast, cli, recovery
from qbroadcast.broadcast import EbDetail
from qbroadcast.cli import (
    InputError,
    parse_state_json,
    round_floats,
    state_digest,
    state_to_json,
)
from qbroadcast.corpus import bell_state, ghz_state, random_state


def run_cli(capsys, *argv):
    """Invoke the entry point in-process; return (exit code, stdout, stderr)."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--output", "json")
    assert code == 0, err
    return json.loads(out)


class TestStateFiles:
    def test_round_trip_is_exact(self):
        rho = bell_state()
        back = parse_state_json(state_to_json(rho))
        assert back.dims == rho.dims
        assert np.array_equal(back.matrix, rho.matrix)

    def test_digest_ignores_label_and_formatting(self):
        rho = bell_state()
        obj = state_to_json(rho, label="anything")
        relabeled = parse_state_json({**obj, "label": "other"})
        assert state_digest(relabeled) == state_digest(rho)

    def test_digest_distinguishes_states(self):
        assert state_digest(bell_state()) != state_digest(ghz_state())

    @pytest.mark.parametrize(
        "obj, fragment",
        [
            ([1, 2], "JSON object"),
            ({"dims": [2]}, "missing required key"),
            ({"dims": "two", "matrix": []}, "positive integers"),
            ({"dims": [2], "matrix": [[1, 2], [3, 4]]}, "re, im"),
            ({"dims": [2], "matrix": [[[1, 0]]]}, "row"),
            ({"dims": [4], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
             "4 rows"),
            # JSON true/false decode to bool, which is an int subclass
            ({"dims": [True, 2], "matrix": [[[0.5, 0], [0, 0]],
                                            [[0, 0], [0.5, 0]]]},
             "positive integers"),
            ({"dims": [2], "matrix": [[[0.5, False], [0, 0]],
                                      [[0, 0], [0.5, 0]]]},
             "re, im"),
            # an integer JSON entry too large for a float, like 1e400
            ({"dims": [1], "matrix": [[[10 ** 400, 0]]]},
             r"entry \(0, 0\) is not finite"),
            # 3 * 6148914691236517206 = 2^64 + 2, which int64 wraps to 2
            ({"dims": [3, 6148914691236517206],
              "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
             "matrix must have"),
        ],
    )
    def test_malformed_files_name_the_problem(self, obj, fragment):
        with pytest.raises(InputError, match=fragment):
            parse_state_json(obj)

    def test_non_hermitian_rejected_with_magnitude(self):
        obj = {
            "dims": [2],
            "matrix": [[[0.5, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        }
        with pytest.raises(InputError, match="Hermitian.*3.0"):
            parse_state_json(obj)

    def test_wrong_trace_rejected_with_magnitude(self):
        obj = {
            "dims": [2],
            "matrix": [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]],
        }
        with pytest.raises(InputError, match="trace.*8.0"):
            parse_state_json(obj)

    def test_negative_eigenvalue_rejected(self):
        obj = {
            "dims": [2],
            "matrix": [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]],
        }
        with pytest.raises(InputError, match="positive semidefinite"):
            parse_state_json(obj)

    def test_non_finite_entry_rejected(self):
        obj = {
            "dims": [2],
            "matrix": [[[1e400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        }
        with pytest.raises(InputError, match="not finite"):
            parse_state_json(obj)


    def test_boolean_file_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(
            '{"dims": [true, 2], "matrix": [[[0.5, 0], [0, 0]], '
            '[[0, 0], [0.5, 0]]]}',
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "measure", "entropy", "-i", str(path))
        assert code == 2 and out == ""
        assert "positive integers" in err


class TestRounding:
    def test_twelve_significant_digits(self):
        rounded = round_floats({"x": 0.1234567890123456789})
        assert rounded["x"] == float("0.123456789012")

    def test_non_float_types_survive(self):
        tree = {"flag": True, "n": 3, "name": "bell", "none": None,
                "seq": [1.0, False]}
        assert round_floats(tree) == tree

    def test_non_finite_become_text(self):
        assert round_floats(float("inf")) == "inf"

    def test_rounding_is_idempotent(self):
        value = round_floats(np.pi)
        assert round_floats(value) == value


class TestMeasure:
    def test_bell_mutual_information(self, capsys):
        report = run_json(capsys, "measure", "mutual-info", "--gen", "bell")
        assert report["quantities"]["mutual_information"] == 2.0
        assert report["input"]["dims"] == [2, 2]
        assert len(report["input"]["digest"]) == 64

    def test_ghz_conditional_mutual_information(self, capsys):
        report = run_json(
            capsys, "measure", "cmi", "--gen", "ghz", "--parts", "A|C|B"
        )
        assert report["quantities"]["conditional_mutual_information"] == 1.0

    def test_entropy_of_a_marginal(self, capsys):
        report = run_json(
            capsys, "measure", "entropy", "--gen", "bell", "--parts", "A"
        )
        assert report["quantities"]["entropy"] == 1.0

    def test_fidelity_needs_two_states(self, capsys):
        code, _, err = run_cli(capsys, "measure", "fidelity", "--gen", "bell")
        assert code == 2 and "second state" in err

    def test_fidelity_of_identical_files(self, capsys, tmp_path):
        path = tmp_path / "bell.json"
        path.write_text(json.dumps(state_to_json(bell_state())), encoding="utf-8")
        report = run_json(
            capsys, "measure", "fidelity", "-i", str(path), "--input2", str(path)
        )
        assert abs(report["quantities"]["fidelity"] - 1.0) < 1e-9
        assert report["input"]["digest"] == report["input2"]["digest"]

    def test_parts_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "measure", "cmi", "--gen", "ghz", "--parts", "A|A|B"
        )
        assert code == 2 and "twice" in err
        code, _, err = run_cli(
            capsys, "measure", "mutual-info", "--gen", "bell", "--parts", "A|Q"
        )
        assert code == 2 and "cannot read" in err
        # digits other than ASCII 0-9 are not subsystem indices
        for parts in ("\u00b2", "\u0663"):
            code, _, err = run_cli(
                capsys, "measure", "entropy", "--gen", "ghz", "--parts", parts
            )
            assert code == 2 and f"cannot read subsystem {parts!r}" in err

    def test_wrong_arity_is_invalid_input(self, capsys):
        code, out, err = run_cli(capsys, "measure", "cmi", "--gen", "bell")
        assert code == 2 and out == ""
        # names what cmi needs, not a default index the user never typed
        assert "measure cmi needs 3 subsystems or --parts" in err

    def test_missing_file_is_invalid_input(self, capsys):
        code, _, err = run_cli(capsys, "measure", "entropy", "-i", "/no/such")
        assert code == 2 and "cannot read" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("entropy", "--gen", "bell", "--gen2", "ghz"), "--gen2"),
            (("entropy", "--gen", "bell", "--input2", "/no/such"), "--input2"),
            (("mutual-info", "--gen", "bell", "--gen2", "bell"), "--gen2"),
            (("fidelity", "--gen", "bell", "--gen2", "bell", "--parts", "A|B"),
             "--parts"),
        ],
    )
    def test_flag_the_quantity_does_not_read_is_refused(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "measure", *argv)
        assert code == 2 and out == ""
        assert f"measure {argv[0]} does not read {flag}" in err

    def test_empty_parts_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "measure", "entropy", "--gen", "bell", "--parts", ""
        )
        assert code == 2 and out == "" and "parts: empty group" in err


class TestGen:
    def test_gen_emits_a_loadable_state(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--gen", "werner:0.3")
        assert code == 0
        rho = parse_state_json(json.loads(out))
        assert rho.dims == (2, 2)

    def test_unknown_name_is_invalid_input(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--gen", "sphinx")
        assert code == 2 and "unknown state" in err

    def test_gen_requires_a_name(self, capsys):
        code, _, err = run_cli(capsys, "gen")
        assert code == 2

    def test_unreadable_argument_names_the_state(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--gen", "cc:abc")
        assert code == 2 and out == ""
        assert "state 'cc:abc'" in err


class TestBroadcastAndRecover:
    def test_broadcast_on_classical_state(self, capsys):
        report = run_json(
            capsys, "broadcast", "--gen", "cc", "--restarts", "8"
        )
        q = report["quantities"]
        assert abs(q["f_max"] - 1.0) < 1e-6
        assert q["classicality"]["classical_on_b"]
        assert q["discord"]["value"] < 1e-7
        assert report["diagnostics"]["f_max"]["status"] == "optimal"
        assert report["diagnostics"]["f_eb"]["residual_primal"] < 1e-7

    def test_recover_ghz(self, capsys):
        report = run_json(capsys, "recover", "--gen", "ghz")
        q = report["quantities"]
        assert q["cmi"] == 1.0
        assert abs(q["petz_fidelity"] - 2 ** -0.5) < 1e-9
        assert q["optimal_fidelity"] >= q["fidelity_bound"] - 1e-6
        assert q["sigma_recovery_residual"] < 1e-8
        assert report["diagnostics"]["iterations"] > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("broadcast", "--gen", "bell", "--sdp-max-iters", "3"),
            ("recover", "--gen", "ghz", "--sdp-max-iters", "2"),
        ],
    )
    def test_uncertified_solve_exits_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert "max-iterations" in err

    def test_recover_rejects_bipartite(self, capsys):
        code, _, err = run_cli(capsys, "recover", "--gen", "bell")
        assert code == 2


class TestBroadcastChain:
    def test_valid_chain_exits_zero(self, capsys):
        report = run_json(
            capsys, "broadcast", "--gen", "bell", "--restarts", "2"
        )
        q = report["quantities"]
        assert q["f_max"] >= q["f_eb"] - 1e-6
        assert abs(q["f_eb_lower"] - q["f_eb"]) <= 1e-6

    def test_lower_bound_above_f_eb_exits_one(self, capsys, monkeypatch):
        original = broadcast.f_eb_detailed

        def inflated(*args, **kwargs):
            detail = original(*args, **kwargs)
            return EbDetail(detail.value, detail.value + 1e-3, detail.eb_exact)

        monkeypatch.setattr(broadcast, "f_eb_detailed", inflated)
        code, out, err = run_cli(capsys, "broadcast", "--gen", "bell",
                                 "--restarts", "2")
        assert code == 1
        assert out == ""
        assert "f_eb >= f_eb_lower" in err

    def test_f_eb_lower_is_the_library_bound_for_qutrit_b(
        self, capsys, tmp_path
    ):
        # the discord search the command also runs does not feed the bound
        rho = random_state((2, 3), np.random.default_rng(17))
        path = tmp_path / "2x3.json"
        path.write_text(json.dumps(state_to_json(rho)), encoding="utf-8")
        report = run_json(
            capsys, "broadcast", "-i", str(path), "--restarts", "2"
        )
        lower = broadcast.f_eb_detailed(rho).lower_bound
        assert report["quantities"]["f_eb_lower"] == round_floats(lower)



    def test_discord_bound_stays_below_the_discord(self, capsys):
        # the bound is read from the dual objective, which sits above the
        # optimum: from the primal value Bell printed 1.00000044 > D = 1
        report = run_json(
            capsys, "broadcast", "--gen", "bell", "--restarts", "2"
        )
        q = report["quantities"]
        assert q["discord_bound_eb"] <= q["discord"]["value"]
        assert q["discord_bound_eb"] > 1.0 - 1e-6
        assert q["discord_bound_max"] <= q["discord_bound_eb"]


class TestRecoveryChain:
    def test_optimal_below_petz_exits_one(self, capsys, monkeypatch):
        original = recovery.optimal_recovery_fidelity

        def deflated(*args, **kwargs):
            value, channel = original(*args, **kwargs)
            return value - 0.5, channel

        monkeypatch.setattr(recovery, "optimal_recovery_fidelity", deflated)
        code, out, err = run_cli(capsys, "recover", "--gen", "ghz")
        assert code == 1
        assert out == ""
        assert "F_opt >= F_petz" in err

class TestDemoChains:
    """The demo suites check each report's chain as the commands do."""

    def test_discord_bounds_exits_one_on_a_broken_link(self, capsys, monkeypatch):
        original = cli.broadcast_report

        def inflated(*args, **kwargs):
            rep = original(*args, **kwargs)
            return dataclasses.replace(rep, f_eb=rep.f_max + 1e-3)

        monkeypatch.setattr(cli, "broadcast_report", inflated)
        code, out, err = run_cli(capsys, "demo", "discord-bounds",
                                 "--output", "json")
        assert code == 1
        assert out == ""
        assert "f_max >= f_eb" in err

    def test_recoverability_exits_one_on_a_broken_link(self, capsys, monkeypatch):
        original = cli.recovery_report

        def deflated(*args, **kwargs):
            rep = original(*args, **kwargs)
            return dataclasses.replace(
                rep, optimal_fidelity=rep.optimal_fidelity - 0.5
            )

        monkeypatch.setattr(cli, "recovery_report", deflated)
        code, out, err = run_cli(capsys, "demo", "recoverability",
                                 "--output", "json")
        assert code == 1
        assert out == ""
        assert "F_opt >= F_petz" in err


class TestDemoFailureNamesTheCase:
    """A report that raises inside a demo suite names the case it ran."""

    def test_recoverability(self, capsys, monkeypatch):
        original = recovery.optimal_recovery_fidelity

        def deflated(*args, **kwargs):
            value, channel = original(*args, **kwargs)
            return value - 0.5, channel

        monkeypatch.setattr(recovery, "optimal_recovery_fidelity", deflated)
        code, out, err = run_cli(capsys, "demo", "recoverability",
                                 "--output", "json")
        assert code == 1 and out == ""
        assert "markov-product" in err and "F_opt >= F_petz" in err

    def test_discord_bounds(self, capsys, monkeypatch):
        original = broadcast.f_eb_detailed

        def inflated(*args, **kwargs):
            detail = original(*args, **kwargs)
            return EbDetail(detail.value, detail.value + 1e-3, detail.eb_exact)

        monkeypatch.setattr(broadcast, "f_eb_detailed", inflated)
        code, out, err = run_cli(capsys, "demo", "discord-bounds",
                                 "--restarts", "2", "--output", "json")
        assert code == 1 and out == ""
        assert "bell" in err and "f_eb >= f_eb_lower" in err


class TestLooseTolerance:
    """The chain and demo checks allow the slack of the solves' tolerance."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("broadcast", "--gen", "bell", "--restarts", "2"),
            ("broadcast", "--gen", "cq", "--restarts", "2"),
            ("recover", "--gen", "ghz"),
            ("demo", "no-unilocal-broadcast", "--restarts", "2"),
            ("demo", "recoverability", "--restarts", "2"),
            ("demo", "discord-bounds", "--restarts", "2"),
        ],
    )
    def test_exits_zero_at_tolerance_1e_3(self, capsys, argv):
        code, _, err = run_cli(
            capsys, *argv, "--tolerance", "1e-3", "--output", "json"
        )
        assert code == 0, err


class TestExitCodes:
    """2 for input the command cannot take, 1 for a failed computation."""

    def test_value_error_inside_a_computation_exits_one(
        self, capsys, monkeypatch
    ):
        def failing(*args, **kwargs):
            raise ValueError("fidelity 1.1 exceeds 1 beyond roundoff")

        monkeypatch.setattr(cli, "broadcast_report", failing)
        code, out, err = run_cli(capsys, "broadcast", "--gen", "bell")
        assert code == 1 and out == ""
        assert "computation failed" in err and "exceeds 1" in err

    def test_broadcast_of_a_tripartite_state_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "broadcast", "--gen", "ghz")
        assert code == 2 and "2 subsystems" in err

    def test_broadcast_beyond_the_b_dimension_limit_exits_two(
        self, capsys, tmp_path
    ):
        path = tmp_path / "2x5.json"
        rho = random_state((2, 5), np.random.default_rng(5))
        path.write_text(json.dumps(state_to_json(rho)), encoding="utf-8")
        code, _, err = run_cli(capsys, "broadcast", "-i", str(path))
        assert code == 2 and "B dimension 5" in err

    @pytest.mark.parametrize("dims", [(2, 1), (1, 2)])
    def test_broadcast_of_a_one_dimensional_factor_exits_two(
        self, capsys, tmp_path, dims
    ):
        path = tmp_path / "trivial-factor.json"
        rho = random_state(dims, np.random.default_rng(7))
        path.write_text(json.dumps(state_to_json(rho)), encoding="utf-8")
        code, _, err = run_cli(capsys, "broadcast", "-i", str(path))
        assert code == 2 and "at least 2" in err

    def test_state_file_that_is_not_utf8_exits_two(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"dims": [2, 2], \xff}')
        code, out, err = run_cli(capsys, "broadcast", "-i", str(path))
        assert code == 2 and out == "" and "not UTF-8" in err

    def test_recover_of_a_four_party_state_exits_two(self, capsys, tmp_path):
        path = tmp_path / "2x2x2x2.json"
        rho = random_state((2, 2, 2, 2), np.random.default_rng(6))
        path.write_text(json.dumps(state_to_json(rho)), encoding="utf-8")
        code, _, err = run_cli(capsys, "recover", "-i", str(path))
        assert code == 2 and "3 subsystems" in err

    def test_fidelity_of_unequal_dimensions_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "measure", "fidelity", "--gen", "bell", "--gen2", "ghz"
        )
        assert code == 2 and "equal dimension" in err

    @pytest.mark.parametrize("spec", ["bell:3", "ghz:x"])
    def test_argument_to_a_fixed_state_exits_two(self, capsys, spec):
        code, out, err = run_cli(capsys, "gen", "--gen", spec)
        assert code == 2 and out == ""
        assert f"{spec.partition(':')[0]!r} takes no argument" in err

    @pytest.mark.parametrize("spec", ["werner:", "random:", "cc:", "cq:"])
    def test_missing_value_after_the_colon_exits_two(self, capsys, spec):
        code, out, err = run_cli(capsys, "gen", "--gen", spec)
        assert code == 2 and out == ""
        assert f"state {spec[:-1]!r} needs a value after ':'" in err

    def test_negative_seed_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["broadcast", "--gen", "bell", "--seed", "-1"])
        assert exc.value.code == 2


class TestDemo:
    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "demo", "mystery")
        assert code == 2 and "unknown suite" in err

    def test_no_broadcast_suite_passes(self, capsys):
        report = run_json(capsys, "demo", "no-broadcast", "--seed", "5")
        assert report["passed"] is True
        names = [case["name"] for case in report["cases"]]
        assert any("commuting" in n for n in names)
        assert all(case["passed"] for case in report["cases"])

    def test_same_seed_reproduces_json_byte_for_byte(self, capsys):
        code1, out1, _ = run_cli(
            capsys, "demo", "no-broadcast", "--seed", "11", "--output", "json"
        )
        code2, out2, _ = run_cli(
            capsys, "demo", "no-broadcast", "--seed", "11", "--output", "json"
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_table_output_reports_counts(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "no-local-broadcast")
        assert code == 0
        assert "4 passed, 0 failed" in out
        assert out.count("PASS") == 4


REMOVED_FLAGS = [
    ("measure", "--tolerance", "1e-7"),
    ("measure", "--sdp-max-iters", "10"),
    ("measure", "--seed", "1"),
    ("measure", "--restarts", "2"),
    ("recover", "--seed", "1"),
    ("recover", "--restarts", "2"),
    ("demo", "-i", "state.json"),
    ("demo", "--gen", "bell"),
    ("gen", "-i", "state.json"),
    ("gen", "--tolerance", "1e-7"),
    ("gen", "--sdp-max-iters", "10"),
    ("gen", "--seed", "1"),
    ("gen", "--restarts", "2"),
    ("gen", "--output", "json"),
]

OUT_OF_RANGE = [
    ("--restarts", "-3"),
    ("--restarts", "0"),
    ("--sdp-max-iters", "-1"),
    ("--sdp-max-iters", "0"),
    ("--tolerance", "-1"),
    ("--tolerance", "0"),
    ("--tolerance", "nan"),
    ("--tolerance", "inf"),
]


def base_argv(command):
    """A valid invocation of ``command`` that the flag under test extends."""
    return {
        "measure": ["measure", "entropy", "--gen", "bell"],
        "recover": ["recover", "--gen", "ghz"],
        "demo": ["demo", "no-broadcast"],
        "gen": ["gen", "--gen", "bell"],
        "broadcast": ["broadcast", "--gen", "bell"],
    }[command]


class TestFlags:
    @pytest.mark.parametrize(
        "command,flag,value", REMOVED_FLAGS,
        ids=[f"{c}{f}" for c, f, _ in REMOVED_FLAGS],
    )
    def test_flag_the_command_does_not_read_is_rejected(
        self, command, flag, value
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(base_argv(command) + [flag, value])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["broadcast", "demo"])
    @pytest.mark.parametrize(
        "flag,value", OUT_OF_RANGE, ids=[f"{f}={v}" for f, v in OUT_OF_RANGE]
    )
    def test_out_of_range_value_is_rejected(self, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(base_argv(command) + [flag, value])
        assert exc.value.code == 2

    def test_measure_report_has_no_unused_settings(self, capsys):
        report = run_json(capsys, "measure", "mutual-info", "--gen", "bell")
        assert "seed" not in report and "tolerance" not in report

    def test_gen_prints_json_without_an_output_flag(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--gen", "bell")
        assert code == 0
        assert json.loads(out)["dims"] == [2, 2]


class TestEntryPoint:
    """Exit codes of the real process, which in-process calls cannot see."""

    @staticmethod
    def run(*argv):
        root = Path(__file__).resolve().parents[1]
        env = dict(
            os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(root / "src")
        )
        return subprocess.run(
            [sys.executable, "-m", "qbroadcast.cli", *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )

    def test_unknown_flag_exits_two(self):
        assert self.run("gen", "--gen", "bell", "--output", "json").returncode == 2

    def test_out_of_range_value_exits_two(self):
        proc = self.run("broadcast", "--gen", "bell", "--restarts", "-3")
        assert proc.returncode == 2
        assert "restarts" in proc.stderr

    def test_valid_broadcast_exits_zero(self):
        proc = self.run(
            "broadcast", "--gen", "bell", "--restarts", "2", "--output", "json"
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["diagnostics"]["f_max"]["status"] == "optimal"
