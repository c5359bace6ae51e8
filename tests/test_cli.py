import json
import math
import signal
import subprocess
import sys
import tracemalloc
import weakref

from types import SimpleNamespace

import numpy as np
import pytest

from qgame import cli, equilibrium, verification
from qgame.cells import CsvCells, ReprCells, _table_chunks
from qgame.cli import (
    EQUILIBRIA_FIELDS,
    SWEEP_FIELDS,
    _csv_table,
    main,
    parse_angle,
    parse_angle_list,
)
from qgame.equilibrium import (
    PROFILE_BYTES,
    SUMMARY_FIELDS,
    StrategyGrid,
    epsilon_nash,
    sweep_schemes,
    table_blocks,
)
from qgame.scheme import GameMatrix, SchemeParams, battle_of_sexes

HP = math.pi / 2
# payoffs at the largest float, over MAX_PAYOFF: weighting them would overflow to inf
OVERFLOWING = ["--matrix", ",".join(["1.7976931348623157e308,1"] * 4)]
# a constant game: every profile is an equilibrium
CONSTANT = ["--matrix", "1,1,1,1,1,1,1,1", "--gamma", "0.3", "--delta", "0.2"]
# Python 3.10 before 3.10.7 reads integer text of any length
INT_TEXT_LIMIT = pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                                    reason="this Python reads integer text of any length")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_angle_tokens(self):
        assert parse_angle("pi") == math.pi
        assert parse_angle("pi/2") == HP
        assert parse_angle("pi/4") == math.pi / 4
        assert parse_angle("0.25") == 0.25

    def test_bad_angle(self):
        with pytest.raises(ValueError, match="invalid angle"):
            parse_angle("tau")

    @pytest.mark.parametrize("grid,message", [
        ("33", "grid needs 'theta_steps,phi_steps', got '33'"),
        ("33,17,9", "grid needs 'theta_steps,phi_steps', got '33,17,9'"),
        ("33,x", "grid steps must be integers, got '33,x'"),
        ("3.5,2", "grid steps must be integers, got '3.5,2'"),
    ])
    @pytest.mark.parametrize("command", ["sweep", "equilibria"])
    def test_bad_grid_exits_one(self, capsys, command, grid, message):
        code, out, err = run_cli(capsys, command, "--bos", "2,1,0", "--gamma", "0",
                                 "--delta", "0", f"--grid={grid}")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @INT_TEXT_LIMIT
    @pytest.mark.parametrize("grid,message", [
        ("9" * 4400 + ",1", "<int of 4400 digits> is too long, over the grid limit of "
                            "4793490 points"),
        ("1, +" + "9_9" * 2200, "<int of 4400 digits> is too long, over the grid limit of "
                                "4793490 points"),
        ("-" + "9" * 4400 + ",1", "<negative int of 4400 digits> is too long, and grid steps "
                                  "must be positive"),
    ], ids=["theta", "phi-underscores", "negative"])
    @pytest.mark.parametrize("command", ["sweep", "equilibria"])
    def test_grid_step_too_long_to_read_exits_one(self, capsys, tmp_path, command, grid,
                                                  message):
        # int() refuses integer text of over 4,300 digits with its own
        # ValueError, which blamed the type and printed every digit
        out_file = tmp_path / "out.json"
        code, out, err = run_cli(capsys, command, "--bos", "2,1,0", "--gamma", "0.5",
                                 "--delta", "0.1", f"--grid={grid}", "--out", str(out_file))
        assert (code, out, err) == (1, "", f"error: --grid step {message}\n")
        assert not out_file.exists()


class TestPayoff:
    def test_classical_json(self, capsys):
        code, out, _ = run_cli(capsys, "payoff", "--bos", "2,1,0", "--gamma", "0",
                               "--delta", "0", "--s1", "0,0", "--s2", "0,0")
        assert code == 0
        row = json.loads(out)
        assert row["payoff_a"] == pytest.approx(2.0)
        assert row["payoff_b"] == pytest.approx(1.0)
        assert row["p_oo"] == pytest.approx(1.0)
        assert row["abs_diff_a"] <= 1e-9

    def test_quantum_point_decimal_angles(self, capsys):
        code, out, _ = run_cli(capsys, "payoff", "--bos", "2,1,0",
                               "--gamma", "1.5707963", "--delta", "1.5707963",
                               "--s1", "0,1.5707963", "--s2", "0,0")
        assert code == 0
        row = json.loads(out)
        assert row["payoff_a"] == pytest.approx(1.0, abs=1e-6)
        assert row["payoff_b"] == pytest.approx(2.0, abs=1e-6)

    def test_quantum_point_pi_tokens(self, capsys):
        code, out, _ = run_cli(capsys, "payoff", "--bos", "2,1,0",
                               "--gamma", "pi/2", "--delta", "pi/2",
                               "--s1", "0,pi/2", "--s2", "0,0")
        row = json.loads(out)
        assert row["payoff_a"] == pytest.approx(1.0, abs=1e-12)
        assert row["payoff_b"] == pytest.approx(2.0, abs=1e-12)

    def test_csv_schema_and_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "payoff", "--bos", "2,1,0", "--gamma", "pi/4",
                               "--delta", "pi/4", "--s1", "0.3,0.2", "--s2", "1.1,0.9",
                               "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == ("gamma,delta,theta1,phi1,theta2,phi2,payoff_a,payoff_b,"
                          "p_oo,p_ot,p_to,p_tt")
        tokens = row.split(",")
        assert len(tokens) == 12
        # 15-significant-digit round trip: parse and re-format reproduces the row
        assert [f"{float(t):.15g}" for t in tokens] == tokens

    def test_gamma_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "payoff", "--bos", "2,1,0", "--gamma", "2.0",
                               "--delta", "0", "--s1", "0,0", "--s2", "0,0")
        assert code == 1
        assert "gamma" in err and "[0, pi/2]" in err

    def test_missing_option(self, capsys):
        code, _, err = run_cli(capsys, "payoff", "--bos", "2,1,0", "--gamma", "0",
                               "--delta", "0", "--s1", "0,0")
        assert code == 1
        assert "--s2" in err

    def test_matrix_game_has_no_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "payoff",
                               "--matrix", "3,3,0,5,5,0,1,1",
                               "--gamma", "0", "--delta", "0",
                               "--s1", "pi,0", "--s2", "0,0")
        assert code == 0
        row = json.loads(out)
        assert row["payoff_a"] == pytest.approx(5.0)
        assert row["payoff_b"] == pytest.approx(0.0)
        assert "closed_form_a" not in row

    def test_bos_and_matrix_conflict(self, capsys):
        code, _, err = run_cli(capsys, "payoff", "--bos", "2,1,0",
                               "--matrix", "3,3,0,5,5,0,1,1", "--gamma", "0",
                               "--delta", "0", "--s1", "0,0", "--s2", "0,0")
        assert code == 1
        assert "argument --matrix: not allowed with argument --bos" in err

    def test_bos_ordering_validated(self, capsys):
        code, _, err = run_cli(capsys, "payoff", "--bos", "1,2,0", "--gamma", "0",
                               "--delta", "0", "--s1", "0,0", "--s2", "0,0")
        assert code == 1
        assert "alpha > beta > sigma" in err

    def test_phi_range_gate(self, capsys):
        argv = ["payoff", "--bos", "2,1,0", "--gamma", "0", "--delta", "0",
                "--s1", "0,3.0", "--s2", "0,0"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and "phi" in err
        code, out, _ = run_cli(capsys, *argv, "--phi-range", "full")
        assert code == 0

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "row.json"
        code, out, _ = run_cli(capsys, "payoff", "--bos", "2,1,0", "--gamma", "0",
                               "--delta", "0", "--s1", "0,0", "--s2", "0,0",
                               "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["payoff_a"] == pytest.approx(2.0)

    def test_unwritable_out_path(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "payoff", "--bos", "2,1,0", "--gamma", "0",
                               "--delta", "0", "--s1", "0,0", "--s2", "0,0",
                               "--out", str(tmp_path / "missing" / "row.json"))
        assert code == 1
        assert "error" in err


class TestConfigFile:
    # Notepad saves UTF-8 with a byte order mark by default; it may precede
    # a comment or the first key
    @pytest.mark.parametrize("head", ["# classical point\n", "\ufeff# classical point\n",
                                      "\ufeff"], ids=["plain", "bom-comment", "bom-key"])
    def test_config_supplies_options(self, capsys, tmp_path, head):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            head
            + "bos = 2,1,0\n"
            "gamma = 0\n"
            "delta = 0\n"
            "s1 = 0,0\n"
            "s2 = 0,0\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "payoff", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["payoff_a"] == pytest.approx(2.0)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bos = 2,1,0\ngamma = 0\ndelta = 0\ns1 = 0,0\ns2 = 0,0\n")
        code, out, _ = run_cli(capsys, "payoff", "--config", str(cfg),
                               "--s2", "pi,0")
        assert code == 0
        assert json.loads(out)["payoff_a"] == pytest.approx(0.0)

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma 0\n")
        code, _, err = run_cli(capsys, "payoff", "--config", str(cfg))
        assert code == 1
        assert "key = value" in err

    def test_config_empty_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bos = 2,1,0\n = 3\n")
        code, out, err = run_cli(capsys, "payoff", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == f"error: {cfg}:2: expected 'key = value', got ' = 3\\n'\n"

    def test_config_summary_true(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("summary = true\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--bos", "2,1,0",
                               "--gamma", "0", "--delta", "0", "--grid", "2,1")
        assert code == 0
        assert json.loads(out)[0]["equilibria"] == 2

    @pytest.mark.parametrize("value", ["yes", "1", "True"])
    def test_config_summary_rejects_other_booleans(self, capsys, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"summary = {value}\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--bos", "2,1,0",
                                 "--gamma", "0", "--delta", "0", "--grid", "2,1")
        assert code == 1
        assert out == ""
        assert "'true'" in err and "'false'" in err and repr(value) in err

    @pytest.mark.parametrize("argv", [["payoff", "--config"],
                                      ["sweep", "--bos", "2,1,0", "--config"]])
    def test_config_without_value(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert "--config" in err

    def test_missing_config_file(self, capsys, tmp_path):
        path = str(tmp_path / "absent.cfg")
        code, out, err = run_cli(capsys, "payoff", "--config", path)
        assert (code, out) == (1, "")
        assert path in err

    def test_config_cannot_name_another(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"config = {cfg}\n")
        code, out, err = run_cli(capsys, "payoff", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert "cannot name another" in err

    @pytest.mark.parametrize("command,line,key", [
        ("sweep", "grdi = 2,1", "--grdi"),
        ("sweep", "sumary = true", "--sumary"),
        ("payoff", "seed = 3", "--seed"),
        ("verify", "grid = 2,1", "--grid"),
        ("equilibria", "summary = true", "--summary"),
        ("payoff", "summary = false", "--summary"),
        ("verify", "summary = false", "--summary"),
        ("equilibria", "summary = false", "--summary"),
    ], ids=["typo", "typo-bool", "payoff-seed", "verify-grid", "equilibria-summary",
            "payoff-summary-false", "verify-summary-false", "equilibria-summary-false"])
    def test_unknown_or_foreign_key(self, capsys, tmp_path, command, line, key):
        # every other input is valid, so only the key can fail the run
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        flags = {"payoff": ["--bos", "2,1,0", "--gamma", "0", "--delta", "0",
                            "--s1", "0,0", "--s2", "0,0"],
                 "verify": []}.get(command, ["--bos", "2,1,0", "--gamma", "0",
                                             "--delta", "0", "--grid", "2,1"])
        target = tmp_path / "result"
        code, out, err = run_cli(capsys, command, "--config", str(cfg), *flags,
                                 "--out", str(target))
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err and key in err
        assert not target.exists()


def fake_verification(game, seed):
    return SimpleNamespace(passed=True, render=lambda: f"bos {game.bos} seed {seed}\n")


# every option of every subcommand: (value, other value, invalid value), None
# where an option has none; {out} stands for a scratch directory. A flag with
# the other value must override a config line with the value.
OPTIONS = {
    "payoff": {
        "bos": ("3,2,0.5", "5,3,1", "1,2,0"),
        "matrix": ("3,3,0,5,5,0,1,1", "1,-1,-1,1,-1,1,1,-1", "1,2,3"),
        "gamma": ("pi/2", "0.2", "2.0"),
        "delta": ("0.1", "pi/4", "-0.5"),
        "s1": ("0.5,0.1", "pi,pi/2", "0,3.0"),
        "s2": ("pi,0", "1.1,0.9", "0,0,0"),
        "phi-range": ("full", "narrow", "wide"),
        "format": ("csv", "json", "yaml"),
        "out": ("{out}/a", "{out}/b", "{out}/missing/a"),
    },
    "verify": {
        "bos": ("3,2,1", "5,3,1", "1,2,0"),
        "matrix": ("3,2,1,1,1,1,2,3", "5,3,1,1,1,1,3,5", "1,2,3"),
        "seed": ("3", "4", "-1"),
        "out": ("{out}/a", "{out}/b", "{out}/missing/a"),
    },
    "sweep": {
        "bos": ("3,2,0.5", "5,3,1", "1,2,0"),
        "matrix": ("3,3,0,5,5,0,1,1", "1,-1,-1,1,-1,1,1,-1", "1,2,3"),
        "gamma": ("0.1,0.2", "pi/2", "0.5,2.0"),
        "delta": ("0.1", "pi/4,0", "-0.5"),
        "grid": ("2,2", "3,1", "0,1"),
        "eps": ("0.5", "0", "-1"),
        "phi-range": ("full", "narrow", "wide"),
        "format": ("csv", "json", "yaml"),
        "out": ("{out}/a", "{out}/b", "{out}/missing/a"),
        "summary": ("false", "true", "yes"),
    },
    "equilibria": {
        "bos": ("3,2,0.5", "5,3,1", "1,2,0"),
        "matrix": ("3,3,0,5,5,0,1,1", "1,-1,-1,1,-1,1,1,-1", "1,2,3"),
        "gamma": ("pi/2", "0.2", "2.0"),
        "delta": ("0.1", "pi/4", "-0.5"),
        "grid": ("2,2", "3,1", "0,1"),
        "eps": ("1e-6", "0", "-1"),
        "phi-range": ("full", "narrow", "wide"),
        "format": ("csv", "json", "yaml"),
        "out": ("{out}/a", "{out}/b", "{out}/missing/a"),
    },
}
BASE = {
    "payoff": {"bos": "2,1,0", "gamma": "pi/4", "delta": "0.3", "s1": "0.3,0.2",
               "s2": "1.1,0.9"},
    "verify": {},
    "sweep": {"bos": "2,1,0", "gamma": "0,pi/4", "delta": "0.3", "grid": "3,2"},
    "equilibria": {"bos": "2,1,0", "gamma": "pi/4", "delta": "0.3", "grid": "3,2"},
}
# cases in which the other value alone would not change the output
OVERRIDE_EXTRA = {
    ("payoff", "phi-range"): {"s1": "0,3.0"},  # only validation reads phi-range
    ("sweep", "eps"): {"summary": "true"},  # rows mode does not use eps
}


def flag_tokens(options):
    tokens = []
    for key, value in options.items():
        if key == "summary" and value in ("true", "false"):
            tokens += ["--summary"] if value == "true" else []
        elif value.startswith("-") or key == "summary":
            tokens.append(f"--{key}={value}")
        else:
            tokens += [f"--{key}", value]
    return tokens


def invoke(capsys, tmp_path, command, config, flags):
    """Exit code, stdout and the --out files of one run, config given as a dict."""
    outdir = tmp_path / "outs"
    outdir.mkdir(exist_ok=True)

    def fill(options):
        return {k: v.format(out=outdir) for k, v in options.items()}

    argv = [command]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in fill(config).items()))
        argv += ["--config", str(cfg)]
    code = main(argv + flag_tokens(fill(flags)))
    files = {}
    for path in outdir.iterdir():
        files[path.name] = path.read_text()
        path.unlink()
    return code, capsys.readouterr().out, files


def _option_cases():
    return [pytest.param(command, key, value, int(value == values[2]),
                         id=f"{command}-{key}-{value}")
            for command, options in OPTIONS.items() for key, values in options.items()
            for value in values if value is not None]


class TestConfigMatchesFlags:
    @pytest.fixture(autouse=True)
    def _fast_verify(self, monkeypatch):
        # the option handling is under test, not the suite
        monkeypatch.setattr(verification, "run_verification", fake_verification)

    @staticmethod
    def base(command, key):
        drop = {key, "bos"} if key == "matrix" else {key}
        return {k: v for k, v in BASE[command].items() if k not in drop}

    @pytest.mark.parametrize("command,key,value,code", _option_cases())
    def test_line_equals_flag(self, capsys, tmp_path, command, key, value, code):
        base = self.base(command, key)
        by_config = invoke(capsys, tmp_path, command, {**base, key: value}, {})
        by_flag = invoke(capsys, tmp_path, command, None, {**base, key: value})
        assert by_config == by_flag
        assert by_config[0] == code

    @pytest.mark.parametrize("command,key", [
        (command, key) for command, options in OPTIONS.items()
        for key, values in options.items() if values[1] is not None])
    def test_flag_overrides_line(self, capsys, tmp_path, command, key):
        value, other, _ = OPTIONS[command][key]
        base = {**self.base(command, key), **OVERRIDE_EXTRA.get((command, key), {})}
        both = invoke(capsys, tmp_path, command, {**base, key: value}, {key: other})
        flag_only = invoke(capsys, tmp_path, command, None, {**base, key: other})
        config_only = invoke(capsys, tmp_path, command, {**base, key: value}, {})
        assert both == flag_only
        assert both != config_only


class TestVerify:
    def test_default_run_passes(self, verify_seed0):
        # the default run is seed 0 on BoS (2, 1, 0), the shared verify_seed0 run
        args = cli.build_parser().parse_args(["verify"])
        assert (args.seed, args.bos) == ("0", "2,1,0")
        _, code, out, _ = verify_seed0
        assert code == 0
        assert "result: PASS" in out
        assert "du_printed_vs_oracle" in out
        assert "rejected by simulation" in out  # the printed-form flag line
        assert "(3, 3) vs simulated (1, 2)" in out

    @pytest.mark.parametrize("seed", ["x", "1.5", ""])
    def test_non_integer_seed_exits_one(self, capsys, seed):
        code, out, err = run_cli(capsys, "verify", f"--seed={seed}")
        assert (code, out) == (1, "")
        assert err == f"error: seed must be a nonnegative integer, got {seed!r}\n"

    @INT_TEXT_LIMIT
    @pytest.mark.parametrize("seed,shown", [("9" * 5000, "<int of 5000 digits>"),
                                            ("-" + "9" * 5000, "<negative int of 5000 digits>")],
                             ids=["positive", "negative"])
    def test_seed_too_long_to_read_exits_one(self, capsys, tmp_path, seed, shown):
        # int() refuses integer text of over 4,300 digits with its own
        # ValueError, which blamed the type and printed every digit
        out_file = tmp_path / "report.txt"
        code, out, err = run_cli(capsys, "verify", f"--seed={seed}", "--out", str(out_file))
        assert (code, out) == (1, "")
        assert err == (f"error: --seed {shown} is too long: a seed must be a nonnegative "
                       f"integer of at most {sys.get_int_max_str_digits()} digits\n")
        assert not out_file.exists()

    @INT_TEXT_LIMIT
    def test_seed_of_the_most_digits_python_reads_runs(self, capsys):
        seed = "9" * sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "verify", f"--seed={seed}")
        assert code == 0 and "result: PASS" in out

    def test_matrix_without_bos_form_exits_one(self, capsys):
        # the Prisoner's Dilemma: verification needs the battle-of-sexes form
        code, out, err = run_cli(capsys, "verify", "--matrix", "3,3,0,5,5,0,1,1")
        assert (code, out) == (1, "")
        assert "verification needs a battle-of-sexes game" in err

    def test_bos_form_matrix_prints_the_bos_report(self, capsys, verify_seed0):
        # a game is its cells: --matrix A,B,S,S,S,S,B,A is the game --bos A,B,S
        argv, code, out, _ = verify_seed0
        assert run_cli(capsys, *argv, "--matrix", "2,1,0,0,0,0,1,2") == (code, out, "")

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_payoffs_above_bound_exit_one(self, capsys, tmp_path, to_file):
        target = tmp_path / "report.txt"
        out_args = ["--out", str(target)] if to_file else []
        code, out, err = run_cli(capsys, "verify", "--bos", "1e23,0,-1e23", *out_args)
        assert (code, out) == (1, "")
        assert "at most 1e+06 in magnitude" in err
        assert not target.exists()


class TestGameOptions:
    """--bos and --matrix are one mutually exclusive group in every command;
    verify alone has a default game, --bos 2,1,0."""

    ARGS = {
        "payoff": ["--gamma", "0", "--delta", "0", "--s1", "0,0", "--s2", "0,0"],
        "verify": [],
        "sweep": ["--gamma", "0", "--delta", "0", "--grid", "2,1"],
        "equilibria": ["--gamma", "0", "--delta", "0", "--grid", "2,1"],
    }

    @pytest.mark.parametrize("command", sorted(ARGS))
    @pytest.mark.parametrize("order", ["bos-first", "matrix-first"])
    def test_bos_with_matrix_exits_one(self, capsys, tmp_path, command, order):
        # the --bos value is verify's default: given, it still counts
        games = [["--bos", "2,1,0"], ["--matrix", "2,1,0,0,0,0,1,2"]]
        if order == "matrix-first":
            games.reverse()
        target = tmp_path / "result"
        code, out, err = run_cli(capsys, command, *games[0], *games[1], *self.ARGS[command],
                                 "--out", str(target))
        assert (code, out) == (1, "")
        assert "not allowed with argument" in err
        assert not target.exists()

    @pytest.mark.parametrize("command", ["payoff", "sweep", "equilibria"])
    def test_a_game_is_required(self, capsys, command):
        code, out, err = run_cli(capsys, command, *self.ARGS[command])
        assert (code, out) == (1, "")
        assert "one of the arguments --bos --matrix is required" in err

    @pytest.mark.parametrize("game,message", [
        (["--bos", "2,x,0"], "bos needs 3 comma-separated numbers, got '2,x,0'"),
        (["--matrix", "1,2,3,4,5,6,7,x"],
         "matrix needs 8 comma-separated numbers, got '1,2,3,4,5,6,7,x'"),
    ], ids=["bos", "matrix"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_payoff_that_is_not_a_number(self, capsys, tmp_path, game, message, to_file):
        target = tmp_path / "result"
        out_args = ["--out", str(target)] if to_file else []
        code, out, err = run_cli(capsys, "payoff", *game, *self.ARGS["payoff"], *out_args)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
        assert not target.exists()


class TestSweep:
    def test_single_point_profile_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--bos", "2,1,0", "--gamma", "0",
                               "--delta", "0", "--grid", "1,1", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["payoff_a"]) == pytest.approx(2.0)
        assert float(row["payoff_b"]) == pytest.approx(1.0)
        assert float(row["theta1"]) == 0.0 and float(row["phi2"]) == 0.0

    def test_summary_rows_in_input_order(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--bos", "2,1,0",
                               "--gamma", "0,pi/4,pi/2", "--delta", "0,pi/4,pi/2",
                               "--grid", "2,1", "--summary", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["gamma"] for r in rows] == [0.0, math.pi / 4, HP]
        assert [r["delta"] for r in rows] == [0.0, math.pi / 4, HP]
        assert rows[0]["equilibria"] == 2
        assert all(r["max_formula_dev"] <= 1e-9 for r in rows)

    def test_payoffs_within_hull(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--bos", "2,1,0",
                               "--gamma", "0,pi/2", "--delta", "pi/4",
                               "--grid", "3,3", "--format", "json")
        assert code == 0
        for row in json.loads(out):
            assert 0.0 - 1e-12 <= row["payoff_a"] <= 2.0 + 1e-12
            assert 0.0 - 1e-12 <= row["payoff_b"] <= 2.0 + 1e-12
            total = row["p_oo"] + row["p_ot"] + row["p_to"] + row["p_tt"]
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--bos", "2,1,0", "--gamma", "0.7",
                               "--delta", "0.2", "--grid", "2,2", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 16  # header + 4x4 profiles
        for line in lines[1:]:
            tokens = line.split(",")
            assert [f"{float(t):.15g}" for t in tokens] == tokens


    @pytest.mark.parametrize("matrix,empty", [
        # matching pennies: nothing certified and no closed form
        ("1,-1,-1,1,-1,1,1,-1", [False, False, False, True, True, True]),
        # the prisoner's dilemma: certified profiles, but no closed form
        ("3,3,0,5,5,0,1,1", [False, False, False, False, False, True]),
    ], ids=["pennies", "prisoners"])
    def test_summary_csv_leaves_missing_values_empty(self, capsys, matrix, empty):
        code, out, _ = run_cli(capsys, "sweep", "--matrix", matrix, "--gamma", "0.7",
                               "--delta", "0.4", "--summary", "--format", "csv")
        header, row = out.splitlines()
        assert code == 0 and header == ",".join(SUMMARY_FIELDS)
        assert row.startswith("0.7,0.4,")
        assert [cell == "" for cell in row.split(",")] == empty

    @pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
    def test_summary_rejects_invalid_eps(self, capsys, eps):
        code, out, err = run_cli(capsys, "sweep", "--bos", "2,1,0", "--gamma", "0",
                                 "--delta", "0", "--grid", "5,3", "--summary", f"--eps={eps}")
        assert (code, out) == (1, "")
        assert "eps must be nonnegative" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_summary_oversized_grid_writes_nothing(self, capsys, tmp_path, fmt, to_file):
        target = tmp_path / "summary"
        out_args = ["--out", str(target)] if to_file else []
        code, out, err = run_cli(capsys, "sweep", "--bos", "2,1,0", "--gamma", "0.5",
                                 "--delta", "0.1", "--grid", "4096,2048", "--summary",
                                 "--format", fmt, *out_args)
        assert (code, out) == (1, "")
        assert "4096x2048 grid has 8388608 points" in err
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("bad,message", [
        (["--bos", "2,1,0", "--gamma", "0.5,2.0", "--delta", "0.1"], "gamma must be in"),
        (["--bos", "2,1,0", "--gamma", "0.5", "--delta", "0.1", "--grid", "4096,2048"],
         "4096x2048 grid has 8388608 points"),
        ([*OVERFLOWING, "--gamma", "pi/4", "--delta", "0.3", "--grid", "3,2"],
         "at most 1e+300 in magnitude"),
        *[(["--bos", "2,1,0", "--gamma", "0.5", "--delta", "0.1", "--grid", "3,2",
            f"--eps={eps}"], "eps must be nonnegative") for eps in ("-1", "nan", "inf")],
    ], ids=["second-pair-out-of-range", "oversized-grid", "overflowing-payoffs",
            "eps-negative", "eps-nan", "eps-inf"])
    def test_invalid_input_writes_nothing(self, capsys, tmp_path, fmt, to_file, bad, message):
        # rows stream, so every check must run before the first byte
        target = tmp_path / "rows"
        out_args = ["--out", str(target)] if to_file else []
        code, out, err = run_cli(capsys, "sweep", *bad, "--format", fmt, *out_args)
        assert (code, out) == (1, "")
        assert message in err
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["--bos", "2,1,0", "--gamma", "pi/2", "--delta", "pi/4", "--grid", "1,1"],
        ["--bos", "2,1,0", "--gamma", "0,pi/2", "--delta", "0.3,pi/4", "--grid", "5,3"],
        ["--bos", "3,2,0.5", "--gamma", "0,pi/4,pi/2", "--delta", "pi/4", "--grid", "4,3",
         "--phi-range", "full"],
        ["--matrix", "3,3,0,5,5,0,1,1", "--gamma", "0.123456789", "--delta", "0,pi/2",
         "--grid", "2,3"],
    ], ids=["1x1", "5x3-2pairs", "full-3pairs", "matrix"])
    def test_rows_match_row_dict_reference(self, capsys, fmt, argv):
        code, out, err = run_cli(capsys, "sweep", *argv, "--format", fmt)
        assert code == 0, err
        rows = reference_sweep_rows(argv)
        if fmt == "csv":
            assert out == _csv_table(SWEEP_FIELDS, rows)
        else:
            assert out == json.dumps(rows, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_pairs(self, tmp_path, fmt):
        def peak(pairs):
            gammas = ",".join(["0.4"] * pairs)
            tracemalloc.start()
            try:
                code = main(["sweep", "--bos", "2,1,0", "--gamma", gammas, "--delta", "0.2",
                             "--grid", "9,5", "--format", fmt, "--out", str(tmp_path / "rows")])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (code1, one), (code4, four) = peak(1), peak(4)
        assert code1 == code4 == 0
        assert four < 2 * one, (one, four)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_match_uneven_blocks(self, capsys, monkeypatch, fmt):
        # 15 grid points in row blocks of 4, 4, 4 and 3 of Alice's rows; rows
        # are written at most 7 at a time, which splits every block, in CSV
        # and in JSON
        argv = ["--bos", "2,1,0", "--gamma", "0.7,pi/2", "--delta", "0.4,0.3",
                "--grid", "5,3"]
        monkeypatch.setattr(equilibrium, "BLOCK_BYTES", 4 * 32 * 15)
        monkeypatch.setattr("qgame.cells.CSV_ROWS", 7)
        code, out, err = run_cli(capsys, "sweep", *argv, "--format", fmt)
        assert code == 0, err
        rows = reference_sweep_rows(argv)
        if fmt == "csv":
            assert out == _csv_table(SWEEP_FIELDS, rows)
        else:
            assert out == json.dumps(rows, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_range_profiles_write_as_their_index_array(self, monkeypatch, fmt):
        # a range's pieces take their ids from np.arange, an array's from
        # np.asarray: the bytes are the same, in pieces of at most 7 rows
        monkeypatch.setattr("qgame.cells.CSV_ROWS", 7)
        profiles = range(100, 220, 3)  # 40 of the 225 profiles of 5x3
        columns = [np.linspace(0.0, 1.0, len(profiles)) + k for k in range(6)]

        def pieces(profiles):
            chunk = ((0.7, 0.4), profiles, columns)
            return list(_table_chunks(SWEEP_FIELDS, fmt, StrategyGrid(5, 3), 2, [chunk]))

        assert pieces(profiles) == pieces(np.array(profiles)) and len(pieces(profiles)) == 7

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv,rows", [
        (["sweep", "--bos", "2,1,0", "--gamma", "0.7,pi/2", "--delta", "0.4,0.3"],
         2 * 45 ** 2),
        (["equilibria", *CONSTANT], 45 ** 2),
    ], ids=["sweep-2pairs", "equilibria-constant"])
    def test_pieces_hold_at_most_csv_rows(self, monkeypatch, fmt, argv, rows):
        pieces = []
        monkeypatch.setattr(cli, "_emit_chunks", lambda chunks, out: pieces.extend(chunks))
        monkeypatch.setattr("qgame.cells.CSV_ROWS", 7)
        assert main([*argv, "--grid", "9,5", "--format", fmt]) == 0
        if fmt == "csv":
            header = ",".join(SWEEP_FIELDS if argv[0] == "sweep" else EQUILIBRIA_FIELDS)
            counts = [piece.count("\n") - piece.startswith(header + "\n") for piece in pieces]
        else:
            counts = [piece.count('"theta1": ') for piece in pieces]
        assert sum(counts) == rows
        assert max(counts) == 7, counts

    def test_blocks_peak_far_below_the_whole_table(self):
        grid = StrategyGrid(65, 33)  # whole tables: 32 * 2145^2 bytes, 147 MB
        tracemalloc.start()
        try:
            for _ in cli._sweep_blocks(battle_of_sexes(2, 1, 0), [SchemeParams(0.7, 0.4)],
                                       grid):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_closed_pipe_ends_quietly(self):
        # as for cat, the shell sees 141: killed by SIGPIPE, no error message
        proc = subprocess.Popen(
            [sys.executable, "-m", "qgame", "sweep", "--bos", "2,1,0", "--gamma", "0.3",
             "--delta", "0.2", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == (",".join(SWEEP_FIELDS) + "\n").encode()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (-signal.SIGPIPE, b"")


class TestRowBlockMemory:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_block_of_probabilities_is_freed(self, monkeypatch, tmp_path, fmt):
        # sweep rows hold one block at a time: neither _sweep_blocks nor the
        # row writer may hold a block's probabilities into the next block
        freed = []
        build = equilibrium.probability_tables

        def tracking(*args):
            assert all(ref() is None for ref in freed)
            probs = build(*args)
            freed.append(weakref.ref(probs))
            return probs

        monkeypatch.setattr(equilibrium, "probability_tables", tracking)
        monkeypatch.setattr(equilibrium, "BLOCK_BYTES", 4 * 32 * 15)
        # 15 grid points in blocks of 4, 4, 4 and 3 rows, for each of 2 pairs
        assert main(["sweep", "--bos", "2,1,0", "--gamma", "0.7,pi/2", "--delta", "0.4,0.3",
                     "--grid", "5,3", "--format", fmt, "--out", str(tmp_path / "rows")]) == 0
        assert len(freed) == 8


def assert_formats_as_python(x):
    """CsvCells()(x) holds "%.15g" % v for each v, byte for byte."""
    x = np.asarray(x, dtype=float)
    cells = CsvCells()(x)
    # a "," before each cell splits the texts, as the row writer's labels do
    rows = np.concatenate([np.full((x.size, 1), ord(","), np.uint8), cells], axis=1)
    got = rows.tobytes().translate(None, b"\0").decode("ascii")
    want = ",%.15g" * x.size % tuple(x.tolist())
    if got != want:
        got, want = got.split(","), want.split(",")
        i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        pytest.fail(f"{x[i - 1]!r} formats as {got[i]!r}, not {want[i]!r}")


def tie_draws(rng, count):
    """Floats whose 15-digit rounding is an exact tie: odd / 2^(15 - e) in
    [10^e, 10^(e + 1)) has |x| 10^(14 - e) = odd 5^(14 - e) / 2."""
    e = rng.integers(-4, 15, count)
    scale = 2.0 ** (15 - e)
    odd = np.floor(rng.uniform(10.0 ** e * scale, 10.0 ** (e + 1) * scale) / 2) * 2 + 1
    x = odd / scale
    inside = (x >= 10.0 ** e) & (x < 10.0 ** (e + 1))
    assert np.all(x[inside] * 10.0 ** (14 - e[inside]) % 1 == 0.5)
    return x[inside]


class TestCsvCells:
    def test_random_doubles(self):
        # a million doubles, log-uniform over the whole range and over the
        # fixed-notation range the kernel writes itself
        rng = np.random.default_rng(20041018)
        magnitudes = 10.0 ** np.r_[rng.uniform(-320, 300, 200_000), rng.uniform(-5, 16, 800_000)]
        signs = rng.choice([-1.0, 1.0], magnitudes.size)
        assert_formats_as_python(np.r_[0.0, -0.0, signs * magnitudes])

    def test_ties_round_half_to_even(self):
        ties = tie_draws(np.random.default_rng(7), 50_000)
        # with their neighbours one ulp away, which are not ties
        assert_formats_as_python(np.concatenate([ties, -ties, np.nextafter(ties, 0),
                                                 np.nextafter(ties, np.inf)]))

    @pytest.mark.parametrize("value,text", [
        (123456789012345.5, "123456789012346"),  # ties, to the even digit
        (123456789012344.5, "123456789012344"),
        (12345678901234.25, "12345678901234.2"),
        # |x| 10^(14 - e) rounds to a .5 that it is not; its error term decides
        (638709.1317702235, "638709.131770223"),
        (92530.44862698785, "92530.4486269879"),
        (9.999999999999998, "10"),  # carries into a new digit
        (0.09999999999999999, "0.1"),
        (999999999999999.5, "1e+15"),
        (1e-4, "0.0001"),  # the ends of fixed notation
        (np.nextafter(1e-4, 0), "0.0001"),
        (1e15, "1e+15"),
        (np.nextafter(1e15, 0), "1e+15"),
        # 1e15 <= |x| < 1e16: n has 16 digits and Python writes the value
        (9999999999999998.0, "1e+16"),
        (1234567890123456.0, "1.23456789012346e+15"),
        (1e14, "100000000000000"),
        (120.0, "120"),
        (99999999999999.8, "99999999999999.8"),  # log10 rounds up to 14
        (0.0, "0"),
        (-0.0, "-0"),
        (-0.5, "-0.5"),
        (5e-324, "4.94065645841247e-324"),
        (-1.7976931348623157e308, "-1.79769313486232e+308"),
        (math.inf, "inf"),
        (math.nan, "nan"),
    ])
    def test_edge_cases(self, value, text):
        assert "%.15g" % value == text
        assert_formats_as_python([value])


def assert_writes_repr(x):
    """ReprCells()(x) holds repr(v) for each v, byte for byte."""
    x = np.asarray(x, dtype=float)
    cells = ReprCells()(x)
    got = cells.tobytes().translate(None, b"\0").decode("ascii")
    if got != "".join(map(repr, x.tolist())):
        i = next(i for i, v in enumerate(x.tolist())
                 if bytes(cells[i]).translate(None, b"\0").decode("ascii") != repr(v))
        text = bytes(cells[i]).translate(None, b"\0").decode("ascii")
        pytest.fail(f"{x[i]!r} is written as {text!r}")


def repr_draws(rng, count):
    """About count doubles of both signs, for the repr writer: log-uniform
    over the fixed-notation range [1e-4, 1e16) and over all doubles,
    uniform in [0, 1) scaled by powers of ten, decimals of 1 to 15 places,
    exact ties at 15, 16 and 17 digits (odd / 2^(digits - e)), integers up
    to 2^53 and powers of two; each with its neighbours one ulp away."""
    k = count // 21  # 7 families, each with its two neighbours
    e = rng.integers(-4, 16, k)
    places = 10.0 ** rng.integers(1, 16, k)
    scale = 2.0 ** (rng.integers(15, 18, k) - e)
    base = np.concatenate([
        [0.0, 1e-4, 1e16, 2.0 ** 53],
        10.0 ** rng.uniform(-4, 16, k),
        10.0 ** rng.uniform(-320, 300, k),
        rng.uniform(0, 1, k) * 10.0 ** e,
        np.round(rng.uniform(0, 1000, k) * places) / places,
        (np.floor(rng.uniform(10.0 ** e * scale, 10.0 ** (e + 1) * scale) / 2) * 2 + 1) / scale,
        np.floor(rng.uniform(0, 2.0 ** 53, k) / 10.0 ** rng.integers(0, 16, k)),
        2.0 ** rng.integers(-16, 60, k),
    ])
    base = np.concatenate([base, np.nextafter(base, 0), np.nextafter(base, np.inf)])
    return rng.choice([-1.0, 1.0], base.size) * base


class TestReprCells:
    def test_random_doubles(self):
        # about 200,000 doubles; the 10-million-value run of CI draws the same families
        assert_writes_repr(repr_draws(np.random.default_rng(20041019), 200_000))

    @pytest.mark.parametrize("value,text", [
        (0.1, "0.1"),  # the 15-digit decimal is inside the rounding interval
        (0.7853981633974483, "0.7853981633974483"),  # 16 digits
        (0.30000000000000004, "0.30000000000000004"),  # 17 digits
        (1e-4, "0.0001"),  # the ends of fixed notation
        (np.nextafter(1e-4, 0), "9.999999999999999e-05"),
        (np.nextafter(1e16, 0), "9999999999999998.0"),
        (1e16, "1e+16"),
        (1234567890123456.0, "1234567890123456.0"),
        (120.0, "120.0"),  # an integer ends in ".0"
        (1234567890123456.8, "1234567890123456.8"),
        (2251799813685248.5, "2251799813685248.5"),  # its 16-digit rounding is a tie
        (999.9999999999999, "999.9999999999999"),  # log10 rounds up to 3
        (0.09999999999999999, "0.09999999999999999"),
        (2.0 ** -13, "0.0001220703125"),  # a power of two
        (0.0, "0.0"),
        (-0.0, "-0.0"),
        (-2.5, "-2.5"),
        (5e-324, "5e-324"),
        (-1.7976931348623157e308, "-1.7976931348623157e+308"),
        (math.inf, "inf"),
        (math.nan, "nan"),
    ])
    def test_edge_cases(self, value, text):
        assert repr(float(value)) == text
        assert_writes_repr([value])


def reference_inputs(argv):
    """Options, game and grid of a flag list, parsed without the cli."""
    opts = dict(zip(argv[::2], argv[1::2]))
    if "--bos" in opts:
        game = battle_of_sexes(*(float(v) for v in opts["--bos"].split(",")))
    else:
        v = [float(x) for x in opts["--matrix"].split(",")]
        game = GameMatrix(alice=((v[0], v[2]), (v[4], v[6])),
                          bob=((v[1], v[3]), (v[5], v[7])))
    steps = [int(x) for x in opts["--grid"].split(",")]
    return opts, game, StrategyGrid(steps[0], steps[1], opts.get("--phi-range", "narrow"))


def reference_sweep_rows(argv):
    """The per-profile rows as one list of dicts, built profile by profile
    from the blocks of table_blocks stacked whole."""
    opts, game, grid = reference_inputs(argv)
    rows = []
    for scheme in sweep_schemes(parse_angle_list(opts["--gamma"]),
                                parse_angle_list(opts["--delta"])):
        _, probs, alice, bob = zip(*table_blocks(game, scheme, grid))
        probs, alice, bob = (np.concatenate(probs, axis=1), np.concatenate(alice),
                             np.concatenate(bob))
        for a, s1 in enumerate(grid.points()):
            for b, s2 in enumerate(grid.points()):
                rows.append({
                    "gamma": scheme.gamma, "delta": scheme.delta,
                    "theta1": s1.theta, "phi1": s1.phi,
                    "theta2": s2.theta, "phi2": s2.phi,
                    "payoff_a": float(alice[a, b]), "payoff_b": float(bob[a, b]),
                    "p_oo": float(probs[0, a, b]), "p_ot": float(probs[1, a, b]),
                    "p_to": float(probs[2, a, b]), "p_tt": float(probs[3, a, b]),
                })
    return rows


class TestBosFormMatrix:
    """A game typed as --matrix A,B,S,S,S,S,B,A is the game --bos A,B,S: the
    same cells, so the same closed forms and the same output."""

    COMMANDS = {
        "payoff": ["payoff", "--gamma", "0.7", "--delta", "0.4", "--s1", "1.1,0.3",
                   "--s2", "2.5,1.2"],
        "sweep": ["sweep", "--gamma", "0,0.7", "--delta", "0.4", "--grid", "3,2"],
        "summary": ["sweep", "--gamma", "0,0.7,pi/2", "--delta", "0.4,0,pi/2",
                    "--grid", "5,3", "--summary"],
        "equilibria": ["equilibria", "--gamma", "pi/2", "--delta", "pi/2", "--grid", "5,3"],
    }

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("a,b,s", [("2", "1", "0"), ("3", "2", "0.5")])
    def test_same_output_as_bos(self, capsys, command, fmt, a, b, s):
        argv = [*self.COMMANDS[command], "--format", fmt]
        bos = run_cli(capsys, *argv, "--bos", f"{a},{b},{s}")
        matrix = run_cli(capsys, *argv, "--matrix", ",".join([a, b, s, s, s, s, b, a]))
        assert bos[0] == 0
        assert matrix == bos

    @pytest.mark.parametrize("cells", ["1,2,0,0,0,0,2,1", "1,1,1,1,1,1,1,1"])
    def test_any_order_gets_closed_forms(self, capsys, cells):
        # beta > alpha, and the constant game: no ordering is needed
        code, out, _ = run_cli(capsys, "payoff", "--matrix", cells,
                               *self.COMMANDS["payoff"][1:])
        row = json.loads(out)
        assert code == 0
        assert max(row["abs_diff_a"], row["abs_diff_b"]) <= 1e-9
        code, out, _ = run_cli(capsys, "sweep", "--matrix", cells,
                               *self.COMMANDS["summary"][1:])
        assert code == 0
        assert all(r["max_formula_dev"] <= 1e-9 for r in json.loads(out))


class TestEquilibria:
    def test_classical_two_pure(self, capsys):
        code, out, err = run_cli(capsys, "equilibria", "--bos", "2,1,0", "--gamma", "0",
                                 "--delta", "0", "--grid", "2,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        thetas = [(p["theta1"], p["theta2"]) for p in payload["profiles"]]
        assert thetas == [(0.0, 0.0), (math.pi, math.pi)]
        assert "equilibria found: 2" in err

    def test_zero_equilibria_still_succeeds(self, capsys):
        code, out, err = run_cli(capsys, "equilibria",
                                 "--matrix", "1,-1,-1,1,-1,1,1,-1",
                                 "--gamma", "0", "--delta", "0", "--grid", "2,1")
        assert code == 0
        assert json.loads(out)["count"] == 0
        assert "equilibria found: 0" in err

    def test_one_point_grid(self, capsys):
        code, out, _ = run_cli(capsys, "equilibria", "--bos", "2,1,0", "--gamma", "0",
                               "--delta", "0", "--grid", "1,1")
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["profiles"][0]["eps_cert"] == 0.0

    def test_refined_grid_keeps_classical_equilibria(self, capsys):
        code, out, _ = run_cli(capsys, "equilibria", "--bos", "2,1,0", "--gamma", "0",
                               "--delta", "0", "--grid", "9,1")
        payload = json.loads(out)
        pure = {(p["theta1"], p["theta2"]): p["eps_cert"] for p in payload["profiles"]}
        assert pure[(0.0, 0.0)] <= 1e-9
        assert pure[(math.pi, math.pi)] <= 1e-9

    def test_invalid_grid(self, capsys):
        code, _, err = run_cli(capsys, "equilibria", "--bos", "2,1,0", "--gamma", "0",
                               "--delta", "0", "--grid", "0,1")
        assert code == 1
        assert "theta_steps" in err

    @pytest.mark.parametrize("argv", [
        ["equilibria", "--bos", "2,1,0", "--gamma", "0.7", "--delta", "0.4", "--grid", "9,5"],
        ["sweep", "--bos", "2,1,0", "--gamma", "0.7,pi/2", "--delta", "0.4,0.3",
         "--grid", "9,5", "--summary"],
        ["sweep", "--bos", "2,1,0", "--gamma", "0.7,pi/2", "--delta", "0.4,0.3",
         "--grid", "9,5", "--format", "csv"],
    ], ids=["equilibria", "summary", "rows"])
    def test_table_limit_does_not_apply(self, capsys, monkeypatch, argv):
        # every grid command builds blocks of rows, never a whole table
        want = run_cli(capsys, *argv)
        assert want[0] == 0
        monkeypatch.setattr(equilibrium, "MAX_TABLE_BYTES", 32 * 45 ** 2 - 1)
        assert run_cli(capsys, *argv) == want

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_overflowing_game_exits_one(self, capsys, tmp_path, to_file):
        target = tmp_path / "equilibria.json"
        out_args = ["--out", str(target)] if to_file else []
        code, out, err = run_cli(capsys, "equilibria", *OVERFLOWING, "--gamma", "pi/4",
                                 "--delta", "0.3", "--grid", "3,2", *out_args)
        assert (code, out) == (1, "")
        assert "at most 1e+300 in magnitude" in err
        assert not target.exists()

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "equilibria", "--bos", "2,1,0", "--gamma", "0",
                               "--delta", "0", "--grid", "2,1", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta1,phi1,theta2,phi2,payoff_a,payoff_b,eps_cert"
        assert len(lines) == 3


def reference_equilibria(argv, fmt):
    """The equilibria output built from epsilon_nash as one dict row per
    profile, then written all at once."""
    opts, game, grid = reference_inputs(argv)
    scheme = SchemeParams(parse_angle(opts["--gamma"]), parse_angle(opts["--delta"]))
    eps = float(opts.get("--eps", "1e-9"))
    profiles, values = epsilon_nash(game, scheme, grid, eps)
    a, b = np.divmod(profiles, grid.theta_steps * grid.phi_steps)
    thetas, phis = (angles.tolist() for angles in grid.angles())
    rows = [{
        "theta1": thetas[i], "phi1": phis[i],
        "theta2": thetas[j], "phi2": phis[j],
        "payoff_a": pa, "payoff_b": pb, "eps_cert": cert,
    } for i, j, (pa, pb, cert) in zip(a.tolist(), b.tolist(), values.tolist())]
    if fmt == "csv":
        return len(rows), _csv_table(EQUILIBRIA_FIELDS, rows)
    payload = {
        "gamma": scheme.gamma, "delta": scheme.delta, "eps": eps,
        "theta_steps": grid.theta_steps, "phi_steps": grid.phi_steps,
        "phi_range": grid.phi_range, "count": len(rows), "profiles": rows,
    }
    return len(rows), json.dumps(payload, indent=2) + "\n"


def assert_same_text(got, want):
    """got == want, reporting the first difference instead of a full diff,
    which takes minutes on large outputs that differ on every line."""
    if got != want:
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                 min(len(got), len(want)))
        pytest.fail(f"outputs differ from byte {i} (lengths {len(got)}, {len(want)}): "
                    f"{got[i - 60:i + 60]!r} != {want[i - 60:i + 60]!r}")


class TestEquilibriaStreaming:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("argv", [
        ["--bos", "2,1,0", "--gamma", "pi/2", "--delta", "pi/2", "--grid", "9,5"],
        ["--bos", "2,1,0", "--gamma", "pi/4", "--delta", "0.3", "--grid", "9,5",
         "--phi-range", "full"],
        ["--matrix", "3,3,0,5,5,0,1,1", "--gamma", "pi/2", "--delta", "0.4", "--grid", "9,5"],
        [*CONSTANT, "--grid", "9,5"],
        ["--bos", "2,1,0", "--gamma", "0", "--delta", "0", "--grid", "1,1"],
        ["--matrix", "0,0,1,0,0,0,0,1", "--gamma", "0.3", "--delta", "0.2", "--grid", "3,2",
         "--eps", "0"],
    ], ids=["bos-narrow", "bos-full", "matrix", "constant-9x5", "1x1", "none"])
    def test_matches_profile_dict_reference(self, capsys, tmp_path, fmt, to_file, argv):
        target = tmp_path / "equilibria"
        out_args = ["--out", str(target)] if to_file else []
        code, out, err = run_cli(capsys, "equilibria", *argv, "--format", fmt, *out_args)
        count, want = reference_equilibria(argv, fmt)
        assert code == 0, err
        assert err == f"equilibria found: {count}\n"
        if to_file:
            assert out == ""
            out = target.read_text()
        assert_same_text(out, want)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_profiles(self, tmp_path, fmt):
        def peak(argv):
            tracemalloc.start()
            try:
                code = main(["equilibria", *argv, "--grid", "17,9", "--format", fmt,
                             "--out", str(tmp_path / "equilibria")])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # BoS certifies a handful of profiles, the constant game all 153^2
        code_few, few = peak(["--bos", "2,1,0", "--gamma", "0.7", "--delta", "0.4"])
        code_all, every = peak(CONSTANT)
        assert code_few == code_all == 0
        assert every < 3 * few, (few, every)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("bad,message", [
        (["--bos", "2,1,0", "--gamma", "2.0", "--delta", "0.1"], "gamma must be in"),
        *[(["--bos", "2,1,0", "--gamma", "0.5", "--delta", "0.1", "--grid", "3,2",
            f"--eps={eps}"], "eps must be nonnegative") for eps in ("-1", "nan")],
        ([*OVERFLOWING, "--gamma", "pi/4", "--delta", "0.3", "--grid", "3,2"],
         "at most 1e+300 in magnitude"),
        (["--bos", "2,1,0", "--gamma", "0.5", "--delta", "0.1", "--grid", "4096,2048"],
         "4096x2048 grid has 8388608 points"),
        # a point count of 4,400 digits, more than Python prints
        (["--bos", "2,1,0", "--gamma", "0.5", "--delta", "0.1", "--grid",
          f"{'9' * 2200},{'9' * 2200}"], f"error: a {'9' * 2200}x{'9' * 2200} grid has "),
    ], ids=["gamma-out-of-range", "eps-negative", "eps-nan", "overflowing-payoffs",
            "oversized-grid", "grid-too-large-to-print"])
    def test_invalid_input_writes_nothing(self, capsys, tmp_path, fmt, to_file, bad, message):
        target = tmp_path / "equilibria"
        out_args = ["--out", str(target)] if to_file else []
        code, out, err = run_cli(capsys, "equilibria", *bad, "--format", fmt, *out_args)
        assert (code, out) == (1, "")
        assert message in err
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_over_profile_limit_writes_nothing(self, capsys, monkeypatch, tmp_path, fmt,
                                               to_file):
        # the constant game certifies all 15^2 profiles of a 5x3 grid; the
        # limit is inclusive. The profiles are made costly rather than the
        # budget small, so the grid limit, on the same budget, stays far off
        target = tmp_path / "equilibria"
        argv = ["equilibria", *CONSTANT, "--grid", "5,3", "--format", fmt,
                *(["--out", str(target)] if to_file else [])]
        limit = equilibrium.MAX_TABLE_BYTES
        monkeypatch.setattr(equilibrium, "PROFILE_BYTES", limit // 225)
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "equilibria found: 225\n")
        target.unlink(missing_ok=True)
        monkeypatch.setattr(equilibrium, "PROFILE_BYTES", limit // 224)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (f"error: a 5x3 grid holds over 224 candidate profiles, the limit of "
                       f"{limit} bytes at {limit // 224} bytes per profile\n")
        assert not target.exists()


# Runs main(argv[2:]) and writes its exit code and which of the lazily
# imported modules it loaded, as JSON, to the file argv[1].
LOADED_SCRIPT = """
import json, sys
from qgame.cli import main
code = main(sys.argv[2:])
loaded = [name for name in ("dataclasses", "decimal", "numbers", "numpy", "numpy.random",
                           "qgame.cells", "qgame.equilibrium", "qgame.verification")
          if name in sys.modules]
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"code": code, "loaded": loaded}, fh)
"""

BOS_SCHEME = ["--bos", "2,1,0", "--gamma", "0.7", "--delta", "0.4"]


@pytest.mark.parametrize("argv", [
    ["payoff", "--bos", "2,1,0", "--gamma=@", "--delta=@", "--s1=@,@", "--s2=1,@"],
    ["payoff", "--matrix", "3,3,0,5,5,0,1,1", "--gamma=@", "--delta=@", "--s1=@,@",
     "--s2=@,1", "--format", "csv"],
    ["sweep", "--bos", "2,1,0", "--gamma=@", "--delta=@,0.3", "--grid", "2,2",
     "--format", "csv"],
    ["sweep", "--bos", "2,1,0", "--gamma=@,0.3", "--delta=@", "--grid", "2,2"],
    ["sweep", "--bos", "2,1,0", "--gamma=@", "--delta=@", "--grid", "3,2", "--eps=@",
     "--summary"],
    ["equilibria", "--bos", "2,1,0", "--gamma=@", "--delta=@", "--grid", "2,1", "--eps=@"],
], ids=["payoff-json", "payoff-csv", "sweep-csv", "sweep-json", "summary", "equilibria"])
def test_negative_zero_prints_as_zero(capsys, argv):
    # "-0" is the same angle or tolerance as "0" and must print as 0
    outputs = [run_cli(capsys, *[arg.replace("@", zero) for arg in argv])
               for zero in ("-0", "0")]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_negative_zero_cell_is_zero(capsys):
    # a "-0" payoff is the cell 0: verify's report names the game as for "0"
    outputs = [run_cli(capsys, "verify", "--bos", f"2,1,{zero}") for zero in ("-0", "0")]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    game = GameMatrix(alice=((2, -0.0), (-0.0, 1)), bob=((1, -0.0), (-0.0, 2)))
    assert not any(math.copysign(1.0, v) < 0 for row in game.alice + game.bob for v in row)


# numpy loads numbers itself
GRID_MODULES = ["numbers", "numpy", "qgame.equilibrium"]
ROW_MODULES = ["numbers", "numpy", "qgame.cells", "qgame.equilibrium"]
MATRIX_SCHEME = ["--matrix", "3,3,0,5,5,0,1,1", "--gamma", "0.7", "--delta", "0.4"]


class TestLazyImports:
    # numpy costs about half the start-up time of a one-profile payoff,
    # numpy.random about 5 MiB of peak RSS, cells.py its own 0.3-0.5 MiB; a
    # command that draws nothing or writes no rows must not load them, and
    # payoff, which simulates one profile in plain Python, loads none of them,
    # nor numbers or decimal, which scheme's number checks do without
    @pytest.mark.parametrize("argv,want", [
        (["payoff", *BOS_SCHEME, "--s1", "1,0.5", "--s2", "0.3,0.2"], []),
        (["payoff", *BOS_SCHEME, "--s1", "1,0.5", "--s2", "0.3,0.2", "--format", "csv"], []),
        (["payoff", *MATRIX_SCHEME, "--s1", "1,0.5", "--s2", "0.3,0.2"], []),
        (["payoff", *MATRIX_SCHEME, "--s1", "1,0.5", "--s2", "0.3,0.2", "--format", "csv"], []),
        (["sweep", *BOS_SCHEME, "--grid", "5,3", "--summary"], GRID_MODULES),
        (["equilibria", *BOS_SCHEME, "--grid", "5,3"], ROW_MODULES),
        (["sweep", *BOS_SCHEME, "--grid", "5,3"], ROW_MODULES),
        (["sweep", *BOS_SCHEME, "--grid", "5,3", "--format", "csv"], ROW_MODULES),
        (["verify", "--seed", "0"], ["numbers", "numpy", "numpy.random", "qgame.equilibrium",
                                     "qgame.verification"]),
    ], ids=["payoff-bos-json", "payoff-bos-csv", "payoff-matrix-json", "payoff-matrix-csv",
            "sweep-summary", "equilibria", "sweep-json", "sweep-csv", "verify"])
    def test_commands_load_only_what_they_use(self, tmp_path, argv, want):
        result = tmp_path / "loaded.json"
        subprocess.run([sys.executable, "-c", LOADED_SCRIPT, str(result), *argv,
                        "--out", str(tmp_path / "out")], check=True, capture_output=True)
        assert json.loads(result.read_text(encoding="utf-8")) == {"code": 0, "loaded": want}


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qgame", "payoff", "--bos", "2,1,0",
             "--gamma", "0", "--delta", "0", "--s1", "0,0", "--s2", "0,0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["payoff_a"] == pytest.approx(2.0)

    def test_usage_error_exits_one(self, capsys):
        assert main(["payoff", "--format", "yaml"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
