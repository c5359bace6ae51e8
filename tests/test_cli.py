import json
import math
import subprocess
import sys
import tracemalloc

from types import SimpleNamespace

import pytest

from qgame import cli
from qgame.cli import (
    EQUILIBRIA_FIELDS,
    SWEEP_FIELDS,
    _csv_table,
    main,
    parse_angle,
    parse_angle_list,
)
from qgame.equilibrium import (
    StrategyGrid,
    epsilon_nash,
    probability_tables,
    sweep_schemes,
    weigh_outcomes,
)
from qgame.scheme import GameMatrix, SchemeParams, battle_of_sexes

HP = math.pi / 2
# payoffs at the largest float, over MAX_PAYOFF: weighting them would overflow to inf
OVERFLOWING = ["--matrix", ",".join(["1.7976931348623157e308,1"] * 4)]


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
        assert "either" in err

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
    def test_config_supplies_options(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# classical point\n"
            "bos = 2,1,0\n"
            "gamma = 0\n"
            "delta = 0\n"
            "s1 = 0,0\n"
            "s2 = 0,0\n"
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
        "matrix": (None, None, "3,3,0,5,5,0,1,1"),
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
        monkeypatch.setattr(cli, "run_verification", fake_verification)

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
        _, code, out = verify_seed0
        assert code == 0
        assert "result: PASS" in out
        assert "du_printed_vs_oracle" in out
        assert "rejected by simulation" in out  # the printed-form flag line
        assert "(3, 3) vs simulated (1, 2)" in out

    def test_matrix_not_allowed(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--matrix", "3,3,0,5,5,0,1,1")
        assert code == 1
        assert "--bos" in err

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_payoffs_above_bound_exit_one(self, capsys, tmp_path, to_file):
        target = tmp_path / "report.txt"
        out_args = ["--out", str(target)] if to_file else []
        code, out, err = run_cli(capsys, "verify", "--bos", "1e23,0,-1e23", *out_args)
        assert (code, out) == (1, "")
        assert "at most 1e+06 in magnitude" in err
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


    @pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
    def test_summary_rejects_invalid_eps(self, capsys, eps):
        code, out, err = run_cli(capsys, "sweep", "--bos", "2,1,0", "--gamma", "0",
                                 "--delta", "0", "--grid", "5,3", "--summary", f"--eps={eps}")
        assert (code, out) == (1, "")
        assert "eps must be nonnegative" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("bad,message", [
        (["--bos", "2,1,0", "--gamma", "0.5,2.0", "--delta", "0.1"], "gamma must be in"),
        (["--bos", "2,1,0", "--gamma", "0.5", "--delta", "0.1", "--grid", "181,91"], "181x91"),
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
    """The per-profile rows as one list of dicts, built profile by profile."""
    opts, game, grid = reference_inputs(argv)
    rows = []
    for scheme in sweep_schemes(parse_angle_list(opts["--gamma"]),
                                parse_angle_list(opts["--delta"]), grid):
        probs = probability_tables(scheme, grid)
        alice, bob = weigh_outcomes(game, probs)
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

    def test_oversized_grid_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "equilibria", "--bos", "2,1,0", "--gamma", "0",
                                 "--delta", "0", "--grid", "181,91")
        assert code == 1
        assert out == ""
        assert "181x91" in err and "limit" in err

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
    rows = [{
        "theta1": r.s1.theta, "phi1": r.s1.phi,
        "theta2": r.s2.theta, "phi2": r.s2.phi,
        "payoff_a": r.payoffs.alice, "payoff_b": r.payoffs.bob,
        "eps_cert": r.eps_cert,
    } for r in epsilon_nash(game, scheme, grid, eps)]
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


CONSTANT = ["--matrix", "1,1,1,1,1,1,1,1", "--gamma", "0.3", "--delta", "0.2"]


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
        (["--bos", "2,1,0", "--gamma", "0.5", "--delta", "0.1", "--grid", "181,91"], "181x91"),
        ([*OVERFLOWING, "--gamma", "pi/4", "--delta", "0.3", "--grid", "3,2"],
         "at most 1e+300 in magnitude"),
    ], ids=["gamma-out-of-range", "eps-negative", "eps-nan", "oversized-grid",
            "overflowing-payoffs"])
    def test_invalid_input_writes_nothing(self, capsys, tmp_path, fmt, to_file, bad, message):
        target = tmp_path / "equilibria"
        out_args = ["--out", str(target)] if to_file else []
        code, out, err = run_cli(capsys, "equilibria", *bad, "--format", fmt, *out_args)
        assert (code, out) == (1, "")
        assert message in err
        assert not target.exists()


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
