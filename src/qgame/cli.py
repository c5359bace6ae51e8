"""Command-line front end: payoff queries, verification, sweeps, equilibria.

Angles are radians, given as decimal literals or the tokens pi, pi/2, pi/4
(exact at the interesting reduction points). Options may also come from a
flat key = value config file; command-line flags win. Exit codes: 0 success,
1 invalid input, 2 verification failure.

Each command imports what it runs: payoff needs only scheme and closedform,
which are plain Python, so it starts without loading numpy; verify imports
verification, and the grid commands equilibrium (and cells, the row writer,
to write rows).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import signal
import sys
from collections.abc import Iterable
from itertools import chain

from .closedform import payoff_general
from .scheme import (
    GameMatrix,
    SchemeParams,
    StrategyParams,
    battle_of_sexes,
    check_phi,
    final_state,
    measurement_basis,
    outcome_probabilities,
    payoffs_oracle,
)

ANGLE_TOKENS = {"pi": math.pi, "pi/2": math.pi / 2, "pi/4": math.pi / 4}

SWEEP_FIELDS = ("gamma", "delta", "theta1", "phi1", "theta2", "phi2",
                "payoff_a", "payoff_b", "p_oo", "p_ot", "p_to", "p_tt")
EQUILIBRIA_FIELDS = ("theta1", "phi1", "theta2", "phi2", "payoff_a",
                     "payoff_b", "eps_cert")


def parse_angle(text: str) -> float:
    token = text.strip()
    if token in ANGLE_TOKENS:
        return ANGLE_TOKENS[token]
    try:
        return float(token)
    except ValueError:
        raise ValueError(
            f"invalid angle {text!r}: use a decimal literal or one of "
            f"{sorted(ANGLE_TOKENS)}"
        ) from None


def parse_angle_list(text: str) -> list[float]:
    return [parse_angle(part) for part in text.split(",")]


def _split_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    try:
        if len(parts) == count:
            return [float(p) for p in parts]
    except ValueError:
        pass
    raise ValueError(f"{what} needs {count} comma-separated numbers, got {text!r}")


def parse_strategy(text: str, phi_range: str) -> StrategyParams:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"strategy needs 'theta,phi', got {text!r}")
    theta, phi = parse_angle(parts[0]), parse_angle(parts[1])
    check_phi(phi, phi_range)
    return StrategyParams(theta, phi)


def _too_long(text: str) -> str | None:
    """For integer text of over sys.get_int_max_str_digits() digits, which
    int() refuses for its length alone, the number as scheme._shown shows an
    int too long to print: by its digit count. None for any other text."""
    # integer text as int() reads it: an optional sign, then digits that
    # single underscores may separate, with whitespace around; compiled on
    # first use, so a valid command does not pay for it
    match = re.fullmatch(r"\s*([+-]?)(\d+(?:_\d+)*)\s*", text)
    # Python 3.10 before 3.10.7 reads integer text of any length
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if match is None or not limit:
        return None
    sign, digits = match.groups()
    count = len(digits) - digits.count("_")
    if count <= limit:
        return None
    return f"<{'negative ' if sign == '-' else ''}int of {count} digits>"


def parse_grid(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"grid needs 'theta_steps,phi_steps', got {text!r}")
    try:
        t, p = int(parts[0]), int(parts[1])
    except ValueError:
        shown = next(filter(None, map(_too_long, parts)), None)
        if shown is None:
            raise ValueError(f"grid steps must be integers, got {text!r}") from None
        if shown.startswith("<negative"):
            raise ValueError(f"--grid step {shown} is too long, and grid steps must be "
                             f"positive") from None
        from .equilibrium import MAX_TABLE_BYTES, POINT_BYTES

        raise ValueError(f"--grid step {shown} is too long, over the grid limit of "
                         f"{MAX_TABLE_BYTES // POINT_BYTES} points") from None
    return t, p


def load_config(path: str) -> list[str]:
    """A flat key = value file as command-line tokens for the subcommand's parser.

    Each line becomes --key=value (the = form keeps values that start with -),
    so a config line is checked exactly like the flag. Full-line # comments
    and blank lines allowed, and a leading UTF-8 byte order mark is skipped.
    """
    tokens: list[str] = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq or not key:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            if key == "config":
                raise ValueError(f"{path}:{lineno}: a config file cannot name another one")
            tokens.append(f"--{key}={value}")
    return tokens


def _game(args: argparse.Namespace) -> GameMatrix:
    if args.matrix is not None:
        v = _split_floats(args.matrix, 8, "matrix")
        # order: a_oo,b_oo,a_ot,b_ot,a_to,b_to,a_tt,b_tt
        return GameMatrix(alice=((v[0], v[2]), (v[4], v[6])),
                          bob=((v[1], v[3]), (v[5], v[7])))
    return battle_of_sexes(*_split_floats(args.bos, 3, "bos"))


def _fmt_csv(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(int(value))
    return f"{float(value):.15g}"


def _csv_table(fields, rows) -> str:
    lines = [",".join(fields)]
    lines.extend(",".join(_fmt_csv(row[f]) for f in fields) for row in rows)
    return "\n".join(lines) + "\n"


def _emit_chunks(chunks: Iterable[str], out: str | None) -> None:
    """Write each piece as it is produced; --out is opened before the first."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def cmd_payoff(args: argparse.Namespace) -> int:
    game = _game(args)
    scheme = SchemeParams(parse_angle(args.gamma), parse_angle(args.delta))
    s1 = parse_strategy(args.s1, args.phi_range)
    s2 = parse_strategy(args.s2, args.phi_range)
    probs = outcome_probabilities(final_state(scheme.gamma, s1, s2),
                                  measurement_basis(scheme.delta))
    oracle = payoffs_oracle(game, scheme, s1, s2)
    row = {
        "gamma": scheme.gamma, "delta": scheme.delta,
        "theta1": s1.theta, "phi1": s1.phi, "theta2": s2.theta, "phi2": s2.phi,
        "payoff_a": oracle.alice, "payoff_b": oracle.bob,
        "p_oo": probs[0], "p_ot": probs[1], "p_to": probs[2], "p_tt": probs[3],
    }
    if args.format == "csv":
        _emit_chunks([_csv_table(SWEEP_FIELDS, [row])], args.out)
        return 0
    if game.bos is not None:
        form = payoff_general(game, scheme, s1, s2)
        row["closed_form_a"] = form.alice
        row["closed_form_b"] = form.bob
        row["abs_diff_a"] = abs(form.alice - oracle.alice)
        row["abs_diff_b"] = abs(form.bob - oracle.bob)
    _emit_chunks([json.dumps(row, indent=2) + "\n"], args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    game = _game(args)
    try:
        seed = int(args.seed)
    except ValueError:
        if (shown := _too_long(args.seed)) is not None:
            raise ValueError(f"--seed {shown} is too long: a seed must be a nonnegative "
                             f"integer of at most {sys.get_int_max_str_digits()} digits") from None
        raise ValueError(f"seed must be a nonnegative integer, got {args.seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    from .verification import run_verification

    report = run_verification(game, seed=seed)
    _emit_chunks([report.render()], args.out)
    return 0 if report.passed else 2


def _sweep_blocks(game: GameMatrix, schemes: list[SchemeParams], grid: StrategyGrid):
    """Every scheme's rows as _table_chunks chunks, one per block of
    table_blocks: its range of profiles and its tables' raveled views as the
    columns, so no copy of a block and no index array is made. A block is
    dropped before the next is built, so one is alive."""
    from .equilibrium import table_blocks

    for scheme in schemes:
        for profiles, probs, alice, bob in table_blocks(game, scheme, grid):
            yield ((scheme.gamma, scheme.delta), profiles,
                   [alice.ravel(), bob.ravel(), *probs.reshape(4, -1)])  # SWEEP_FIELDS order
            del probs, alice, bob


def cmd_sweep(args: argparse.Namespace) -> int:
    from .equilibrium import SUMMARY_FIELDS, StrategyGrid, check_eps, sweep, sweep_schemes

    game = _game(args)
    gammas = parse_angle_list(args.gamma)
    deltas = parse_angle_list(args.delta)
    grid = StrategyGrid(*parse_grid(args.grid), args.phi_range)
    eps = check_eps(args.eps)

    if args.summary == "true":
        rows = sweep(game, gammas, deltas, grid, eps)
        if args.format == "csv":
            _emit_chunks([_csv_table(SUMMARY_FIELDS, rows)], args.out)
        else:
            _emit_chunks([json.dumps(rows, indent=2) + "\n"], args.out)
        return 0

    from .cells import _table_chunks

    # everything that can reject the input runs before the first byte
    chunks = _sweep_blocks(game, sweep_schemes(gammas, deltas), grid)
    _emit_chunks(_table_chunks(SWEEP_FIELDS, args.format, grid, 2, chunks), args.out)
    return 0


def cmd_equilibria(args: argparse.Namespace) -> int:
    from .equilibrium import StrategyGrid, check_eps, epsilon_nash

    game = _game(args)
    scheme = SchemeParams(parse_angle(args.gamma), parse_angle(args.delta))
    grid = StrategyGrid(*parse_grid(args.grid), args.phi_range)
    eps = check_eps(args.eps)
    profiles, values = epsilon_nash(game, scheme, grid, eps)
    print(f"equilibria found: {len(profiles)}", file=sys.stderr)
    chunks = [((), profiles, values.T)]
    head, tail = "", ""
    if args.format == "json":
        payload = {
            "gamma": scheme.gamma, "delta": scheme.delta, "eps": eps,
            "theta_steps": grid.theta_steps, "phi_steps": grid.phi_steps,
            "phi_range": grid.phi_range, "count": len(profiles), "profiles": [],
        }
        head, tail = (json.dumps(payload, indent=2) + "\n").rsplit("[]\n", 1)
    from .cells import _table_chunks  # not before epsilon_nash: it raised its peak RSS

    table = _table_chunks(EQUILIBRIA_FIELDS, args.format, grid, 4, chunks)
    _emit_chunks(chain([head], table, [tail]), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    # invalid usage is invalid input: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _add_game(sp: argparse.ArgumentParser, bos: str | None = None) -> None:
    # one game per command, required unless --bos has a default
    game = sp.add_mutually_exclusive_group(required=bos is None)
    game.add_argument("--bos", default=bos, help="battle of sexes payoffs A,B,S with A > B > S"
                      + (f" (default {bos})" if bos else ""))
    game.add_argument("--matrix", help="full bimatrix a_oo,b_oo,a_ot,b_ot,a_to,b_to,a_tt,b_tt")


def _add_common(sp: argparse.ArgumentParser, *, strategies: bool = False,
                grid: bool = False) -> None:
    _add_game(sp)
    sp.add_argument("--gamma", required=True, help="initial-state entanglement angle(s)")
    sp.add_argument("--delta", required=True, help="measurement entanglement angle(s)")
    if strategies:
        sp.add_argument("--s1", required=True, help="Alice's strategy theta,phi")
        sp.add_argument("--s2", required=True, help="Bob's strategy theta,phi")
    if grid:
        sp.add_argument("--grid", default="33,17",
                        help="strategy grid theta_steps,phi_steps (default %(default)s)")
        sp.add_argument("--eps", type=float, default=1e-9,
                        help="equilibrium tolerance (default %(default)s)")
    sp.add_argument("--phi-range", choices=["narrow", "full"], default="narrow",
                    help="phase angle range: narrow [0, pi/2] or full [0, 2*pi) "
                         "(default %(default)s)")
    sp.add_argument("--format", choices=["csv", "json"], default="json",
                    help="output format (default %(default)s)")
    sp.add_argument("--out", help="write output to this path instead of stdout")
    sp.add_argument("--config", help="flat key = value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qgame",
                     description="Two-angle quantization of 2x2 games: payoffs by "
                                 "exact simulation, closed-form cross-checks, and "
                                 "grid-certified equilibria.")
    sub = parser.add_subparsers(dest="command", required=True)

    payoff = sub.add_parser("payoff", help="payoffs for one strategy profile")
    _add_common(payoff, strategies=True)
    payoff.set_defaults(func=cmd_payoff)

    verify = sub.add_parser("verify", help="run the closed-form vs simulation suite")
    _add_game(verify, bos="2,1,0")
    verify.add_argument("--seed", default="0",
                        help="seed for the verification draws (default %(default)s)")
    verify.add_argument("--out", help="write the report to this path")
    verify.add_argument("--config", help="flat key = value config file; flags override it")
    verify.set_defaults(func=cmd_verify)

    sw = sub.add_parser("sweep", help="payoff rows over scheme/strategy grids")
    _add_common(sw, grid=True)
    sw.add_argument("--summary", nargs="?", const="true", choices=("true", "false"),
                    default="false", help="one summary row per (gamma, delta) pair "
                                          "instead of per-profile rows")
    sw.set_defaults(func=cmd_sweep)

    eq = sub.add_parser("equilibria", help="grid-certified epsilon-Nash profiles")
    _add_common(eq, grid=True)
    eq.set_defaults(func=cmd_equilibria)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # find --config first; its lines go right after the subcommand, so the
    # flags that follow win by argparse's last-occurrence rule
    pre = _Parser(prog="qgame", add_help=False)
    pre.add_argument("--config")
    try:
        config = pre.parse_known_args(argv)[0].config
        if config is not None:
            argv[1:1] = load_config(config)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    # a reader that closes the pipe early (qgame ... | head) ends the command
    # as it ends cat: killed by SIGPIPE, with no error message
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())
