"""Command-line front end: payoff queries, verification, sweeps, equilibria.

Angles are radians, given as decimal literals or the tokens pi, pi/2, pi/4
(exact at the interesting reduction points). Options may also come from a
flat key = value config file; command-line flags win. Exit codes: 0 success,
1 invalid input, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable, Iterator
from itertools import chain

import numpy as np

from .closedform import payoff_general
from .equilibrium import (
    StrategyGrid,
    certified_profiles,
    check_eps,
    probability_tables,
    sweep,
    sweep_schemes,
    weigh_outcomes,
)
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
from .verification import run_verification

ANGLE_TOKENS = {"pi": math.pi, "pi/2": math.pi / 2, "pi/4": math.pi / 4}

SWEEP_FIELDS = ("gamma", "delta", "theta1", "phi1", "theta2", "phi2",
                "payoff_a", "payoff_b", "p_oo", "p_ot", "p_to", "p_tt")
SUMMARY_FIELDS = ("gamma", "delta", "equilibria", "best_payoff_a",
                  "best_payoff_b", "max_formula_dev")
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
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated values, got {text!r}")
    return [float(p) for p in parts]


def parse_strategy(text: str, phi_range: str) -> StrategyParams:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"strategy needs 'theta,phi', got {text!r}")
    theta, phi = parse_angle(parts[0]), parse_angle(parts[1])
    check_phi(phi, phi_range)
    return StrategyParams(theta, phi)


def parse_grid(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"grid needs 'theta_steps,phi_steps', got {text!r}")
    try:
        t, p = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"grid steps must be integers, got {text!r}") from None
    return t, p


def load_config(path: str) -> list[str]:
    """A flat key = value file as command-line tokens for the subcommand's parser.

    Each line becomes --key=value (the = form keeps values that start with -),
    so a config line is checked exactly like the flag. Full-line # comments
    and blank lines allowed.
    """
    tokens: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "config":
                raise ValueError(f"{path}:{lineno}: a config file cannot name another one")
            tokens.append(f"--{key}={value}")
    return tokens


def _game(args: argparse.Namespace) -> GameMatrix:
    if args.bos is not None and args.matrix is not None:
        raise ValueError("give either --bos or --matrix, not both")
    if args.matrix is not None:
        v = _split_floats(args.matrix, 8, "matrix")
        # order: a_oo,b_oo,a_ot,b_ot,a_to,b_to,a_tt,b_tt
        return GameMatrix(alice=((v[0], v[2]), (v[4], v[6])),
                          bob=((v[1], v[3]), (v[5], v[7])))
    if args.bos is None:
        raise ValueError("a game is required: --bos A,B,S or --matrix (8 values)")
    return battle_of_sexes(*_split_floats(args.bos, 3, "bos"))


def _fmt_csv(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
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


def _table_chunks(fields: tuple[str, ...], fmt: str, grid: StrategyGrid, pad: int,
                  blocks: Iterable[tuple]) -> Iterator[str]:
    """Per-profile rows in pieces: the bytes of _csv_table(fields, rows) for csv,
    of json.dumps(rows, indent=2) + "\n" nested pad - 2 spaces deep for json.

    A block is (prefix values, Alice's grid index a, Bob's grid indices, one
    row of values per Bob index), written by a single %-format of its rows'
    template; a row is head(prefix, theta1, phi1) + tail(theta2, phi2, specs).
    """
    bob = fields.index("theta2")  # Bob's point and the values follow
    if fmt == "csv":
        num, spec = _fmt_csv, "%.15g"
        start = empty = ",".join(fields) + "\n"
        sep = end = ""

        def head(texts):
            return ",".join(texts) + ","

        def tail(texts):
            return ",".join(texts) + "\n"
    else:
        # json writes a float as its repr, which %s gives too; every value is
        # finite because GameMatrix bounds the payoffs by MAX_PAYOFF
        num, spec = json.dumps, "%s"
        indent = " " * pad
        start, sep, end, empty = "[\n", ",\n", f"\n{indent[2:]}]\n", "[]\n"

        def head(texts):
            lines = zip(fields, texts)
            return indent + "{\n" + "".join(f'{indent}  "{f}": {t},\n' for f, t in lines)

        def tail(texts):
            lines = zip(fields[bob:], texts)
            return ",\n".join(f'{indent}  "{f}": {t}' for f, t in lines) + f"\n{indent}}}"

    # formatted numbers hold no "%", so they can sit inside a %-template
    points = [[num(s.theta), num(s.phi)] for s in grid.points()]
    tails = [tail(point + [spec] * (len(fields) - bob - 2)) for point in points]
    lead = start  # the first block opens the table; without one it is empty
    for prefix, a, bs, values in blocks:
        row_head = head([num(v) for v in prefix] + points[a])
        template = row_head + (sep + row_head).join([tails[b] for b in bs.tolist()])
        yield lead + template % tuple(values.ravel().tolist())
        lead = sep
    yield end if lead == sep else empty


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
    if args.matrix is not None:
        raise ValueError("verify runs on battle-of-sexes games only; use --bos")
    game = _game(args)
    try:
        seed = int(args.seed)
    except ValueError:
        raise ValueError(f"seed must be a nonnegative integer, got {args.seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    report = run_verification(game, seed=seed)
    _emit_chunks([report.render()], args.out)
    return 0 if report.passed else 2


def _sweep_blocks(game: GameMatrix, schemes: list[SchemeParams], grid: StrategyGrid):
    """Every scheme's rows, one block per Alice grid point; one scheme's tables at a time."""
    bobs = np.arange(grid.theta_steps * grid.phi_steps)
    for scheme in schemes:
        probs = probability_tables(scheme, grid)
        alice, bob = weigh_outcomes(game, probs)
        values = np.stack([alice, bob, *probs], axis=-1)  # (n, n, 6), SWEEP_FIELDS order
        for a, row in enumerate(values):
            yield (scheme.gamma, scheme.delta), a, bobs, row


def cmd_sweep(args: argparse.Namespace) -> int:
    game = _game(args)
    gammas = parse_angle_list(args.gamma)
    deltas = parse_angle_list(args.delta)
    grid = StrategyGrid(*parse_grid(args.grid), args.phi_range)
    check_eps(args.eps)

    if args.summary == "true":
        rows = [{
            "gamma": r.gamma, "delta": r.delta, "equilibria": r.equilibria,
            "best_payoff_a": None if r.best is None else r.best.alice,
            "best_payoff_b": None if r.best is None else r.best.bob,
            "max_formula_dev": r.max_formula_dev,
        } for r in sweep(game, gammas, deltas, grid, args.eps)]
        if args.format == "csv":
            _emit_chunks([_csv_table(SUMMARY_FIELDS, rows)], args.out)
        else:
            _emit_chunks([json.dumps(rows, indent=2) + "\n"], args.out)
        return 0

    # everything that can reject the input runs before the first byte
    blocks = _sweep_blocks(game, sweep_schemes(gammas, deltas, grid), grid)
    _emit_chunks(_table_chunks(SWEEP_FIELDS, args.format, grid, 2, blocks), args.out)
    return 0


def cmd_equilibria(args: argparse.Namespace) -> int:
    game = _game(args)
    scheme = SchemeParams(parse_angle(args.gamma), parse_angle(args.delta))
    grid = StrategyGrid(*parse_grid(args.grid), args.phi_range)
    a, b, values = certified_profiles(game, scheme, grid, args.eps)
    print(f"equilibria found: {len(a)}", file=sys.stderr)
    # one block per Alice grid point, whose profiles are contiguous in a
    firsts = np.flatnonzero(np.diff(a, prepend=-1)).tolist()
    blocks = (((), a[lo], b[lo:hi], values[lo:hi])
              for lo, hi in zip(firsts, firsts[1:] + [len(a)]))
    head, tail = "", ""
    if args.format == "json":
        payload = {
            "gamma": scheme.gamma, "delta": scheme.delta, "eps": args.eps,
            "theta_steps": grid.theta_steps, "phi_steps": grid.phi_steps,
            "phi_range": grid.phi_range, "count": len(a), "profiles": [],
        }
        head, tail = (json.dumps(payload, indent=2) + "\n").rsplit("[]\n", 1)
    table = _table_chunks(EQUILIBRIA_FIELDS, args.format, grid, 4, blocks)
    _emit_chunks(chain([head], table, [tail]), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    # invalid usage is invalid input: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _add_common(sp: argparse.ArgumentParser, *, strategies: bool = False,
                grid: bool = False) -> None:
    sp.add_argument("--bos", help="battle of sexes payoffs A,B,S with A > B > S")
    sp.add_argument("--matrix",
                    help="full bimatrix a_oo,b_oo,a_ot,b_ot,a_to,b_to,a_tt,b_tt")
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
    verify.add_argument("--bos", default="2,1,0",
                        help="battle of sexes payoffs A,B,S (default %(default)s)")
    verify.add_argument("--matrix", help=argparse.SUPPRESS)
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
    raise SystemExit(main())
