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

import numpy as np

from .closedform import payoff_general
from .equilibrium import (
    StrategyGrid,
    _check_table_size,
    _pair_up,
    epsilon_nash,
    probability_tables,
    sweep,
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

DEFAULT_GRID = (33, 17)
DEFAULT_EPS = 1e-9


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


def load_config(path: str) -> dict[str, str]:
    """Flat key = value file; full-line # comments and blank lines allowed."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


class _Resolver:
    """Option lookup with precedence: command line, then config file."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default: str | None = None) -> str | None:
        cli = getattr(self.args, key.replace("-", "_"), None)
        if cli is not None:
            return cli
        return self.config.get(key, default)

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise ValueError(f"missing required option --{key}")
        return value

    def game(self, default_bos: str | None = None) -> GameMatrix:
        bos = self.get("bos")
        matrix = self.get("matrix")
        if bos is not None and matrix is not None:
            raise ValueError("give either --bos or --matrix, not both")
        if matrix is not None:
            v = _split_floats(matrix, 8, "matrix")
            # order: a_oo,b_oo,a_ot,b_ot,a_to,b_to,a_tt,b_tt
            return GameMatrix(alice=((v[0], v[2]), (v[4], v[6])),
                              bob=((v[1], v[3]), (v[5], v[7])))
        if bos is None:
            bos = default_bos
        if bos is None:
            raise ValueError("a game is required: --bos A,B,S or --matrix (8 values)")
        return battle_of_sexes(*_split_floats(bos, 3, "bos"))

    def phi_range(self) -> str:
        value = self.get("phi-range", "narrow")
        if value not in ("narrow", "full"):
            raise ValueError(f"phi-range must be 'narrow' or 'full', got {value!r}")
        return value

    def fmt(self) -> str:
        value = self.get("format", "json")
        if value not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {value!r}")
        return value

    def summary(self) -> bool:
        value = self.get("summary", "false")
        if value not in ("true", "false"):
            raise ValueError(f"summary must be 'true' or 'false', got {value!r}")
        return value == "true"

    def grid(self) -> StrategyGrid:
        spec = self.get("grid")
        steps = parse_grid(spec) if spec is not None else DEFAULT_GRID
        return StrategyGrid(steps[0], steps[1], self.phi_range())

    def eps(self) -> float:
        return float(self.get("eps", str(DEFAULT_EPS)))

    def seed(self) -> int:
        raw = self.get("seed", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"seed must be a nonnegative integer, got {raw!r}") from None
        if seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed}")
        return seed


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


def _emit(text: str, out: str | None) -> None:
    _emit_chunks([text], out)


def _emit_chunks(chunks: Iterable[str], out: str | None) -> None:
    """Write each piece as it is produced; --out is opened before the first."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _sweep_chunks(game: GameMatrix, schemes: list[SchemeParams], grid: StrategyGrid,
                  fmt: str) -> Iterator[str]:
    """Per-profile sweep rows for every scheme and grid profile, in pieces.

    The pieces join to the bytes of _csv_table(SWEEP_FIELDS, rows) for csv
    and of json.dumps(rows, indent=2) + "\\n" for json: start, the rows
    separated by sep, end. A row is head(gamma, delta, theta1, phi1) followed
    by tail(theta2, phi2, six value specs). Each block is the n rows of one
    scheme and one Alice grid point, from a single %-format of the row
    template repeated n times. Only one scheme's tables are held at a time.
    """
    if fmt == "csv":
        num, spec = _fmt_csv, "%.15g"
        start, sep, end = ",".join(SWEEP_FIELDS) + "\n", "\n", "\n"

        def head(texts):
            return ",".join(texts) + ","

        def tail(texts):
            return ",".join(texts)
    else:
        # json writes a finite float as its repr, which %s gives too
        num, spec = json.dumps, "%s"
        start, sep, end = "[\n", ",\n", "\n]\n"

        def head(texts):
            return "  {\n" + "".join(f'    "{f}": {t},\n' for f, t in zip(SWEEP_FIELDS, texts))

        def tail(texts):
            fields = zip(SWEEP_FIELDS[4:], texts)
            return ",\n".join(f'    "{f}": {t}' for f, t in fields) + "\n  }"

    # formatted numbers hold no "%", so they can sit inside a %-template
    points = [(num(s.theta), num(s.phi)) for s in grid.points()]
    tails = [tail([theta, phi] + [spec] * 6) for theta, phi in points]
    yield start
    for i, scheme in enumerate(schemes):
        probs = probability_tables(scheme, grid)
        alice, bob = weigh_outcomes(game, probs)
        values = np.stack([alice, bob, *probs], axis=-1)  # (n, n, 6), SWEEP_FIELDS order
        # json writes inf and nan as Infinity and NaN, not as %s would
        spell_out = fmt == "json" and not np.isfinite(values).all()
        prefix = [num(scheme.gamma), num(scheme.delta)]
        for a, (theta, phi) in enumerate(points):
            row_head = head(prefix + [theta, phi])
            cells = values[a].ravel().tolist()
            if spell_out:
                cells = [num(c) for c in cells]
            if i or a:
                yield sep
            yield (row_head + (sep + row_head).join(tails)) % tuple(cells)
    yield end


def cmd_payoff(args: argparse.Namespace) -> int:
    opts = _Resolver(args)
    phi_range = opts.phi_range()
    game = opts.game()
    scheme = SchemeParams(parse_angle(opts.require("gamma")),
                          parse_angle(opts.require("delta")))
    s1 = parse_strategy(opts.require("s1"), phi_range)
    s2 = parse_strategy(opts.require("s2"), phi_range)
    probs = outcome_probabilities(final_state(scheme.gamma, s1, s2),
                                  measurement_basis(scheme.delta))
    oracle = payoffs_oracle(game, scheme, s1, s2)
    row = {
        "gamma": scheme.gamma, "delta": scheme.delta,
        "theta1": s1.theta, "phi1": s1.phi, "theta2": s2.theta, "phi2": s2.phi,
        "payoff_a": oracle.alice, "payoff_b": oracle.bob,
        "p_oo": probs[0], "p_ot": probs[1], "p_to": probs[2], "p_tt": probs[3],
    }
    if opts.fmt() == "csv":
        _emit(_csv_table(SWEEP_FIELDS, [row]), opts.get("out"))
        return 0
    if game.bos is not None:
        form = payoff_general(game, scheme, s1, s2)
        row["closed_form_a"] = form.alice
        row["closed_form_b"] = form.bob
        row["abs_diff_a"] = abs(form.alice - oracle.alice)
        row["abs_diff_b"] = abs(form.bob - oracle.bob)
    _emit(json.dumps(row, indent=2) + "\n", opts.get("out"))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    opts = _Resolver(args)
    if opts.get("matrix") is not None:
        raise ValueError("verify runs on battle-of-sexes games only; use --bos")
    game = opts.game(default_bos="2,1,0")
    report = run_verification(game, seed=opts.seed())
    _emit(report.render(), opts.get("out"))
    return 0 if report.passed else 2


def cmd_sweep(args: argparse.Namespace) -> int:
    opts = _Resolver(args)
    game = opts.game()
    gammas = parse_angle_list(opts.require("gamma"))
    deltas = parse_angle_list(opts.require("delta"))
    grid = opts.grid()
    eps = opts.eps()

    if not opts.summary():
        fmt = opts.fmt()
        # everything that can reject the input runs before the first byte
        schemes = [SchemeParams(g, d) for g, d in _pair_up(gammas, deltas)]
        _check_table_size(grid)
        _emit_chunks(_sweep_chunks(game, schemes, grid, fmt), opts.get("out"))
        return 0

    rows = [{
        "gamma": r.gamma, "delta": r.delta, "equilibria": r.equilibria,
        "best_payoff_a": None if r.best is None else r.best.alice,
        "best_payoff_b": None if r.best is None else r.best.bob,
        "max_formula_dev": r.max_formula_dev,
    } for r in sweep(game, gammas, deltas, grid, eps)]
    if opts.fmt() == "csv":
        _emit(_csv_table(SUMMARY_FIELDS, rows), opts.get("out"))
    else:
        _emit(json.dumps(rows, indent=2) + "\n", opts.get("out"))
    return 0


def cmd_equilibria(args: argparse.Namespace) -> int:
    opts = _Resolver(args)
    game = opts.game()
    scheme = SchemeParams(parse_angle(opts.require("gamma")),
                          parse_angle(opts.require("delta")))
    grid = opts.grid()
    eps = opts.eps()
    results = epsilon_nash(game, scheme, grid, eps)
    print(f"equilibria found: {len(results)}", file=sys.stderr)
    rows = [{
        "theta1": r.s1.theta, "phi1": r.s1.phi,
        "theta2": r.s2.theta, "phi2": r.s2.phi,
        "payoff_a": r.payoffs.alice, "payoff_b": r.payoffs.bob,
        "eps_cert": r.eps_cert,
    } for r in results]
    if opts.fmt() == "csv":
        _emit(_csv_table(EQUILIBRIA_FIELDS, rows), opts.get("out"))
    else:
        payload = {
            "gamma": scheme.gamma, "delta": scheme.delta, "eps": eps,
            "theta_steps": grid.theta_steps, "phi_steps": grid.phi_steps,
            "phi_range": grid.phi_range, "count": len(results), "profiles": rows,
        }
        _emit(json.dumps(payload, indent=2) + "\n", opts.get("out"))
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
    sp.add_argument("--gamma", help="initial-state entanglement angle(s)")
    sp.add_argument("--delta", help="measurement entanglement angle(s)")
    if strategies:
        sp.add_argument("--s1", help="Alice's strategy theta,phi")
        sp.add_argument("--s2", help="Bob's strategy theta,phi")
    if grid:
        sp.add_argument("--grid", help="strategy grid theta_steps,phi_steps "
                                       f"(default {DEFAULT_GRID[0]},{DEFAULT_GRID[1]})")
        sp.add_argument("--eps", help=f"equilibrium tolerance (default {DEFAULT_EPS})")
    sp.add_argument("--phi-range", choices=["narrow", "full"],
                    help="phase angle range: narrow [0, pi/2] or full [0, 2*pi)")
    sp.add_argument("--format", choices=["csv", "json"], help="output format (default json)")
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
    verify.add_argument("--bos", help="battle of sexes payoffs A,B,S (default 2,1,0)")
    verify.add_argument("--matrix", help=argparse.SUPPRESS)
    verify.add_argument("--seed", help="seed for the verification draws (default 0)")
    verify.add_argument("--out", help="write the report to this path")
    verify.add_argument("--config", help="flat key = value config file")
    verify.set_defaults(func=cmd_verify)

    sw = sub.add_parser("sweep", help="payoff rows over scheme/strategy grids")
    _add_common(sw, grid=True)
    sw.add_argument("--summary", action="store_const", const="true", default=None,
                    help="one summary row per (gamma, delta) pair instead of "
                         "per-profile rows")
    sw.set_defaults(func=cmd_sweep)

    eq = sub.add_parser("equilibria", help="grid-certified epsilon-Nash profiles")
    _add_common(eq, grid=True)
    eq.set_defaults(func=cmd_equilibria)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
