"""Golden corpus: CLI output pinned against files in tests/golden/.

Each case compares the stdout of one qgame command with its golden file.
Keys, field order, row order and counts must match exactly; floats must
match within GOLDEN_ATOL absolute, so a different BLAS does not break the
test. Equilibrium angles are grid values far more than GOLDEN_ATOL apart, so
matching them pins the equilibrium index sets exactly. For `verify` only the
check names, tolerances and pass flags are pinned: the reported deviations
depend on the order of the random draws.

After a deliberate output change, rewrite the golden files with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest

from qgame.cli import main

GOLDEN = Path(__file__).with_name("golden")
GOLDEN_ATOL = 1e-12

CASES = {
    "payoff_bos.json": ["payoff", "--bos", "2,1,0", "--gamma", "pi/2", "--delta", "pi/4",
                        "--s1", "0.3,0.2", "--s2", "1.1,0.9"],
    "payoff_bos.csv": ["payoff", "--bos", "2,1,0", "--gamma", "pi/2", "--delta", "pi/4",
                       "--s1", "0.3,0.2", "--s2", "1.1,0.9", "--format", "csv"],
    "payoff_matrix.json": ["payoff", "--matrix", "3,3,0,5,5,0,1,1", "--gamma", "pi/4",
                           "--delta", "0.7", "--s1", "2.1,1.3", "--s2", "0.4,pi/2"],
    "payoff_matrix.csv": ["payoff", "--matrix", "3,3,0,5,5,0,1,1", "--gamma", "pi/4",
                          "--delta", "0.7", "--s1", "2.1,1.3", "--s2", "0.4,pi/2",
                          "--format", "csv"],
    "sweep_rows.csv": ["sweep", "--bos", "2,1,0", "--gamma", "0,pi/2", "--delta", "0.3,pi/4",
                       "--grid", "5,3", "--format", "csv"],
    "sweep_rows.json": ["sweep", "--matrix", "3,3,0,5,5,0,1,1", "--gamma", "pi/4",
                        "--delta", "0,pi/4", "--grid", "3,2", "--phi-range", "full"],
    "sweep_summary.json": ["sweep", "--bos", "3,2,0.5", "--gamma", "0,pi/4,pi/2",
                           "--delta", "0,0.6,pi/2", "--grid", "9,5", "--summary"],
    "equilibria_narrow.json": ["equilibria", "--bos", "2,1,0", "--gamma", "pi/2",
                               "--delta", "pi/2", "--grid", "9,5"],
    "equilibria_full.json": ["equilibria", "--bos", "2,1,0", "--gamma", "pi/4",
                             "--delta", "0.3", "--grid", "9,5", "--phi-range", "full"],
    "verify_seed0.txt": ["verify", "--seed", "0"],
}


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, f"qgame {' '.join(argv)} exited {code}"
    return out.getvalue()


def pin_verify(report: str) -> str:
    """Check names, tolerances and pass flags of a verify report, one per line."""
    lines = []
    for line in report.splitlines():
        if line.startswith("["):
            tag, name, _, tol = line.split()[:4]
            lines.append(f"{tag} {name} {tol}")
        elif line.startswith(("required:", "result:")):
            lines.append(line)
    return "\n".join(lines) + "\n"


def assert_same(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= GOLDEN_ATOL, (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def parse_csv(text: str) -> list:
    """Header as strings; cells as floats, empty cells as None."""
    header, *rows = csv.reader(io.StringIO(text))
    return [header] + [[float(c) if c else None for c in row] for row in rows]


@pytest.mark.parametrize("name", list(CASES))
def test_golden(name, request):
    if name == "verify_seed0.txt":
        argv, code, got = request.getfixturevalue("verify_seed0")  # shared with test_cli
        assert (argv, code) == (CASES[name], 0)
    else:
        got = run(CASES[name])
    want = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        assert_same(json.loads(got), json.loads(want))
    elif name.endswith(".csv"):
        assert_same(parse_csv(got), parse_csv(want))
    else:
        assert pin_verify(got) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        text = run(argv)
        (GOLDEN / name).write_text(pin_verify(text) if name.endswith(".txt") else text,
                                   encoding="utf-8")
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
