"""Self-test of the tracer: exact call counts show that no binding escapes.

Usage, from the root of a checkout: python3 perfbench/selftest.py

The layers reach each other through `from .scheme import ...` copies, so a
wrapper that missed one copy would lose calls. This traces `qgame verify
--seed 0` and requires the exact counts in tracer.VERIFY_EXACT_CALLS, then a
small `sweep --summary`, whose closedform._general calls come from
equilibrium.sweep across the module boundary, then an invalid `payoff`,
whose error must be counted once. Exit code 0 when every expectation holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from tracer import VERIFY_EXACT_CALLS, flatten

ROOT = Path(__file__).resolve().parent.parent

CASES = [
    (["verify", "--seed", "0"], 0, {**VERIFY_EXACT_CALLS,
                                    "verification.checks_failed": 0}),
    (["sweep", "--bos", "2,1,0", "--gamma", "0.1,0.2", "--delta", "0,0.2",
      "--grid", "3,2", "--summary"], 0,
     {"closedform._general.calls": 2, "equilibrium.probability_tables.calls": 2,
      "equilibrium.profiles": 2 * 36, "equilibrium.table_bytes": 2 * 4 * 36 * 8,
      "cli.errors": 0}),
    (["payoff", "--bos", "2,1,0", "--gamma", "9", "--delta", "0",
      "--s1", "0,0", "--s2", "0,0"], 1,
     {"cli.errors": 1, "scheme.errors": 0, "scheme.payoffs_oracle.calls": 0}),
]


def trace(args: list[str], stats: Path) -> tuple[int, dict]:
    """Run one traced qgame command; its exit code and flattened counts."""
    stats.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("tracer.py")),
                           str(stats), "--", *args],
                          env=env, cwd=ROOT, capture_output=True, check=False)
    return proc.returncode, flatten(json.loads(stats.read_text())) if stats.exists() else {}


def main() -> int:
    work = Path(__file__).resolve().parent / ".work"
    work.mkdir(exist_ok=True)
    stats = work / "selftest.stats.json"
    failures = 0
    try:
        for args, want_code, expected in CASES:
            code, values = trace(args, stats)
            got = {k: values.get(k, 0) for k in expected}
            ok = code == want_code and got == expected
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} qgame {' '.join(args)}: exit {code}, {got}")
    finally:
        stats.unlink(missing_ok=True)
        if not any(work.iterdir()):
            work.rmdir()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
