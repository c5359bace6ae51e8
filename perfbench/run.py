"""Benchmark of the qgame command line, run as users run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each qgame command runs in its own child process (`python -m qgame ...` with
PYTHONPATH=src), one after another: a closed loop with one client. The seed
fixes the inputs: the Battle-of-the-Sexes payoffs, the (gamma, delta) pairs
and, for `verify`, its --seed. Workloads:

  verify      `qgame verify --seed S`; the scalar-oracle path (scheme, linalg).
  equilibria  `qgame equilibria --grid 65,33` and `qgame sweep --summary` over
              3 pairs; the probability tables and certificates (equilibrium).
  sweep_rows  a CSV sweep on the default grid and a JSON sweep of 2 pairs on
              17x9; row building and writing (cli).

With --trace 0 the workload's commands are repeated until --seconds have
passed, after a set-up phase of single-profile `qgame payoff` calls, and the
end-to-end metrics are printed. With --trace 1 untraced and traced iterations
alternate; a traced command runs perfbench/tracer.py, which calls
qgame.cli.main in-process with each layer wrapped, and the per-layer metrics
are printed. Every output is checked outside the timed region, by checks.py
in a process of its own. The line before the metric lines is a JSON record of
the run: machine, exact argv, per-command times, peak RSS and output sha256.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit code is 1 if any command or check failed. perfbench/meta.json
records why each workload exists and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"

SETUP_CALLS = 5
COMMAND_TIMEOUT_S = 60.0  # the slowest command takes ~15 s
HALF_PI = math.pi / 2
DEFAULT_GRID = (33, 17)  # qgame's default --grid, which the sweeps rely on
ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------- inputs

@dataclass(frozen=True)
class Inputs:
    """Everything a workload's commands take, drawn from the workload seed."""

    seed: int
    bos: tuple[float, float, float]
    interior: tuple[float, float]   # 0 < delta < gamma
    mw_gamma: float                 # Marinatto-Weber slice, delta = 0
    eisert_gamma: float             # Eisert slice, delta = gamma
    profile: tuple[float, float, float, float]  # theta1, phi1, theta2, phi2

    @property
    def bos_arg(self) -> str:
        return ",".join(repr(v) for v in self.bos)


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    sigma = rng.randint(0, 1000)
    beta = sigma + rng.randint(250, 2000)
    alpha = beta + rng.randint(250, 2000)
    gamma = rng.uniform(0.2, HALF_PI)
    return Inputs(
        seed=seed,
        bos=(alpha / 1000, beta / 1000, sigma / 1000),
        interior=(gamma, gamma * rng.uniform(0.1, 0.9)),
        mw_gamma=rng.uniform(0.0, HALF_PI),
        eisert_gamma=rng.uniform(0.0, HALF_PI),
        profile=(rng.uniform(0, math.pi), rng.uniform(0, HALF_PI),
                 rng.uniform(0, math.pi), rng.uniform(0, HALF_PI)),
    )


def _angles(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------- commands

@dataclass
class Command:
    args: list[str]          # qgame arguments, without --out
    check: str               # a check in checks.CHECKS
    params: dict             # its arguments, as JSON values
    profiles: int            # strategy profiles whose payoffs it produces
    out_name: str | None = None  # file name for --out

    def argv(self, work: Path) -> list[str]:
        if self.out_name is None:
            return list(self.args)
        return [*self.args, "--out", str(work / self.out_name)]


def setup_command(inputs: Inputs) -> Command:
    gamma, delta = inputs.interior
    t1, p1, t2, p2 = inputs.profile
    return Command(["payoff", "--bos", inputs.bos_arg, "--gamma", repr(gamma),
                    "--delta", repr(delta), "--s1", _angles((t1, p1)), "--s2", _angles((t2, p2))],
                   "payoff", {"bos": inputs.bos, "gamma": gamma, "delta": delta,
                              "profile": inputs.profile}, profiles=1)


def make_workload(name: str, inputs: Inputs) -> list[Command]:
    """The timed commands of one workload (the reasons are in BENCHMARK.json)."""
    bos = inputs.bos_arg
    default_n = DEFAULT_GRID[0] * DEFAULT_GRID[1]
    if name == "verify":
        # 14,002 oracle draws, fixed by verification's draw counts
        return [Command(["verify", "--seed", str(inputs.seed)], "verify", {}, profiles=14002)]
    if name == "equilibria":
        gamma, delta = inputs.interior
        pairs = [inputs.interior, (inputs.mw_gamma, 0.0),
                 (inputs.eisert_gamma, inputs.eisert_gamma)]
        return [
            Command(["equilibria", "--bos", bos, "--gamma", repr(gamma), "--delta", repr(delta),
                     "--grid", "65,33"],
                    "equilibria", {"bos": inputs.bos, "gamma": gamma, "delta": delta,
                                   "steps": [65, 33], "seed": inputs.seed},
                    profiles=(65 * 33) ** 2, out_name="equilibria.json"),
            Command(["sweep", "--bos", bos, "--gamma", _angles(g for g, _ in pairs),
                     "--delta", _angles(d for _, d in pairs), "--summary"],
                    "summary", {"pairs": pairs}, profiles=len(pairs) * default_n ** 2),
        ]
    if name == "sweep_rows":
        gamma, delta = inputs.interior
        pairs = [(inputs.mw_gamma, 0.0), (inputs.eisert_gamma, inputs.eisert_gamma)]
        return [
            Command(["sweep", "--bos", bos, "--gamma", repr(gamma), "--delta", repr(delta),
                     "--format", "csv"],
                    "rows", {"bos": inputs.bos, "pairs": [inputs.interior],
                             "steps": DEFAULT_GRID, "seed": inputs.seed},
                    profiles=default_n ** 2, out_name="rows.csv"),
            Command(["sweep", "--bos", bos, "--gamma", _angles(g for g, _ in pairs),
                     "--delta", _angles(d for _, d in pairs), "--grid", "17,9"],
                    "rows", {"bos": inputs.bos, "pairs": pairs, "steps": (17, 9),
                             "seed": inputs.seed},
                    profiles=len(pairs) * (17 * 9) ** 2),
        ]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- running

@dataclass
class Run:
    """One child process: what it cost and what it wrote."""

    argv: list[str]
    wall_s: float
    rss_mib: float
    out_bytes: int
    sha256: str
    failures: list[str]
    stats: dict | None = None  # tracer aggregates, traced runs only


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path,
          stdin: Path | None = None) -> tuple[int, float, float]:
    """Run one child; return exit code, wall seconds and its own peak RSS in MiB.

    os.wait4 reports the child's own ru_maxrss; RUSAGE_CHILDREN would report
    the running maximum over every child reaped so far.
    """
    with open(stdin or os.devnull, "rb") as inp, open(stdout, "wb") as out, \
            open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=inp, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_outputs(jobs: list[dict], work: Path) -> list[list[str]]:
    """Run checks.py on a batch of outputs; one list of failures per job."""
    (work / "checks.in").write_text(json.dumps(jobs))
    code, _, _ = spawn([sys.executable, str(BENCH_DIR / "checks.py")], work / "checks.out",
                       work / "checks.err", stdin=work / "checks.in")
    try:
        results = json.loads((work / "checks.out").read_text())
    except ValueError:
        results = None
    if code != 0 or not isinstance(results, list) or len(results) != len(jobs):
        error = (work / "checks.err").read_text().strip().splitlines()[-1:]
        return [[f"checks failed to run: {error}"] for _ in jobs]
    return results


def run_commands(commands: list[Command], work: Path, traced: bool) -> list[Run]:
    """Run commands one after another, then check their outputs outside the timed region."""
    runs, jobs, stats = [], [], [work / f"{i}.stats.json" for i in range(len(commands))]
    for i, cmd in enumerate(commands):
        argv = cmd.argv(work)
        if traced:
            child = [sys.executable, str(BENCH_DIR / "tracer.py"), str(stats[i]), "--", *argv]
        else:
            child = [sys.executable, "-m", "qgame", *argv]
        stdout, stderr = work / f"{i}.stdout", work / f"{i}.stderr"
        code, wall, rss = spawn(child, stdout, stderr)
        out = work / cmd.out_name if cmd.out_name else None
        jobs.append({"check": cmd.check, "params": cmd.params, "code": code,
                     "stdout": str(stdout), "stderr": str(stderr),
                     "out": str(out) if out else None})
        shown = [os.path.relpath(a, ROOT) if a.startswith(str(work)) else a for a in argv]
        runs.append(Run(shown, wall, rss, 0, "", []))
    for run, job, failures, stats_path in zip(runs, jobs, check_outputs(jobs, work), stats):
        written = [Path(p) for p in (job["stdout"], job["out"]) if p and Path(p).exists()]
        result = Path(job["out"] or job["stdout"])
        run.out_bytes = sum(p.stat().st_size for p in written)
        run.sha256 = _sha256(result) if result.exists() else ""
        run.failures = failures
        if traced:
            if stats_path.exists():
                run.stats = json.loads(stats_path.read_text())
            else:
                run.failures.append("tracer wrote no statistics")
    for path in work.iterdir():
        path.unlink()
    return runs


def layer_values(runs: list[Run], untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, summed over its commands."""
    from tracer import flatten
    values: dict[str, float] = {"cli.out_bytes": sum(r.out_bytes for r in runs),
                                "trace_overhead_s": sum(r.wall_s for r in runs) - untraced_wall}
    for run in (r for r in runs if r.stats is not None):  # None: already a failure
        for key, value in flatten(run.stats).items():
            values[key] = values.get(key, 0) + value
    return values


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the
    maximum (percentile 100) is reported instead.
    """
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return 100.0, ordered[-1]
    return 100.0 * k / len(ordered), ordered[k - 1]


def machine_info() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "env": {k: os.environ.get(k) for k in ENV_VARS},
    }


def command_detail(runs: list[Run]) -> dict:
    """One command's repeats: costs per repeat and the distinct output digests."""
    return {"argv": ["qgame", *runs[0].argv], "wall_s": [r.wall_s for r in runs],
            "rss_mib": [r.rss_mib for r in runs], "out_bytes": runs[0].out_bytes,
            "sha256": sorted({r.sha256 for r in runs})}


def report_metrics(names: dict[str, str], values: dict[str, float], failed: bool) -> dict:
    """The metrics BENCHMARK.json names; a run that failed may lack some."""
    missing = sorted(set(names) - set(values))
    if missing and not failed:
        raise SystemExit(f"metrics named in BENCHMARK.json but not measured: {missing}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in names.items() if name in values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "equilibria", "sweep_rows"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "qgame" / "__init__.py").is_file():
        print(f"error: no qgame sources under {SRC.name}/ in {ROOT.name}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in spec[section]}

    inputs = make_inputs(args.seed)
    workload = make_workload(args.workload, inputs)
    profiles = sum(cmd.profiles for cmd in workload)
    work = BENCH_DIR / ".work"
    work.mkdir(exist_ok=True)
    try:
        setup = (run_commands([setup_command(inputs)] * SETUP_CALLS, work, traced=False)
                 if not args.trace else [])
        plain: list[list[Run]] = []
        traced: list[list[Run]] = []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            plain.append(run_commands(workload, work, traced=False))
            if args.trace:
                traced.append(run_commands(workload, work, traced=True))
    finally:
        for path in work.iterdir():
            path.unlink()
        work.rmdir()

    walls = [sum(r.wall_s for r in it) for it in plain]
    wall = statistics.median(walls)
    percentile, tail_wall = tail(walls)
    all_runs = [*setup, *(r for it in plain + traced for r in it)]
    if args.trace:
        from tracer import LAYERS, VERIFY_EXACT_CALLS
        samples = [layer_values(it, wall) for it in traced]
        values = {k: statistics.median(s.get(k, 0) for s in samples)
                  for k in set().union(*samples)}
        # a function that was never called, or no longer exists, made 0 calls
        function_metric = re.compile(rf"({'|'.join(LAYERS)})\.\w+\.(calls|s)")
        values.update({n: 0 for n in names if n not in values and function_metric.fullmatch(n)})
        if args.workload == "verify":
            for it, sample in zip(traced, samples):
                wrong = {k: sample.get(k) for k, v in VERIFY_EXACT_CALLS.items()
                         if sample.get(k) != v}
                if wrong:
                    it[0].failures.append(f"tracer self-test: counts {wrong}, "
                                          f"expected {VERIFY_EXACT_CALLS}")
    else:
        values = {
            "wall_s": wall,
            "profiles_per_s": profiles / wall,
            "peak_rss_mb": statistics.median(max(r.rss_mib for r in it) for it in plain),
            "setup_s": statistics.median(r.wall_s for r in setup),
        }
    failed = [r for r in all_runs if r.failures]
    detail = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "machine": machine_info(),
        "profiles": profiles,
        "wall_s": {"median": wall, "tail_percentile": percentile, "tail": tail_wall,
                   "samples": len(walls), "values": walls},
        "setup_s": [r.wall_s for r in setup],
        "fail_ratio": len(failed) / len(all_runs),
        "commands": [command_detail(runs) for runs in ([setup] if setup else []) + [
            [it[i] for it in plain] for i in range(len(workload))]],
        "failures": [{"argv": r.argv, "failures": r.failures} for r in failed],
    }
    if traced:
        detail["traced_commands"] = [command_detail([it[i] for it in traced])
                                     for i in range(len(workload))]
        detail["layers_by_caller"] = [r.stats for r in traced[0]]
    print(json.dumps(detail))
    metrics = report_metrics(names, values, bool(failed))
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# wall_s p{percentile:g} = {tail_wall:.6g} s over {len(walls)} samples")
    print(f"# fail_ratio = {len(failed)}/{len(all_runs)}")
    print(json.dumps({"correct": not failed, "attempted": len(all_runs),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
