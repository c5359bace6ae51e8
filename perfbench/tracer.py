"""Run one qgame command in-process with each layer's functions wrapped.

Usage: python3 perfbench/tracer.py STATS_JSON -- QGAME_ARGS...

The program is not changed: after import, every public function of the
layers cli, verification, equilibrium, closedform, scheme and linalg (plus
the private helpers named in EXTRA, which other modules call) is replaced by
a timing wrapper in every qgame.* module that binds it. `from .scheme import
x` copies a binding, so each copy is replaced, not only the defining one.

The tracer keeps only aggregates per (function, caller): calls, total
seconds and self seconds, where the caller is the nearest wrapped frame.
Memory therefore stays flat however many calls are made. The aggregates are
written to STATS_JSON when the command returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "verification", "equilibrium", "closedform", "scheme", "linalg")

# Private helpers wrapped as well: _general is called across the module
# boundary by equilibrium.sweep, _certificates is the certificate stage.
EXTRA = {"closedform": ("_general",), "equilibrium": ("_certificates",)}

# Calls made by `qgame verify` for any seed: the draw counts are fixed.
VERIFY_EXACT_CALLS = {
    "scheme.payoffs_oracle.calls": 14002,
    "scheme.measurement_basis.calls": 15103,
    "closedform.payoff_general.calls": 17000,
}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [qualified name, seconds in wrapped children]
        self.stats: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.errors = dict.fromkeys(LAYERS, 0)
        self.profiles = 0
        self.table_bytes = 0
        self.checks_failed = 0
        self._last_error: BaseException | None = None
        self._hooks = {
            "equilibrium.probability_tables": self._on_tables,
            "verification.run_verification": self._on_report,
        }

    def _on_tables(self, probs) -> None:
        self.profiles += probs.shape[1] * probs.shape[2]
        self.table_bytes += probs.nbytes

    def _on_report(self, report) -> None:
        self.checks_failed += sum(1 for c in report.checks if c.required and not c.passed)

    def _on_error(self, layer: str, exc: BaseException) -> None:
        # an exception propagating through several wrapped frames counts once
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[layer] += 1

    def wrap(self, layer: str, name: str, func):
        qualified = f"{layer}.{name}"
        stack, stats, clock = self.stack, self.stats, time.perf_counter
        hook = self._hooks.get(qualified)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            caller = stack[-1][0] if stack else "-"
            frame = [qualified, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self._on_error(layer, exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = stats.get((qualified, caller))
                if record is None:
                    record = stats[(qualified, caller)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-function and per-layer totals, plus the per-caller breakdown."""
        functions: dict[str, dict] = {}
        for (qualified, caller), (calls, total, self_s) in sorted(self.stats.items()):
            entry = functions.setdefault(
                qualified, {"calls": 0, "s": 0.0, "self_s": 0.0, "callers": {}})
            entry["calls"] += calls
            entry["s"] += total
            entry["self_s"] += self_s
            entry["callers"][caller] = {"calls": calls, "s": total}
        self_s = dict.fromkeys(LAYERS, 0.0)
        for qualified, entry in functions.items():
            self_s[qualified.split(".", 1)[0]] += entry["self_s"]
        return {
            "functions": functions,
            "layer_self_s": self_s,
            "layer_errors": dict(self.errors),
            "profiles": self.profiles,
            "table_bytes": self.table_bytes,
            "checks_failed": self.checks_failed,
        }


def flatten(summary: dict) -> dict[str, float]:
    """Per-layer metric values, by metric name, from one summary()."""
    values = {f"{name}.{key}": entry[key]
              for name, entry in summary["functions"].items() for key in ("calls", "s")}
    values.update({f"{layer}.self_s": v for layer, v in summary["layer_self_s"].items()})
    values.update({f"{layer}.errors": v for layer, v in summary["layer_errors"].items()})
    values["equilibrium.profiles"] = summary["profiles"]
    values["equilibrium.table_bytes"] = summary["table_bytes"]
    values["verification.checks_failed"] = summary["checks_failed"]
    return values


def _qgame_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qgame" or name.startswith("qgame."))]


def install(tracer: Tracer) -> dict:
    """Wrap the layer functions in every qgame.* module; return original -> wrapper."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"qgame.{layer}")
        for name, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            if name.startswith("_") and name not in EXTRA.get(layer, ()):
                continue
            wrappers[obj] = tracer.wrap(layer, name, obj)
    for module in _qgame_modules():
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])
    return wrappers


def escaped_bindings(wrappers: dict) -> list[str]:
    """Module attributes that still name an unwrapped original."""
    return [f"{module.__name__}.{name}"
            for module in _qgame_modules()
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj in wrappers]


def run(stats_path: str, qgame_args: list[str]) -> int:
    tracer = Tracer()
    wrappers = install(tracer)
    escaped = escaped_bindings(wrappers)
    if escaped:
        raise RuntimeError(f"unwrapped bindings remain: {escaped}")
    from qgame import cli

    try:
        return cli.main(qgame_args)
    finally:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py STATS_JSON -- QGAME_ARGS...")
    sys.exit(run(sys.argv[1], sys.argv[3:]))
