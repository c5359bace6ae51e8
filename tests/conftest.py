import contextlib
import io
import sys
from collections import Counter

import pytest

from qgame.cli import main

# Functions whose calls a `qgame verify` run makes in a number fixed by its
# draw counts, whatever the seed.
COUNTED = ("payoffs_oracle", "measurement_basis", "payoff_general", "_general")


@pytest.fixture(scope="session")
def verify_seed0():
    """Argv, exit code, stdout and call counts of `qgame verify --seed 0`, run
    once for every test that reads its report: the full suite takes seconds.

    Every qgame module binding of a COUNTED function is wrapped for the run,
    as `from .scheme import x` copies a binding; the counts cover calls made
    inside scheme itself too."""
    argv = ["verify", "--seed", "0"]
    calls = Counter()

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "qgame" or module_name.startswith("qgame.")):
                continue
            for name in COUNTED:
                if name in vars(module):
                    mp.setattr(module, name, counting(name, getattr(module, name)))
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    return argv, code, out.getvalue(), dict(calls)
