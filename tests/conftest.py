import contextlib
import io

import pytest

from qgame.cli import main


@pytest.fixture(scope="session")
def verify_seed0():
    """Argv, exit code and stdout of `qgame verify --seed 0`, run once for
    every test that reads its report: the full suite takes seconds."""
    argv = ["verify", "--seed", "0"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return argv, code, out.getvalue()
