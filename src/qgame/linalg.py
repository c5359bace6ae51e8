"""Shared constants for two-qubit game states.

States are length-4 complex vectors over the ordered basis |OO>, |OT>, |TO>,
|TT>, Alice's letter first; single-player operators are 2x2 complex
matrices. The arithmetic itself is plain numpy in scheme.py.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


I2 = _frozen([[1, 0], [0, 1]])

KET_OO = _frozen([1, 0, 0, 0])
KET_OT = _frozen([0, 1, 0, 0])
KET_TO = _frozen([0, 0, 1, 0])
KET_TT = _frozen([0, 0, 0, 1])
