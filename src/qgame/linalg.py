"""The default numerical tolerance of the state checks in scheme.py.

States are length-4 complex vectors over the ordered basis |OO>, |OT>, |TO>,
|TT>, Alice's letter first; single-player operators are 2x2 complex
matrices. The arithmetic itself is plain numpy in scheme.py.
"""

from __future__ import annotations

DEFAULT_TOL = 1e-9
