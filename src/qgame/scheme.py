"""Two-parameter quantization of 2x2 bimatrix games, simulated exactly.

The referee prepares cos(gamma/2)|OO> + i sin(gamma/2)|TT>, each player acts
with a two-parameter unitary U(theta, phi) = cos(theta/2) R(phi) +
sin(theta/2) C, and the joint state is measured in a basis whose four
directions are entangled by a second angle delta. Payoffs are outcome
probabilities weighted by the game matrix. This module is the ground-truth
path: explicit state evolution and projection, no closed forms.

One profile is a handful of complex products, so the state, the operators,
the basis and the probabilities are plain Python tuples of complex.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

HALF_PI = math.pi / 2
TWO_PI = 2.0 * math.pi

# Allowed phase-angle intervals for strategies. "narrow" is the conventional
# two-parameter strategy set; "full" opens the whole phase circle. The upper
# end of "full" is exclusive (phi is 2*pi-periodic).
PHI_RANGES = {
    "narrow": (0.0, HALF_PI),
    "full": (0.0, TWO_PI),
}

# Largest payoff magnitude of a game: tables stay below 1e300, certificates
# (differences of two payoffs) below 2e300, closed forms below 4e300.
MAX_PAYOFF = 1e300


def _shown(value) -> str:
    """repr(value) for a rejection message, or where repr raises, a bounded
    text in angle brackets. Python turns no int of over
    sys.get_int_max_str_digits() digits into text, so such an int is shown
    by its digit count, and a container of one by its type and the error."""
    try:
        return repr(value)
    except ValueError as exc:
        if not isinstance(value, int):
            return f"<{type(value).__name__} whose repr fails: {exc}>"
        size = abs(value)
        digits = int((size.bit_length() - 1) * math.log10(2)) + 1  # those of 2^(bits - 1)
        digits += size >= 10 ** digits  # at most one more, as size < 2^bits
        return f"<{'negative ' if value < 0 else ''}int of {digits} digits>"


def _check_interval(name: str, value: float, lo: float, hi: float, label: str,
                    open_upper: bool = False) -> float:
    """value as a float, checked to lie in [lo, hi], or [lo, hi) if open_upper."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a finite number, got {_shown(value)}") from None
    except OverflowError:  # an int beyond every float, so outside [lo, hi]
        raise ValueError(f"{name} must be in {label}, got {_shown(value)}") from None
    # lo and hi are finite, so nan and inf fail this test too
    if lo <= value < hi if open_upper else lo <= value <= hi:
        return value + 0.0  # -0.0 as 0.0
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    raise ValueError(f"{name} must be in {label}, got {value!r}")


def _phi_interval(phi_range: str) -> tuple[float, float]:
    """The (lo, hi) of a configured phase-range name."""
    if phi_range not in PHI_RANGES:
        raise ValueError(f"phi_range must be one of {sorted(PHI_RANGES)}, got {phi_range!r}")
    return PHI_RANGES[phi_range]


def check_phi(phi: float, phi_range: str = "narrow") -> None:
    """Validate a phase angle against a configured range name."""
    lo, hi = _phi_interval(phi_range)
    label = "[0, pi/2]" if phi_range == "narrow" else "[0, 2*pi)"
    _check_interval("phi", phi, lo, hi, label, open_upper=phi_range == "full")


def _record(typename: str, field_names: str, **kwargs) -> type:
    """The namedtuple base of a record that validates in __new__. Its _make,
    and so _replace, which goes through _make, calls the record's own
    constructor: namedtuple's would build the tuple without the checks."""
    base = namedtuple(typename, field_names, **kwargs)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class SchemeParams(_record("SchemeParams", "gamma delta")):
    """Referee knobs: gamma entangles the initial state, delta the measurement."""

    __slots__ = ()

    def __new__(cls, gamma: float, delta: float):
        return super().__new__(cls, _check_interval("gamma", gamma, 0.0, HALF_PI, "[0, pi/2]"),
                               _check_interval("delta", delta, 0.0, HALF_PI, "[0, pi/2]"))


class StrategyParams(_record("StrategyParams", "theta phi")):
    """One player's move: mixing angle theta, phase angle phi.

    theta interpolates between staying (theta=0) and flipping (theta=pi);
    cos^2(theta/2) is the classical probability of the first move. phi is
    accepted on the widest configurable range [0, 2*pi); front ends enforce
    the narrower default via check_phi.
    """

    __slots__ = ()

    def __new__(cls, theta: float, phi: float):
        return super().__new__(
            cls, _check_interval("theta", theta, 0.0, math.pi, "[0, pi]"),
            _check_interval("phi", phi, 0.0, TWO_PI, "[0, 2*pi)", open_upper=True))


def _as_cells(name, cells) -> tuple[tuple[float, float], tuple[float, float]]:
    try:
        (a, b), (c, d) = cells
    except TypeError as exc:  # cells, or one of its rows, is not iterable
        raise ValueError(f"{name} must be a 2x2 array of numbers") from exc
    except ValueError:  # a row count or row length other than 2
        raise ValueError(f"{name} must be 2x2, got {_shown(cells)}") from None
    try:  # + 0.0 stores -0.0 as 0.0
        rows = (float(a) + 0.0, float(b) + 0.0), (float(c) + 0.0, float(d) + 0.0)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a 2x2 array of numbers") from exc
    except OverflowError:  # an int beyond every float, so beyond MAX_PAYOFF
        raise ValueError(f"{name} entries must be finite and at most "
                         f"{MAX_PAYOFF:g} in magnitude, got {_shown(cells)}") from None
    for v in rows[0] + rows[1]:
        if not abs(v) <= MAX_PAYOFF:  # also false for nan
            raise ValueError(f"{name} entries must be finite and at most "
                             f"{MAX_PAYOFF:g} in magnitude, got {v!r}")
    return rows


class GameMatrix(_record("GameMatrix", "alice bob bos")):
    """2x2 bimatrix: alice[i][j], bob[i][j] with i Alice's move, O=0 and T=1.

    bos is (alpha, beta, sigma) when alice = ((alpha, sigma), (sigma, beta))
    and bob = ((beta, sigma), (sigma, alpha)), in any order, else None. It is
    derived from the cells, once, and the closed forms need it.
    """

    __slots__ = ()

    def __new__(cls, alice, bob):
        alice = _as_cells("alice payoffs", alice)
        bob = _as_cells("bob payoffs", bob)
        (alpha, sigma), (_, beta) = alice
        form = alice[1][0] == sigma and bob == ((beta, sigma), (sigma, alpha))
        return super().__new__(cls, alice, bob, (alpha, beta, sigma) if form else None)

    def __getnewargs__(self):
        # copy and pickle call __new__ with these; bos is derived, not passed
        return self.alice, self.bob

    @classmethod
    def _make(cls, iterable):
        """The game of the cells alice and bob; bos, derived from them, must
        equal the given one (so _replace of a cell cannot keep a stale bos)."""
        alice, bob, bos = iterable
        game = cls(alice, bob)
        if bos != game.bos:
            raise ValueError(f"bos must be {game.bos!r}, derived from the cells, "
                             f"got {_shown(bos)}")
        return game

    def alice_by_outcome(self) -> tuple[float, float, float, float]:
        """Alice's payoffs in basis order OO, OT, TO, TT."""
        (oo, ot), (to, tt) = self.alice
        return oo, ot, to, tt

    def bob_by_outcome(self) -> tuple[float, float, float, float]:
        (oo, ot), (to, tt) = self.bob
        return oo, ot, to, tt


def battle_of_sexes(alpha: float, beta: float, sigma: float) -> GameMatrix:
    """Coordination game with matched payoffs alpha/beta and mismatch sigma.

    Requires alpha > beta > sigma strictly; GameMatrix derives bos from the cells.
    """
    if not (alpha > beta > sigma):
        raise ValueError(
            f"battle of sexes requires alpha > beta > sigma, got {_shown(alpha)}, "
            f"{_shown(beta)}, {_shown(sigma)}"
        )
    return GameMatrix(alice=((alpha, sigma), (sigma, beta)),
                      bob=((beta, sigma), (sigma, alpha)))


class PayoffPair(_record("PayoffPair", "alice bob")):
    __slots__ = ()

    def __new__(cls, alice: float, bob: float):
        try:
            finite = math.isfinite(alice) and math.isfinite(bob)
        except OverflowError:  # an int beyond every float
            finite = False
        if not finite:
            raise ValueError(f"payoffs must be finite, got {_shown(alice)}, {_shown(bob)}")
        return super().__new__(cls, alice, bob)


def initial_state(gamma: float) -> tuple[complex, complex, complex, complex]:
    """cos(gamma/2)|OO> + i sin(gamma/2)|TT>: its amplitudes in order OO, OT,
    TO, TT."""
    gamma = _check_interval("gamma", gamma, 0.0, HALF_PI, "[0, pi/2]")
    return complex(math.cos(gamma / 2)), 0j, 0j, 1j * math.sin(gamma / 2)


def strategy_op(s: StrategyParams) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """U(theta, phi) = cos(theta/2) R(phi) + sin(theta/2) C; always unitary.

    Its two rows are [c e^{i phi}, s] and [-s, c e^{-i phi}], with c, s the
    cosine and sine of theta/2; np.array(strategy_op(s)) is the 2x2 matrix.
    """
    theta, phi = s  # unpacking is cheaper than two field reads each
    c, s_ = math.cos(theta / 2), math.sin(theta / 2)
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    return ((complex(c * cos_phi, c * sin_phi), complex(s_)),
            (complex(-s_), complex(c * cos_phi, -c * sin_phi)))


def final_state(gamma: float, s1: StrategyParams,
                s2: StrategyParams) -> tuple[complex, complex, complex, complex]:
    """(U1 tensor U2) applied to the entangled initial state: its amplitudes
    in order OO, OT, TO, TT.

    With the amplitudes as a 2x2 matrix M[a, b] (a Alice's qubit, b Bob's),
    the tensor product acts as U1 M U2^T. M is diagonal, so U1 M scales the
    columns of U1. One profile's product is a few complex multiplications,
    done in Python: two 2x2 numpy matmuls cost several times more in call
    overhead."""
    oo, _, _, tt = initial_state(gamma)
    (a, b), (c, d) = strategy_op(s1)
    (e, f), (g, h) = strategy_op(s2)
    t00, t01, t10, t11 = a * oo, b * tt, c * oo, d * tt  # U1 M
    # (U1 M) U2^T: entry [i, j] pairs row i of U1 M with row j of U2
    return (t00 * e + t01 * f, t00 * g + t01 * h,
            t10 * e + t11 * f, t10 * g + t11 * h)


def measurement_basis(delta: float) -> tuple[tuple[complex, ...], ...]:
    """Outcome basis entangled by delta; delta=0 is the computational basis.

    The four outcome kets are the rows, each an immutable 4-tuple of complex,
    in order OO, OT, TO, TT; np.array(rows) is the complex 4x4 matrix. They
    are orthonormal and complete for every delta (cos^2 + sin^2 = 1);
    verify's measurement_orthonormal_complete check and the tests confirm
    it, so it is not re-checked here.
    """
    _check_interval("delta", delta, 0.0, HALF_PI, "[0, pi/2]")
    c, s = complex(math.cos(delta / 2)), math.sin(delta / 2)
    up, down, zero = 1j * s, -1j * s, 0j
    return ((c, zero, zero, up),
            (zero, c, down, zero),
            (zero, down, c, zero),
            (up, zero, zero, c))


def _projections(state, rows) -> tuple[float, float, float, float]:
    """|<psi_b|state>|^2 for each outcome ket psi_b of rows, from the state's
    4 amplitudes, with no checks. |<psi_b|state>| = |sum_k b_k conj(state_k)|:
    the state is conjugated once, not the 16 basis entries. rows other than
    4 rows of 4 numbers raise TypeError or ValueError."""
    a, b, c, d = state
    a, b, c, d = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    (w0, x0, y0, z0), (w1, x1, y1, z1), (w2, x2, y2, z2), (w3, x3, y3, z3) = rows
    return (abs(w0 * a + x0 * b + y0 * c + z0 * d) ** 2,
            abs(w1 * a + x1 * b + y1 * c + z1 * d) ** 2,
            abs(w2 * a + x2 * b + y2 * c + z2 * d) ** 2,
            abs(w3 * a + x3 * b + y3 * c + z3 * d) ** 2)


def _finite(x) -> bool:
    """Whether the number x is finite; an int beyond every float is not."""
    try:
        return cmath.isfinite(x)
    except OverflowError:
        return False


def outcome_probabilities(state, basis) -> tuple[float, float, float, float]:
    """|<psi_b|state>|^2 for each outcome ket psi_b, a row of basis, in order
    OO, OT, TO, TT. state is 4 finite amplitudes and basis 4 rows of 4
    finite numbers, as tuples, lists or numpy arrays; other input, or
    probabilities beyond every float, raise ValueError."""
    values = state.tolist() if hasattr(state, "tolist") else state
    try:
        amps = tuple(map(complex, values))
    except (TypeError, ValueError, OverflowError):  # not numbers, or an int beyond every float
        amps = ()
    if len(amps) != 4 or isinstance(values, str) or not all(map(cmath.isfinite, amps)):
        raise ValueError(f"state must be 4 finite amplitudes, got {_shown(state)}")
    rows = basis.tolist() if hasattr(basis, "tolist") else basis
    try:
        probs = _projections(amps, rows)
    except (TypeError, ValueError):  # not 4 rows of 4 numbers
        raise ValueError(f"basis must be 4 rows of 4 numbers, got {_shown(basis)}") from None
    except OverflowError:  # an entry, or a probability, beyond every float
        probs = (math.inf,)
    if all(map(math.isfinite, probs)):
        return probs
    if not all(_finite(x) for row in rows for x in row):
        raise ValueError(f"basis entries must be finite, got {_shown(basis)}")
    raise ValueError(f"probabilities must be finite, but state {_shown(state)} and "
                     f"basis {_shown(basis)} give some beyond every float")


def payoffs_oracle(game: GameMatrix, scheme: SchemeParams, s1: StrategyParams,
                   s2: StrategyParams) -> PayoffPair:
    """Payoffs by full state simulation: evolve, project, weight by the matrix.

    final_state's amplitudes and measurement_basis's rows are well formed,
    so they go to the projection without outcome_probabilities' checks."""
    gamma, delta = scheme
    oo, ot, to, tt = _projections(final_state(gamma, s1, s2), measurement_basis(delta))
    (a_oo, a_ot), (a_to, a_tt) = game.alice
    (b_oo, b_ot), (b_to, b_tt) = game.bob
    # sum, not +: from Python 3.12 sum adds floats with compensation, and the
    # payoffs keep the bits they have had on each version
    return PayoffPair(sum((a_oo * oo, a_ot * ot, a_to * to, a_tt * tt)),
                      sum((b_oo * oo, b_ot * ot, b_to * to, b_tt * tt)))
