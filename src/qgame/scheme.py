"""Two-parameter quantization of 2x2 bimatrix games, simulated exactly.

The referee prepares cos(gamma/2)|OO> + i sin(gamma/2)|TT>, each player acts
with a two-parameter unitary U(theta, phi) = cos(theta/2) R(phi) +
sin(theta/2) C, and the joint state is measured in a basis whose four
directions are entangled by a second angle delta. Payoffs are outcome
probabilities weighted by the game matrix. This module is the ground-truth
path: explicit state evolution and projection, no closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


def _check_interval(name: str, value: float, lo: float, hi: float, label: str,
                    open_upper: bool = False) -> float:
    """value as a float, checked to lie in [lo, hi], or [lo, hi) if open_upper."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a finite number, got {value!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    inside = lo <= value < hi if open_upper else lo <= value <= hi
    if not inside:
        raise ValueError(f"{name} must be in {label}, got {value!r}")
    return value


def check_phi(phi: float, phi_range: str = "narrow") -> None:
    """Validate a phase angle against a configured range name."""
    if phi_range not in PHI_RANGES:
        raise ValueError(f"phi_range must be one of {sorted(PHI_RANGES)}, got {phi_range!r}")
    lo, hi = PHI_RANGES[phi_range]
    label = "[0, pi/2]" if phi_range == "narrow" else "[0, 2*pi)"
    _check_interval("phi", phi, lo, hi, label, open_upper=phi_range == "full")


@dataclass(frozen=True)
class SchemeParams:
    """Referee knobs: gamma entangles the initial state, delta the measurement."""

    gamma: float
    delta: float

    def __post_init__(self) -> None:
        # store the checked floats, as GameMatrix stores its checked cells
        gamma = _check_interval("gamma", self.gamma, 0.0, HALF_PI, "[0, pi/2]")
        delta = _check_interval("delta", self.delta, 0.0, HALF_PI, "[0, pi/2]")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True)
class StrategyParams:
    """One player's move: mixing angle theta, phase angle phi.

    theta interpolates between staying (theta=0) and flipping (theta=pi);
    cos^2(theta/2) is the classical probability of the first move. phi is
    accepted on the widest configurable range [0, 2*pi); front ends enforce
    the narrower default via check_phi.
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        theta = _check_interval("theta", self.theta, 0.0, math.pi, "[0, pi]")
        phi = _check_interval("phi", self.phi, 0.0, TWO_PI, "[0, 2*pi)", open_upper=True)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


def _as_cells(name, cells) -> tuple[tuple[float, float], tuple[float, float]]:
    try:
        rows = tuple([tuple([float(v) for v in row]) for row in cells])
    except TypeError as exc:
        raise ValueError(f"{name} must be a 2x2 array of numbers") from exc
    if len(rows) != 2 or len(rows[0]) != 2 or len(rows[1]) != 2:
        raise ValueError(f"{name} must be 2x2, got {cells!r}")
    for v in rows[0] + rows[1]:
        if not abs(v) <= MAX_PAYOFF:  # also false for nan
            raise ValueError(f"{name} entries must be finite and at most "
                             f"{MAX_PAYOFF:g} in magnitude, got {v!r}")
    return rows


@dataclass(frozen=True)
class GameMatrix:
    """2x2 bimatrix: alice[i][j], bob[i][j] with i Alice's move, O=0 and T=1.

    bos is (alpha, beta, sigma) when alice = ((alpha, sigma), (sigma, beta))
    and bob = ((beta, sigma), (sigma, alpha)), in any order, else None. It is
    derived from the cells, once, and the closed forms need it.
    """

    alice: tuple[tuple[float, float], tuple[float, float]]
    bob: tuple[tuple[float, float], tuple[float, float]]
    bos: tuple[float, float, float] | None = field(init=False)

    def __post_init__(self) -> None:
        alice = _as_cells("alice payoffs", self.alice)
        bob = _as_cells("bob payoffs", self.bob)
        (alpha, sigma), (_, beta) = alice
        form = alice[1][0] == sigma and bob == ((beta, sigma), (sigma, alpha))
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)
        object.__setattr__(self, "bos", (alpha, beta, sigma) if form else None)

    def alice_by_outcome(self) -> tuple[float, float, float, float]:
        """Alice's payoffs in basis order OO, OT, TO, TT."""
        return (self.alice[0][0], self.alice[0][1], self.alice[1][0], self.alice[1][1])

    def bob_by_outcome(self) -> tuple[float, float, float, float]:
        return (self.bob[0][0], self.bob[0][1], self.bob[1][0], self.bob[1][1])


def battle_of_sexes(alpha: float, beta: float, sigma: float) -> GameMatrix:
    """Coordination game with matched payoffs alpha/beta and mismatch sigma.

    Requires alpha > beta > sigma strictly; GameMatrix derives bos from the cells.
    """
    if not (alpha > beta > sigma):
        raise ValueError(
            f"battle of sexes requires alpha > beta > sigma, got {alpha!r}, {beta!r}, {sigma!r}"
        )
    return GameMatrix(alice=((alpha, sigma), (sigma, beta)),
                      bob=((beta, sigma), (sigma, alpha)))


@dataclass(frozen=True)
class PayoffPair:
    alice: float
    bob: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alice) and math.isfinite(self.bob)):
            raise ValueError(f"payoffs must be finite, got {self.alice!r}, {self.bob!r}")


def initial_state(gamma: float) -> np.ndarray:
    """cos(gamma/2)|OO> + i sin(gamma/2)|TT>."""
    _check_interval("gamma", gamma, 0.0, HALF_PI, "[0, pi/2]")
    return np.array([math.cos(gamma / 2), 0.0, 0.0, 1j * math.sin(gamma / 2)],
                    dtype=np.complex128)


def strategy_op(s: StrategyParams) -> np.ndarray:
    """U(theta, phi) = cos(theta/2) R(phi) + sin(theta/2) C; always unitary.

    Built entrywise: [[c e^{i phi}, s], [-s, c e^{-i phi}]] with c, s the
    cosine and sine of theta/2."""
    c, s_ = math.cos(s.theta / 2), math.sin(s.theta / 2)
    cos_phi, sin_phi = math.cos(s.phi), math.sin(s.phi)
    return np.array([[complex(c * cos_phi, c * sin_phi), s_],
                     [-s_, complex(c * cos_phi, -c * sin_phi)]], dtype=np.complex128)


def final_state(gamma: float, s1: StrategyParams, s2: StrategyParams) -> np.ndarray:
    """(U1 tensor U2) applied to the entangled initial state.

    With the amplitudes as a 2x2 matrix M[a, b] (a Alice's qubit, b Bob's),
    the tensor product acts as U1 M U2^T."""
    amps = initial_state(gamma).reshape(2, 2)
    return (strategy_op(s1) @ amps @ strategy_op(s2).T).reshape(4)


def measurement_basis(delta: float) -> np.ndarray:
    """Outcome basis entangled by delta; delta=0 is the computational basis.

    The four outcome kets are the rows of a read-only complex 4x4 array, in
    order OO, OT, TO, TT. They are orthonormal and complete for every delta
    (cos^2 + sin^2 = 1); verify's measurement_orthonormal_complete check and
    the tests confirm it, so it is not re-checked here.
    """
    _check_interval("delta", delta, 0.0, HALF_PI, "[0, pi/2]")
    c, s = math.cos(delta / 2), math.sin(delta / 2)
    rows = np.array([[c, 0.0, 0.0, 1j * s],
                     [0.0, c, -1j * s, 0.0],
                     [0.0, -1j * s, c, 0.0],
                     [1j * s, 0.0, 0.0, c]], dtype=np.complex128)
    rows.flags.writeable = False
    return rows


def outcome_probabilities(state, basis: np.ndarray) -> tuple[float, float, float, float]:
    """|<psi_b|state>|^2 for each outcome ket psi_b, a row of basis, in order
    OO, OT, TO, TT."""
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (4,) or not np.isfinite(state).all():
        raise ValueError(f"state must be 4 finite amplitudes, got {state!r}")
    return tuple((np.abs(basis.conj() @ state) ** 2).tolist())  # type: ignore[return-value]


def payoffs_oracle(game: GameMatrix, scheme: SchemeParams, s1: StrategyParams,
                   s2: StrategyParams) -> PayoffPair:
    """Payoffs by full state simulation: evolve, project, weight by the matrix."""
    state = final_state(scheme.gamma, s1, s2)
    probs = outcome_probabilities(state, measurement_basis(scheme.delta))
    alice = sum(w * p for w, p in zip(game.alice_by_outcome(), probs))
    bob = sum(w * p for w, p in zip(game.bob_by_outcome(), probs))
    return PayoffPair(float(alice), float(bob))
