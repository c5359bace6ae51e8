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
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL

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
                    open_upper: bool = False) -> None:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a finite number, got {value!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    inside = lo <= value < hi if open_upper else lo <= value <= hi
    if not inside:
        raise ValueError(f"{name} must be in {label}, got {value!r}")


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
        _check_interval("gamma", self.gamma, 0.0, HALF_PI, "[0, pi/2]")
        _check_interval("delta", self.delta, 0.0, HALF_PI, "[0, pi/2]")


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
        _check_interval("theta", self.theta, 0.0, math.pi, "[0, pi]")
        _check_interval("phi", self.phi, 0.0, TWO_PI, "[0, 2*pi)", open_upper=True)


def _as_cells(name, cells) -> tuple[tuple[float, float], tuple[float, float]]:
    try:
        rows = tuple(tuple(float(v) for v in row) for row in cells)
    except TypeError as exc:
        raise ValueError(f"{name} must be a 2x2 array of numbers") from exc
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError(f"{name} must be 2x2, got {cells!r}")
    for row in rows:
        for v in row:
            if not abs(v) <= MAX_PAYOFF:  # also false for nan
                raise ValueError(f"{name} entries must be finite and at most "
                                 f"{MAX_PAYOFF:g} in magnitude, got {v!r}")
    return rows


@dataclass(frozen=True)
class GameMatrix:
    """2x2 bimatrix: alice[i][j], bob[i][j] with i Alice's move, O=0 and T=1.

    bos carries (alpha, beta, sigma) when the game was built by
    battle_of_sexes; closed forms require it.
    """

    alice: tuple[tuple[float, float], tuple[float, float]]
    bob: tuple[tuple[float, float], tuple[float, float]]
    bos: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alice", _as_cells("alice payoffs", self.alice))
        object.__setattr__(self, "bob", _as_cells("bob payoffs", self.bob))
        if self.bos is not None:
            alpha, beta, sigma = (float(v) for v in self.bos)
            object.__setattr__(self, "bos", (alpha, beta, sigma))
            expected_a = ((alpha, sigma), (sigma, beta))
            expected_b = ((beta, sigma), (sigma, alpha))
            if self.alice != expected_a or self.bob != expected_b:
                raise ValueError("bos tag does not match the payoff matrices")

    def alice_by_outcome(self) -> tuple[float, float, float, float]:
        """Alice's payoffs in basis order OO, OT, TO, TT."""
        return (self.alice[0][0], self.alice[0][1], self.alice[1][0], self.alice[1][1])

    def bob_by_outcome(self) -> tuple[float, float, float, float]:
        return (self.bob[0][0], self.bob[0][1], self.bob[1][0], self.bob[1][1])


def battle_of_sexes(alpha: float, beta: float, sigma: float) -> GameMatrix:
    """Coordination game with matched payoffs alpha/beta and mismatch sigma.

    Requires alpha > beta > sigma strictly.
    """
    for name, v in (("alpha", alpha), ("beta", beta), ("sigma", sigma)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    if not (alpha > beta > sigma):
        raise ValueError(
            f"battle of sexes requires alpha > beta > sigma, got {alpha!r}, {beta!r}, {sigma!r}"
        )
    return GameMatrix(
        alice=((alpha, sigma), (sigma, beta)),
        bob=((beta, sigma), (sigma, alpha)),
        bos=(alpha, beta, sigma),
    )


@dataclass(frozen=True)
class MeasurementBasis:
    """Four orthonormal, complete measurement directions, one per outcome."""

    psi_oo: np.ndarray
    psi_ot: np.ndarray
    psi_to: np.ndarray
    psi_tt: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.states(), dtype=np.complex128)
        if rows.shape != (4, 4):
            raise ValueError(f"measurement basis needs four 4-amplitude states, got shape "
                             f"{rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("measurement basis states must have finite entries")
        # Gram matrix <x|y> and the sum of the projectors |x><x|
        if np.max(np.abs(rows.conj() @ rows.T - np.eye(4))) > DEFAULT_TOL:
            raise ValueError("measurement basis states must be orthonormal")
        if np.max(np.abs(rows.T @ rows.conj() - np.eye(4))) > DEFAULT_TOL:
            raise ValueError("measurement basis projectors must sum to the identity")

    def states(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Basis states in outcome order OO, OT, TO, TT."""
        return (self.psi_oo, self.psi_ot, self.psi_to, self.psi_tt)


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


def rotation_op(phi: float) -> np.ndarray:
    """Phase rotation diag(e^{i phi}, e^{-i phi})."""
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    return np.array([[np.exp(1j * phi), 0.0], [0.0, np.exp(-1j * phi)]],
                    dtype=np.complex128)


def flip_op() -> np.ndarray:
    """Flip with the sign convention C|O> = -|T>, C|T> = |O>."""
    return np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)


def strategy_op(s: StrategyParams) -> np.ndarray:
    """U(theta, phi) = cos(theta/2) R(phi) + sin(theta/2) C; always unitary."""
    return math.cos(s.theta / 2) * rotation_op(s.phi) + math.sin(s.theta / 2) * flip_op()


def final_state(gamma: float, s1: StrategyParams, s2: StrategyParams) -> np.ndarray:
    """(U1 tensor U2) applied to the entangled initial state."""
    return np.kron(strategy_op(s1), strategy_op(s2)) @ initial_state(gamma)


def measurement_basis(delta: float) -> MeasurementBasis:
    """Outcome basis entangled by delta; delta=0 is the computational basis."""
    _check_interval("delta", delta, 0.0, HALF_PI, "[0, pi/2]")
    c, s = math.cos(delta / 2), math.sin(delta / 2)
    return MeasurementBasis(
        psi_oo=np.array([c, 0.0, 0.0, 1j * s], dtype=np.complex128),
        psi_ot=np.array([0.0, c, -1j * s, 0.0], dtype=np.complex128),
        psi_to=np.array([0.0, -1j * s, c, 0.0], dtype=np.complex128),
        psi_tt=np.array([1j * s, 0.0, 0.0, c], dtype=np.complex128),
    )


def outcome_probabilities(state, basis: MeasurementBasis) -> tuple[float, float, float, float]:
    """|<psi_b|state>|^2 for each outcome, in order OO, OT, TO, TT."""
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (4,) or not np.all(np.isfinite(state)):
        raise ValueError(f"state must be 4 finite amplitudes, got {state!r}")
    probs = tuple(abs(complex(np.vdot(b, state))) ** 2 for b in basis.states())
    return probs  # type: ignore[return-value]


def payoffs_oracle(game: GameMatrix, scheme: SchemeParams, s1: StrategyParams,
                   s2: StrategyParams) -> PayoffPair:
    """Payoffs by full state simulation: evolve, project, weight by the matrix."""
    state = final_state(scheme.gamma, s1, s2)
    probs = outcome_probabilities(state, measurement_basis(scheme.delta))
    alice = sum(w * p for w, p in zip(game.alice_by_outcome(), probs))
    bob = sum(w * p for w, p in zip(game.bob_by_outcome(), probs))
    return PayoffPair(float(alice), float(bob))
