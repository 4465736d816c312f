"""Position distributions on the integer line, reference walks, and distances.

Coin convention used throughout the package: coin basis state 0 moves the
walker one site to the left, state 1 one site to the right.  ``COINS`` holds
the two named 2x2 coins, the Hadamard "H" and the symmetric beam splitter
"U"; both are balanced, and the walks here produce identical position
distributions for either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, NumericError, check_budget

#: most steps a position-space walk may take.  Cost grows as t^2: at this bound
#: ``baseline quantum``, ``baseline classical`` (exact binomials, a 4.3 MB JSON
#: payload) and ``abelian variance`` each run in under 1 s on a 2-core VM; at
#: t = 10 000 they take 6.8 s, 19 s and 6.6 s.
MAX_STEPS = 2000


def check_steps(t: int) -> None:
    """Refuse a step count that is negative or above ``MAX_STEPS``."""
    if t < 0:
        raise DomainError("step count must be nonnegative")
    check_budget("distribution.MAX_STEPS", t, MAX_STEPS, "step count")


COINS: dict[str, np.ndarray] = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "U": np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2),
}


def coin_matrix(coin: str | np.ndarray) -> np.ndarray:
    if isinstance(coin, str):
        try:
            return COINS[coin]
        except KeyError:
            raise DomainError(f"unknown coin {coin!r}; expected one of {sorted(COINS)}") from None
    mat = np.asarray(coin, dtype=complex)
    if mat.shape != (2, 2) or not np.allclose(mat @ mat.conj().T, np.eye(2), atol=1e-12):
        raise DomainError("coin must be a 2x2 unitary matrix")
    return mat


def _normalized(spin, dim: int) -> np.ndarray:
    """``spin`` checked to be a normalized ``dim``-vector."""
    spin = np.asarray(spin, dtype=complex)
    if spin.shape != (dim,) or abs(np.linalg.norm(spin) - 1.0) > 1e-12:
        raise DomainError(f"initial spin must be a normalized {dim}-vector")
    return spin


def coin_state(psi) -> np.ndarray:
    """The initial coin state: |0> for None, else ``psi`` checked to be a
    normalized 2-vector."""
    return np.array([1, 0], dtype=complex) if psi is None else _normalized(psi, 2)


@dataclass
class Distribution:
    """A position distribution at fixed step count, with engine metadata."""

    positions: tuple[int, ...]
    probs: np.ndarray
    meta: dict = field(default_factory=dict)
    exact: list[Fraction] | None = None  # populated by exact engines only

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if len(self.positions) != len(self.probs):
            raise DomainError("positions and probabilities differ in length")
        if np.any(self.probs < -1e-12):
            raise DomainError(f"negative probability {self.probs.min()} beyond tolerance")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise NumericError(f"probabilities sum to {total}, drift beyond 1e-9")

    def moment(self, m: int) -> float:
        return float(np.sum(np.asarray(self.positions, dtype=float) ** m * self.probs))

    def variance(self) -> float:
        return self.moment(2) - self.moment(1) ** 2

    def shifted(self, origin: int) -> Distribution:
        return Distribution(
            tuple(s - origin for s in self.positions),
            self.probs.copy(),
            dict(self.meta),
            None if self.exact is None else list(self.exact),
        )

    def prob_at(self, s: int) -> float:
        try:
            return float(self.probs[self.positions.index(s)])
        except ValueError:
            return 0.0


def distance(p: Distribution, q: Distribution) -> float:
    """Euclidean distance of two distributions over the union of supports."""
    support = sorted(set(p.positions) | set(q.positions))
    diff = np.array([p.prob_at(s) - q.prob_at(s) for s in support])
    return float(np.sqrt(np.sum(diff**2)))


def baseline_quantum(
    t: int, coin: str | np.ndarray = "H", psi: np.ndarray | None = None
) -> Distribution:
    """Standard two-state coined walk on the line, started at the origin."""
    check_steps(t)
    c = coin_matrix(coin)
    psi = coin_state(psi)
    state = np.zeros((2 * t + 1, 2), dtype=complex)  # index = position + t
    state[t] = psi
    for _ in range(t):
        tossed = state @ c.T
        new = np.zeros_like(state)
        new[:-1, 0] = tossed[1:, 0]  # coin 0 moves left
        new[1:, 1] = tossed[:-1, 1]  # coin 1 moves right
        state = new
    probs = np.sum(np.abs(state) ** 2, axis=1)
    positions = tuple(range(-t, t + 1, 2))
    return Distribution(
        positions,
        probs[::2],
        {"engine": "baseline-quantum", "t": t, "coin": coin if isinstance(coin, str) else "custom"},
    )


def baseline_classical(t: int) -> Distribution:
    """Unbiased classical random walk: binomial over positions of parity t."""
    check_steps(t)
    exact = [Fraction(math.comb(t, j), 2**t) for j in range(t + 1)]
    positions = tuple(2 * j - t for j in range(t + 1))
    return Distribution(
        positions,
        np.array([float(x) for x in exact]),
        {"engine": "baseline-classical", "t": t},
        exact=exact,
    )
