"""Four-state-coin walk with a statistical exchange phase.

The coin is a pair of two-state coins ("x" drives the direction, "y" the
passing order); one step applies the double beam splitter
C = exp(i pi/4 (X_x + X_y)), then the exchange phase exp(i phi Z_x Z_y),
then the shift moving x-state 0 one site up and x-state 1 one site down.
In momentum space a step is the 4x4 unitary

    M_k = exp(-i k Z_x) exp(i phi Z_x Z_y) exp(i pi/4 (X_x + X_y)),

whose eigenphases come in pairs +-beta_-(k), +-beta_+(k).

Moments of the position distribution follow from the identity
<s^m>_t = (1/2pi) int dk <psi| T_t^m |psi> with T_t = sum_{j<=t} S_j and
S_j = (M_k^dag)^j Z_x M_k^j; the k-integral of these trigonometric
polynomials is evaluated exactly by a uniform midpoint rule once the grid
is finer than the polynomial degree 2mt.  The long-time linear and
quadratic coefficients use the eigenbasis of M_k instead and drop the
oscillatory cross terms: one batched eigendecomposition of the whole grid
gives each eigenvector's weight in the initial spin and its velocity
<Z_x>.  Grid points whose smallest eigenvalue gap is below 1e-8 have no
well-defined eigenbasis; they are left out of the mean, with a warning.

Every function taking an initial spin refuses one that is not a normalized
4-vector.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distribution import Distribution, baseline_quantum
from .errors import DomainError, NumericError

_C2 = np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2)
COIN4 = np.kron(_C2, _C2)  # exp(i pi/4 (X_x + X_y))
_MOVES = np.array([1.0, 1.0, -1.0, -1.0])  # x-state 0 steps up, x-state 1 down
Z_X = np.diag(_MOVES).astype(complex)

DEFAULT_GRID = 1024


def default_spin() -> np.ndarray:
    spin = np.zeros(4, dtype=complex)
    spin[0] = 1.0
    return spin


@dataclass(frozen=True)
class AbelianConfig:
    phi: float
    t: int
    initial_spin: np.ndarray = field(default_factory=default_spin)

    def __post_init__(self):
        object.__setattr__(self, "initial_spin", _initial_spin(self.initial_spin))


def _initial_spin(spin: np.ndarray | None) -> np.ndarray:
    """The default spin for None, else ``spin`` checked to be a normalized 4-vector."""
    if spin is None:
        return default_spin()
    spin = np.asarray(spin, dtype=complex)
    if spin.shape != (4,) or abs(np.linalg.norm(spin) - 1.0) > 1e-12:
        raise DomainError("initial spin must be a normalized 4-vector")
    return spin


@dataclass
class SpinorField:
    """Position-resolved 4-spinor; ``psi[i]`` lives at site ``offset + i``."""

    offset: int
    psi: np.ndarray

    @classmethod
    def localized(cls, spin: np.ndarray, site: int = 0) -> SpinorField:
        return cls(site, np.asarray(spin, dtype=complex).reshape(1, 4).copy())

    def positions(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + len(self.psi))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.psi) ** 2)))

    def position_probs(self) -> np.ndarray:
        return np.sum(np.abs(self.psi) ** 2, axis=1)


def phase_operator(phi: float) -> np.ndarray:
    return np.diag(np.exp(1j * phi * np.array([1.0, -1.0, -1.0, 1.0])))


def abelian_step(state: SpinorField, phi: float) -> SpinorField:
    """One walk step: coin, exchange phase, then the conditional shift."""
    tossed = state.psi @ (phase_operator(phi) @ COIN4).T
    new = np.zeros((len(state.psi) + 2, 4), dtype=complex)
    new[2:, 0:2] = tossed[:, 0:2]  # x-state 0 moves up one site
    new[:-2, 2:4] = tossed[:, 2:4]  # x-state 1 moves down one site
    return SpinorField(state.offset - 1, new)


def simulate(phi: float, t: int, initial_spin: np.ndarray | None = None) -> SpinorField:
    state = SpinorField.localized(_initial_spin(initial_spin))
    for _ in range(t):
        state = abelian_step(state, phi)
    return state


def simulate_distribution(
    phi: float, t: int, initial_spin: np.ndarray | None = None
) -> Distribution:
    state = simulate(phi, t, initial_spin)
    probs = state.position_probs()
    keep = slice(0, len(probs), 2)  # support has the parity of t
    return Distribution(
        tuple(int(s) for s in state.positions()[keep]),
        probs[keep],
        {"engine": "abelian-direct", "phi": phi, "t": t},
    )


def momentum_operator(phi: float, k: float) -> np.ndarray:
    """The one-step unitary at momentum k."""
    return _momentum_operators(phi, np.array([k]))[0]


def eigenphase_pair(phi: float, k: float) -> tuple[float, float]:
    """(beta_-, beta_+): the eigenphases of M_k are exp(-+ i beta_-+)."""
    root = math.sqrt((math.cos(phi) ** 2 - 2.0) * math.cos(k) ** 2 + 2.0)
    ck = math.cos(k) * math.cos(phi)
    beta_minus = math.acos(min(1.0, max(-1.0, (ck - root) / 2.0)))
    beta_plus = math.acos(min(1.0, max(-1.0, (ck + root) / 2.0)))
    return beta_minus, beta_plus


def _k_grid(grid: int) -> np.ndarray:
    if grid < 1:
        raise DomainError(f"momentum grid needs at least 1 point, got {grid}")
    # midpoint rule: exact for trigonometric polynomials of degree < grid
    # and it avoids the eigenvalue crossings pinned at k = 0 and k = pi
    return -math.pi + 2.0 * math.pi * (np.arange(grid) + 0.5) / grid


def _shifted(coin: np.ndarray, ks: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """The stack diag(exp(-i k moves)) @ coin over the momenta ``ks``."""
    return np.exp(-1j * np.outer(ks, moves))[:, :, None] * coin


def _momentum_operators(phi: float, ks: np.ndarray) -> np.ndarray:
    return _shifted(phase_operator(phi) @ COIN4, ks, _MOVES)


def moments_analytic(
    phi: float,
    t: int,
    m: int,
    initial_spin: np.ndarray | None = None,
    grid: int = DEFAULT_GRID,
) -> float:
    """Exact moment <s^m>_t (m in {1, 2}) from the momentum-space expansion."""
    if m not in (1, 2):
        raise DomainError("only the first and second moments are implemented")
    if t < 1:
        raise DomainError("step count must be >= 1")
    if grid <= 2 * m * t:
        raise NumericError(
            f"k-grid of {grid} points cannot integrate a degree-{2 * m * t} integrand exactly"
        )
    psi = _initial_spin(initial_spin)
    ms = _momentum_operators(phi, _k_grid(grid))
    mdag = ms.conj().transpose(0, 2, 1)
    s_j = np.broadcast_to(Z_X, ms.shape).copy()
    total = np.zeros_like(ms)
    for _ in range(t):
        s_j = mdag @ s_j @ ms
        total += s_j
    op = total if m == 1 else total @ total
    values = np.einsum("i,kij,j->k", psi.conj(), op, psi)
    return float(np.mean(values).real)


def _long_time_coefficients(
    ms: np.ndarray, psi: np.ndarray, moves: np.ndarray
) -> tuple[float, float]:
    """Grid means (c1, c2) of sum_l w_l v_l and sum_l w_l v_l^2 over the eigenvectors
    |l> of each matrix in ``ms``: w_l = |<l|psi>|^2, v_l = <l|diag(moves)|l>."""
    lam, vecs = np.linalg.eig(ms)
    gaps = np.abs(lam[:, :, None] - lam[:, None, :]) + np.eye(lam.shape[1])
    keep = gaps.min(axis=(1, 2)) >= 1e-8
    used = int(np.count_nonzero(keep))
    if used == 0:
        raise NumericError("all grid points sit on eigenvalue crossings")
    if used < len(ms):
        warnings.warn(
            f"excluded {len(ms) - used} near-degenerate momentum grid points", stacklevel=3
        )
    vecs = vecs[keep]
    weights = np.abs(np.einsum("kil,i->kl", vecs.conj(), psi)) ** 2
    velocity = np.einsum("kil,i->kl", np.abs(vecs) ** 2, moves)
    return float(np.sum(weights * velocity)) / used, float(np.sum(weights * velocity**2)) / used


def asymptotic_coefficients(
    phi: float,
    initial_spin: np.ndarray | None = None,
    grid: int = DEFAULT_GRID,
) -> tuple[float, float]:
    """Long-time coefficients (c1, c2) with <s>_t ~ c1 t and <s^2>_t ~ c2 t^2.

    One batched eigendecomposition covers the grid; points whose smallest
    eigenvalue gap is below 1e-8 are excluded with a warning, and the mean
    runs over the rest (``NumericError`` if none is left).
    """
    psi = _initial_spin(initial_spin)
    return _long_time_coefficients(_momentum_operators(phi, _k_grid(grid)), psi, _MOVES)


def asymptotic_variance_coefficient(
    phi: float, initial_spin: np.ndarray | None = None, grid: int = DEFAULT_GRID
) -> float:
    c1, c2 = asymptotic_coefficients(phi, initial_spin, grid)
    return c2 - c1**2


def two_state_coefficients(
    coin: np.ndarray, psi: np.ndarray, grid: int = DEFAULT_GRID
) -> tuple[float, float]:
    """Same long-time coefficients for a plain two-state coined walk."""
    moves = np.array([1.0, -1.0])
    return _long_time_coefficients(
        _shifted(np.asarray(coin, dtype=complex), _k_grid(grid), moves),
        np.asarray(psi, dtype=complex),
        moves,
    )


def product_walk_variance(phi: float, t: int, initial_spin: np.ndarray | None = None) -> float:
    """Variance of the two-state walk the four-state walk factorizes into
    when the exchange phase is a multiple of pi/2."""
    quarter = round(2.0 * phi / math.pi)
    if abs(phi - quarter * math.pi / 2.0) > 1e-12:
        raise DomainError("the walk only factorizes at multiples of pi/2")
    psi4 = _initial_spin(initial_spin)
    # x-part of a product spin state (the default basis state is product)
    mat = psi4.reshape(2, 2)
    u, s, _ = np.linalg.svd(mat)
    if s[1] > 1e-12:
        raise DomainError("initial spin is not a product state across the two coins")
    psi_x = u[:, 0] * np.sign(s[0])
    coin_x = _C2 if quarter % 2 == 0 else np.diag([1.0, -1.0]) @ _C2
    # the baseline moves coin 0 the other way; the variance is reflection invariant
    return baseline_quantum(t, coin_x, psi_x).variance()


def variance_surface(
    phi_grid,
    t_grid,
    initial_spin: np.ndarray | None = None,
    analytic: bool = False,
) -> list[tuple[int, float, float, float | None]]:
    """Rows (t, phi, v_sim, v_analytic?) over the requested grids."""
    phi_grid = list(phi_grid)
    t_grid = sorted(set(int(t) for t in t_grid))
    if not phi_grid or not t_grid:
        raise DomainError("phi and t grids must be nonempty")
    if t_grid[0] < 1:
        raise DomainError(f"step counts must be >= 1, got {t_grid[0]}")
    spin = _initial_spin(initial_spin)
    rows: list[tuple[int, float, float, float | None]] = []
    for phi in phi_grid:
        coeff = asymptotic_variance_coefficient(phi, spin) if analytic else None
        state = SpinorField.localized(spin)
        step_now = 0
        for t in t_grid:
            while step_now < t:
                state = abelian_step(state, phi)
                step_now += 1
            probs = state.position_probs()
            s = state.positions().astype(float)
            v = float(probs @ s**2 - (probs @ s) ** 2)
            rows.append((t, phi, v, None if coeff is None else coeff * t * t))
    return rows


def spin_schmidt_values(state: SpinorField) -> np.ndarray:
    """Largest second Schmidt coefficient of the 4-spinor across positions.

    Zero means the x and y coins stay in a product state at every site.
    """
    out = []
    for row in state.psi:
        norm = np.linalg.norm(row)
        if norm < 1e-13:
            continue
        s = np.linalg.svd(row.reshape(2, 2) / norm, compute_uv=False)
        out.append(s[1])
    return np.asarray(out)
