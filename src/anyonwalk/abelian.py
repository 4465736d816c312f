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
S_j = (M_k^dag)^j Z_x M_k^j.  No operator is formed: the spinors
psi_j = M_k^j psi and a_j = M_k a_{j-1} + Z_x psi_j = M_k^j T_j psi advance
by one grid-wide 4x4 product each per step, and since M_k is unitary
<T_t> = <psi_t|a_t> and <T_t^2> = |a_t|^2.  The k-integral of these
trigonometric polynomials is evaluated exactly by a uniform midpoint rule
once the grid is finer than the polynomial degree 2mt.  The long-time
coefficients drop the oscillatory cross terms and need each eigenvector's
weight in the initial spin and its velocity <Z_x>.  No eigensolver runs: the
eigenvalues have the closed form of ``eigenphase_pair`` and M_k is normal,
so each spectral projector is a product of shifted copies of M_k.  Every
move is +-1, so M_{k+pi} = -M_k has the eigenvectors of M_k, and an even
grid is evaluated on its first half.  Grid points whose smallest eigenvalue
gap is below 1e-8 have no well-defined eigenbasis; they are left out, with
a warning.

Every function taking an initial spin refuses one that is not a normalized
vector of its coin's dimension, 4 (2 for ``two_state_coefficients``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distribution import Distribution, _normalized, baseline_quantum, check_steps, coin_state
from .errors import DomainError, NumericError, check_budget

_C2 = np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2)
COIN4 = np.kron(_C2, _C2)  # exp(i pi/4 (X_x + X_y))
_MOVES = np.array([1.0, 1.0, -1.0, -1.0])  # x-state 0 steps up, x-state 1 down

DEFAULT_GRID = 1024
#: most walk steps (angles times the largest t) one variance surface may take, which
#: also bounds its rows; at the bound, one angle over t = 1..2000 takes 0.4 s through
#: the CLI and 2000 angles at t = 1 with --analytic 2.4 s (2-core VM)
MAX_SURFACE_STEPS = 2000


def default_spin() -> np.ndarray:
    spin = np.zeros(4, dtype=complex)
    spin[0] = 1.0
    return spin


def _initial_spin(spin: np.ndarray | None) -> np.ndarray:
    """The default spin for None, else ``spin`` checked to be a normalized 4-vector."""
    return default_spin() if spin is None else _normalized(spin, 4)


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
    check_steps(t)
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


def eigenphase_pair(phi: float, k: float | np.ndarray):
    """(beta_-, beta_+), elementwise over momenta ``k``: M_k has eigenvalues
    exp(+-i beta_-+), where cos beta_-+ = (a -+ r)/2, a = cos k cos phi and
    r^2 = a^2 + 2 sin^2 k.  Nothing cancels near a crossing: the root x of larger
    modulus has 1 - |x| = ((|cos k| - |cos phi|)^2 + sin^2 phi) / (2 - |a| + r),
    with 1 - |cos t| = 2 sin^2(t/2) or 2 cos^2(t/2), and the other root is
    -sin^2 k / (2x)."""
    vk, vphi = (2 * np.where(np.cos(t) >= 0, np.sin(t / 2), np.cos(t / 2)) ** 2 for t in (k, phi))
    ck, sk = np.cos(k), np.sin(k)
    a = ck * math.cos(phi)
    root = np.sqrt(a * a + 2.0 * sk * sk)
    big = np.copysign(np.abs(a) + root, a) / 2.0
    defect = ((vphi - vk) ** 2 + math.sin(phi) ** 2) / (2.0 - np.abs(a) + root)
    small = -sk * sk / (2.0 * big)
    beta_big = np.arctan2(np.sqrt(defect * (2.0 - defect)), big)
    beta_small = np.arctan2(np.sqrt(1.0 - small * small), small)
    flip = np.signbit(a)  # the larger root is x_- where a < 0
    return np.where(flip, beta_big, beta_small)[()], np.where(flip, beta_small, beta_big)[()]


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
    coin = (phase_operator(phi) @ COIN4).T  # rows: psi @ coin = A psi
    shift = np.exp(-1j * np.outer(_k_grid(grid), _MOVES))  # M_k = diag(shift[k]) A
    spinor = np.broadcast_to(psi, (grid, 4))
    sheet = np.zeros((grid, 4), dtype=complex)  # a_j = M_k^j T_j psi
    for _ in range(t):
        spinor = (spinor @ coin) * shift
        sheet = (sheet @ coin) * shift + spinor * _MOVES
    # <T_t> = <M^t psi|M^t T_t psi> and <T_t^2> = |T_t psi|^2, M_k being unitary
    return float(np.vdot(spinor if m == 1 else sheet, sheet).real / grid)


def _long_time_coefficients(
    coin: np.ndarray, psi: np.ndarray, moves: np.ndarray, grid: int, spectrum
) -> tuple[float, float]:
    """Grid means (c1, c2) of sum_l w_l v_l and sum_l w_l v_l^2 over the eigenvectors
    |l> of M_k = diag(exp(-i k moves)) @ coin: w_l = |<l|psi>|^2, v_l = <l|diag(moves)|l>.

    ``spectrum(ks)`` gives the eigenvalues lam_l of M_k, one row per momentum.  M_k
    is normal, so P_l psi = prod_{m != l} (M_k - lam_m) psi / (lam_l - lam_m) gives
    w_l = |P_l psi|^2 and w_l v_l = <P_l psi|diag(moves)|P_l psi> (w_l v_l^2 is 0 where w_l is).
    ``moves`` are +-1, so M_{k+pi} = -M_k: an even grid is evaluated on its
    first half, each point standing for itself and its partner k + pi.
    """
    fold = 2 if grid % 2 == 0 else 1
    ks = _k_grid(grid)[: grid // fold]
    lam = spectrum(ks)
    gaps = np.abs(lam[:, :, None] - lam[:, None, :]) + np.eye(len(moves))
    keep = gaps.min(axis=(1, 2)) >= 1e-8
    used = int(np.count_nonzero(keep))
    if used == 0:
        raise NumericError("all grid points sit on eigenvalue crossings")
    if used < len(ks):
        warnings.warn(
            f"excluded {fold * (len(ks) - used)} near-degenerate momentum grid points",
            stacklevel=3,
        )
    lam, shift = lam[keep], np.exp(-1j * np.outer(ks[keep], moves))
    c1 = c2 = 0.0
    for l in range(len(moves)):
        proj = np.broadcast_to(psi, shift.shape)
        for m in set(range(len(moves))) - {l}:
            proj = ((proj @ coin.T) * shift - lam[:, [m]] * proj) / (lam[:, [l]] - lam[:, [m]])
        density = np.abs(proj) ** 2
        weight, flux = density.sum(axis=1), density @ moves
        c1 += flux.sum()
        c2 += np.divide(flux**2, weight, out=np.zeros(used), where=weight > 0.0).sum()
    return float(c1) / used, float(c2) / used


def asymptotic_coefficients(
    phi: float,
    initial_spin: np.ndarray | None = None,
    grid: int = DEFAULT_GRID,
) -> tuple[float, float]:
    """Long-time coefficients (c1, c2) with <s>_t ~ c1 t and <s^2>_t ~ c2 t^2.

    The eigenvalues exp(-+ i beta_-+) of ``eigenphase_pair`` and spectral
    projections cover the grid (its first half when the grid is even); points
    whose smallest eigenvalue gap is below 1e-8 are excluded with a warning,
    and the mean runs over the rest (``NumericError`` if none is left).
    """
    psi = _initial_spin(initial_spin)

    def spectrum(ks):
        beta_minus, beta_plus = eigenphase_pair(phi, ks)
        return np.exp(1j * np.stack([beta_minus, -beta_minus, beta_plus, -beta_plus], axis=1))

    return _long_time_coefficients(phase_operator(phi) @ COIN4, psi, _MOVES, grid, spectrum)


def asymptotic_variance_coefficient(
    phi: float, initial_spin: np.ndarray | None = None, grid: int = DEFAULT_GRID
) -> float:
    c1, c2 = asymptotic_coefficients(phi, initial_spin, grid)
    return c2 - c1**2


def two_state_coefficients(
    coin: np.ndarray, psi: np.ndarray, grid: int = DEFAULT_GRID
) -> tuple[float, float]:
    """Same long-time coefficients for a plain two-state coined walk."""
    coin, psi = np.asarray(coin, dtype=complex), coin_state(psi)
    moves = np.array([1.0, -1.0])

    def spectrum(ks):
        (a, b), (c, d) = np.moveaxis(_shifted(coin, ks, moves), 0, -1)
        root = np.sqrt((a - d) ** 2 + 4.0 * b * c)  # tr^2 - 4 det cancels where roots meet
        return np.stack([a + d + root, a + d - root], axis=1) / 2.0

    return _long_time_coefficients(coin, psi, moves, grid, spectrum)


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
    check_steps(t_grid[-1])
    check_budget("abelian.MAX_SURFACE_STEPS", len(phi_grid) * t_grid[-1], MAX_SURFACE_STEPS,
                 "angles x steps")
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
