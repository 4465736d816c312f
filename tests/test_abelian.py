import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonwalk import abelian
from anyonwalk.abelian import (
    COIN4,
    _C2,
    abelian_step,
    asymptotic_coefficients,
    asymptotic_variance_coefficient,
    eigenphase_pair,
    moments_analytic,
    product_walk_variance,
    simulate,
    simulate_distribution,
    two_state_coefficients,
    variance_surface,
    SpinorField,
    default_spin,
)
from anyonwalk.distribution import COINS
from anyonwalk.errors import DomainError, NumericError


def momentum_operator(phi, k):
    """The one-step unitary M_k at one momentum k."""
    return abelian._momentum_operators(phi, np.array([k]))[0]


def test_single_step_is_balanced():
    d = simulate_distribution(0.0, 1)
    assert d.positions == (-1, 1)
    assert np.allclose(d.probs, [0.5, 0.5], atol=1e-14)


def test_single_step_is_phase_insensitive():
    base = simulate_distribution(0.0, 1)
    for phi in (0.3, 1.0, math.pi / 2, 5.1):
        assert np.allclose(simulate_distribution(phi, 1).probs, base.probs, atol=1e-14)


def test_norm_preserved_over_hundred_steps():
    state = simulate(0.7, 100)
    assert abs(np.linalg.norm(state.psi) - 1.0) < 1e-12


def test_support_has_step_parity():
    state = simulate(0.4, 7)
    probs = state.position_probs()
    odd_sites = state.positions() % 2 == 0  # t = 7 so even positions are forbidden
    assert np.all(probs[odd_sites] < 1e-28)


def test_momentum_operator_at_origin_is_coin():
    assert np.allclose(momentum_operator(0.0, 0.0), COIN4, atol=1e-15)


@pytest.mark.parametrize("phi,k", [(0.0, 0.3), (0.3, 0.7), (1.1, -2.0), (2.5, 3.0)])
def test_momentum_operator_unitary_and_eigenphases(phi, k):
    m = momentum_operator(phi, k)
    assert np.allclose(m @ m.conj().T, np.eye(4), atol=1e-12)
    beta_minus, beta_plus = eigenphase_pair(phi, k)
    phases = np.sort(np.abs(np.angle(np.linalg.eigvals(m))))
    assert np.allclose(phases, np.sort([beta_minus, beta_minus, beta_plus, beta_plus]), atol=1e-10)


def test_eigenphases_at_origin():
    beta_minus, beta_plus = eigenphase_pair(0.0, 0.0)
    assert abs(beta_plus - 0.0) < 1e-12
    assert abs(beta_minus - math.pi / 2) < 1e-12


def test_first_moment_vanishes_at_one_step():
    assert abs(moments_analytic(0.9, 1, 1)) < 1e-12


@pytest.mark.parametrize("phi", [0.0, 0.3, math.pi / 2])
def test_moments_match_direct_simulation(phi):
    d = simulate_distribution(phi, 30)
    m2 = moments_analytic(phi, 30, 2)
    assert abs(m2 - d.moment(2)) / d.moment(2) < 1e-8
    m1 = moments_analytic(phi, 30, 1)
    assert abs(m1 - d.moment(1)) < 1e-8


def test_moments_grid_too_small_raises():
    with pytest.raises(NumericError):
        moments_analytic(0.3, 100, 2, grid=64)


def test_second_moment_leading_coefficient():
    # <s^2>_t / t^2 approaches the long-time quadratic coefficient
    _, c2 = asymptotic_coefficients(0.0)
    m2 = moments_analytic(0.0, 200, 2)
    assert abs(m2 / 200**2 - c2) / c2 < 0.02


def test_momentum_reconstruction_matches_direct_evolution():
    phi, t, grid = 0.37, 50, 4096
    ks = 2 * math.pi * np.arange(grid) / grid
    spin_t = np.empty((grid, 4), dtype=complex)
    for j, k in enumerate(ks):
        spin_t[j] = np.linalg.matrix_power(momentum_operator(phi, k), t) @ default_spin()
    # psi(s) = (1/K) sum_j exp(i k_j s) psi~(k_j)
    direct = simulate(phi, t)
    for s, row in zip(direct.positions(), direct.psi):
        rec = np.exp(1j * ks * s) @ spin_t / grid
        assert np.max(np.abs(rec - row)) < 1e-8


def test_product_coefficients_at_zero_phase():
    c1, c2 = asymptotic_coefficients(0.0)
    c1_ref, c2_ref = two_state_coefficients(_C2, np.array([1, 0], dtype=complex))
    assert abs(c1 - c1_ref) < 1e-10
    assert abs(c2 - c2_ref) < 1e-10


def test_generic_phase_slows_the_spread():
    _, c2_zero = asymptotic_coefficients(0.0)
    _, c2_generic = asymptotic_coefficients(0.7)
    assert c2_generic < c2_zero


def test_quadratic_coefficient_positive_on_grid():
    for phi in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
        _, c2 = asymptotic_coefficients(float(phi), grid=256)
        assert c2 > 0


def test_variance_surface_symmetry_and_growth():
    phis = [0.4, 2 * math.pi - 0.4]
    rows = variance_surface(phis, range(10, 61, 10))
    by_phi = {phi: {} for phi in phis}
    for t, phi, v, _ in rows:
        by_phi[phi][t] = v
    for t in range(10, 61, 10):
        assert abs(by_phi[phis[0]][t] - by_phi[phis[1]][t]) < 1e-9
    ts = np.array(sorted(by_phi[phis[0]]))
    vs = np.array([by_phi[phis[0]][t] for t in ts])
    exponent = np.polyfit(np.log(ts[2:]), np.log(vs[2:]), 1)[0]
    assert 1.8 < exponent <= 2.05


def test_asymptotic_variance_close_to_simulation():
    for phi in (math.pi / 4, 3 * math.pi / 4):
        v_sim = simulate_distribution(phi, 100).variance()
        v_asym = asymptotic_variance_coefficient(phi) * 100**2
        assert abs(v_asym - v_sim) / v_sim < 0.05


@pytest.mark.parametrize("quarter", [0, 1, 2, 3])
def test_quarter_turn_phases_factorize(quarter):
    phi = quarter * math.pi / 2
    v4 = simulate_distribution(phi, 60).variance()
    v2 = product_walk_variance(phi, 60)
    assert abs(v4 - v2) / v2 < 1e-10


def test_product_variance_rejects_generic_phase():
    with pytest.raises(DomainError):
        product_walk_variance(0.3, 10)


def test_step_operator_composes_localized_states():
    state = SpinorField.localized(default_spin())
    state = abelian_step(state, 0.0)
    probs = state.position_probs()
    assert np.allclose(sorted(probs[probs > 1e-14]), [0.5, 0.5], atol=1e-12)


def _reference_step(phi, k):
    """M_k = exp(-i k Z_x) exp(i phi Z_x Z_y) exp(i pi/4 (X_x + X_y)), built here."""
    z = np.array([1.0, -1.0])
    half = np.cos(math.pi / 4) * np.eye(2) + 1j * np.sin(math.pi / 4) * np.array([[0, 1], [1, 0]])
    shift = np.diag(np.exp(-1j * k * np.kron(z, [1.0, 1.0])))
    return shift @ np.diag(np.exp(1j * phi * np.kron(z, z))) @ np.kron(half, half)


def _reference_coefficients(mats, psis, pl, pr):
    """The per-k Schur loop the batched coefficients replaced, for several spins."""
    sum1 = np.zeros(len(psis))
    sum2 = np.zeros(len(psis))
    used = 0
    for mat in mats:
        tmat, vecs = scipy.linalg.schur(mat, output="complex")
        lam = np.diag(tmat)
        if np.min(np.abs(lam[:, None] - lam[None, :]) + np.eye(len(lam))) < 1e-8:
            continue
        occ_l = np.real(np.einsum("il,ij,jl->l", vecs.conj(), pl, vecs))
        occ_r = np.real(np.einsum("il,ij,jl->l", vecs.conj(), pr, vecs))
        for n, psi in enumerate(psis):
            weights = np.abs(vecs.conj().T @ psi) ** 2
            sum1[n] += float(weights @ occ_l)
            sum2[n] += float(weights @ (occ_l * occ_r))
        used += 1
    return [(1.0 - 2.0 * a / used, 1.0 - 4.0 * b / used) for a, b in zip(sum1, sum2)]


def _midpoints(grid):
    return [-math.pi + 2.0 * math.pi * (j + 0.5) / grid for j in range(grid)]


_PL4 = np.diag([0.0, 0.0, 1.0, 1.0])
_PR4 = np.diag([1.0, 1.0, 0.0, 0.0])
_ORACLE_PHIS = [0.0, math.pi / 4, math.pi / 2, math.pi, 3 * math.pi / 2] + [
    float(x) for x in np.linspace(0.1, 2 * math.pi - 0.1, 15)
]


def _oracle_spins():
    rng = np.random.default_rng(8)
    cplx = rng.normal(size=4) + 1j * rng.normal(size=4)
    return [default_spin(), np.array([0.6, 0.0, 0.0, 0.8], dtype=complex), cplx / np.linalg.norm(cplx)]


@pytest.mark.parametrize("grid", [64, 256, 1024])
def test_batched_coefficients_match_per_k_schur_oracle(grid):
    spins = _oracle_spins()
    for phi in _ORACLE_PHIS:
        mats = [_reference_step(phi, k) for k in _midpoints(grid)]
        expected = _reference_coefficients(mats, spins, _PL4, _PR4)
        for spin, ref in zip(spins, expected):
            got = asymptotic_coefficients(phi, spin, grid)
            assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12, (phi, spin, grid)


@pytest.mark.parametrize("coin", ["H", "U"])
@pytest.mark.parametrize("grid", [64, 256, 1024])
def test_two_state_coefficients_match_per_k_schur_oracle(coin, grid):
    rng = np.random.default_rng(3)
    cplx = rng.normal(size=2) + 1j * rng.normal(size=2)
    spins = [np.array([1, 0], dtype=complex), cplx / np.linalg.norm(cplx)]
    mats = [np.diag(np.exp(-1j * k * np.array([1.0, -1.0]))) @ COINS[coin] for k in _midpoints(grid)]
    expected = _reference_coefficients(mats, spins, np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
    for spin, ref in zip(spins, expected):
        got = two_state_coefficients(COINS[coin], spin, grid)
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12


def test_crossing_grid_point_is_excluded_with_a_warning():
    # the odd midpoint grid puts a point on the crossing at k = 0
    with pytest.warns(UserWarning, match="excluded 1 near-degenerate momentum grid points"):
        got = asymptotic_coefficients(0.0, grid=3)
    mats = [_reference_step(0.0, k) for k in _midpoints(3)]
    (ref,) = _reference_coefficients(mats, [default_spin()], _PL4, _PR4)
    assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12


@pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2, 2.5])
def test_batched_eigenphases_are_the_closed_form_pairs(phi):
    ks = abelian._k_grid(1024)
    phases = np.sort(np.angle(np.linalg.eigvals(abelian._momentum_operators(phi, ks))), axis=1)
    pairs = np.array([eigenphase_pair(phi, float(k)) for k in ks])
    expected = np.sort(np.concatenate([pairs, -pairs], axis=1), axis=1)
    assert np.max(np.abs(phases - expected)) < 1e-10
    # one batched call gives the same pairs as the scalar calls
    assert np.max(np.abs(np.stack(eigenphase_pair(phi, ks), axis=1) - pairs)) <= 1e-15


def test_two_state_crossings_get_the_four_state_guards():
    # the identity coin is degenerate at k = 0 and k = pi
    with pytest.raises(NumericError, match="eigenvalue crossings"):
        two_state_coefficients(np.eye(2), [1, 0], grid=1)
    with pytest.warns(UserWarning, match="excluded 1 near-degenerate momentum grid points"):
        c1, c2 = two_state_coefficients(np.eye(2), [1, 0], grid=3)
    assert (c1, c2) == pytest.approx((1.0, 1.0), abs=1e-14)


def test_half_period_crossing_pair_is_excluded_twice():
    # diag(1, i) is degenerate at k = -pi/4 and 3pi/4, a k/k+pi pair of the 4-point grid
    with pytest.warns(UserWarning, match="excluded 2 near-degenerate momentum grid points"):
        c1, c2 = two_state_coefficients(np.diag([1, 1j]), [1, 0], grid=4)
    assert (c1, c2) == pytest.approx((1.0, 1.0), abs=1e-14)


@pytest.mark.parametrize("name", ["eig", "eigvals", "eigh", "eigvalsh"])
def test_long_time_coefficients_run_no_eigensolver(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"np.linalg.{name} called")

    monkeypatch.setattr(np.linalg, name, refuse)
    asymptotic_coefficients(0.7, _oracle_spins()[2])
    two_state_coefficients(_C2, [1, 0])
    variance_surface([0.7], [5], analytic=True)


@pytest.mark.parametrize("grid,evaluated", [(1024, 512), (1025, 1025)])
def test_even_grid_evaluates_its_first_half(grid, evaluated, monkeypatch):
    sizes = []

    def spy(name, size):
        orig = getattr(abelian, name)

        def wrapper(*args):
            sizes.append(size(args))
            return orig(*args)

        monkeypatch.setattr(abelian, name, wrapper)

    spy("eigenphase_pair", lambda args: np.size(args[1]))
    spy("_shifted", lambda args: len(args[1]))
    asymptotic_coefficients(0.7, grid=grid)
    two_state_coefficients(_C2, [1, 0], grid=grid)
    assert sizes == [evaluated, evaluated]


def _mp_step(phi, k=0):
    """M_k = exp(-i k Z_x) exp(i phi Z_x Z_y) exp(i pi/4 (X_x + X_y)) at the working precision."""
    half = mpmath.matrix([[1, 1j], [1j, 1]]) / mpmath.sqrt(2)
    signs = [1, -1, -1, 1]
    return mpmath.matrix(
        [
            [
                mpmath.exp(1j * (phi * signs[i] - k * abelian._MOVES[i]))
                * half[i // 2, j // 2]
                * half[i % 2, j % 2]
                for j in range(4)
            ]
            for i in range(4)
        ]
    )


_NEAR_CROSSINGS = [math.pi / 2 + 1e-7, math.pi / 2 - 1e-7, 1e-6]


@pytest.mark.parametrize("phi", _NEAR_CROSSINGS)
def test_near_crossing_point_matches_a_50_digit_oracle(phi):
    # the one-point grid is k = 0, where the eigenvalue gap is 1e-7 or 2e-6
    with mpmath.workdps(50):
        _, vecs = mpmath.eig(_mp_step(mpmath.mpf(phi)))
        for spin in _oracle_spins():
            c1 = c2 = mpmath.mpf(0)
            for col in range(4):
                vec = vecs[:, col] / mpmath.norm(vecs[:, col])
                weight = abs(sum(mpmath.conj(vec[i]) * spin[i] for i in range(4))) ** 2
                velocity = sum(abs(vec[i]) ** 2 * abelian._MOVES[i] for i in range(4))
                c1 += weight * velocity
                c2 += weight * velocity**2
            got = asymptotic_coefficients(phi, spin, grid=1)
            assert np.max(np.abs(np.subtract(got, (float(c1), float(c2))))) <= 1e-8, spin


@pytest.mark.parametrize(
    "phi,k",
    [(phi, 0.0) for phi in _NEAR_CROSSINGS + [0.0, math.pi]]
    + [(0.0, 1e-5), (1e-9, 1e-4), (math.pi, math.pi - 1e-4), (math.pi / 2 - 1e-7, 1e-9)],
)
def test_eigenphases_near_a_crossing_match_a_50_digit_oracle(phi, k):
    with mpmath.workdps(50):
        lam = mpmath.eig(_mp_step(mpmath.mpf(phi), mpmath.mpf(k)), right=False)
        phases = np.sort([abs(float(mpmath.arg(x))) for x in lam])
    beta_minus, beta_plus = eigenphase_pair(phi, k)
    got = np.sort([beta_minus, beta_minus, beta_plus, beta_plus])
    # relative accuracy, which the small phases next to a crossing need; the
    # oracle puts an exact zero phase at about 1e-50
    assert np.all(np.abs(got - phases) <= 4 * np.finfo(float).eps * phases + 1e-40)


def _eig_oracle(phi, spin, grid):
    """Per-k np.linalg.eig over the whole midpoint grid, with the 1e-8 gap rule;
    also returns the excluded count and the mean of 1/gap over the kept points."""
    sum1 = sum2 = inverse_gaps = 0.0
    used = 0
    for k in _midpoints(grid):
        lam, vecs = np.linalg.eig(_reference_step(phi, k))
        gap = np.min(np.abs(lam[:, None] - lam[None, :]) + np.eye(4))
        if gap < 1e-8:
            continue
        weights = np.abs(vecs.conj().T @ spin) ** 2
        velocity = np.abs(vecs.T) ** 2 @ abelian._MOVES
        sum1 += float(weights @ velocity)
        sum2 += float(weights @ velocity**2)
        inverse_gaps += 1.0 / gap
        used += 1
    return (sum1 / used, sum2 / used), grid - used, inverse_gaps / used


@settings(max_examples=25, deadline=None)
@given(
    phi=st.floats(0.0, 2 * math.pi),
    parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(
        lambda xs: sum(x * x for x in xs) > 0.01
    ),
    grid=st.integers(3, 4096),
)
def test_coefficients_match_a_per_k_eig_oracle(phi, parts, grid):
    spin = np.array(parts[:4]) + 1j * np.array(parts[4:])
    spin /= np.linalg.norm(spin)
    ref, excluded, inverse_gap = _eig_oracle(phi, spin, grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = asymptotic_coefficients(phi, spin, grid)
    assert [str(w.message) for w in caught] == (
        [f"excluded {excluded} near-degenerate momentum grid points"] if excluded else []
    )
    # a spectral projector divides an O(eps) rounding error by the eigenvalue gap,
    # so next to a crossing the points lose about eps/gap each (measured: <= 2.2 eps/gap)
    tol = 1e-12 + 16 * np.finfo(float).eps * inverse_gap
    assert np.max(np.abs(np.subtract(got, ref))) <= tol


def _reference_moment(phi, t, grid, spins):
    """The operator loop the spinor recurrence replaced: T_t = sum_j S_j with
    S_j = M^-j Z_x M^j, giving ([<psi|T_t|psi>], [<psi|T_t^2|psi>]) over ``spins``."""
    ms = np.array([_reference_step(phi, k) for k in _midpoints(grid)])
    mdag = ms.conj().transpose(0, 2, 1)
    s_j = np.broadcast_to(np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex), ms.shape).copy()
    total = np.zeros_like(ms)
    for _ in range(t):
        s_j = mdag @ s_j @ ms
        total += s_j
    return [
        [float(np.mean(np.einsum("i,kij,j->k", psi.conj(), op, psi)).real) for psi in spins]
        for op in (total, total @ total)
    ]


@pytest.mark.parametrize("t", [1, 7, 60])
@pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2, 2.2])
def test_moments_match_the_operator_loop(phi, t):
    spins = _oracle_spins()
    for m in (1, 2):
        for grid in (2 * m * t + 1, 1024):
            expected = _reference_moment(phi, t, grid, spins)[m - 1]
            for spin, ref in zip(spins, expected):
                got = moments_analytic(phi, t, m, spin, grid)
                assert abs(got - ref) <= 1e-12 * max(abs(ref), 1.0), (m, grid, spin)


def test_moments_match_direct_simulation_for_a_complex_spin():
    spin = _oracle_spins()[2]
    d = simulate_distribution(0.7, 30, spin)
    for m in (1, 2):
        ref = d.moment(m)
        assert abs(moments_analytic(0.7, 30, m, spin) - ref) <= 1e-10 * max(abs(ref), 1.0)


@pytest.mark.parametrize("t", [1, 9, 40])
@pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2, 2.2])
def test_an_even_moment_grid_agrees_with_the_odd_one_past_it(phi, t):
    # an even grid is evaluated on its first half, an odd one in full
    for spin in _oracle_spins():
        for m in (1, 2):
            for half in (m * t + 1, 3 * m * t, 512):
                even = moments_analytic(phi, t, m, spin, 2 * half)
                odd = moments_analytic(phi, t, m, spin, 2 * half + 1)
                assert abs(even - odd) <= 1e-12 * max(abs(odd), 1.0), (m, half, spin)


_SURFACE_TS = [1, 2, 5, 10, 17, 30]
_SURFACE_PHIS = [0.0, 0.3, 1.0, math.pi / 2, 2.5]


def test_every_variance_surface_row_matches_simulation_and_moments():
    rows = variance_surface(_SURFACE_PHIS, _SURFACE_TS, analytic=True)
    assert [(t, phi) for t, phi, _, _ in rows] == [
        (t, phi) for phi in _SURFACE_PHIS for t in _SURFACE_TS
    ]
    for t, phi, v_sim, v_analytic in rows:
        assert v_sim == pytest.approx(simulate_distribution(phi, t).variance(), rel=1e-9)
        m1, m2 = (moments_analytic(phi, t, m) for m in (1, 2))
        assert v_sim == pytest.approx(m2 - m1 * m1, rel=1e-9)
        assert v_analytic == pytest.approx(asymptotic_variance_coefficient(phi) * t**2, rel=1e-14)


@pytest.mark.parametrize("grid", [0, -4])
def test_empty_momentum_grid_is_a_domain_error(grid):
    with pytest.raises(DomainError, match="at least 1 point"):
        asymptotic_coefficients(0.7, grid=grid)
    with pytest.raises(DomainError, match="at least 1 point"):
        two_state_coefficients(_C2, [1, 0], grid=grid)


_BAD_SPINS = [
    np.array([1.0, 1.0, 0.0, 0.0]),
    np.array([1.0, 0.0, 0.0]),
    np.eye(4)[:2],
    np.array([1.0 + 1e-9, 0.0, 0.0, 0.0]),
]


@pytest.mark.parametrize("spin", [[1, 1], [1, 0, 0]])
def test_two_state_coefficients_reject_a_bad_spin(spin):
    with pytest.raises(DomainError, match="normalized 2-vector"):
        two_state_coefficients(_C2, spin)


@pytest.mark.parametrize("spin", _BAD_SPINS)
def test_asymptotic_coefficients_reject_a_bad_spin(spin):
    with pytest.raises(DomainError, match="normalized 4-vector"):
        asymptotic_coefficients(0.7, initial_spin=spin)


@pytest.mark.parametrize("spin", _BAD_SPINS)
def test_moments_reject_a_bad_spin(spin):
    with pytest.raises(DomainError, match="normalized 4-vector"):
        moments_analytic(0.7, 5, 2, initial_spin=spin)


@pytest.mark.parametrize("analytic", [False, True])
@pytest.mark.parametrize("spin", _BAD_SPINS)
def test_variance_surface_rejects_a_bad_spin(spin, analytic):
    with pytest.raises(DomainError, match="normalized 4-vector"):
        variance_surface([0.7], [5], initial_spin=spin, analytic=analytic)
