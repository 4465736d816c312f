"""Acceptance gates: one test per numbered criterion, one printed line each.

Gate 8's quantum-double half asserts the exact rate of convergence rather
than a fixed distance.  For t <= 4 every path pair of the D(S_N) walk
reduces to squared runs, so its distribution is phi(N) q_t + (1 - phi(N)) c_t,
with q_t the standard coined walk, c_t the classical binomial walk and
phi(N) = ((N^2 - 5N + 8)/(N(N - 1)))^2.  The t=4 distance to the limit is then
(1 - phi(N)) sqrt(14)/8 = sqrt(14)/N + O(1/N^2): 7.44e-3 at N=500, and below
the 1e-3 bound that the SU(2) side meets at k=500 only from N* = 3739 on.
"""

import math
import time
from fractions import Fraction

import numpy as np

from anyonwalk.abelian import (
    asymptotic_variance_coefficient,
    product_walk_variance,
    simulate_distribution,
)
from anyonwalk.distribution import baseline_classical, baseline_quantum, distance
from anyonwalk.fusion import (
    braid_generator,
    enumerate_fusion_basis,
    su22_qubit_generator,
    tl_generator,
)
from anyonwalk.laurent import LOOP_VALUE, LaurentPoly
from anyonwalk.models import build_su2k
from anyonwalk.nonabelian import (
    WalkGeometry,
    closed_form_distribution,
    distribution_dense,
    distribution_pathsum,
    walk_distribution,
)
from anyonwalk.quantum_double import double_walk_distribution
from anyonwalk.tl import BraidWord, markov_bracket, plat_bracket, state_sum_bracket


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def test_acceptance_1_small_step_closed_forms():
    start = time.time()
    worst = 0.0
    for k in (2, 3, 4, 5, 6, 10, 20):
        model = build_su2k(k)
        for t in (1, 2, 3, 4):
            expected = closed_form_distribution(k, t)
            for engine in (distribution_pathsum, distribution_dense):
                got = engine(model, None, t).probs
                worst = max(worst, float(np.max(np.abs(got - expected))))
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 10.0
    report(1, "small-step closed forms", ok, f"max err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_acceptance_2_cross_engine_oracle():
    start = time.time()
    worst = 0.0
    # past t = 12 the dense engine's budget admits k = 2 and 3 on this layout
    for t in range(1, 15):
        geom = WalkGeometry(2 * t + 2, t + 1)
        for k in (2, 3, 4, 5) if t <= 12 else (2, 3):
            model = build_su2k(k)
            for coin in ("H", "U"):
                dp = distribution_pathsum(model, geom, t, coin=coin)
                dd = distribution_dense(model, geom, t, coin=coin)
                worst = max(worst, float(np.linalg.norm(dp.probs - dd.probs)))
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 120.0
    report(2, "cross-engine oracle", ok, f"max distance {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 120.0


def test_acceptance_3_ten_step_distance_sweep():
    start = time.time()
    ks = list(range(2, 31)) + [40, 60, 80]
    quantum = baseline_quantum(10)
    classical = baseline_classical(10)
    d_q = {}
    d_c = {}
    for k in ks:
        dist = walk_distribution(build_su2k(k), 10, n=22, engine="dense")
        centered = dist.shifted(dist.meta["s0"])
        d_q[k] = distance(centered, quantum)
        d_c[k] = distance(centered, classical)
    elapsed = time.time() - start
    argmin = min(d_c, key=d_c.get)
    ok = argmin == 6 and 0.10 <= d_c[6] <= 0.15 and d_q[80] < 0.01 and elapsed < 900.0
    report(
        3,
        "ten-step distance sweep",
        ok,
        f"argmin d_c at k={argmin}, d_c(6)={d_c[6]:.3f}, d_q(80)={d_q[80]:.4f}, {elapsed:.0f}s",
    )
    assert argmin == 6
    assert 0.10 <= d_c[6] <= 0.15
    assert d_q[80] < 0.01
    assert elapsed < 900.0


def test_acceptance_4_abelian_variance_surface():
    start = time.time()
    phis = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
    fit_ok = True
    for phi in phis:
        ts = np.arange(50, 101, 10)
        vs = np.array([simulate_distribution(phi, int(t)).variance() for t in ts])
        exponent = np.polyfit(np.log(ts), np.log(vs), 1)[0]
        fit_ok &= 1.9 <= exponent <= 2.0
    asym_ok = True
    for phi in (math.pi / 4, 3 * math.pi / 4):  # away from pi/2 multiples
        v_sim = simulate_distribution(phi, 100).variance()
        v_asym = asymptotic_variance_coefficient(phi) * 100**2
        asym_ok &= abs(v_asym - v_sim) / v_sim < 0.05
    split_ok = True
    for phi in (0.0, math.pi / 2, math.pi):
        v4 = simulate_distribution(phi, 100).variance()
        v2 = product_walk_variance(phi, 100)
        split_ok &= abs(v4 - v2) / v2 < 0.01
    elapsed = time.time() - start
    ok = fit_ok and asym_ok and split_ok and elapsed < 120.0
    report(
        4,
        "abelian variance surface",
        ok,
        f"fit {fit_ok}, asymptotic {asym_ok}, product split {split_ok}, {elapsed:.0f}s",
    )
    assert fit_ok and asym_ok and split_ok
    assert elapsed < 120.0


def test_acceptance_5_quantum_double_exact_values():
    start = time.time()
    d3 = double_walk_distribution(5, 3)
    three_ok = d3.exact == [
        Fraction(1, 8),
        Fraction(83, 200),
        Fraction(67, 200),
        Fraction(1, 8),
    ] and np.allclose(d3.probs, [0.125, 0.415, 0.335, 0.125], atol=1e-15)
    d4 = double_walk_distribution(5, 4)
    four_ok = d4.exact == [
        Fraction(1, 16),
        Fraction(31, 100),
        Fraction(67, 200),
        Fraction(23, 100),
        Fraction(1, 16),
    ]
    indep_ok = all(
        double_walk_distribution(N, 1).exact == [Fraction(1, 2)] * 2
        and double_walk_distribution(N, 2).exact
        == [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
        for N in (5, 6, 9)
    )
    elapsed = time.time() - start
    ok = three_ok and four_ok and indep_ok and elapsed < 30.0
    report(
        5,
        "quantum double exact values",
        ok,
        f"t=3 {three_ok}, t=4 {four_ok}, N-independence {indep_ok}, {elapsed:.1f}s",
    )
    assert three_ok and four_ok and indep_ok
    assert elapsed < 30.0


def test_acceptance_6_bracket_state_sum_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    mism = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        length = int(rng.integers(0, 13))
        letters = tuple(
            int(rng.integers(1, n)) * int(rng.choice([-1, 1])) for _ in range(length)
        )
        word = BraidWord(n, letters)
        if state_sum_bracket(word, "markov") != markov_bracket(word):
            mism += 1
        if n % 2 == 0 and state_sum_bracket(word, "plat") != plat_bracket(word):
            mism += 1
    unknot_ok = markov_bracket(BraidWord(1, ())) == LaurentPoly.one()
    scale_ok = True
    for _ in range(10):
        n = int(rng.integers(2, 6))
        letters = tuple(
            int(rng.integers(1, n)) * int(rng.choice([-1, 1])) for _ in range(6)
        )
        w = BraidWord(n, letters)
        scale_ok &= markov_bracket(BraidWord(n + 1, letters)) == LOOP_VALUE * markov_bracket(w)
        wide = BraidWord(n + 2 - (n % 2), letters)  # even count for the plat side
        scale_ok &= plat_bracket(BraidWord(wide.n + 2, letters)) == LOOP_VALUE * plat_bracket(wide)
    elapsed = time.time() - start
    ok = mism == 0 and unknot_ok and scale_ok and elapsed < 60.0
    report(
        6,
        "bracket state-sum oracle",
        ok,
        f"{mism} mismatches on 200 words, unknot {unknot_ok}, disjoint-scaling {scale_ok}, {elapsed:.0f}s",
    )
    assert mism == 0 and unknot_ok and scale_ok
    assert elapsed < 60.0


def test_acceptance_7_algebraic_invariant_suite():
    start = time.time()
    worst_alg = 0.0
    for k in (2, 3, 5):
        model = build_su2k(k)
        for n in (6, 10):
            space = enumerate_fusion_basis(model, n)
            eye = np.eye(space.dim)
            bs = [braid_generator(space, i).toarray() for i in range(1, n)]
            es = [tl_generator(space, i).toarray() for i in range(1, n)]
            for b in bs:
                worst_alg = max(worst_alg, float(np.max(np.abs(b @ b.conj().T - eye))))
            for i in range(n - 2):
                worst_alg = max(
                    worst_alg,
                    float(np.max(np.abs(bs[i] @ bs[i + 1] @ bs[i] - bs[i + 1] @ bs[i] @ bs[i + 1]))),
                )
                worst_alg = max(
                    worst_alg, float(np.max(np.abs(es[i] @ es[i + 1] @ es[i] - es[i])))
                )
            for e in es:
                worst_alg = max(worst_alg, float(np.max(np.abs(e @ e - model.d * e))))
            for i in range(n - 1):
                for j in range(i + 2, n - 1):
                    worst_alg = max(worst_alg, float(np.max(np.abs(bs[i] @ bs[j] - bs[j] @ bs[i]))))
                    worst_alg = max(worst_alg, float(np.max(np.abs(es[i] @ es[j] - es[j] @ es[i]))))
    model2 = build_su2k(2)
    worst_rep = 0.0
    for t in (1, 2, 3, 4):
        fusion = distribution_dense(model2, None, t)
        qubit = distribution_dense(model2, None, t, representation="qubit")
        worst_rep = max(worst_rep, float(np.max(np.abs(fusion.probs - qubit.probs))))
    elapsed = time.time() - start
    ok = worst_alg < 1e-10 and worst_rep < 1e-10
    report(
        7,
        "algebraic invariant suite",
        ok,
        f"algebra residual {worst_alg:.2e}, representation gap {worst_rep:.2e}, {elapsed:.0f}s",
    )
    assert worst_alg < 1e-10
    assert worst_rep < 1e-10


def test_acceptance_8_limit_convergence():
    start = time.time()
    base = baseline_quantum(4)
    su2 = walk_distribution(build_su2k(500), 4, engine="dense")
    d_su2 = distance(su2.shifted(su2.meta["s0"]), base)

    def phi(N: int) -> Fraction:
        # weight of every t=4 path pair: (f2/d)^2, f2 = 1 + (N-2)(N-3)/2, d = N(N-1)/2
        return Fraction(N * N - 5 * N + 8, N * (N - 1)) ** 2

    def d_dsn(N: int) -> float:
        dsn = double_walk_distribution(N, 4)
        return distance(dsn.shifted(dsn.meta["s0"]), base)

    q4 = [Fraction(n, 16) for n in (1, 10, 2, 2, 1)]
    c4 = [Fraction(n, 16) for n in (1, 4, 6, 4, 1)]
    closed_ok = double_walk_distribution(500, 4).exact == [
        phi(500) * q + (1 - phi(500)) * c for q, c in zip(q4, c4)
    ]
    n_star = 3739  # first N with (1 - phi(N)) sqrt(14)/8 < 1e-3
    d_dsn_at = {N: d_dsn(N) for N in (500, n_star - 1, n_star, 5000)}
    rate_ok = all(
        abs(d_dsn_at[N] - float(1 - phi(N)) * math.sqrt(14) / 8) < 1e-12 for N in (500, 5000)
    )
    bound_ok = d_dsn_at[n_star] < 1e-3 <= d_dsn_at[n_star - 1]
    elapsed = time.time() - start
    ok = d_su2 < 1e-3 and closed_ok and rate_ok and bound_ok and elapsed < 30.0
    report(
        8,
        "limit convergence",
        ok,
        f"k=500 distance {d_su2:.2e}, N d(N) = {500 * d_dsn_at[500]:.4f} at N=500 and "
        f"{5000 * d_dsn_at[5000]:.4f} at N=5000 (sqrt(14) = {math.sqrt(14):.4f}), "
        f"1e-3 met from N*={n_star}, {elapsed:.1f}s",
    )
    assert elapsed < 30.0
    assert d_su2 < 1e-3
    # The double walk converges as O(1/N): its distance at N=500 is asserted
    # equal to the exact rate (7.44e-3), and the 1e-3 bound from N* on.
    assert closed_ok
    assert rate_ok
    assert bound_ok
