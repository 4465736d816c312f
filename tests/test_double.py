import itertools
from fractions import Fraction

import numpy as np
import pytest

from anyonwalk import quantum_double
from anyonwalk.distribution import baseline_classical, baseline_quantum, distance
from anyonwalk.errors import DomainError, IrreducibleWordError
from anyonwalk.models import build_dsn
from anyonwalk.nonabelian import WalkGeometry, _loop_pairs, path_braid_word
from anyonwalk.quantum_double import (
    _coin_pair_real,
    _dsn_plan,
    double_walk_distribution,
    markov_trace_word,
    trace_factor,
)
from anyonwalk.tl import BraidWord


def test_trace_factors():
    # power 2: the three-cycle term vanishes, the transposition term is 3 (N=5)
    assert trace_factor(5, 2) == trace_factor(5, -2) == 4
    assert trace_factor(5, 1) == trace_factor(5, -1) == 1
    assert trace_factor(5, 3) == 1 + 2 * 3  # only the three-cycle term
    assert trace_factor(5, 6) == 1 + 6 + 3
    # an absent generator would contribute the irrep dimension
    assert trace_factor(5, 0) == build_dsn(5).dim


def _crossing(x, y):
    """One braid crossing (x, y) -> (x y x^-1, x) on a pair of transpositions."""
    swap = {x[0]: x[1], x[1]: x[0]}
    return tuple(sorted(swap.get(p, p) for p in y)), x


@pytest.mark.parametrize("N", [5, 6, 7, 8])
def test_trace_factors_count_crossing_fixed_points(N):
    # trace_factor(N, m) * d is the number of pairs of transpositions fixed
    # by the m-th power of one crossing (Etingof-Rowell-Witherspoon 2008)
    transpositions = list(itertools.combinations(range(N), 2))
    d = len(transpositions)
    pairs = list(itertools.product(transpositions, repeat=2))

    def fixed(m):
        out = set()
        for pair in pairs:
            image = pair
            for _ in range(m):
                image = _crossing(*image)
            if image == pair:
                out.add(pair)
        return out

    shared = {(x, y): len(set(x) & set(y)) for x, y in pairs}
    assert fixed(1) == {p for p in pairs if p[0] == p[1]}
    assert fixed(2) == {p for p in pairs if shared[p] != 1}  # commuting: equal or disjoint
    assert fixed(3) == {p for p in pairs if shared[p] != 0}  # equal or sharing one point
    for m in (1, 2, 3):
        assert len(fixed(m)) == trace_factor(N, m) * d


def test_trace_of_identity_and_single_letters():
    assert markov_trace_word(5, BraidWord(8, ())).value == 1
    # a single letter is the stabilization value z = 1/dim
    assert markov_trace_word(10, [(3, 1)]).value == Fraction(1, 45)
    assert markov_trace_word(10, [(3, -1)]).value == Fraction(1, 45)


def test_trace_rewrites_spec_word():
    # b_4^-3 b_3^2 b_4 rotates and cancels down to b_4^-2 b_3^2
    value = markov_trace_word(5, [(4, -3), (3, 2), (4, 1)]).value
    assert value == markov_trace_word(5, [(4, -2), (3, 2)]).value == Fraction(16, 100)


def test_trace_is_cyclic_and_conjugation_invariant():
    rng = np.random.default_rng(12)
    for _ in range(10):
        letters = tuple(int(rng.integers(1, 6)) * int(rng.choice([-1, 1])) for _ in range(6))
        word = BraidWord(7, letters)
        try:
            base = markov_trace_word(6, word).value
        except IrreducibleWordError:
            continue
        for r in range(len(letters)):
            rot = BraidWord(7, letters[r:] + letters[:r])
            assert markov_trace_word(6, rot).value == base


def test_markov_move_soundness_on_canonical_words():
    # phi(w b_top^{+-1}) = z phi(w), with both sides in closed form
    for N in (5, 8):
        z = Fraction(1, build_dsn(N).dim)
        w = [(2, 3), (5, -2), (1, 1)]
        base = markov_trace_word(N, w).value
        assert markov_trace_word(N, w + [(7, 1)]).value == z * base
        assert markov_trace_word(N, w + [(7, -1)]).value == z * base


def test_connected_sum_multiplicativity():
    # disjoint-generator words multiply under the trace closure
    for N in (5, 9):
        w1 = [(1, 2), (2, -3)]
        w2 = [(5, 2), (6, 2)]
        lhs = markov_trace_word(N, w1 + w2).value
        assert lhs == markov_trace_word(N, w1).value * markov_trace_word(N, w2).value


def test_irreducible_word_is_reported():
    with pytest.raises(IrreducibleWordError):
        markov_trace_word(5, [(1, 1), (2, 1), (1, 1), (2, 1)])


def test_one_step_distribution():
    d = double_walk_distribution(5, 1)
    assert d.exact == [Fraction(1, 2), Fraction(1, 2)]


def test_three_step_distribution():
    d = double_walk_distribution(5, 3)
    assert d.exact == [
        Fraction(1, 8),
        Fraction(1, 8) * (3 + Fraction(8, 25)),
        Fraction(1, 8) * (3 - Fraction(8, 25)),
        Fraction(1, 8),
    ]
    assert np.allclose(d.probs, [0.125, 0.415, 0.335, 0.125], atol=1e-15)


def test_four_step_distribution():
    d = double_walk_distribution(5, 4)
    assert d.exact == [
        Fraction(1, 16),
        Fraction(31, 100),
        Fraction(67, 200),
        Fraction(23, 100),
        Fraction(1, 16),
    ]
    assert sum(d.exact) == 1


def test_hadamard_coin_gives_same_distribution():
    for t in (3, 4):
        assert (
            double_walk_distribution(5, t, coin="H").exact
            == double_walk_distribution(5, t, coin="U").exact
        )


@pytest.mark.parametrize("N", [5, 6, 9])
def test_short_walks_are_group_size_independent(N):
    assert double_walk_distribution(N, 1).exact == [Fraction(1, 2)] * 2
    assert double_walk_distribution(N, 2).exact == [
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 4),
    ]


STANDARD = {
    3: [Fraction(n, 8) for n in (1, 5, 1, 1)],
    4: [Fraction(n, 16) for n in (1, 10, 2, 2, 1)],
}
CLASSICAL = {
    3: [Fraction(n, 8) for n in (1, 3, 3, 1)],
    4: [Fraction(n, 16) for n in (1, 4, 6, 4, 1)],
}


@pytest.mark.parametrize("N", [5, 6, 9, 50, 500, 5000])
@pytest.mark.parametrize("coin", ["U", "H"])
@pytest.mark.parametrize("t", [3, 4])
def test_short_walk_mixes_standard_and_classical_walks(t, coin, N):
    # every path pair of a t <= 4 walk reduces to squared runs, each worth
    # (f2/d)^2 with f2/d = trace_factor(N, 2) / d = (N^2 - 5N + 8)/(N(N - 1))
    phi = Fraction(N * N - 5 * N + 8, N * (N - 1)) ** 2
    q, c = STANDARD[t], CLASSICAL[t]
    assert np.allclose(baseline_quantum(t, coin).probs, [float(x) for x in q], atol=1e-15)
    assert baseline_classical(t).exact == c
    assert double_walk_distribution(N, t, coin=coin).exact == [
        phi * a + (1 - phi) * b for a, b in zip(q, c)
    ]


def test_large_group_approaches_standard_walk():
    base = baseline_quantum(4)
    dists = []
    for N in (50, 500, 5000):
        d = double_walk_distribution(N, 4)
        dists.append(distance(d.shifted(d.meta["s0"]), base))
    assert dists == sorted(dists, reverse=True)  # monotone convergence
    assert dists[-1] < 1e-3


def test_five_step_walk_reports_offending_word():
    with pytest.raises(IrreducibleWordError) as info:
        double_walk_distribution(5, 5)
    assert info.value.word is not None


def test_bad_arguments():
    with pytest.raises(DomainError):
        double_walk_distribution(4, 2)
    with pytest.raises(DomainError):
        double_walk_distribution(5, 2, coin="X")


def _per_pair_distribution(N, t, coin):
    """The walk as a sum over path pairs, each pair's word traced on its own."""
    geom = WalkGeometry.for_steps(t)
    totals = {}
    for a, ap, diagonal in _loop_pairs(t):
        s = geom.s0 + 2 * sum(a) - t
        if diagonal:
            weight = Fraction(1, 2**t)
        else:
            word = path_braid_word(geom, a) * path_braid_word(geom, ap).inverse()
            weight = 2 * _coin_pair_real(a, ap, coin, t) * markov_trace_word(N, word).value
        totals[s] = totals.get(s, 0) + weight
    return [totals[s] for s in sorted(totals)]


@pytest.mark.parametrize("N", [5, 6, 11, 3739])
@pytest.mark.parametrize("coin", ["U", "H"])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_planned_walk_equals_the_per_pair_trace_sum(t, coin, N):
    assert double_walk_distribution(N, t, coin=coin).exact == _per_pair_distribution(N, t, coin)


def test_the_plan_is_reused_at_another_group_size():
    first = double_walk_distribution(5, 4)
    warm = double_walk_distribution(9, 4)
    assert not first.meta["plan_reused"] and warm.meta["plan_reused"]
    _dsn_plan.cache_clear()
    cold = double_walk_distribution(9, 4)
    assert not cold.meta["plan_reused"]
    assert warm.exact == cold.exact and list(warm.probs) == list(cold.probs)


@pytest.mark.parametrize("coin", ["U", "H"])
@pytest.mark.parametrize("t", [3, 4])
def test_a_short_walk_traces_one_product_of_squared_runs_per_call(t, coin, monkeypatch):
    traced = []
    trace = quantum_double.markov_trace_word

    def counted(N, word):
        traced.append(sorted(m for _, m in word))
        return trace(N, word)

    monkeypatch.setattr(quantum_double, "markov_trace_word", counted)
    double_walk_distribution(5, t, coin=coin)
    double_walk_distribution(6, t, coin=coin)
    assert traced == [[-2, 2]] * 2
