import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anyonwalk.tl as tl
from anyonwalk.errors import DomainError
from anyonwalk.laurent import LOOP_VALUE, LaurentPoly
from anyonwalk.models import build_su2k
from anyonwalk.tl import (
    BraidWord,
    anyon_trace,
    compose,
    cup_cap_diagram,
    identity_diagram,
    is_planar_matching,
    markov_bracket,
    plat_bracket,
    skein_act,
    state_sum_bracket,
)


def skein_expand(word):
    """Exact skein expansion of a braid word: the nonzero LaurentPoly coefficient
    of each planar diagram.  A letter acts at the bottom, so the last one goes first."""
    return tl._evolve(identity_diagram(word.n), reversed(word.letters), None)


def random_word(rng, n, length):
    letters = tuple(
        int(rng.integers(1, n)) * int(rng.choice([-1, 1])) for _ in range(length)
    )
    return BraidWord(n, letters)


def test_generator_diagrams_are_planar():
    for n in (2, 3, 5):
        assert is_planar_matching(identity_diagram(n))
        for i in range(1, n):
            assert is_planar_matching(cup_cap_diagram(n, i))


def test_compose_examples():
    e1 = cup_cap_diagram(2, 1)
    assert compose(e1, e1) == (e1, 1)  # e^2 = d e
    ident = identity_diagram(4)
    x = cup_cap_diagram(4, 2)
    assert compose(ident, x) == (x, 0)
    assert compose(x, ident) == (x, 0)
    # e_1 e_2 e_1 = e_1 with no closed loop
    e1, e2 = cup_cap_diagram(3, 1), cup_cap_diagram(3, 2)
    mid, l1 = compose(e2, e1)
    out, l2 = compose(e1, mid)
    assert out == e1 and l1 + l2 == 0


def test_compose_strand_mismatch():
    with pytest.raises(DomainError):
        compose(identity_diagram(2), identity_diagram(3))


def test_compose_results_stay_planar_and_associative():
    rng = np.random.default_rng(3)
    n = 4
    gens = [identity_diagram(n)] + [cup_cap_diagram(n, i) for i in range(1, n)]
    for _ in range(50):
        a, b, c = (gens[rng.integers(len(gens))] for _ in range(3))
        ab, l_ab = compose(a, b)
        abc1, l1 = compose(ab, c)
        bc, l_bc = compose(b, c)
        abc2, l2 = compose(a, bc)
        assert is_planar_matching(abc1)
        assert abc1 == abc2
        assert l_ab + l1 == l_bc + l2


def test_braid_word_algebra():
    w = BraidWord(4, (1, -2, 3))
    assert w.inverse().letters == (-3, 2, -1)
    assert (w * w.inverse()).free_reduce().letters == ()
    assert (w * w).letters == (1, -2, 3, 1, -2, 3)
    with pytest.raises(DomainError):
        BraidWord(3, (3,))
    with pytest.raises(DomainError):
        BraidWord(2, (0,))
    for n in (0, -2):
        with pytest.raises(DomainError, match="at least one strand"):
            BraidWord(n, ())


def test_skein_single_letter():
    assert skein_expand(BraidWord(2, (1,))) == {
        identity_diagram(2): LaurentPoly.monomial(1),
        cup_cap_diagram(2, 1): LaurentPoly.monomial(-1),
    }


def test_skein_double_letter():
    assert skein_expand(BraidWord(2, (1, 1))) == {
        identity_diagram(2): LaurentPoly({2: 1}),
        cup_cap_diagram(2, 1): LaurentPoly({0: 1, -4: -1}),
    }


def test_skein_word_times_inverse_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        w = random_word(rng, 5, 6)
        assert skein_expand(w * w.inverse()) == {identity_diagram(5): LaurentPoly.one()}


def test_plat_values():
    assert plat_bracket(BraidWord(2, ())) == LaurentPoly.one()
    assert plat_bracket(BraidWord(4, ())) == LOOP_VALUE
    assert plat_bracket(BraidWord(2, (1,))) == LaurentPoly.monomial(-3, -1)
    assert plat_bracket(BraidWord(2, (1, 1))) == LaurentPoly.monomial(-6)
    with pytest.raises(DomainError):
        plat_bracket(BraidWord(3, (1,)))


def test_markov_values():
    assert markov_bracket(BraidWord(1, ())) == LaurentPoly.one()  # single unknot
    assert markov_bracket(BraidWord(2, ())) == LOOP_VALUE
    # Hopf link and trefoil, expanded by hand
    assert markov_bracket(BraidWord(2, (1, 1))) == LaurentPoly({4: -1, -4: -1})
    assert markov_bracket(BraidWord(2, (1, 1, 1))) == LaurentPoly({5: -1, -3: -1, -7: 1})


def test_markov_cyclic_invariance():
    rng = np.random.default_rng(23)
    for _ in range(8):
        w = random_word(rng, 4, 6)
        base = markov_bracket(w)
        for r in range(len(w)):
            rot = BraidWord(w.n, w.letters[r:] + w.letters[:r])
            assert markov_bracket(rot) == base


def test_disjoint_unknot_scales_by_loop_value():
    rng = np.random.default_rng(5)
    for _ in range(5):
        w = random_word(rng, 4, 6)
        wider_m = BraidWord(5, w.letters)
        assert markov_bracket(wider_m) == LOOP_VALUE * markov_bracket(w)
        wider_p = BraidWord(6, w.letters)
        assert plat_bracket(wider_p) == LOOP_VALUE * plat_bracket(w)


def test_exact_matches_numeric_evaluation():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        w = random_word(rng, n, int(rng.integers(1, 11)))
        a = build_su2k(int(rng.integers(2, 9))).A
        exact = markov_bracket(w)
        assert abs(exact(a) - markov_bracket(w, at=a)) < 1e-12
        if n % 2 == 0:
            assert abs(plat_bracket(w)(a) - plat_bracket(w, at=a)) < 1e-12


def test_state_sum_oracle():
    rng = np.random.default_rng(99)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        w = random_word(rng, n, int(rng.integers(0, 9)))
        assert state_sum_bracket(w, "markov") == markov_bracket(w)
        if n % 2 == 0:
            assert state_sum_bracket(w, "plat") == plat_bracket(w)


@st.composite
def braid_words(draw):
    n = draw(st.integers(4, 8))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=10))))


@settings(max_examples=100, deadline=None)
@given(word=braid_words())
def test_brackets_equal_the_state_sum(word):
    assert markov_bracket(word) == state_sum_bracket(word, "markov")
    if word.n % 2 == 0:
        assert plat_bracket(word) == state_sum_bracket(word, "plat")


def test_anyon_trace_is_one_for_equal_words():
    rng = np.random.default_rng(1)
    model = build_su2k(4)
    for _ in range(5):
        w = random_word(rng, 6, 5)
        assert abs(anyon_trace(model, 6, w, w) - 1.0) < 1e-12


@pytest.mark.parametrize("k", [2, 3, 5, 9])
def test_anyon_trace_three_step_cross_pair(k):
    # the symmetrized weight of the (010)/(100) pair at t = 3
    model = build_su2k(k)
    w_a = BraidWord(10, (4, 4, 4))
    w_b = BraidWord(10, (5, 5, 4))
    value = anyon_trace(model, 10, w_a, w_b) + anyon_trace(model, 10, w_b, w_a)
    theta = math.pi / (k + 2)
    expected = 2 * math.cos(2 * theta) * math.cos(3 * theta) / math.cos(theta)
    assert abs(value - expected) < 1e-12


def test_anyon_trace_modulus_bounded_for_walk_words():
    from anyonwalk.nonabelian import WalkGeometry, path_braid_word
    import itertools

    model = build_su2k(3)
    for t in (2, 3, 4):
        geom = WalkGeometry.for_steps(t)
        paths = [p for p in itertools.product((0, 1), repeat=t)]
        for a in paths:
            for b in paths:
                if sum(a) != sum(b) or a[-1] != b[-1]:
                    continue
                value = anyon_trace(
                    model, geom.n, path_braid_word(geom, a), path_braid_word(geom, b)
                )
                assert abs(value) <= 1.0 + 1e-10


def test_brackets_do_not_compose_whole_diagrams(monkeypatch):
    # the oracle's values are taken first: only state_sum_bracket composes
    rng = np.random.default_rng(8)
    words = [random_word(rng, int(rng.integers(2, 9)), int(rng.integers(11))) for _ in range(30)]
    oracle = [
        (state_sum_bracket(w, "markov"), state_sum_bracket(w, "plat") if w.n % 2 == 0 else None)
        for w in words
    ]

    def refuse(*args):
        raise AssertionError("a bracket stacked whole diagrams")

    monkeypatch.setattr(tl, "compose", refuse)
    test_skein_single_letter()
    test_skein_double_letter()
    test_plat_values()
    test_markov_values()
    assert skein_expand(BraidWord(3, (1, -1))) == {identity_diagram(3): LaurentPoly.one()}
    for w, (markov, plat) in zip(words, oracle):
        assert markov_bracket(w) == markov
        if plat is not None:
            assert plat_bracket(w) == plat


def test_skein_act_closes_a_loop_or_rejoins_partners():
    d, a, b = 3.0, 2.0, 5.0
    cups = (1, 0, 3, 2)  # (1,2)(3,4) on four points
    # points (0, 1) are already joined: e_1 closes a loop
    assert skein_act({cups: 1.0}, 1, a, b, d) == {cups: a + b * d}
    # points (1, 2) are not: e_2 joins them and their former partners 0 and 3
    assert skein_act({cups: 1.0}, 2, a, b, d) == {cups: a, (3, 2, 1, 0): b}
    # zero coefficients are kept; the caller prunes
    assert skein_act({cups: 1.0}, 1, -b * d, b, d) == {cups: 0.0}


def test_oversized_skein_expansion_is_refused_as_it_grows(monkeypatch):
    monkeypatch.setattr(tl, "BRACKET_MAX_SUPPORT", 8)
    word = BraidWord(8, (1, 2, 3, 4, 5, 6, 7))
    with pytest.raises(DomainError, match="tl.BRACKET_MAX_SUPPORT = 8"):
        markov_bracket(word)
    with pytest.raises(DomainError, match="tl.BRACKET_MAX_SUPPORT = 8"):
        skein_expand(word)


def test_refused_expansion_never_builds_past_the_budget(monkeypatch):
    budget = 8
    fits = BraidWord(8, (1, 3, 5, 1))  # 8 diagrams after the third letter, 8 after the fourth
    expected = markov_bracket(fits)
    monkeypatch.setattr(tl, "BRACKET_MAX_SUPPORT", budget)
    sizes = []
    act = tl.skein_act

    def recording(vec, i, ca, cb, delta, out=None):
        result = act(vec, i, ca, cb, delta, out)
        sizes.append(len(result))
        return result

    monkeypatch.setattr(tl, "skein_act", recording)
    word = BraidWord(8, (1, 2, 3, 4, 5, 6, 7))
    for bracket in (markov_bracket, skein_expand):
        sizes.clear()
        with pytest.raises(DomainError, match="tl.BRACKET_MAX_SUPPORT = 8"):
            bracket(word)
        # a map is refused as soon as it passes the budget, and one input
        # diagram adds at most two to it
        assert budget < max(sizes) <= budget + 2
    # a letter applied to a map over half the budget that stays within it
    sizes.clear()
    assert markov_bracket(fits) == expected
    assert max(sizes) == budget


def test_strand_count_is_capped_for_words_and_walks():
    from anyonwalk.nonabelian import WalkGeometry

    assert BraidWord(tl.MAX_STRANDS, (1, -2)).n == tl.MAX_STRANDS
    assert WalkGeometry(tl.MAX_STRANDS, 3).n == tl.MAX_STRANDS
    with pytest.raises(DomainError, match="tl.MAX_STRANDS"):
        BraidWord(tl.MAX_STRANDS + 1, (1,))
    with pytest.raises(DomainError, match="tl.MAX_STRANDS"):
        WalkGeometry(tl.MAX_STRANDS + 2, 3)
