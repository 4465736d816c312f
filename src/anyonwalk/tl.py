"""Planar diagram algebra and exact Kauffman-bracket evaluation of braid words.

Diagram encoding
----------------
A diagram on n strands is a planar perfect matching of 2n boundary points,
stored as a tuple M with M[p] the partner of p.  Points 0..n-1 run along the
bottom from left to right and points n..2n-1 along the top from *right to
left*, so the whole boundary is numbered counterclockwise and a matching is
planar exactly when its bracket sequence is balanced.  The top point above
bottom column c is 2n-1-c.

Braid words are flat sequences of nonzero letters, letter +i (-i) being a
positive (negative) crossing of strands i and i+1, first-applied letter
first, drawn at the bottom of the diagram.  A positive letter expands to
A*identity + A^-1*e_i, a negative one to A^-1*identity + A*e_i.  Each loop
is worth d = -A^2 - A^-2, a Laurent polynomial in exact mode.

``skein_act`` applies a letter at two adjacent points of a vector of
matchings; the brackets and the pathsum engine both evolve through it.  The
plat bracket evolves the n-point bottom cups (1,2)(3,4)... and pairs them
with the top cups; the Markov (trace) bracket evolves the identity, last
letter first, and joins each top point to the bottom point of its column.
Both are normalized so a single unknot has value 1.  ``compose``, which
stacks whole diagrams, serves only the state-sum oracle.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from dataclasses import dataclass

from .errors import DomainError, check_budget
from .laurent import LOOP_VALUE, LaurentPoly
from .models import AnyonModel

Matching = tuple[int, ...]


def is_planar_matching(match: Matching) -> bool:
    """True when ``match`` is a fixed-point-free involution with balanced nesting."""
    m = len(match)
    if any(not 0 <= match[p] < m or match[p] == p or match[match[p]] != p for p in range(m)):
        return False
    stack: list[int] = []
    for p in range(m):
        if p < match[p]:
            stack.append(match[p])
        elif not stack or stack.pop() != p:
            return False
    return True


def identity_diagram(n: int) -> Matching:
    return tuple(2 * n - 1 - p for p in range(2 * n))


def cup_cap_diagram(n: int, i: int) -> Matching:
    """The generator e_i: columns i and i+1 joined at bottom and at top (1-indexed)."""
    if not 1 <= i <= n - 1:
        raise DomainError(f"generator index {i} outside [1, {n - 1}]")
    match = list(identity_diagram(n))
    b1, b2 = i - 1, i
    t1, t2 = 2 * n - 1 - b1, 2 * n - 1 - b2
    match[b1], match[b2] = b2, b1
    match[t1], match[t2] = t2, t1
    return tuple(match)


@functools.lru_cache(maxsize=200_000)
def compose(upper: Matching, lower: Matching) -> tuple[Matching, int]:
    """Stack ``upper`` on top of ``lower``; return (matching, closed loops).

    The top boundary of ``lower`` is glued to the bottom boundary of
    ``upper`` column by column.
    """
    if len(upper) != len(lower):
        raise DomainError("cannot compose diagrams with different strand counts")
    m = len(lower)
    n = m // 2
    result = [-1] * m
    # Middle column c is lower's top point m-1-c glued to upper's bottom point c.
    seen = [False] * n

    def walk(side: int, p: int) -> tuple[int, int]:
        # side 0 = lower, 1 = upper; returns the exit (side, boundary point)
        while True:
            if side == 0:
                q = lower[p]
                if q < n:
                    return 0, q
                c = m - 1 - q
                seen[c] = True
                side, p = 1, c
            else:
                q = upper[p]
                if q >= n:
                    return 1, q
                seen[q] = True
                side, p = 0, m - 1 - q

    for start in range(m):
        if result[start] != -1:
            continue
        _, exit_pt = walk(0 if start < n else 1, start)
        result[start] = exit_pt
        result[exit_pt] = start

    loops = 0
    for c in range(n):
        if seen[c]:
            continue
        loops += 1
        cur = c
        while not seen[cur]:
            seen[cur] = True
            up = upper[cur]  # middle column reached inside upper
            seen[up] = True
            cur = m - 1 - lower[m - 1 - up]
    return tuple(result), loops


def plat_loops(match: Matching) -> int:
    """Loop count of the plat closure (neighboring columns capped top and bottom)."""
    m = len(match)
    n = m // 2
    if n % 2:
        raise DomainError("plat closure needs an even strand count")
    closure = [0] * m
    for j in range(0, n, 2):
        closure[j], closure[j + 1] = j + 1, j
        t1, t2 = m - 1 - j, m - 2 - j
        closure[t1], closure[t2] = t2, t1
    return _cycle_count(match, tuple(closure))


def markov_loops(match: Matching) -> int:
    """Loop count of the trace closure (each column joined top to bottom)."""
    m = len(match)
    return _cycle_count(match, identity_diagram(m // 2))


def _cycle_count(match: Matching, closure: Matching) -> int:
    seen = [False] * len(match)
    loops = 0
    for start in range(len(match)):
        if seen[start]:
            continue
        loops += 1
        p = start
        while not seen[p]:
            seen[p] = True
            q = match[p]
            seen[q] = True
            p = closure[q]
    return loops


#: most strands a braid word or a walk layout may have.  The diagram engines
#: hold n-point matchings and count up to n/2 loops per pairing, and the exact
#: brackets raise d once per distinct count as a Laurent polynomial, so the
#: cost grows with n as well as with the word.  At this bound an 8-letter
#: exact Markov bracket takes 0.04 s, a 13-step pathsum walk 0.5 s and a
#: 14-step one 0.8-1.2 s (CLI, new process) on a 2-core VM, the slowest of the
#: cases measured; at n = 1000 the same bracket takes 3.9 s.
#: Longer words are bounded by ``BRACKET_MAX_SUPPORT``, not by this cap.  No
#: walk needs more strands: pathsum stops at t = 14 (n = 30), dense at n = 42.
MAX_STRANDS = 128


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on n strands.

    ``letters`` holds signed generator indices in application order: letter
    +i crosses strands i and i+1 positively, -i negatively.
    """

    n: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"a braid word needs at least one strand, got n={self.n}")
        check_budget("tl.MAX_STRANDS", self.n, MAX_STRANDS, "strand count")
        for letter in self.letters:
            if letter == 0 or not 1 <= abs(letter) <= self.n - 1:
                raise DomainError(f"letter {letter} outside braid group on {self.n} strands")

    def __mul__(self, other: BraidWord) -> BraidWord:
        """Concatenation: ``self`` is applied first, then ``other``."""
        if self.n != other.n:
            raise DomainError("cannot multiply words on different strand counts")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.n, tuple(-l for l in reversed(self.letters)))

    def free_reduce(self) -> BraidWord:
        """Cancel adjacent mutually inverse letters until none remain."""
        stack: list[int] = []
        for letter in self.letters:
            if stack and stack[-1] == -letter:
                stack.pop()
            else:
                stack.append(letter)
        return BraidWord(self.n, tuple(stack))

    def __len__(self) -> int:
        return len(self.letters)


def _is_zero(c) -> bool:
    return c.is_zero() if isinstance(c, LaurentPoly) else c == 0


#: most diagrams a bracket expansion may hold; a wider one is refused as it grows.  The exact
#: Markov bracket of 1..16 on 40 strands reaches it in 1.4 s and 100 MB (CLI, 2-core VM).
BRACKET_MAX_SUPPORT = 2**16


def _loop_weight(at: complex | None):
    if at is None:
        return LOOP_VALUE
    return -(at**2) - at**-2


def skein_act(
    vec: dict[Matching, object], i: int, ca, cb, delta, out: dict[Matching, object] | None = None
) -> dict[Matching, object]:
    """Apply ca + cb*e_i to {planar matching: coefficient} at points (i-1, i).

    e_i closes a loop (weight cb*delta) on a matching that already joins the
    two points, and otherwise joins them and their former partners.
    Coefficients may be complex or LaurentPoly; zeros are kept.  The terms
    are added into ``out`` if given, else into a new map.
    """
    p, q = i - 1, i
    loop = cb * delta
    out = {} if out is None else out
    for diag, coeff in vec.items():
        if diag[p] == q:
            capped, weight = diag, loop
        else:
            a, b = diag[p], diag[q]
            match = list(diag)
            match[p], match[q], match[a], match[b] = q, p, b, a
            capped, weight = tuple(match), cb
        for key, term in ((diag, ca * coeff), (capped, weight * coeff)):
            out[key] = out[key] + term if key in out else term
    return out


def _evolve(start: Matching, letters, at: complex | None) -> dict[Matching, object]:
    """{start: 1} with the letters applied in turn; exact zeros are dropped."""
    delta = _loop_weight(at)
    a, a_inv = (LaurentPoly.monomial(1), LaurentPoly.monomial(-1)) if at is None else (at, 1 / at)
    vec: dict[Matching, object] = {start: LaurentPoly.one() if at is None else 1.0 + 0j}
    cap = _catalan(len(start) // 2)
    for letter in letters:
        ca, cb = (a, a_inv) if letter > 0 else (a_inv, a)
        if 2 * len(vec) <= BRACKET_MAX_SUPPORT:  # a letter at most doubles the support
            vec = skein_act(vec, abs(letter), ca, cb, delta)
        else:  # one diagram at a time, so the refusal comes before the map outgrows the budget
            out: dict[Matching, object] = {}
            for diag, coeff in vec.items():
                skein_act({diag: coeff}, abs(letter), ca, cb, delta, out)
                check_budget("tl.BRACKET_MAX_SUPPORT", len(out), BRACKET_MAX_SUPPORT,
                             "diagram count")
            vec = out
        vec = {m: c for m, c in vec.items() if not _is_zero(c)}
        assert len(vec) <= cap, "diagram support exceeded the Catalan bound"
    return vec


@functools.lru_cache(maxsize=None)
def _catalan(n: int) -> int:
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def _sum_by_loops(by_loops: dict[int, Counter], at: complex | None):
    """The sum over loop counts L of d^L times the polynomial {A exponent:
    coefficient} held at L, so d is raised once per distinct count."""
    delta = _loop_weight(at)
    total = LaurentPoly.zero() if at is None else 0j
    for loops, coeffs in by_loops.items():
        poly = LaurentPoly(coeffs)
        total = total + (poly if at is None else poly(at)) * delta ** loops
    return total


def _closed_sum(terms: dict[Matching, object], closure: Matching, at: complex | None):
    # Every closed diagram has at least one loop; folding one factor of d
    # into the normalization makes a single unknot evaluate to 1.
    if at is not None:  # a complex power is cheap, so diagram by diagram
        delta = _loop_weight(at)
        return sum((c * delta ** (_cycle_count(m, closure) - 1) for m, c in terms.items()), 0j)
    by_loops: dict[int, Counter] = defaultdict(Counter)
    for match, coeff in terms.items():
        by_loops[_cycle_count(match, closure) - 1].update(coeff.coeffs)
    return _sum_by_loops(by_loops, None)


def plat_bracket(word: BraidWord, at: complex | None = None):
    """Bracket of the plat closure; LaurentPoly if ``at`` is None, else complex."""
    if word.n % 2:
        raise DomainError("plat closure needs an even strand count")
    cups = tuple(p ^ 1 for p in range(word.n))  # (1,2)(3,4)... on n points
    return _closed_sum(_evolve(cups, word.letters, at), cups, at)


def markov_bracket(word: BraidWord, at: complex | None = None):
    """Bracket of the trace closure; LaurentPoly if ``at`` is None, else complex."""
    ident = identity_diagram(word.n)
    return _closed_sum(_evolve(ident, reversed(word.letters), at), ident, at)


def state_sum_bracket(word: BraidWord, closure: str, at: complex | None = None):
    """Brute-force bracket: smooth every crossing independently (2^c states).

    It stacks whole diagrams with ``compose``, independent of the skein
    action the other brackets use; an oracle for them.
    """
    if closure not in ("plat", "markov"):
        raise DomainError(f"unknown closure {closure!r}")
    loop_fn = plat_loops if closure == "plat" else markov_loops
    if closure == "plat" and word.n % 2:
        raise DomainError("plat closure needs an even strand count")
    n = word.n
    # states counted per loop count and A exponent; an identity piece changes
    # neither the diagram nor the loops, so only the cups are composed
    by_loops: dict[int, Counter] = defaultdict(Counter)
    for state in range(1 << len(word.letters)):
        diag = identity_diagram(n)
        loops = exponent = 0
        for pos, letter in enumerate(word.letters):
            sign = 1 if letter > 0 else -1
            if (state >> pos) & 1:
                diag, extra = compose(cup_cap_diagram(n, abs(letter)), diag)
                loops += extra
                exponent -= sign
            else:
                exponent += sign
        by_loops[loops + loop_fn(diag) - 1][exponent] += 1
    return _sum_by_loops(by_loops, at)


def anyon_trace(model: AnyonModel, n: int, word: BraidWord, word_p: BraidWord) -> complex:
    """Overlap of two braided vacuum-pair states via the plat closure.

    Equals 1 whenever ``word_p`` followed by the inverse of ``word`` reduces
    to the identity (no statistical effect).  Kept for ``HOOKED`` in
    ``tests/test_reach.py``.
    """
    if n % 2:
        raise DomainError("vacuum-pair states need an even strand count")
    if word.n != n or word_p.n != n:
        raise DomainError("words must live on the stated strand count")
    combined = (word * word_p.inverse()).free_reduce()
    value = plat_bracket(combined, at=model.A)
    return value / model.d ** (n // 2 - 1)
